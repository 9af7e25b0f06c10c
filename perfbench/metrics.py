"""Every metric the benchmark prints, and what each per-layer metric
should move.

``BENCHMARK.json`` lists the same names, units and directions; the
self-tests keep the two in step.  End-to-end metrics are measured with
tracing off and exist on every workload; ``about`` defines them.
Per-layer metrics come from the traced run (``--trace 1``); each names
the workloads that exercise its layer (``where``) and, in ``about``, the
end-to-end metric it should move and on which workload.  On a workload
that does not exercise the layer it reads 0: that layer did no measured
work there, which is the point of having a workload that bypasses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

QL, SS, IC = "query_local", "serve_sharded", "ingest_churn"
WORKLOADS = (QL, SS, IC)
ALL = WORKLOADS

#: Why each workload exists (one line each, also in BENCHMARK.json).
WHY = {
    QL: "80k x 64-d iMMDR index of ~800 pages over a 512-page pool: query "
        "engine, B+-tree, buffer pool, kernels and PQ encoder do the work; "
        "serve, ingest and WAL do none",
    SS: "20k x 64-d iMMDR on 2 partition shards that fit their pools: index "
        "work per request is small, so the router path (validate, frame, "
        "worker, merge) dominates",
    IC: "5k x 32-d iMMDR under a seeded half-insert half-delete stream with "
        "reads between writes: mutation path, oplog, WAL, drift checks and "
        "MMDR reorgs do the work",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0
    where: Tuple[str, ...] = ALL
    about: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           about="inputs to ready: reduce + build (+ encoder on "
                 "query_local; + plan, prepare, fork and first correct "
                 "answer on serve_sharded; IngestPipeline.create on "
                 "ingest_churn); median of 3 set-ups, each at reference "
                 "host speed by calibrations just before and after it"),
    Metric("query_p50_ms", "ms", "lower", 0.25,
           about="one-query request: VectorIndex.knn / Router.knn of one "
                 "row / IngestPipeline.knn between write calls; median over "
                 "rounds of each round's median at reference host speed"),
    Metric("query_p90_ms", "ms", "lower", 0.25,
           about="same requests; p90 over the distinct queries of each "
                 "query's median latency (every query repeated through the "
                 "run), samples at reference host speed"),
    Metric("batch_qps", "queries/s", "higher", 0.25,
           about="closed-loop batched reads: knn_batch of 64 rows / "
                 "Router.knn of 8 rows / IngestPipeline.knn_batch of 8 "
                 "rows; median over rounds at reference host speed"),
    Metric("floor_ratio", "ratio", "higher", 0.25,
           about="batch rate over a numpy gemm + argpartition floor on the "
                 "raw vectors, same queries and batch size, same round; "
                 "median over rounds"),
    Metric("peak_rss_mb", "MB", "lower", 0.20,
           about="peak resident set of the driving process from the end "
                 "of input generation to the end of the timed work"),
)

PER_LAYER = (
    # core / cluster
    Metric("core.reduce_s", "s", "lower",
           about="setup_s (all); ingest.reorg_s (ingest_churn)"),
    Metric("core.subspaces", "count", "lower",
           about="query_p50_ms (query_local)"),
    Metric("core.outlier_frac", "fraction", "lower",
           about="query_p50_ms (query_local)"),
    Metric("core.mean_retained_dims", "dims", "lower",
           about="query_p50_ms (query_local)"),
    Metric("cluster.kmeans_iterations", "count", "lower",
           about="setup_s (all); ingest.reorg_s (ingest_churn)"),
    # index
    Metric("index.build_s", "s", "lower",
           about="setup_s (all); peak_rss_mb"),
    Metric("index.pages", "pages", "lower",
           about="setup_s; peak_rss_mb; query_p99_ms (query_local)"),
    Metric("index.query_self_ms.knn.query", "ms", "lower", where=(QL, IC),
           about="query_p50_ms / query_p99_ms (query_local)"),
    Metric("index.query_self_ms.knn.probe_partition", "ms", "lower",
           where=(QL, IC), about="query_p50_ms (query_local)"),
    Metric("index.query_self_ms.knn.expand_radius", "ms", "lower",
           where=(QL, IC), about="query_p50_ms (query_local)"),
    Metric("index.batch_self_ms.knn.batch.project_queries", "ms", "lower",
           about="batch_qps (query_local); query_p50_ms (serve_sharded)"),
    Metric("index.batch_self_ms.knn.batch.expand_radius", "ms", "lower",
           about="batch_qps (query_local); query_p50_ms (serve_sharded)"),
    Metric("index.batch_self_ms.knn.batch.settle", "ms", "lower",
           about="batch_qps (query_local); query_p50_ms (serve_sharded)"),
    Metric("index.distance_computations", "count/query", "lower",
           about="query_p50_ms (query_local)"),
    Metric("index.radius_expansions", "count/query", "lower",
           where=(QL, IC), about="query_p50_ms (query_local)"),
    Metric("index.partitions_probed", "count/query", "lower",
           where=(QL, IC), about="query_p50_ms (query_local)"),
    Metric("index.dists_per_result", "count", "lower",
           about="query_p50_ms (query_local)"),
    Metric("index.seqscan_p50_ms", "ms", "lower", where=(QL,),
           about="none: reference; iMMDR query_p50_ms should reach it"),
    # btree
    Metric("btree.key_comparisons", "count/query", "lower",
           about="query_p50_ms (query_local)"),
    # storage
    Metric("storage.page_reads", "pages/query", "lower",
           about="query_p99_ms (query_local, index exceeds the pool)"),
    Metric("storage.logical_reads", "pages/query", "lower", where=(QL, IC),
           about="query_p50_ms (query_local)"),
    Metric("storage.buffer_hit_rate", "fraction", "higher", where=(QL, IC),
           about="query_p99_ms (query_local); not serve_sharded (fits)"),
    Metric("storage.wal_bytes_per_op", "bytes/op", "lower", where=(IC,),
           about="ingest.write_p50_ms (ingest_churn)"),
    Metric("storage.wal_records_per_op", "records/op", "lower", where=(IC,),
           about="ingest.write_p50_ms (ingest_churn)"),
    # linalg
    Metric("linalg.batch_l2_rows_ms", "ms", "lower",
           about="batch_qps (query_local)"),
    Metric("linalg.flat_l2_ms", "ms", "lower",
           about="batch_qps (query_local)"),
    Metric("linalg.cold_lru_ms", "ms", "lower",
           about="batch_qps (query_local)"),
    # encode
    Metric("encode.train_s", "s", "lower", where=(QL,),
           about="setup_s (query_local)"),
    Metric("encode.scan_ms", "ms", "lower", where=(QL,),
           about="encode.approx_p50_ms (query_local)"),
    Metric("encode.rerank_ms", "ms", "lower", where=(QL,),
           about="encode.approx_p50_ms (query_local)"),
    Metric("encode.candidates", "count/query", "lower", where=(QL,),
           about="encode.approx_p50_ms; encode.recall_at_k (query_local)"),
    Metric("encode.approx_p50_ms", "ms", "lower", where=(QL,),
           about="user-visible approx latency at the default rerank_depth"),
    Metric("encode.recall_at_k", "fraction", "higher", where=(QL,),
           about="user-visible approx quality against exact answers"),
    # serve
    Metric("serve.worker_ms", "ms", "lower", where=(SS,),
           about="query_p50_ms (serve_sharded)"),
    Metric("serve.overhead_ms", "ms", "lower", where=(SS,),
           about="query_p50_ms (serve_sharded)"),
    Metric("serve.frame_us", "us", "lower", where=(SS,),
           about="query_p50_ms; batch_qps (serve_sharded)"),
    Metric("serve.frame_bytes", "bytes", "lower", where=(SS,),
           about="query_p50_ms; batch_qps (serve_sharded)"),
    Metric("serve.merge_us", "us", "lower", where=(SS,),
           about="query_p50_ms; batch_qps (serve_sharded)"),
    Metric("serve.retries", "count", "lower", where=(SS,),
           about="error rate (serve_sharded)"),
    Metric("serve.hedges", "count", "lower", where=(SS,),
           about="error rate (serve_sharded)"),
    Metric("serve.respawns", "count", "lower", where=(SS,),
           about="error rate (serve_sharded)"),
    Metric("serve.shed", "count", "lower", where=(SS,),
           about="error rate (serve_sharded)"),
    # ingest
    Metric("ingest.apply_ms", "ms/op", "lower", where=(IC,),
           about="ingest.write_p50_ms (ingest_churn)"),
    Metric("ingest.drift_check_ms", "ms", "lower", where=(IC,),
           about="ingest.write_p50_ms (ingest_churn)"),
    Metric("ingest.reorgs", "count", "lower", where=(IC,),
           about="ingest.write_ops_per_s (ingest_churn)"),
    Metric("ingest.reorg_reduce_share", "fraction", "lower", where=(IC,),
           about="ingest.reorg_s (ingest_churn)"),
    Metric("ingest.write_ops_per_s", "ops/s", "higher", where=(IC,),
           about="user-visible write capacity incl. reorgs and checkpoints"),
    Metric("ingest.write_p50_ms", "ms", "lower", where=(IC,),
           about="user-visible apply_batch latency, reorg calls excluded"),
    Metric("ingest.write_p99_ms", "ms", "lower", where=(IC,),
           about="user-visible apply_batch tail, reorg calls excluded"),
    Metric("ingest.reorg_s", "s", "lower", where=(IC,),
           about="user-visible stall of a reorg call (median wall_seconds)"),
    # persist / recovery
    Metric("persist.checkpoint_s", "s", "lower", where=(IC,),
           about="ingest.write_ops_per_s (ingest_churn)"),
    Metric("recovery.open_s", "s", "lower", where=(IC,),
           about="setup_s (serve_sharded workers boot through recover)"),
    Metric("recovery.ops_replayed", "count", "lower", where=(IC,),
           about="recovery.open_s (ingest_churn)"),
    # obs
    Metric("obs.trace_overhead_frac", "fraction", "lower",
           about="none: traced over untraced median latency minus 1, must "
                 "stay near 0"),
)


def names(trace: bool) -> Tuple[str, ...]:
    return tuple(m.name for m in (PER_LAYER if trace else END_TO_END))


def units(trace: bool):
    return {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}


def owned(workload: str, trace: bool) -> Tuple[str, ...]:
    """The metrics a workload measures itself (the rest read 0)."""
    metrics = PER_LAYER if trace else END_TO_END
    return tuple(m.name for m in metrics if workload in m.where)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this registry implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


RUN_SECONDS = 16
