"""query_local: one process, one MMDR + extended-iDistance index.

80,000 x 64-d GCD data (4 clusters, 4 retained dims, the shape of
``benchmarks/test_throughput.py``) on the in-memory page store with a PQ
encoder attached.  The index (~800 pages) exceeds the 512-page buffer
pool, so the query engine, B+-tree, buffer pool, kernels and encoder do
nearly all the work; serve, ingest and WAL do none.

A run is ``scale.setups`` blocks.  Each block sets up from the generated
inputs (reduce, build, train the encoder; the median of the blocks is
``setup_s``), checks every query of the pool against a
``SequentialScan`` over the same reduction (which also warms the pool),
and then runs its share of the timed rounds.  A round is a closed loop of
per-query ``knn``, then ``knn_batch`` of 64 rows interleaved with the
numpy floor, then per-query ``knn(mode="approx")``.  The first block also
makes one more untimed pass for the exact logical counts.  Every exact
answer is compared with the oracle, every batch row with the ``knn`` row.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from common import (
    BATCH_SPANS,
    K,
    QUERY_SPANS,
    Floor,
    Ledger,
    Outcome,
    Phase,
    SetupClock,
    gcd_inputs,
    kmeans_iterations,
    linalg_kernels,
    median,
    peak_rss_mb,
    rate_ratio,
    recall,
    reduce_points,
    reset_peak_rss,
    rows_equal,
    self_ms_per_query,
    span_count,
    topk_sane,
)


@dataclass(frozen=True)
class Scale:
    n_points: int = 80_000
    dims: int = 64
    n_queries: int = 256
    batch: int = 64
    setups: int = 3


FULL = Scale()
TINY = Scale(n_points=3_000, dims=16, n_queries=32, batch=16, setups=2)

#: Timed rounds per run, and each operation's share of a round.
ROUNDS = 12
SHARE_KNN, SHARE_BATCH, SHARE_APPROX = 0.55, 0.30, 0.15

def set_up(points, reduce_seed, encode_seed, tracer=None):
    """Inputs to ready: reduce, build, train the encoder.  Returns the
    index, the reduction and the three phase times."""
    from repro.encode import EncoderConfig
    from repro.index.idistance import ExtendedIDistance

    t0 = time.perf_counter()
    reduced = reduce_points(points, reduce_seed, tracer)
    t1 = time.perf_counter()
    index = ExtendedIDistance(reduced)
    t2 = time.perf_counter()
    index.attach_encoder(EncoderConfig(), seed=encode_seed, tracer=tracer)
    t3 = time.perf_counter()
    return index, reduced, (t1 - t0, t2 - t1, t3 - t2)


class Loops:
    """The timed closed loops of one run over whichever index is live.

    With tracing, every other operation gets its loop's tracer; untraced
    and traced samples are kept apart so the difference is the tracing
    overhead.
    """

    def __init__(self, queries, ref, batch, trace, ledger, floor):
        from repro.obs import Tracer

        self.queries, self.ref, self.batch = queries, ref, batch
        self.ledger, self.floor = ledger, floor
        self.exact = list(ref)
        names = ("knn", "batch", "approx")
        self.phase = {"knn": Phase(calibrate=True),
                      "batch": Phase(calibrate=True),
                      "approx": Phase(), "floor": Phase()}
        self.traced = {n: Phase() for n in names}
        self.tracer = {n: Tracer() if trace else None for n in names}
        self.recalls = []
        self.i = 0

    def _pick(self, name):
        """Alternate untraced and traced operations (traced runs only);
        the parity flips every pass over the pool, so each query is
        traced as often as not."""
        self.i += 1
        n_q = self.queries.shape[0]
        if self.tracer[name] is not None and (self.i + self.i // n_q) % 2:
            return self.traced[name], self.tracer[name]
        return self.phase[name], None

    def check_pass(self, index) -> None:
        """One untimed knn per pool query, in order, against the oracle."""
        for i, q in enumerate(self.queries):
            res = self.ledger.call("knn", index.knn, q, K)
            if res is not None:
                self.ledger.check("knn vs SequentialScan",
                                  rows_equal(res.ids, res.distances,
                                             *self.ref[i]))
                self.exact[i] = (res.ids, res.distances)

    def round(self, index, seconds: float) -> None:
        for phase in list(self.phase.values()) + list(self.traced.values()):
            phase.next_round()
        n_q = self.queries.shape[0]

        deadline = time.perf_counter() + SHARE_KNN * seconds
        while time.perf_counter() < deadline:
            q_i = self.i % n_q
            phase, tracer = self._pick("knn")
            t0 = time.perf_counter()
            res = self.ledger.call("knn", index.knn, self.queries[q_i], K,
                                   tracer=tracer)
            dt = time.perf_counter() - t0
            if res is not None:
                phase.add(dt, key=q_i)
                self.ledger.check("knn vs SequentialScan", rows_equal(
                    res.ids, res.distances, *self.ref[q_i]))

        n_batches = n_q // self.batch
        deadline = time.perf_counter() + SHARE_BATCH * seconds
        while time.perf_counter() < deadline:
            lo = (self.i % n_batches) * self.batch
            rows = self.queries[lo: lo + self.batch]
            phase, tracer = self._pick("batch")
            t0 = time.perf_counter()
            res = self.ledger.call("knn_batch", index.knn_batch, rows, K,
                                   tracer=tracer)
            dt = time.perf_counter() - t0
            t0 = time.perf_counter()
            self.floor.knn(rows)
            self.phase["floor"].add(time.perf_counter() - t0, len(rows))
            if res is not None:
                phase.add(dt, len(rows))
                self.ledger.check("knn_batch vs knn", all(
                    rows_equal(res.ids[r], res.distances[r],
                               *self.exact[lo + r])
                    for r in range(len(rows))))

        live = range(index.reduced.n_points)
        deadline = time.perf_counter() + SHARE_APPROX * seconds
        while time.perf_counter() < deadline:
            q_i = self.i % n_q
            phase, tracer = self._pick("approx")
            t0 = time.perf_counter()
            res = self.ledger.call("knn approx", index.knn,
                                   self.queries[q_i], K, tracer=tracer,
                                   mode="approx")
            dt = time.perf_counter() - t0
            if res is not None:
                phase.add(dt)
                self.ledger.check("approx answer",
                                  topk_sane(res.ids, res.distances, K, live))
                self.recalls.append(recall(res.ids, self.ref[q_i][0]))


def count_pass(index, loops, tracer):
    """Exact logical counts per query from a deterministic warm state."""
    n_q = loops.queries.shape[0]
    before = index.counters.snapshot()
    pool0 = index.storage_stats()
    stats = []
    for q in loops.queries:
        res = loops.ledger.call("knn", index.knn, q, K, tracer=tracer)
        if res is not None:
            stats.append(res.stats)
    delta = index.counters.snapshot() - before
    pool1 = index.storage_stats()
    hits = pool1["buffer_hits"] - pool0["buffer_hits"]
    misses = pool1["buffer_misses"] - pool0["buffer_misses"]
    dists = sum(s.distance_computations for s in stats)
    return {
        "index.distance_computations": dists / n_q,
        "btree.key_comparisons": sum(s.key_comparisons for s in stats) / n_q,
        "storage.page_reads": sum(s.page_reads for s in stats) / n_q,
        "storage.logical_reads": delta.logical_reads / n_q,
        "storage.buffer_hit_rate": hits / max(1, hits + misses),
        "index.pages": index.size_pages,
        "index.dists_per_result": dists / n_q / K,
    }


def run(seed: int, seconds: float, trace: bool, scale: Scale, work_dir):
    """One run; ``work_dir`` is unused (this workload keeps no files)."""
    from repro.index.seqscan import SequentialScan
    from repro.obs import Tracer

    points, queries, (reduce_seed, encode_seed) = gcd_inputs(
        seed, scale.n_points, scale.dims, scale.n_queries, 2
    )
    ledger = Ledger()
    gc.collect()
    reset_peak_rss()
    setup_tracer = Tracer() if trace else None
    count_tracer = Tracer() if trace else None
    blocks = 1 if trace else scale.setups
    round_s = seconds / ROUNDS

    clock, phases = SetupClock(), []
    loops = None
    index = reduced = None
    for block in range(blocks):
        index = reduced = None
        gc.collect()
        with clock.timing():
            index, reduced, phase = set_up(points, reduce_seed, encode_seed,
                                           setup_tracer)
        phases.append(phase)
        if loops is None:
            # The oracle: a sequential scan over the same reduction (the
            # reduction is seeded, so every block's is identical).
            scan = SequentialScan(reduced)
            ref, scan_lat = [], []
            for q in queries:
                t0 = time.perf_counter()
                res = scan.knn(q, K)
                scan_lat.append(time.perf_counter() - t0)
                ref.append((res.ids, res.distances))
            del scan
            loops = Loops(queries, ref, scale.batch, trace, ledger,
                          Floor(points))
        index.reset_cache()
        loops.check_pass(index)
        if block == 0:
            counts = count_pass(index, loops, count_tracer)
        for _ in range(ROUNDS // blocks):
            loops.round(index, round_s)

    ph = loops.phase
    details = {
        "counts": counts,
        "query_samples": len(ph["knn"].samples),
        "calibration_ms": ph["knn"].calibration_ms(),
        "query_p50_raw_ms": ph["knn"].p50_ms(),
        "query_p95_ms": ph["knn"].quantile_ms(0.95),
        "batch_raw_qps": ph["batch"].rate(),
        "query_p99_ms": ph["knn"].quantile_ms(0.99),
        "floor_qps": ph["floor"].rate(),
        "approx_p50_ms": ph["approx"].p50_ms(),
        "recall_at_k": float(np.mean(loops.recalls)),
        "error_rate": ledger.error_rate,
        "setup_raw_s": median(clock.raw),
    }
    if not trace:
        metrics = {
            "setup_s": median(clock.at_ref),
            "query_p50_ms": ph["knn"].quantile_ms_at_ref(0.5),
            "query_p90_ms": ph["knn"].query_tail_ms_at_ref(0.9),
            "batch_qps": ph["batch"].rate_at_ref(),
            "floor_ratio": rate_ratio(ph["batch"], ph["floor"]),
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(metrics, details, ledger)

    reduce_s, build_s, train_s = phases[0]
    traced, tracers = loops.traced, loops.tracer
    n_approx = len(traced["approx"].samples)
    metrics = {
        "core.reduce_s": reduce_s,
        "core.subspaces": len(reduced.subspaces),
        "core.outlier_frac": reduced.outliers.size / reduced.n_points,
        "core.mean_retained_dims": reduced.mean_reduced_dim(),
        "cluster.kmeans_iterations": kmeans_iterations(setup_tracer.spans),
        "index.build_s": build_s,
        "index.radius_expansions": span_count(
            count_tracer.spans, "knn.expand_radius") / scale.n_queries,
        "index.partitions_probed": span_count(
            count_tracer.spans, "knn.probe_partition") / scale.n_queries,
        "index.seqscan_p50_ms": 1e3 * median(scan_lat),
        "encode.train_s": train_s,
        "encode.candidates": sum(
            s.attributes.get("candidates", 0)
            for s in tracers["approx"].spans if s.name == "knn.approx.rerank"
        ) / max(1, n_approx),
        "encode.approx_p50_ms": details["approx_p50_ms"],
        "encode.recall_at_k": details["recall_at_k"],
        "obs.trace_overhead_frac":
            traced["knn"].p50_ms() / ph["knn"].p50_ms() - 1.0,
    }
    metrics.update(counts)
    metrics.update(self_ms_per_query(
        tracers["knn"].spans, QUERY_SPANS, len(traced["knn"].samples),
        "index.query_self_ms."))
    metrics.update(self_ms_per_query(
        tracers["batch"].spans, BATCH_SPANS,
        sum(traced["batch"].rows), "index.batch_self_ms."))
    approx_self = self_ms_per_query(
        tracers["approx"].spans, ("knn.approx.scan", "knn.approx.rerank"),
        n_approx, "")
    metrics["encode.scan_ms"] = approx_self["knn.approx.scan"]
    metrics["encode.rerank_ms"] = approx_self["knn.approx.rerank"]
    metrics.update(linalg_kernels(reduced, queries[: scale.batch],
                                  index.pool.capacity_pages))
    return Outcome(metrics, details, ledger,
                   [setup_tracer, count_tracer, *tracers.values()])
