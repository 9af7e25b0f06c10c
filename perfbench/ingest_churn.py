"""ingest_churn: writes beside reads through ``IngestPipeline``.

A 5,000 x 32-d GCD base on iMMDR, the in-memory page store and the
pipeline's default WAL flush policy (buffered writes, no fsync; the same
on every commit).  The seeded stream is ``scale.calls`` write calls, each
``apply_batch`` of 8 ops (4 inserts, 4 deletes, so the live set size
holds) followed by one ``knn`` and one 8-row ``knn_batch``; every
``scale.checkpoint_every`` calls a ``checkpoint()``.  Inserts are cluster
members plus jitter orthogonal to the member's subspace (the recipe of
``benchmarks/test_ingest.py``), which drives the live MPE until the drift
trigger runs an automatic reorg; deletes remove random live rids.

The stream has a fixed length rather than a fixed duration: reorg cost
grows as the data drifts, so only an identical op stream gives
comparable runs and exact counts (``--seconds`` is not used).

Oracles: every read between writes must be the exact top-k of a
``SequentialScan`` that the benchmark keeps beside the pipeline
(:class:`ScanOracle`): it scans the reduction the live generation was
built from and takes the same inserts and deletes.  Inserts share their
member's projection, so ties are common; ``common.neighbours_match``
accepts any tied rid at the k-th place.  At the end an explicit
``reorg()``, then the ``live_vectors()`` keys must equal the ledger and
the answers must match ``batch_fingerprint`` of a fresh
``build_from_vectors``; again after ``close()`` and ``open()``.
"""

from __future__ import annotations

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
    neighbours_match,
    peak_rss_mb,
    rate_ratio,
    reduce_points,
    reset_peak_rss,
    self_ms_per_query,
    span_count,
)

SCHEME = "iMMDR"

#: The stream is cut into this many rounds of calls for the per-round
#: medians.
ROUNDS = 7


@dataclass(frozen=True)
class Scale:
    n_points: int = 5_000
    dims: int = 32
    n_queries: int = 256
    calls: int = 700
    ops_per_call: int = 8
    batch: int = 8
    checkpoint_every: int = 100
    setups: int = 3
    #: The 1-row reads cycle over this many queries of the pool, so that
    #: each is repeated ~10 times (for ``Phase.query_tail_ms_at_ref``).
    read_pool: int = 64


FULL = Scale()
TINY = Scale(n_points=1_000, dims=32, n_queries=32, calls=60,
             checkpoint_every=20, setups=2, read_pool=8)


def op_stream(base: np.ndarray, subspaces, scale: Scale, stream_seed: int):
    """The seeded write calls.  Inserts: a cluster member plus fixed-norm
    jitter orthogonal to that member's subspace, so the insert stays in
    the B+-tree key space while the live MPE drifts.  Deletes: random
    rids of the live set as the stream itself evolves it."""
    rng = np.random.default_rng(stream_seed)
    live = list(range(base.shape[0]))
    next_rid = base.shape[0]
    calls = []
    half = scale.ops_per_call // 2
    for _ in range(scale.calls):
        ops = []
        for _ in range(half):
            sub = subspaces[int(rng.integers(len(subspaces)))]
            member = base[int(sub.member_ids[
                int(rng.integers(sub.member_ids.size))])]
            jitter = rng.normal(0.0, 1.0, base.shape[1])
            jitter -= sub.basis @ (sub.basis.T @ jitter)
            jitter *= 0.15 / np.linalg.norm(jitter)
            ops.append(("insert", member + jitter, next_rid, 5.0))
            live.append(next_rid)
            next_rid += 1
        for _ in range(half):
            i = int(rng.integers(len(live)))
            live[i], live[-1] = live[-1], live[i]
            ops.append(("delete", live.pop()))
        calls.append(ops)
    return calls


class TimedReduce:
    """The benchmark-supplied ``reduce_fn``; logs every call's wall time
    (the pipeline calls it inside every reorg)."""

    def __init__(self, reduce_seed: int, tracer=None) -> None:
        self.reduce_seed = reduce_seed
        self.tracer = tracer
        self.seconds = []

    def __call__(self, points: np.ndarray):
        t0 = time.perf_counter()
        out = reduce_points(points, self.reduce_seed, self.tracer)
        self.seconds.append(time.perf_counter() - t0)
        return out


class ScanOracle:
    """The exact answers the pipeline must give between writes.

    A ``SequentialScan`` over the reduction of the pipeline's live
    generation, fed the same acknowledged inserts and deletes.  Its rid
    map is the benchmark's own: a generation's rows are the live global
    rids in sorted order (the layout of ``build_from_vectors``), and each
    insert appends one local rid.  It is rebuilt whenever the pipeline
    publishes a new generation, which happens at the end of a write call,
    after all of the call's ops.
    """

    def __init__(self) -> None:
        self.generation = None
        self.scan = None

    def follow(self, pipe, ops, acked) -> None:
        from repro.index.seqscan import SequentialScan

        if pipe.generation != self.generation:
            self.generation = pipe.generation
            self.scan = SequentialScan(pipe.index.reduced)
            self.global_of = sorted(acked)
            self.local_of = {r: i for i, r in enumerate(self.global_of)}
            return
        for op in ops:
            if op[0] == "insert":
                _, point, rid, beta = op
                self.local_of[rid] = len(self.global_of)
                self.scan.insert(point, self.local_of[rid], beta=beta)
                self.global_of.append(rid)
            else:
                self.scan.delete(self.local_of[op[1]])

    def answers(self, queries):
        """``[(global ids, distances)]``, one pair per query row, ``2 K``
        deep so that ties at the k-th place are in view."""
        res = self.scan.knn_batch(np.atleast_2d(queries), 2 * K)
        rid_map = np.asarray(self.global_of, dtype=np.int64)
        return [(rid_map[res.ids[r]], res.distances[r])
                for r in range(res.ids.shape[0])]


def fingerprint_check(ledger: Ledger, label: str, pipe, queries, acked,
                      reduce_fn) -> float:
    """Live keys equal the ledger; answers equal a fresh build's.
    Returns the fresh build's wall seconds, reduction excluded."""
    from repro.ingest import (
        batch_fingerprint,
        build_from_vectors,
        translate_ids,
    )

    live = pipe.live_vectors()
    ledger.check(f"{label}: live rids vs ledger", set(live) == acked)
    t0 = time.perf_counter()
    fresh, _, rid_map = build_from_vectors(live, reduce_fn, SCHEME)
    build_s = time.perf_counter() - t0 - reduce_fn.seconds[-1]
    try:
        ref = fresh.knn_batch(queries, K)
        got = ledger.call(f"{label}: knn_batch", pipe.knn_batch, queries, K)
        if got is not None:
            ledger.check(
                f"{label}: answers vs fresh build",
                batch_fingerprint(got.ids, got.distances)
                == batch_fingerprint(translate_ids(ref.ids, rid_map),
                                     ref.distances),
            )
    finally:
        fresh.store.close()
    return build_s


def run(seed: int, seconds: float, trace: bool, scale: Scale, work_dir):
    """One run; ``seconds`` is unused (see the module docstring)."""
    from repro.index.base import DEFAULT_POOL_PAGES
    from repro.ingest import IngestPipeline, translate_ids
    from repro.obs import Tracer

    base, queries, (reduce_seed, stream_seed) = gcd_inputs(
        seed, scale.n_points, scale.dims, scale.n_queries, 2
    )
    n_q, b = queries.shape[0], scale.batch
    calls = op_stream(base, reduce_points(base, reduce_seed).subspaces,
                      scale, stream_seed)
    reset_peak_rss()
    ledger = Ledger()
    reduce_tracer = Tracer() if trace else None
    reduce_fn = TimedReduce(reduce_seed, reduce_tracer)

    clock = SetupClock()
    pipe = None
    for s in range(1 if trace else scale.setups):
        if pipe is not None:
            pipe.close()
        with clock.timing():
            pipe, _ = IngestPipeline.create(work_dir / f"setup{s}", base,
                                            reduce_fn, SCHEME)
    root = work_dir / f"setup{len(clock.raw) - 1}"
    setup_reduce_s = reduce_fn.seconds[-1]

    acked = set(range(scale.n_points))
    oracle = ScanOracle()
    oracle.follow(pipe, (), acked)
    floor = Floor(base)
    query_tracer = Tracer() if trace else None
    batch_tracer = Tracer() if trace else None
    one, batch = Phase(calibrate=True), Phase(calibrate=True)
    floor_ph, one_traced, batch_traced = Phase(), Phase(), Phase()
    phases = (one, batch, floor_ph, one_traced, batch_traced)
    write_lat, apply_ms, drift_ms, ckpt_s = [], [], [], []
    write_s = 0.0
    acked_ops = 0
    reorg_reduce_s = 0.0
    wal_bytes = wal_records = wal_ops = 0
    reads = np.zeros(6, dtype=np.int64)
    try:
        for c, ops in enumerate(calls):
            if c % (scale.calls // ROUNDS) == 0:
                for phase in phases:
                    phase.next_round()
            generation = pipe.generation
            wal0 = pipe.index.wal.stats()
            n_reduce = len(reduce_fn.seconds)
            t0 = time.perf_counter()
            trigger = ledger.call("apply_batch", pipe.apply_batch, ops)
            dt = time.perf_counter() - t0
            write_s += dt
            if trigger is not None:
                acked_ops += len(ops)
                for op in ops:
                    if op[0] == "insert":
                        acked.add(op[2])
                    else:
                        acked.discard(op[1])
                oracle.follow(pipe, ops, acked)
            if pipe.generation != generation:
                reorg_reduce_s += sum(reduce_fn.seconds[n_reduce:])
            else:
                write_lat.append(dt)
                apply_ms.append(1e3 * dt / len(ops))
                wal1 = pipe.index.wal.stats()
                wal_bytes += wal1["bytes"] - wal0["bytes"]
                wal_records += wal1["records"] - wal0["records"]
                wal_ops += len(ops)
            if trace:
                t0 = time.perf_counter()
                pipe.check_drift()
                drift_ms.append(1e3 * (time.perf_counter() - t0))

            # One 1-row read: untraced through the pipeline, or (every
            # other call of a traced run) the same search on its index.
            q_i = c % scale.read_pool
            q = queries[q_i]
            traced = trace and (c + c // scale.read_pool) % 2 == 1
            before = pipe.index.counters.snapshot()
            pool0 = pipe.index.storage_stats()
            t0 = time.perf_counter()
            if traced:
                res = ledger.call("knn", pipe.index.knn, q, K,
                                  tracer=query_tracer)
                ids = None if res is None else translate_ids(res.ids,
                                                             pipe.rid_map)
            else:
                res = ledger.call("knn", pipe.knn, q, K)
                ids = None if res is None else res.ids
            dt = time.perf_counter() - t0
            delta = pipe.index.counters.snapshot() - before
            pool1 = pipe.index.storage_stats()
            reads += (delta.distance_computations, delta.key_comparisons,
                      delta.total_page_reads, delta.logical_reads,
                      pool1["buffer_hits"] - pool0["buffer_hits"],
                      pool1["buffer_misses"] - pool0["buffer_misses"])
            if res is not None:
                (one_traced if traced else one).add(dt, key=q_i)
                ledger.check("knn between writes vs SequentialScan",
                             neighbours_match(ids, res.distances,
                                              *oracle.answers(q)[0], K))

            # One 8-row batched read, then the floor on the same rows.
            lo = (c * b) % n_q
            rows = queries[lo: lo + b]
            t0 = time.perf_counter()
            if traced:
                res = ledger.call("knn_batch", pipe.index.knn_batch, rows,
                                  K, tracer=batch_tracer)
                ids = None if res is None else translate_ids(res.ids,
                                                             pipe.rid_map)
            else:
                res = ledger.call("knn_batch", pipe.knn_batch, rows, K)
                ids = None if res is None else res.ids
            dt = time.perf_counter() - t0
            t0 = time.perf_counter()
            floor.knn(rows)
            floor_ph.add(time.perf_counter() - t0, len(rows))
            if res is not None:
                (batch_traced if traced else batch).add(dt, len(rows))
                ledger.check("knn_batch between writes vs SequentialScan",
                             all(neighbours_match(ids[r], res.distances[r],
                                                  *ref, K)
                                 for r, ref in enumerate(
                                     oracle.answers(rows))))

            if (c + 1) % scale.checkpoint_every == 0:
                t0 = time.perf_counter()
                ledger.call("checkpoint", pipe.checkpoint)
                dt = time.perf_counter() - t0
                ckpt_s.append(dt)
                write_s += dt

        # Before the closing checks: their 256-row reference batches
        # would set the peak otherwise.
        peak_mb = peak_rss_mb()
        reorgs = len(pipe.reorg_reports)
        reorg_walls = [r.wall_seconds for r in pipe.reorg_reports]
        index_pages = pipe.index.size_pages
        final_reduced = pipe.index.reduced

        # Oracles after the last reorg, and again after close + open.
        ledger.call("reorg", pipe.reorg)
        build_s = fingerprint_check(ledger, "after reorg", pipe, queries,
                                    acked, reduce_fn)
        pipe.close()
        pipe = None
        t0 = time.perf_counter()
        opened = ledger.call("open", IngestPipeline.open, root,
                             reduce_fn=reduce_fn, scheme=SCHEME)
        open_s = time.perf_counter() - t0
        ops_replayed = 0
        if opened is not None:
            pipe, open_report = opened
            ops_replayed = open_report.ops_replayed
            fingerprint_check(ledger, "after reopen", pipe, queries, acked,
                              reduce_fn)
    finally:
        if pipe is not None:
            pipe.close()

    n_traced = len(one_traced.samples)
    n_reads = len(one.samples) + n_traced
    counts = {
        "index.distance_computations": reads[0] / n_reads,
        "btree.key_comparisons": reads[1] / n_reads,
        "storage.page_reads": reads[2] / n_reads,
        "storage.logical_reads": reads[3] / n_reads,
        "storage.buffer_hit_rate": reads[4] / max(1, reads[4] + reads[5]),
        "index.dists_per_result": reads[0] / n_reads / K,
        "ingest.reorgs": reorgs,
        "storage.wal_bytes_per_op": wal_bytes / max(1, wal_ops),
        "storage.wal_records_per_op": wal_records / max(1, wal_ops),
    }
    details = {
        "counts": counts,
        "query_samples": len(one.samples),
        "calibration_ms": one.calibration_ms(),
        "query_p50_raw_ms": one.p50_ms(),
        "query_p95_ms": one.quantile_ms(0.95),
        "batch_raw_qps": batch.rate(),
        "query_p99_ms": one.quantile_ms(0.99),
        "floor_qps": floor_ph.rate(),
        "write_ops_per_s": acked_ops / write_s,
        "write_p50_ms": 1e3 * median(write_lat),
        "write_p99_ms": 1e3 * float(np.quantile(write_lat, 0.99)),
        "reorg_s": median(reorg_walls) if reorg_walls else 0.0,
        "error_rate": ledger.error_rate,
        "setup_raw_s": median(clock.raw),
    }
    if not trace:
        metrics = {
            "setup_s": median(clock.at_ref),
            "query_p50_ms": one.quantile_ms_at_ref(0.5),
            "query_p90_ms": one.query_tail_ms_at_ref(0.9),
            "batch_qps": batch.rate_at_ref(),
            "floor_ratio": rate_ratio(batch, floor_ph),
            "peak_rss_mb": peak_mb,
        }
        return Outcome(metrics, details, ledger)

    metrics = {
        "core.reduce_s": setup_reduce_s,
        "core.subspaces": len(final_reduced.subspaces),
        "core.outlier_frac": final_reduced.outliers.size
        / final_reduced.n_points,
        "core.mean_retained_dims": final_reduced.mean_reduced_dim(),
        "cluster.kmeans_iterations": kmeans_iterations(reduce_tracer.spans)
        / len(reduce_fn.seconds),
        "index.build_s": build_s,
        "index.pages": index_pages,
        "index.radius_expansions": span_count(
            query_tracer.spans, "knn.expand_radius") / n_traced,
        "index.partitions_probed": span_count(
            query_tracer.spans, "knn.probe_partition") / n_traced,
        "ingest.apply_ms": median(apply_ms),
        "ingest.drift_check_ms": median(drift_ms),
        "ingest.reorg_reduce_share": reorg_reduce_s / sum(reorg_walls)
        if reorg_walls else 0.0,
        "ingest.write_ops_per_s": details["write_ops_per_s"],
        "ingest.write_p50_ms": details["write_p50_ms"],
        "ingest.write_p99_ms": details["write_p99_ms"],
        "ingest.reorg_s": details["reorg_s"],
        "persist.checkpoint_s": median(ckpt_s),
        "recovery.open_s": open_s,
        "recovery.ops_replayed": ops_replayed,
        "obs.trace_overhead_frac": one_traced.p50_ms() / one.p50_ms() - 1.0,
    }
    metrics.update(counts)
    metrics.update(self_ms_per_query(
        query_tracer.spans, QUERY_SPANS, n_traced, "index.query_self_ms."))
    metrics.update(self_ms_per_query(
        batch_tracer.spans, BATCH_SPANS, sum(batch_traced.rows),
        "index.batch_self_ms."))
    metrics.update(linalg_kernels(final_reduced, queries[:b],
                                  DEFAULT_POOL_PAGES))
    return Outcome(metrics, details, ledger,
                   [reduce_tracer, query_tracer, batch_tracer])
