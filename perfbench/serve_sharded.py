"""serve_sharded: the scatter-gather router over forked shard workers.

20,000 x 64-d GCD data reduced once by MMDR and split by the
``ShardPlanner`` in partition mode (whole ellipsoids) over 2 shards, the
in-memory page store, no injected faults.  Each shard (~10k points, ~90
pages) fits its 512-page pool, so index work per request is small and the
router path (validate, frame/pickle, worker, merge) dominates; the index
engine still runs, in its cold-cache ``knn_batch`` form inside the
workers.

A run: the oracle first (a single-node ``ExtendedIDistance.knn_batch``
over the same reduction), then ``scale.setups`` blocks.  Each block sets
up a fresh cluster (reduce, plan, prepare, fork, first correct answer;
the median is ``setup_s``; each shard worker is pinned to its own vCPU),
warms it up, and runs its share of the timed
rounds of one closed-loop client alternating 1-row and 8-row
``Router.knn`` requests, each round ending with the numpy floor on the
same 8-row batches.  The first block also makes an untimed pass for the
exact logical counts.  Every merged answer is compared with the oracle.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass

import numpy as np

from common import (
    BATCH_SPANS,
    K,
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
    reduce_points,
    reset_peak_rss,
    rows_equal,
    self_ms_per_query,
    time_call,
)


@dataclass(frozen=True)
class Scale:
    n_points: int = 20_000
    dims: int = 64
    n_queries: int = 256
    batch: int = 8
    shards: int = 2
    setups: int = 3
    warmup: int = 400


FULL = Scale()
TINY = Scale(n_points=3_000, dims=16, n_queries=32, setups=2, warmup=20)

#: Timed rounds per run (>= 100 one-row requests each at full scale),
#: and the floor's share of a round.
ROUNDS = 10
SHARE_FLOOR = 0.05


class Cluster:
    """One supervisor + router over a fresh plan; ``close`` stops every
    worker and waits for it."""

    def __init__(self, points, reduce_seed, shards, root, tracer=None):
        from repro.serve import Router, ShardPlanner, Supervisor

        t0 = time.perf_counter()
        self.reduced = reduce_points(points, reduce_seed, tracer)
        t1 = time.perf_counter()
        plan = ShardPlanner(shards, mode="partition").plan(self.reduced)
        self.supervisor = Supervisor(plan, "iMMDR", root, store="memory")
        self.supervisor.prepare()
        t2 = time.perf_counter()
        self.supervisor.start()
        # One shard worker per vCPU, as a deployment would pin them.  Left
        # to the scheduler, the placement held for whole runs and split
        # one-row latency into two modes ~25% apart from run to run.
        cpus = sorted(os.sched_getaffinity(0))
        for i, worker in enumerate(self.supervisor.workers.values()):
            os.sched_setaffinity(worker.process.pid, {cpus[i % len(cpus)]})
        self.router = Router(self.supervisor)
        self.reduce_s, self.prepare_s = t1 - t0, t2 - t1

    def close(self) -> None:
        self.router.close()


def check(ledger: Ledger, label: str, res, ref, rows) -> None:
    """A merged answer must be complete and equal the single-node rows."""
    if res is None:
        return
    if res.partial or res.invalid_queries:
        ledger.fail(f"{label}: partial or invalid rows")
        return
    ok = all(
        rows_equal(res.ids[i], res.distances[i], *ref[r])
        for i, r in enumerate(rows)
    )
    ledger.check(label, ok)


class Client:
    """One closed-loop client: request ``i`` is 1 row when ``i`` is even,
    else the next ``b`` rows of the pool."""

    def __init__(self, queries, ref, b, trace, ledger, floor):
        from repro.obs import Tracer

        self.queries, self.ref, self.b = queries, ref, b
        self.ledger, self.floor = ledger, floor
        self.i = 0
        self.tracer = Tracer() if trace else None
        names = ("one", "batch")
        self.phase = {"one": Phase(calibrate=True),
                      "batch": Phase(calibrate=True), "floor": Phase()}
        self.traced = {n: Phase() for n in names}
        self.worker_ms, self.overhead_ms = [], []

    def request(self, router, tracer=None):
        n_q, i = self.queries.shape[0], self.i
        self.i += 1
        lo = (i // 2 * self.b) % n_q
        rows = [lo] if i % 2 == 0 else list(range(lo, lo + self.b))
        t0 = time.perf_counter()
        res = self.ledger.call("router knn", router.knn, self.queries[rows],
                               K, tracer=tracer)
        dt = time.perf_counter() - t0
        check(self.ledger, "router vs single node", res, self.ref, rows)
        return rows, res, dt

    def round(self, router, seconds: float) -> None:
        for phase in list(self.phase.values()) + list(self.traced.values()):
            phase.next_round()
        n_q = self.queries.shape[0]
        deadline = time.perf_counter() + (1.0 - SHARE_FLOOR) * seconds
        while time.perf_counter() < deadline:
            # Pairs alternate traced and untraced; the parity flips every
            # pass over the pool, so each query is traced as often as not.
            pair = self.i // 2
            traced = (self.tracer is not None
                      and (pair + pair * self.b // n_q) % 2 == 1)
            first = len(self.tracer.spans) if traced else 0
            rows, res, dt = self.request(router,
                                         self.tracer if traced else None)
            if res is None:
                continue
            name = "one" if len(rows) == 1 else "batch"
            (self.traced if traced else self.phase)[name].add(
                dt, len(rows), key=rows[0])
            if traced and name == "one":
                worker = max(sp.duration_s for sp in self.tracer.spans[first:]
                             if sp.name == "knn.batch")
                self.worker_ms.append(1e3 * worker)
                self.overhead_ms.append(1e3 * (dt - worker))
        # The floor gets its own slice of the round, not interleaved: BLAS
        # threads spinning after a gemm would steal the workers' cores.
        j = self.i
        deadline = time.perf_counter() + SHARE_FLOOR * seconds
        while time.perf_counter() < deadline:
            lo = (j * self.b) % n_q
            j += 1
            t0 = time.perf_counter()
            self.floor.knn(self.queries[lo: lo + self.b])
            self.phase["floor"].add(time.perf_counter() - t0, self.b)


def run(seed: int, seconds: float, trace: bool, scale: Scale, work_dir):
    from repro.index.base import DEFAULT_POOL_PAGES
    from repro.index.idistance import ExtendedIDistance
    from repro.obs import Tracer
    from repro.serve.protocol import encode_frame
    from repro.serve.router import merge_topk

    points, queries, (reduce_seed,) = gcd_inputs(
        seed, scale.n_points, scale.dims, scale.n_queries, 1
    )
    n_q, b = queries.shape[0], scale.batch
    ledger = Ledger()

    # The oracle: the single-node index over the same (deterministic)
    # reduction.  Not part of set-up.
    reduced = reduce_points(points, reduce_seed)
    single = ExtendedIDistance(reduced)
    oracle = single.knn_batch(queries, K)
    ref = [(oracle.ids[i], oracle.distances[i]) for i in range(n_q)]
    single_pages = single.size_pages
    del single, oracle
    gc.collect()
    reset_peak_rss()

    client = Client(queries, ref, b, trace, ledger, Floor(points))
    setup_tracer = Tracer() if trace else None
    blocks = 1 if trace else scale.setups
    clock = SetupClock()
    cluster = None
    try:
        for block in range(blocks):
            if cluster is not None:
                cluster.close()
                cluster = None
            with clock.timing():
                cluster = Cluster(points, reduce_seed, scale.shards,
                                  work_dir / f"setup{block}", setup_tracer)
                res = ledger.call("router knn", cluster.router.knn,
                                  queries[:1], K)
            check(ledger, "first answer", res, ref, [0])
            router = cluster.router
            for _ in range(scale.warmup):
                client.request(router)
            if block == 0:
                counts, reply_stats = count_pass(router, client)
                counts["index.pages"] = single_pages
            for _ in range(ROUNDS // blocks):
                client.round(router, seconds / ROUNDS)
        counters = {
            name: router.metrics.counter(f"serve.{name}").value
            for name in ("retries", "hedges", "respawns", "shed")
        }
    finally:
        if cluster is not None:
            cluster.close()

    ph = client.phase
    details = {
        "counts": counts,
        "query_samples": len(ph["one"].samples),
        "calibration_ms": ph["one"].calibration_ms(),
        "query_p50_raw_ms": ph["one"].p50_ms(),
        "query_p95_ms": ph["one"].quantile_ms(0.95),
        "batch_raw_qps": ph["batch"].rate(),
        "query_p99_ms": ph["one"].quantile_ms(0.99),
        "floor_qps": ph["floor"].rate(),
        "error_rate": ledger.error_rate,
        "setup_raw_s": median(clock.raw),
    }
    if not trace:
        metrics = {
            "setup_s": median(clock.at_ref),
            "query_p50_ms": ph["one"].quantile_ms_at_ref(0.5),
            "query_p90_ms": ph["one"].query_tail_ms_at_ref(0.9),
            "batch_qps": ph["batch"].rate_at_ref(),
            "floor_ratio": rate_ratio(ph["batch"], ph["floor"]),
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(metrics, details, ledger)

    # Frame and merge costs on request- and reply-shaped payloads.
    rows = list(range(b))
    request_msg = {"op": "knn", "req_id": 1, "queries": queries[:b], "k": K,
                   "trace_id": None}
    reply_msg = {
        "op": "knn_result", "req_id": 1, "shard": 0, "dup": False,
        "ids": stack(ref, rows, 0), "distances": stack(ref, rows, 1),
        "stats": reply_stats, "invalid": (), "wall_seconds": 0.0,
    }
    halves = [stack(ref, rows, 0), stack(ref, range(b, 2 * b), 0)]
    dists = [stack(ref, rows, 1), stack(ref, range(b, 2 * b), 1)]
    traced = client.traced
    metrics = {
        "core.reduce_s": cluster.reduce_s,
        "core.subspaces": len(cluster.reduced.subspaces),
        "core.outlier_frac": cluster.reduced.outliers.size / scale.n_points,
        "core.mean_retained_dims": cluster.reduced.mean_reduced_dim(),
        "cluster.kmeans_iterations": kmeans_iterations(setup_tracer.spans),
        "index.build_s": cluster.prepare_s,
        "serve.worker_ms": median(client.worker_ms),
        "serve.overhead_ms": median(client.overhead_ms),
        "serve.frame_us": 1e6 * time_call(
            lambda: (encode_frame(request_msg), encode_frame(reply_msg)),
            200),
        "serve.frame_bytes": len(encode_frame(request_msg))
        + len(encode_frame(reply_msg)),
        "serve.merge_us": 1e6 * time_call(
            lambda: merge_topk(halves, dists, K), 200),
        "obs.trace_overhead_frac":
            traced["one"].p50_ms() / ph["one"].p50_ms() - 1.0,
        **{f"serve.{name}": value for name, value in counters.items()},
    }
    metrics.update(counts)
    metrics.update(self_ms_per_query(
        client.tracer.spans, BATCH_SPANS,
        sum(traced["one"].rows) + sum(traced["batch"].rows),
        "index.batch_self_ms."))
    metrics.update(linalg_kernels(reduced, queries[:b], DEFAULT_POOL_PAGES))
    return Outcome(metrics, details, ledger, [setup_tracer, client.tracer])


def count_pass(router, client):
    """Exact logical counts: every pool row once, in ``b``-row requests.
    Returns the counts and the stats of one full reply."""
    queries, b = client.queries, client.b
    n_q = queries.shape[0]
    totals = np.zeros(3, dtype=np.int64)
    reply_stats = ()
    for lo in range(0, n_q, b):
        rows = list(range(lo, min(n_q, lo + b)))
        res = client.ledger.call("router knn", router.knn, queries[rows], K)
        check(client.ledger, "router vs single node", res, client.ref, rows)
        if res is not None:
            reply_stats = res.stats
            for s in res.stats:
                totals += (s.distance_computations, s.key_comparisons,
                           s.page_reads)
    return {
        "index.distance_computations": totals[0] / n_q,
        "btree.key_comparisons": totals[1] / n_q,
        "storage.page_reads": totals[2] / n_q,
        "index.dists_per_result": totals[0] / n_q / K,
    }, reply_stats


def stack(ref, rows, field):
    return np.stack([ref[r][field] for r in rows])
