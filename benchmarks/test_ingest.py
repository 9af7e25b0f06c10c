"""Continuous ingestion: drift-triggered reorg + crash + rolling swap.

Emits a versioned :class:`repro.bench.BenchReport` (written to
``benchmarks/out/BENCH_ingest.report.json``); the flat ``BENCH_ingest.json``
at the repo root is the :func:`repro.bench.view` of that report

    {"n_points", "n_ops", "reorgs", "final_generation",
     "crash_schedules", "recovered_old", "recovered_new",
     "swap_requests", "swap_partial", "ingest_ops_per_s", "reorg_s"}

Rates are **advisory** (shared-CPU wall clock proves nothing); the gates
are identity and atomicity:

* live leg — a seeded drift stream fires the trigger and the auto reorg,
  and the post-swap answers fingerprint-match a fresh build over the
  same committed mutation stream, for all three schemes;
* crash leg — a sampled sweep of crashpoints over the build → swap →
  truncate sequence always recovers to exactly one generation;
* served leg — a rolling generational swap under sustained open-loop
  load: every non-partial answer matches the old or the new generation
  exactly (never a blend), and post-swap answers match a fresh
  single-node build of the new generation.
"""

import json
import multiprocessing
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BenchReport, result_fingerprint, view
from repro.bench.spec import INDEX_SCHEMES
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.data.workload import sample_queries
from repro.ingest import (
    INGEST_SCHEMES,
    IngestPipeline,
    batch_fingerprint,
    build_from_vectors,
    swap_crash_sweep,
    translate_ids,
)
from repro.reduction import MMDRReducer
from repro.serve import Router, RouterConfig, ShardPlanner, Supervisor
from repro.serve.planner import mode_for_scheme
from repro.serve.router import canonicalize_rows

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = REPO_ROOT / "benchmarks" / "out"

N_POINTS = 240
DIMS = 8
N_INSERTS = 40
N_DELETES = 8
K = 5
N_SHARDS = 3
N_REQUESTS = 30
ARRIVAL_RATE_HZ = 60.0
CRASH_SCHEDULES = 10

pytestmark = pytest.mark.ingest_smoke

#: Cross-leg numbers accumulated into the single report written by the
#: served leg (the legs share one artifact, like the paper's Table 4
#: shares one workload).
RESULTS = {}


@pytest.fixture(scope="module")
def reduce_fn():
    def fn(points):
        return MMDRReducer().reduce(points, np.random.default_rng(0))

    return fn


@pytest.fixture(scope="module")
def base_points():
    spec = SyntheticSpec(
        n_points=N_POINTS,
        dimensionality=DIMS,
        n_clusters=2,
        retained_dims=2,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    return generate_correlated_clusters(
        spec, np.random.default_rng(42)
    ).points


@pytest.fixture(scope="module")
def drift_ops(base_points, reduce_fn):
    """Inserts at cluster members plus fixed-norm jitter orthogonal to the
    member's fitted subspace (drives the live MPE without leaving the
    B+-tree key space), plus a few deletes."""
    rng = np.random.default_rng(1234)
    subspaces = reduce_fn(base_points).subspaces
    ops = []
    for i in range(N_INSERTS):
        sub = subspaces[i % len(subspaces)]
        member = base_points[int(sub.member_ids[i % sub.member_ids.size])]
        jitter = rng.normal(0.0, 1.0, DIMS)
        jitter -= sub.basis @ (sub.basis.T @ jitter)
        jitter *= 0.15 / np.linalg.norm(jitter)
        ops.append(("insert", member + jitter, N_POINTS + i, 5.0))
    ops += [("delete", rid) for rid in range(N_DELETES)]
    return ops


@pytest.fixture(scope="module")
def queries(base_points):
    return sample_queries(
        base_points, 6, np.random.default_rng(5), k=K, method="perturbed"
    ).queries


def test_drift_stream_reorgs_to_a_fresh_equivalent_build(
    base_points, drift_ops, queries, reduce_fn, tmp_path
):
    t0 = time.perf_counter()
    reorg_s = 0.0
    for scheme in INGEST_SCHEMES:
        pipe, _ = IngestPipeline.create(
            tmp_path / scheme, base_points, reduce_fn, scheme,
            auto_reorg=True,
        )
        try:
            trigger = pipe.apply_batch(drift_ops, label=f"bench_{scheme}")
            assert trigger.fired, f"{scheme}: drift stream never triggered"
            assert pipe.generation == 2, f"{scheme}: no reorg happened"
            assert pipe.reorg_reports
            reorg_s += pipe.reorg_reports[-1].wall_seconds

            index, _, rid_map = build_from_vectors(
                pipe.live_vectors(), reduce_fn, scheme
            )
            ref = index.knn_batch(queries, K)
            got = pipe.knn_batch(queries, K)
            assert batch_fingerprint(got.ids, got.distances) == (
                batch_fingerprint(translate_ids(ref.ids, rid_map),
                                  ref.distances)
            ), f"{scheme}: post-reorg answers diverge from a fresh build"
            index.store.close()
        finally:
            pipe.close()
    wall = time.perf_counter() - t0
    n_ops = len(drift_ops) * len(INGEST_SCHEMES)
    RESULTS["live"] = {
        "n_ops": len(drift_ops),
        "reorgs": len(INGEST_SCHEMES),
        "final_generation": 2,
        "ingest_ops_per_s": round(n_ops / wall, 1),
        "reorg_s": round(reorg_s, 3),
    }


def test_sampled_swap_crashpoints_recover_to_one_generation(
    base_points, drift_ops, queries, reduce_fn, tmp_path
):
    report = swap_crash_sweep(
        tmp_path,
        base_points,
        drift_ops,
        queries,
        k=K,
        reduce_fn=reduce_fn,
        scheme="SeqScan",
        max_schedules=CRASH_SCHEDULES,
    )
    assert report.recovered_old + report.recovered_new == report.schedules
    assert {o.phase for o in report.outcomes} == {"before", "after"}
    RESULTS["crash"] = {
        "crash_schedules": report.schedules,
        "recovered_old": report.recovered_old,
        "recovered_new": report.recovered_new,
    }


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard workers require the fork start method",
)
def test_rolling_swap_under_load_and_report(
    base_points, drift_ops, queries, reduce_fn, tmp_path
):
    assert {"live", "crash"} <= RESULTS.keys(), (
        "the live and crash legs must run first (same pytest invocation)"
    )
    scheme = "SeqScan"
    old_reduced = reduce_fn(base_points)

    # The post-ingest dataset: the same committed mutation stream the
    # live leg applied, re-clustered from scratch.
    live = {i: base_points[i] for i in range(N_DELETES, N_POINTS)}
    for op in drift_ops:
        if op[0] == "insert":
            live[op[2]] = op[1]
    new_points = np.stack([live[r] for r in sorted(live)])
    new_reduced = reduce_fn(new_points)

    def fp(ids, dists):
        return result_fingerprint(*canonicalize_rows(ids, dists))

    res = INDEX_SCHEMES[scheme](old_reduced).knn_batch(queries, K)
    old_fp = fp(res.ids, res.distances)
    res = INDEX_SCHEMES[scheme](new_reduced).knn_batch(queries, K)
    new_fp = fp(res.ids, res.distances)
    assert old_fp != new_fp, "swap would be vacuous on this workload"

    plan = ShardPlanner(N_SHARDS, mode_for_scheme(scheme)).plan(old_reduced)
    supervisor = Supervisor(plan, scheme, tmp_path / "gen0")
    router = Router(supervisor, RouterConfig(deadline_s=30.0))
    supervisor.start()

    offsets = np.cumsum(
        np.random.default_rng(11).exponential(
            1.0 / ARRIVAL_RATE_HZ, N_REQUESTS
        )
    )
    lock = threading.Lock()
    partials, blends = [], []

    def fire(offset, t0):
        delay = t0 + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        result = router.knn(queries, K)
        got = None if result.partial else fp(result.ids, result.distances)
        with lock:
            if result.partial:
                partials.append(result.missing_shards)
            elif got not in (old_fp, new_fp):
                blends.append(got)

    try:
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=fire, args=(off, t0)) for off in offsets
        ]
        for t in threads:
            t.start()
        new_plan = ShardPlanner(N_SHARDS, mode_for_scheme(scheme)).plan(
            new_reduced
        )
        swap = router.rolling_swap(new_plan, tmp_path / "gen1")
        for t in threads:
            t.join()

        assert swap.shards_swapped == tuple(supervisor.shard_ids)
        final = router.knn(queries, K)
        assert not final.partial
        final_fp = fp(final.ids, final.distances)
        swaps = router.metrics.counter("serve.generation_swaps").value
    finally:
        router.close()

    # Mid-roll reads may be partial (a draining shard is flagged, never
    # silently dropped) but a non-partial answer blending generations
    # would be a correctness hole.
    assert not blends, "non-partial requests blended old and new answers"
    assert final_fp == new_fp, (
        "post-swap merged answers diverge from a fresh single-node build"
    )
    assert swaps == N_SHARDS

    report = BenchReport(
        name="ingest_240",
        spec={
            "n_points": N_POINTS,
            "dimensionality": DIMS,
            "scheme_live": "all",
            "scheme_served": scheme,
            "n_inserts": N_INSERTS,
            "n_deletes": N_DELETES,
            "n_shards": N_SHARDS,
            "n_requests": N_REQUESTS,
            "arrival_rate_hz": ARRIVAL_RATE_HZ,
            "k": K,
            "crash_schedules": CRASH_SCHEDULES,
            "data_seed": 42,
            "reduce_seed": 0,
            "stream_seed": 1234,
            "query_seed": 5,
            "arrival_seed": 11,
        },
        counters={
            "n_points": N_POINTS,
            "n_ops": RESULTS["live"]["n_ops"],
            "reorgs": RESULTS["live"]["reorgs"],
            "final_generation": RESULTS["live"]["final_generation"],
            "crash_schedules": RESULTS["crash"]["crash_schedules"],
            "recovered_old": RESULTS["crash"]["recovered_old"],
            "recovered_new": RESULTS["crash"]["recovered_new"],
            "swap_requests": N_REQUESTS,
            "swap_partial": len(partials),
        },
        advisory={
            "ingest_ops_per_s": RESULTS["live"]["ingest_ops_per_s"],
            "reorg_s": RESULTS["live"]["reorg_s"],
            "swap_wall_s": round(swap.wall_seconds, 3),
        },
        fingerprints={
            "old_generation": old_fp,
            "new_generation": new_fp,
            "post_swap": final_fp,
        },
    )
    report.write(OUT_DIR / "BENCH_ingest.report.json")
    flat = view(report, "ingest")
    out = REPO_ROOT / "BENCH_ingest.json"
    out.write_text(json.dumps(flat, indent=2, sort_keys=True) + "\n")
    print(
        "\ningest: " + ", ".join(f"{k}={v}" for k, v in sorted(flat.items()))
    )
