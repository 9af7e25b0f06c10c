"""Kernel-layer microbenchmarks: reference numpy vs the fast backend.

Times each backend-dispatched kernel on query-path-shaped problems and
the cold sequential page scan on both physical stores, and writes the
results through ``repro.bench``: a versioned report at
``benchmarks/out/BENCH_kernels.report.json`` plus the flat
``BENCH_kernels.json`` at the repo root.

All wall-clock numbers are **advisory** (min-of-N, machine-dependent,
never gated); what the test *asserts* is the contract that makes the
numbers comparable at all — the fast backend reproduces the reference
answers (bit-identical when numba is absent and the blocked fallback
resolves, within the fingerprint quantum when it is compiled).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BenchReport, result_fingerprint
from repro.linalg import backend, kernels
from repro.linalg.backend import (
    get_kernel_backend,
    kernel_backend_info,
    set_kernel_backend,
)
from repro.storage.buffer import BufferPool
from repro.storage.metrics import CostCounters
from repro.storage.mmap_store import MmapPageStore
from repro.storage.pager import PageStore

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = REPO_ROOT / "benchmarks" / "out"

#: Query-path-shaped problem: a few hundred queries against a few
#: thousand reduced vectors at the dimensionalities the indexes use.
N_POINTS = 20_000
N_QUERIES = 256
DIM = 16
REPEATS = 5


def _best_of(fn, *args):
    """Min-of-N wall seconds (and the last result, for verification)."""
    best, result = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def _under(backend_name, fn, *args):
    previous = set_kernel_backend(backend_name)
    try:
        return _best_of(fn, *args)
    finally:
        set_kernel_backend(previous)


def _scan_seconds(store_factory, n_pages=2000, blob_bytes=3500):
    """Cold sequential read of every page via a too-small buffer pool."""
    counters = CostCounters()
    store = store_factory(counters)
    payload = np.arange(blob_bytes // 8, dtype=np.float64)
    pids = [store.allocate(payload, blob_bytes) for _ in range(n_pages)]
    pool = BufferPool(store, 32, counters)
    try:
        best = float("inf")
        for _ in range(REPEATS):
            pool.clear()
            start = time.perf_counter()
            for pid in pids:
                pool.read(pid)
            best = min(best, time.perf_counter() - start)
        assert counters.physical_reads == REPEATS * n_pages
        return best
    finally:
        close = getattr(store, "close", None)
        if close is not None:
            close()


@pytest.mark.kernel_smoke
def test_kernel_microbench_and_report():
    rng = np.random.default_rng(42)
    points = rng.standard_normal((N_POINTS, DIM))
    queries = rng.standard_normal((N_QUERIES, DIM))
    positions = rng.integers(0, N_POINTS, size=8 * N_POINTS)
    query_of_entry = np.sort(
        rng.integers(0, N_QUERIES, size=positions.size)
    )

    advisory = {}

    t_ref, ref_batch = _under(
        "numpy", backend.batch_l2_rows, points, queries
    )
    t_fast, fast_batch = _under(
        "numba", backend.batch_l2_rows, points, queries
    )
    advisory["batch_l2_rows_numpy_s"] = t_ref
    advisory["batch_l2_rows_fast_s"] = t_fast
    advisory["batch_l2_rows_speedup"] = t_ref / t_fast

    t_ref, ref_flat = _under(
        "numpy", backend.flat_l2, points, positions, queries, query_of_entry
    )
    t_fast, fast_flat = _under(
        "numba", backend.flat_l2, points, positions, queries, query_of_entry
    )
    advisory["flat_l2_numpy_s"] = t_ref
    advisory["flat_l2_fast_s"] = t_fast
    advisory["flat_l2_speedup"] = t_ref / t_fast

    # The iDistance scan's dimension-major gather: same entries, same
    # bits as the reference row-major gather, no backend dispatch.
    t_col, col_flat = _best_of(
        kernels.gather_column_l2,
        np.ascontiguousarray(points.T),
        positions,
        np.ascontiguousarray(queries.T),
        query_of_entry,
    )
    assert np.array_equal(col_flat, ref_flat)
    advisory["gather_column_l2_s"] = t_col
    advisory["gather_column_l2_speedup"] = t_ref / t_col

    n_clusters = 8
    centroids = rng.standard_normal((n_clusters, DIM))
    chol_invs = np.empty((n_clusters, DIM, DIM))
    for c in range(n_clusters):
        a = rng.standard_normal((DIM, DIM))
        chol_invs[c] = np.linalg.inv(
            np.linalg.cholesky(a @ a.T + DIM * np.eye(DIM))
        )
    penalties = rng.uniform(0.5, 1.5, size=n_clusters)
    t_ref, ref_mahal = _under(
        "numpy",
        backend.batch_mahalanobis_rows,
        points, centroids, chol_invs, penalties,
    )
    t_fast, fast_mahal = _under(
        "numba",
        backend.batch_mahalanobis_rows,
        points, centroids, chol_invs, penalties,
    )
    advisory["batch_mahalanobis_numpy_s"] = t_ref
    advisory["batch_mahalanobis_fast_s"] = t_fast
    advisory["batch_mahalanobis_speedup"] = t_ref / t_fast

    seq = rng.integers(0, 512, size=200_000)
    t_ref, ref_lru = _under(
        "numpy", backend.cold_lru_physical_reads, seq, 64
    )
    t_fast, fast_lru = _under(
        "numba", backend.cold_lru_physical_reads, seq, 64
    )
    advisory["cold_lru_numpy_s"] = t_ref
    advisory["cold_lru_fast_s"] = t_fast
    advisory["cold_lru_speedup"] = t_ref / t_fast

    t_memory = _scan_seconds(PageStore)
    t_mmap = _scan_seconds(MmapPageStore)
    advisory["cold_scan_memory_s"] = t_memory
    advisory["cold_scan_mmap_s"] = t_mmap
    advisory["cold_scan_mmap_over_memory"] = t_mmap / t_memory

    # The gate that makes the advisory numbers meaningful: both backends
    # answered the same questions identically (to the fingerprint
    # quantum; exact for the integer LRU model).
    row_ids = np.tile(np.arange(N_POINTS), (N_QUERIES, 1))
    assert result_fingerprint(row_ids, ref_batch) == result_fingerprint(
        row_ids, fast_batch
    )
    flat_ids = np.arange(positions.size)
    assert result_fingerprint(flat_ids, ref_flat) == result_fingerprint(
        flat_ids, fast_flat
    )
    np.testing.assert_allclose(fast_mahal, ref_mahal, rtol=0, atol=1e-9)
    assert ref_lru == fast_lru

    info = kernel_backend_info()
    if info["compiled"]:
        # The acceptance bar for the compiled backend (the [fast] CI
        # entry): the fused kernels clear 2x over the numpy reference.
        assert advisory["batch_mahalanobis_speedup"] >= 2.0, advisory
        assert advisory["flat_l2_speedup"] >= 2.0, advisory
    report = BenchReport(
        name="kernels",
        spec={
            "n_points": N_POINTS,
            "n_queries": N_QUERIES,
            "dimensionality": DIM,
            "repeats": REPEATS,
            "fast_module": info["fast_module"],
            "compiled": info["compiled"],
            "active_backend": get_kernel_backend(),
        },
        counters={
            "flat_entries": int(positions.size),
            "lru_sequence": int(seq.size),
            "lru_physical_reads": int(ref_lru),
        },
        advisory={key: float(value) for key, value in advisory.items()},
        fingerprints={
            "batch_l2": result_fingerprint(row_ids, ref_batch),
            "flat_l2": result_fingerprint(flat_ids, ref_flat),
        },
    )
    report.write(OUT_DIR / "BENCH_kernels.report.json")
    flat = {
        **{k: float(v) for k, v in advisory.items()},
        "compiled": bool(info["compiled"]),
    }
    out = REPO_ROOT / "BENCH_kernels.json"
    out.write_text(json.dumps(flat, indent=2, sort_keys=True) + "\n")
    print(
        "\nkernels ("
        + ("compiled" if info["compiled"] else "blocked fallback")
        + "): "
        + ", ".join(
            f"{key}={advisory[key]:.2f}"
            for key in sorted(advisory)
            if key.endswith(("speedup", "over_memory"))
        )
    )
