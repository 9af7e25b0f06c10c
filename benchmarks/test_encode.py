"""Approximate speed tier: PQ candidate scan + exact rerank vs exact KNN.

Emits a versioned :class:`repro.bench.BenchReport` (written to
``benchmarks/out/BENCH_encode.report.json``) whose counter section holds
the gate-eligible ``recall_at_k`` plus the approximate tier's logical
costs; the flat ``BENCH_encode.json`` at the repo root is the
:func:`repro.bench.view` of that report

    {"recall_at_k", "encode_code_pages", "approx_page_reads_cold",
     "approx_distance_computations", "qps_sequential", "qps_approx",
     "speedup_approx"}

on the ``idistance_pq_smoke`` workload.  The ``encode_smoke`` subset is
the CI guard: the approximate batched path must agree bit-for-bit with
the per-query approximate loop, and recall@K on the smoke workload must
sit inside the committed tolerance band (>= 0.98 against a 1.0
baseline) — a recall collapse there means the encoder or candidate
selection broke, whatever the timing says.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import DEFAULT_SPECS, run_bench, view

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = REPO_ROOT / "benchmarks" / "out"

SPEC = DEFAULT_SPECS["idistance_pq_smoke"]


def _exact_reference(index, workload):
    ids = []
    for query in workload.queries:
        index.reset_cache()
        ids.append(index.knn(query, workload.k).ids)
    return np.vstack(ids)


def _recall(reference_ids, got_ids):
    total = 0.0
    for ref_row, got_row in zip(reference_ids, got_ids):
        reference = ref_row[ref_row >= 0]
        if reference.size == 0:
            total += 1.0
            continue
        hits = np.intersect1d(reference, got_row).size
        total += hits / reference.size
    return total / max(1, reference_ids.shape[0])


@pytest.mark.encode_smoke
def test_approx_batch_agrees_and_recall_holds():
    """CI guard: approx ``knn_batch`` must return exactly the per-query
    approx answers, and those answers must recall >= 0.98 of exact."""
    points = SPEC.build_points()
    index = SPEC.build_index(SPEC.build_reduced(points))
    workload = SPEC.build_workload(points)
    index.attach_encoder(SPEC.build_encoder_config(), seed=SPEC.encode_seed)

    exact_ids = _exact_reference(index, workload)
    seq_ids, seq_dists = [], []
    for query in workload.queries:
        index.reset_cache()
        res = index.knn(query, workload.k, mode="approx")
        seq_ids.append(res.ids)
        seq_dists.append(res.distances)
    batch = index.knn_batch(workload.queries, workload.k, mode="approx")
    assert np.array_equal(np.vstack(seq_ids), batch.ids), (
        "approx knn_batch ids disagree with approx knn"
    )
    assert np.array_equal(np.vstack(seq_dists), batch.distances), (
        "approx knn_batch distances disagree with approx knn"
    )

    recall = _recall(exact_ids, np.vstack(seq_ids))
    assert recall >= 0.98, (
        f"approx recall@{workload.k} = {recall:.4f}, below the 0.98 band"
    )


def test_encode_bench_report():
    """The acceptance benchmark: run the approx smoke workload through
    the full bench runner and emit the committed-format artifacts."""
    report = run_bench(SPEC)

    assert "recall_at_k" in report.counters
    assert report.counters["recall_at_k"] >= 0.98
    assert report.counters["encode_code_pages"] >= 1
    assert report.recall_curve, "approx leg must emit a recall curve"
    # Exact-mode fingerprints stay untouched by the approx leg: no
    # "approx" entry may ever appear (it would churn golden baselines).
    assert sorted(report.fingerprints) == [
        "batch", "faulted", "recovered", "sequential", "updated",
    ]

    report.write(OUT_DIR / "BENCH_encode.report.json")
    flat = view(report, "encode")
    out = REPO_ROOT / "BENCH_encode.json"
    out.write_text(json.dumps(flat, indent=2, sort_keys=True) + "\n")
    print(
        "\nencode: "
        + ", ".join(f"{k}={v:.4g}" for k, v in sorted(flat.items()))
    )
