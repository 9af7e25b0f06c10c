"""Experiment runner: build indexes, run query batches, aggregate costs.

One :func:`run_query_batch` call realizes one (index scheme, dataset,
dimensionality) point of Figures 9/10: it answers every workload query on a
cold cache and averages page reads, CPU seconds and the deterministic CPU
work proxy.  :func:`compare_index_schemes` assembles the full panel the
paper plots (iMMDR, iLDR, gLDR, sequential scan).

Two execution strategies, bit-identical in results and per-query cost
accounting under the cold-cache protocol: the literal per-query loop, and
:meth:`~repro.index.base.VectorIndex.knn_batch`.  Multi-process serving
lives in :mod:`repro.serve`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..data.workload import QueryWorkload
from ..index.base import QueryStats, VectorIndex
from ..obs.tracer import Tracer, ensure_tracer
from ..index.global_ldr import GlobalLDRIndex
from ..index.idistance import ExtendedIDistance
from ..index.seqscan import SequentialScan
from ..reduction.base import ReducedDataset

__all__ = [
    "BatchCost",
    "run_query_batch",
    "run_workload",
    "measure_throughput",
    "compare_index_schemes",
]


@dataclass(frozen=True)
class BatchCost:
    """Per-query averages over one workload on one index."""

    scheme: str
    mean_page_reads: float
    mean_cpu_seconds: float
    median_cpu_seconds: float
    mean_cpu_work: float
    mean_distance_computations: float
    n_queries: int
    index_pages: int


def _cost_from_stats(
    index: VectorIndex, workload: QueryWorkload, stats: List[QueryStats]
) -> BatchCost:
    return BatchCost(
        scheme=index.name,
        mean_page_reads=float(np.mean([s.page_reads for s in stats])),
        mean_cpu_seconds=float(np.mean([s.cpu_seconds for s in stats])),
        median_cpu_seconds=float(np.median([s.cpu_seconds for s in stats])),
        mean_cpu_work=float(np.mean([s.cpu_work for s in stats])),
        mean_distance_computations=float(
            np.mean([s.distance_computations for s in stats])
        ),
        n_queries=workload.n_queries,
        index_pages=index.size_pages,
    )


def _per_query_loop(
    index: VectorIndex,
    workload: QueryWorkload,
    tracer: Tracer,
    cold_cache: bool = True,
) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
    """The literal per-query ``knn`` loop, stacked into ``(Q, k)`` rows."""
    id_rows: List[np.ndarray] = []
    dist_rows: List[np.ndarray] = []
    stats: List[QueryStats] = []
    for query in workload.queries:
        if cold_cache:
            index.reset_cache()
        res = index.knn(query, workload.k, tracer=tracer)
        id_rows.append(res.ids)
        dist_rows.append(res.distances)
        stats.append(res.stats)
    if not id_rows:
        return (
            np.empty((0, 0), dtype=np.int64),
            np.empty((0, 0), dtype=np.float64),
            [],
        )
    return np.vstack(id_rows), np.vstack(dist_rows), stats


def run_query_batch(
    index: VectorIndex,
    workload: QueryWorkload,
    cold_cache: bool = True,
    collect_ids: Optional[List[np.ndarray]] = None,
    tracer: Optional[Tracer] = None,
    use_batch: bool = False,
) -> BatchCost:
    """Answer every query; return per-query cost averages.

    ``cold_cache=True`` clears the buffer pool before each query, making
    page counts per-query comparable (the paper reports per-query page
    accesses).  Pass a list as ``collect_ids`` to also receive each query's
    answer ids (for precision checks on the same run).  Pass a
    :class:`~repro.obs.Tracer` to record per-query ``knn.query`` spans
    (with nested per-phase spans, for indexes that emit them) across the
    whole batch; results are bit-identical with or without one.

    ``use_batch=True`` routes through :meth:`VectorIndex.knn_batch`, which
    returns the same ids, distances and per-query page/distance accounting
    as the default per-query loop, bit for bit; only wall-clock attribution
    differs (a vectorized engine's wall time is apportioned equally across
    its queries).  It requires the cold-cache protocol, since a warm
    cache's hit pattern depends on cross-query page interleaving that a
    shared scan would change.
    """
    tracer = ensure_tracer(tracer)
    if use_batch and not cold_cache:
        raise ValueError(
            "batched execution requires cold_cache=True: warm-cache "
            "accounting depends on cross-query page interleaving that a "
            "shared scan would change"
        )
    if use_batch:
        result = index.knn_batch(workload.queries, workload.k, tracer=tracer)
        ids, stats = result.ids, list(result.stats)
    else:
        ids, _, stats = _per_query_loop(index, workload, tracer, cold_cache)
    if collect_ids is not None:
        collect_ids.extend(ids[i] for i in range(ids.shape[0]))
    return _cost_from_stats(index, workload, stats)


def run_workload(
    index: VectorIndex,
    workload: QueryWorkload,
    use_batch: bool = True,
    tracer: Optional[Tracer] = None,
) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
    """Full-results companion to :func:`run_query_batch`: the ``(Q, k)``
    ids/distances matrices plus per-query stats, under the same routing
    (``use_batch``) and the cold-cache protocol.

    Exists for callers that need the actual answers — equivalence tests,
    precision evaluation, the throughput benchmark — rather than cost
    averages.
    """
    tracer = ensure_tracer(tracer)
    if use_batch:
        result = index.knn_batch(workload.queries, workload.k, tracer=tracer)
        return result.ids, result.distances, list(result.stats)
    return _per_query_loop(index, workload, tracer)


def measure_throughput(
    index: VectorIndex,
    workload: QueryWorkload,
    repeats: int = 1,
    tracer: Optional[Tracer] = None,
) -> Dict[str, float]:
    """Time the per-query loop against ``knn_batch`` on one workload and
    verify they agree.

    Runs both strategies ``repeats`` times each (best-of timing, which
    filters scheduler noise), asserts the batch returns exactly the
    sequential ids and distances, and returns queries/second for each
    plus the batch speedup — the schema ``BENCH_throughput.json``
    records.  A real ``tracer`` also gets the ``knn.batch_speedup`` gauge.
    """
    tracer = ensure_tracer(tracer)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    n = workload.n_queries

    def timed(use_batch: bool):
        start = time.perf_counter()
        ids, distances, _ = run_workload(index, workload, use_batch)
        return time.perf_counter() - start, (ids, distances)

    # Interleave the strategies round by round (rather than timing each in
    # its own phase) so transient machine load hits them alike; best-of
    # then filters the noisy rounds for both symmetrically.
    t_seq = t_batch = np.inf
    seq_out = batch_out = None
    for _ in range(repeats):
        t, out = timed(False)
        if t < t_seq:
            t_seq, seq_out = t, out
        t, out = timed(True)
        if t < t_batch:
            t_batch, batch_out = t, out
    seq_ids, seq_dists = seq_out
    batch_ids, batch_dists = batch_out
    if not np.array_equal(seq_ids, batch_ids):
        raise AssertionError("knn_batch ids diverge from sequential knn")
    if not np.array_equal(seq_dists, batch_dists):
        raise AssertionError(
            "knn_batch distances diverge from sequential knn"
        )
    qps_sequential = n / t_seq
    qps_batch = n / t_batch
    speedup = qps_batch / qps_sequential
    if tracer.enabled:
        tracer.gauge("knn.batch_speedup").set(speedup)
    return {
        "qps_sequential": qps_sequential,
        "qps_batch": qps_batch,
        "speedup_batch": speedup,
    }


def compare_index_schemes(
    reduced_mmdr: ReducedDataset,
    reduced_ldr: ReducedDataset,
    workload: QueryWorkload,
    include_seqscan: bool = True,
) -> Dict[str, BatchCost]:
    """The full Figure 9/10 panel at one dimensionality.

    * ``iMMDR`` — extended iDistance over the MMDR reduction,
    * ``iLDR`` — extended iDistance over the LDR reduction,
    * ``gLDR`` — one Hybrid tree per LDR cluster,
    * ``SeqScan`` — sequential scan of the LDR reduction.
    """
    builders: Dict[str, Callable[[], VectorIndex]] = {
        "iMMDR": lambda: ExtendedIDistance(reduced_mmdr),
        "iLDR": lambda: ExtendedIDistance(reduced_ldr),
        "gLDR": lambda: GlobalLDRIndex(reduced_ldr),
    }
    if include_seqscan:
        builders["SeqScan"] = lambda: SequentialScan(reduced_ldr)
    results: Dict[str, BatchCost] = {}
    for label, build in builders.items():
        index = build()
        cost = run_query_batch(index, workload)
        results[label] = BatchCost(
            scheme=label,
            mean_page_reads=cost.mean_page_reads,
            mean_cpu_seconds=cost.mean_cpu_seconds,
            median_cpu_seconds=cost.median_cpu_seconds,
            mean_cpu_work=cost.mean_cpu_work,
            mean_distance_computations=cost.mean_distance_computations,
            n_queries=cost.n_queries,
            index_pages=cost.index_pages,
        )
    return results
