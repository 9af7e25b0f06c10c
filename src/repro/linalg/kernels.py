"""Vectorized kernels shared by the batch query engine.

The batch KNN paths (:meth:`repro.index.base.VectorIndex.knn_batch`) promise
*bit-identical* results to the per-query search.  That rules out the usual
``cdist`` expansion ``sqrt(x·x - 2x·q + q·q)``, whose re-association changes
the last ulp, and also rules out replacing the per-query ``(d,) @ (d, d_r)``
projection with one ``(Q, d) @ (d, d_r)`` matmul (BLAS picks different
kernels for gemv vs gemm, and their row results differ bit-wise — measured,
not hypothetical).  What *is* safe is broadcasting the subtraction and
reducing the contiguous last axis: numpy's pairwise summation tree depends
only on the length and layout of the reduced axis, so

    np.linalg.norm(P[None, :, :] - Q[:, None, :], axis=2)[i]
        == np.linalg.norm(P - Q[i], axis=1)          # bit-for-bit

holds for C-contiguous inputs.  :func:`batch_l2_rows` and :func:`flat_l2`
package that identity with chunking so the broadcast buffer stays bounded.

Reducing a short last axis row by row is slow, though: numpy runs one
inner-loop call per row, so a 4-wide subspace pays one call per candidate.
:func:`column_l2` and :func:`gather_column_l2` score *dimension-major*
data — a ``(width, m)`` array whose row ``j`` holds every candidate's
coordinate ``j`` — one whole coordinate row per numpy call, and replay the
order numpy's pairwise summation (``pairwise_sum`` in numpy's
``loops_utils``) gives a contiguous row of ``width`` squares:

* ``width < 8`` — sequential adds;
* ``8 <= width <= 128`` — eight lanes, each summing every eighth square,
  folded as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then
  the ``width % 8`` tail added in order;
* ``width > 128`` — halve at ``n2 = width // 2 - (width // 2) % 8`` and
  add the two halves' sums.

Every candidate sees the same adds, in the same order, on the same
squares, so each distance is bit-identical to
``np.linalg.norm(rows - q, axis=1)`` over the row-major rows
(``tests/linalg/test_kernels.py`` checks widths 1..300).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

__all__ = [
    "multi_arange",
    "batch_l2_rows",
    "flat_l2",
    "column_l2",
    "gather_column_l2",
    "batch_mahalanobis_rows",
    "normalize_rows",
    "cold_lru_physical_reads",
    "require_kernel_matrix",
]

#: Cap on the number of float64 elements a broadcast diff buffer may hold
#: (~64 MiB).  Chunking slices the *query* axis only, so each output row is
#: still produced by one contiguous last-axis reduction — bit-identity holds.
_MAX_BUFFER_ELEMS = 1 << 23


def require_kernel_matrix(name: str, arr: np.ndarray) -> np.ndarray:
    """Reject inputs the hot kernels would otherwise silently copy.

    The query-path kernels used to ``ascontiguousarray`` their operands on
    every call, which hid a per-query allocate+copy whenever a caller handed
    over float32 or F-ordered data.  All build paths now produce C-contiguous
    float64 once, at construction, so a non-conforming input here is a caller
    bug — raise early (``TypeError`` for dtype, ``ValueError`` for layout)
    instead of quietly re-paying the copy on the hot path.
    """
    arr = np.asarray(arr)
    if arr.dtype != np.float64:
        raise TypeError(
            f"{name} must be float64, got {arr.dtype} (convert once at "
            "construction; kernels no longer copy per call)"
        )
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if not arr.flags.c_contiguous:
        raise ValueError(
            f"{name} must be C-contiguous (F-ordered or strided views "
            "would force a silent per-call copy; make the copy once at "
            "construction instead)"
        )
    return arr


def multi_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], stops[i])`` for every segment.

    Segments may be empty (``stops[i] == starts[i]``); ``stops`` must be
    >= ``starts`` elementwise.  Output order is segment order, ascending
    within each segment — exactly the order a per-segment Python loop of
    ``np.arange`` calls would produce, without the per-segment overhead.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lengths = stops - starts
    if np.any(lengths < 0):
        raise ValueError("multi_arange requires stops >= starts")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    seg_starts = ends - lengths  # first output index of each segment
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, lengths)
    return np.repeat(starts, lengths) + within


def batch_l2_rows(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``(Q, n)`` matrix whose row ``i`` is bit-identical to
    ``np.linalg.norm(points - queries[i], axis=1)``.

    ``points`` is ``(n, d)``, ``queries`` is ``(Q, d)``.  Queries are
    processed in chunks so the ``(q, n, d)`` diff buffer stays under
    ~64 MiB; chunk boundaries cannot affect bit-identity because each
    output row's reduction runs over its own contiguous length-``d`` run.

    Both operands must already be C-contiguous float64 (see
    :func:`require_kernel_matrix`).
    """
    points = require_kernel_matrix("points", points)
    queries = require_kernel_matrix("queries", queries)
    n, d = points.shape
    n_queries = queries.shape[0]
    out = np.empty((n_queries, n), dtype=np.float64)
    if n == 0 or n_queries == 0:
        return out
    chunk = max(1, _MAX_BUFFER_ELEMS // max(1, n * d))
    for lo in range(0, n_queries, chunk):
        hi = min(lo + chunk, n_queries)
        diff = points[None, :, :] - queries[lo:hi, None, :]
        out[lo:hi] = np.linalg.norm(diff, axis=2)
    return out


def flat_l2(
    points: np.ndarray, positions: np.ndarray, queries: np.ndarray,
    query_of_entry: np.ndarray,
) -> np.ndarray:
    """Per-entry distances ``||points[positions[e]] - queries[query_of_entry[e]]||``.

    The row-major gather: every (query, candidate) pair is one row of a
    single ``(N, d)`` elementwise subtraction, so no distances are computed
    for pairs no query asked for, and each entry is bit-identical to the
    sequential per-block ``np.linalg.norm(block - q_proj, axis=1)``.  The
    iDistance scan uses its dimension-major twin,
    :func:`gather_column_l2`, which returns the same bits.

    Large gathers are chunked along the entry axis so the two gathered
    ``(N, d)`` temporaries stay cache-friendly instead of forcing fresh
    multi-hundred-MB allocations; rows are independent, so chunk boundaries
    cannot affect bit-identity.

    ``points`` and ``queries`` must already be C-contiguous float64 (see
    :func:`require_kernel_matrix`).
    """
    points = require_kernel_matrix("points", points)
    queries = require_kernel_matrix("queries", queries)
    n = positions.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    d = points.shape[1]
    out = np.empty(n, dtype=np.float64)
    chunk = max(1, _MAX_BUFFER_ELEMS // (4 * max(1, d)))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = points[positions[lo:hi]] - queries[query_of_entry[lo:hi]]
        out[lo:hi] = np.linalg.norm(diff, axis=1)
    return out


#: numpy's pairwise-summation block size (``PW_BLOCKSIZE``): runs up to
#: this length are summed in eight lanes, longer ones are halved first.
_PW_BLOCKSIZE = 128


def _pairwise_rows(sq: np.ndarray, lo: int, n: int) -> np.ndarray:
    """Sum rows ``lo .. lo+n-1`` of ``sq`` elementwise, in numpy's pairwise
    order, *into* row ``lo`` (``sq`` is scratch) and return that row."""
    acc = sq[lo]
    if n < 8:
        for i in range(lo + 1, lo + n):
            acc += sq[i]
        return acc
    if n <= _PW_BLOCKSIZE:
        lanes = sq[lo : lo + 8]
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            lanes += sq[i : i + 8]
        lanes[0::2] += lanes[1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
        lanes[0::4] += lanes[2::4]  # (..)+(..) within each half
        acc += lanes[4]
        for i in range(stop, lo + n):
            acc += sq[i]
        return acc
    n2 = n // 2
    n2 -= n2 % 8
    acc = _pairwise_rows(sq, lo, n2)
    acc += _pairwise_rows(sq, lo + n2, n - n2)
    return acc


def _column_norms(diff: np.ndarray) -> np.ndarray:
    """Per-column L2 norm of a ``(width, m)`` difference array that the
    caller owns (it is overwritten)."""
    width = diff.shape[0]
    if width == 0:
        return np.zeros(diff.shape[1], dtype=np.float64)
    np.multiply(diff, diff, out=diff)
    out = _pairwise_rows(diff, 0, width)
    return np.sqrt(out, out=out)


def column_l2(columns: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``(m,)`` distances from ``query`` to the columns of ``columns``.

    ``columns`` is dimension-major, ``(width, m)`` — any view, e.g. the
    slice ``part[:, lo:hi]`` of a partition's key-ordered array — and
    ``query`` is ``(width,)``.  Entry ``e`` is bit-identical to
    ``np.linalg.norm(columns.T - query, axis=1)[e]`` computed on a
    C-contiguous copy (see the module docstring).
    """
    return _column_norms(columns - query[:, None])


def gather_column_l2(
    columns: np.ndarray,
    positions: np.ndarray,
    queries: np.ndarray,
    query_of_entry: np.ndarray,
) -> np.ndarray:
    """Per-entry ``||columns[:, positions[e]] - queries[:, query_of_entry[e]]||``.

    The dimension-major twin of :func:`flat_l2`: ``columns`` is
    ``(width, m)``, ``queries`` is ``(width, Q)``, and every entry is
    bit-identical to ``np.linalg.norm(rows - q, axis=1)`` over its
    row-major row.  Large gathers are chunked along the entry axis, which
    cannot change a value (columns are independent).
    """
    n = positions.size
    out = np.empty(n, dtype=np.float64)
    chunk = max(1, _MAX_BUFFER_ELEMS // (4 * max(1, columns.shape[0])))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = columns.take(positions[lo:hi], axis=1)
        diff -= queries.take(query_of_entry[lo:hi], axis=1)
        out[lo:hi] = _column_norms(diff)
    return out


def batch_mahalanobis_rows(
    points: np.ndarray,
    centroids: np.ndarray,
    chol_invs: np.ndarray,
    penalties: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(n, k)`` matrix of (normalized) Mahalanobis distances.

    Column ``j`` is bit-identical to
    ``ClusterShape.normalized_distance(points)`` for the shape whose
    centroid is ``centroids[j]`` and whose inverse Cholesky factor is
    ``chol_invs[j]``: the whitening ``(points - c) @ L_inv.T`` runs as the
    same gemm, the squared norm as the same einsum, and the volume penalty
    as the same scalar ``0.5 * (penalty + msq)``.  ``penalties`` is the
    per-cluster precomputed ``d ln 2π + ln|C|`` term (``None`` means the
    raw quadratic form, i.e. ``normalization="none"``).

    This is the reference implementation of the fused kernel: the compiled
    backend computes the same values without materializing the ``(n, d)``
    whitened temporaries, one accumulation per (point, cluster) pair.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    k = centroids.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    for j in range(k):
        diff = points - centroids[j]
        z = diff @ chol_invs[j].T
        msq = np.einsum("ij,ij->i", z, z)
        if penalties is None:
            out[:, j] = msq
        else:
            out[:, j] = 0.5 * (penalties[j] + msq)
    return out


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Row-normalize ``(n, d)`` data to unit L2 norm; zero rows unchanged.

    The cosine metric reduces to L2 on unit vectors, so the *same*
    normalization must be applied to build data, online inserts, and
    queries.  The per-row norm is a contiguous last-axis reduction, so
    ``normalize_rows(Q)[i]`` is bit-identical to
    ``normalize_rows(Q[i][None, :])[0]`` — which keeps the batched and
    per-query paths bit-identical under cosine exactly as under L2.
    """
    rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    out = rows.copy()
    nonzero = norms > 0.0
    if np.any(nonzero):
        out[nonzero] = rows[nonzero] / norms[nonzero, None]
    return out


def cold_lru_physical_reads(page_sequence: np.ndarray, capacity: int) -> int:
    """Physical reads a cold LRU buffer pool of ``capacity`` pages performs
    for ``page_sequence`` (in order), mirroring
    :class:`repro.storage.buffer.BufferPool` exactly.

    Fast path: while the pool never fills, every first touch misses and
    every revisit hits, so physical reads = distinct pages.  Only when the
    working set exceeds the capacity does eviction order matter, and then
    the sequence is replayed through an exact LRU model (hit moves to MRU,
    overflow evicts LRU) — the same policy ``BufferPool.read``/``_admit``
    implement.
    """
    if page_sequence.size == 0:
        return 0
    distinct = int(np.unique(page_sequence).size)
    if distinct <= capacity:
        return distinct
    resident: OrderedDict[int, bool] = OrderedDict()
    physical = 0
    for page in page_sequence.tolist():
        if page in resident:
            resident.move_to_end(page)
            continue
        physical += 1
        resident[page] = True
        if len(resident) > capacity:
            resident.popitem(last=False)
    return physical
