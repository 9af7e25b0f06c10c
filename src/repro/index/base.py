"""Common index API and per-query statistics.

Figures 9 and 10 compare three indexing schemes (iMMDR, iLDR, gLDR) plus a
sequential scan, reporting page accesses and CPU time per KNN query.  Every
index here is built from a :class:`~repro.reduction.base.ReducedDataset`,
owns a simulated page store + buffer pool, and answers
:meth:`VectorIndex.knn` with both the neighbor ids and a
:class:`QueryStats` diff of its cost counters around the search.

Distances: the search metric is L2 (the paper uses L2 for searching;
Mahalanobis is only for *discovering* the ellipsoids).  Distances within a
subspace are computed between reduced representations in that subspace's
axis system; outliers use full-dimensional L2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from contextlib import contextmanager
from pathlib import Path
from typing import Union

from ..linalg.kernels import normalize_rows
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, ensure_tracer
from ..storage.buffer import BufferPool
from ..storage.faults import CrashPoint, FaultPlan, FaultyPageStore
from ..storage.metrics import CostCounters, CostSnapshot
from ..storage.pager import PageStore
from ..storage.wal import WALPageStore, WriteAheadLog

__all__ = [
    "InvalidQueryError",
    "QueryStats",
    "KNNResult",
    "BatchKNNResult",
    "VectorIndex",
]


class InvalidQueryError(ValueError):
    """A query vector the index cannot answer meaningfully.

    Raised for NaN/Inf components and dimensionality mismatches.  NaN
    comparisons are all false, so an unchecked NaN query would silently
    return garbage neighbors — rejection is the only correct answer.
    :meth:`VectorIndex.knn` raises; :meth:`VectorIndex.knn_batch` instead
    skips the offending rows and reports them in
    :attr:`BatchKNNResult.invalid_queries`.
    """

#: Default buffer pool size (pages).  512 pages = 2 MiB: large enough that a
#: single query's working set fits, small enough that one query cannot cache
#: a whole dataset for the next.
DEFAULT_POOL_PAGES = 512


def canonical_top_k(
    ids: np.ndarray, distances: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest candidates by ``(distance, id)``, in that order.

    This is the one answer order every exact scheme selects under, so a
    tie at the k-th place always keeps the smallest id.  Large candidate
    sets are first cut at the k-th smallest distance (ties kept) so the
    lexsort only sees about ``k`` entries.
    """
    if distances.size > 4 * k:
        cut = np.partition(distances, k - 1)[k - 1]
        keep = distances <= cut
        ids, distances = ids[keep], distances[keep]
    order = np.lexsort((ids, distances))[:k]
    return ids[order], distances[order]


@dataclass(frozen=True)
class QueryStats:
    """Cost of one query (a diff of two counter snapshots)."""

    page_reads: int
    distance_computations: int
    distance_flops: int
    key_comparisons: int
    cpu_seconds: float

    @staticmethod
    def from_snapshots(
        before: CostSnapshot, after: CostSnapshot
    ) -> "QueryStats":
        diff = after - before
        return QueryStats(
            page_reads=diff.total_page_reads,
            distance_computations=diff.distance_computations,
            distance_flops=diff.distance_flops,
            key_comparisons=diff.key_comparisons,
            cpu_seconds=diff.cpu_seconds,
        )

    @property
    def cpu_work(self) -> int:
        """Deterministic CPU proxy: dimension-weighted distance work plus
        1-d key comparisons (each counts one unit)."""
        return self.distance_flops + self.key_comparisons


@dataclass(frozen=True)
class KNNResult:
    """Neighbor ids (nearest first), their scores, and the query's cost.

    ``distances`` are the index's search scores: within-subspace reduced L2
    (which lower-bounds the true distance) or exact L2 for outliers.  The
    answer is the top-K ordered by ``(distance, id)``: a tie at the k-th
    place keeps the smallest ids, in every scheme.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats

    def __post_init__(self) -> None:
        if self.ids.shape != self.distances.shape:
            raise ValueError(
                f"ids shape {self.ids.shape} != distances "
                f"shape {self.distances.shape}"
            )

    @property
    def k(self) -> int:
        return self.ids.size


@dataclass(frozen=True)
class BatchKNNResult:
    """Answers for a whole query workload in workload order.

    ``ids`` and ``distances`` are ``(Q, k)``, each row in ``(distance,
    rid)`` order; ``stats`` has one :class:`QueryStats` per query.
    Per-query accounting is defined under the *cold-cache* protocol
    (buffer pool empty at each query's start — the paper's per-query
    measurement), and is bit-identical
    to answering the same queries one at a time through :meth:`VectorIndex.knn`
    with a cache reset before each.  ``wall_seconds`` is the real elapsed
    time for the whole batch; on vectorized fast paths each query's
    ``cpu_seconds`` is the batch wall time apportioned equally, since the
    shared-scan kernels have no meaningful per-query wall attribution.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: Tuple[QueryStats, ...]
    wall_seconds: float
    #: Workload row indices rejected by validation (NaN/Inf components;
    #: zero vectors under the cosine metric).  Those rows hold ids of -1,
    #: NaN distances, and all-zero stats — the rest of the batch is
    #: answered normally (skip-and-report, not abort).
    invalid_queries: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.ids.shape != self.distances.shape:
            raise ValueError(
                f"ids shape {self.ids.shape} != distances "
                f"shape {self.distances.shape}"
            )
        if self.ids.ndim != 2 or self.ids.shape[0] != len(self.stats):
            raise ValueError(
                f"expected ({len(self.stats)}, k) id matrix, "
                f"got shape {self.ids.shape}"
            )

    @property
    def n_queries(self) -> int:
        return self.ids.shape[0]

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    def __len__(self) -> int:
        return self.n_queries

    def __getitem__(self, i: int) -> KNNResult:
        """One query's answer as a standalone :class:`KNNResult`."""
        return KNNResult(
            ids=self.ids[i], distances=self.distances[i], stats=self.stats[i]
        )


class VectorIndex:
    """A KNN index over a reduced dataset, with its own simulated storage."""

    #: Scheme name used in experiment tables ("iDistance", "gLDR", "SeqScan").
    name: str = "index"

    def __init__(
        self,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory: Optional[Callable[[CostCounters], PageStore]] = None,
    ) -> None:
        """``store_factory`` selects the physical page store: any callable
        taking a :class:`~repro.storage.metrics.CostCounters` and returning
        a :class:`~repro.storage.pager.PageStore` (e.g.
        :class:`~repro.storage.mmap_store.MmapPageStore` for out-of-core
        operation).  Defaults to the in-memory store.  Logical I/O
        accounting is store-independent, so swapping the factory never
        changes counters or results."""
        self.counters = CostCounters()
        factory = store_factory if store_factory is not None else PageStore
        self.store = factory(self.counters)
        self.pool = BufferPool(self.store, pool_pages, self.counters)

    #: Whether exact :meth:`knn` feeds an enabled tracer's
    #: ``knn.candidates_per_query`` / ``knn.pages_per_query`` histograms.
    _query_histograms = False

    def knn(
        self,
        query: np.ndarray,
        k: int,
        tracer: Optional[Tracer] = None,
        mode: str = "exact",
        rerank_depth: Optional[int] = None,
    ) -> KNNResult:
        """The K nearest neighbors of ``query`` under the index's scoring,
        ordered by ``(distance, rid)`` (see :class:`KNNResult`).

        Pass a :class:`~repro.obs.Tracer` to record per-phase spans (and
        per-span cost deltas) for this query; the default is a shared
        no-op tracer, under which the query's counters and results are
        bit-identical to an uninstrumented run.

        ``mode="approx"`` routes through the attached encoder (see
        :meth:`attach_encoder`): ADC-scan the PQ codes for a candidate
        set of ``rerank_depth * k`` rids, then rerank exactly.
        ``rerank_depth`` overrides the encoder's default scan depth and
        is only meaningful in approximate mode.  Either mode runs under
        the same ``knn.query`` measurement envelope (spans, flight
        records and the :class:`QueryStats` protocol).
        """
        if mode not in ("exact", "approx"):
            raise ValueError(
                f"unknown search mode {mode!r}; expected 'exact' or 'approx'"
            )
        layer = getattr(self, "encoder", None)
        if mode == "approx" and layer is None:
            raise RuntimeError(
                "no encoder attached: call attach_encoder() before "
                "mode='approx' queries"
            )
        query = self._check_query(query)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        tracer = ensure_tracer(tracer)
        if mode == "approx":
            (ids, distances), stats = self._measured(
                layer.search, self, query, k, rerank_depth, tracer,
                tracer=tracer, k=k,
            )
        else:
            (ids, distances), stats = self._measured(
                self._search, query, k, tracer, tracer=tracer, k=k
            )
            if tracer.enabled and self._query_histograms:
                tracer.histogram("knn.candidates_per_query").observe(
                    stats.distance_computations
                )
                tracer.histogram("knn.pages_per_query").observe(
                    stats.page_reads
                )
        return KNNResult(ids=ids, distances=distances, stats=stats)

    def _search(
        self, query: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The scheme's exact search for one validated query: ``(ids,
        distances)`` in ``(distance, rid)`` order, with every page read
        and distance charged to the index's counters.  Schemes override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Optional[Tracer] = None,
        cold_cache: bool = True,
        mode: str = "exact",
        rerank_depth: Optional[int] = None,
    ) -> BatchKNNResult:
        """Answer every query in ``(Q, d)`` ``queries``.

        Results (ids, distances) and per-query cost accounting are
        bit-identical to a per-query :meth:`knn` loop under the same cache
        protocol.  A scheme either overrides :meth:`_knn_batch` (iDistance,
        whose one shared-scan engine also answers :meth:`knn` on a single
        row; the batch entry amortizes per-query Python and small-kernel
        overhead across the workload and defers I/O charging to a cold
        LRU replay) or is answered by that loop (:meth:`_knn_batch_loop`;
        SeqScan and gLDR).  ``cold_cache=False`` always runs the loop:
        warm-cache accounting depends on the exact cross-query page
        interleaving, which a shared scan would change.

        The whole call runs under one ``knn.batch`` span; a real ``tracer``
        also gets a ``knn.batch_qps`` gauge.  The index's own counters are
        advanced by the batch totals either way.

        Rows with NaN/Inf components are *skipped and reported* (see
        :attr:`BatchKNNResult.invalid_queries`) rather than aborting the
        workload; a dimensionality mismatch is structural to the whole
        matrix and raises :class:`InvalidQueryError` outright.

        ``mode="approx"`` answers every row through the attached
        encoder's scan-then-rerank path (see :meth:`attach_encoder`) via
        the per-query loop — the vectorized exact fast paths do not
        apply — under the same cold-cache protocol, so batch answers
        remain bit-identical to a per-query approx loop.
        """
        queries = np.ascontiguousarray(
            np.atleast_2d(np.asarray(queries, dtype=np.float64))
        )
        if queries.ndim != 2:
            raise ValueError(
                f"queries must be (Q, d), got shape {queries.shape}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if mode not in ("exact", "approx"):
            raise ValueError(
                f"unknown search mode {mode!r}; expected 'exact' or 'approx'"
            )
        expected = self.query_dim
        if expected is not None and queries.shape[1] != expected:
            raise InvalidQueryError(
                f"queries have {queries.shape[1]} dimensions; the index "
                f"was built over {expected}-dimensional data"
            )
        tracer = ensure_tracer(tracer)
        valid = np.isfinite(queries).all(axis=1)
        if self.metric == "cosine":
            # Zero vectors have no direction: skip-and-report, same as NaN.
            valid &= np.linalg.norm(queries, axis=1) > 0.0
        invalid_rows = np.flatnonzero(~valid)
        valid_queries = queries if valid.all() else queries[valid]
        start = time.perf_counter()
        with tracer.span(
            "knn.batch",
            counters=self.counters,
            scheme=self.name,
            n_queries=queries.shape[0],
            k=k,
            cold_cache=cold_cache,
            invalid_queries=int(invalid_rows.size),
        ):
            ids, distances, stats, wall = self._dispatch_batch(
                valid_queries, k, tracer, cold_cache, start,
                mode=mode, rerank_depth=rerank_depth,
            )
        if invalid_rows.size:
            if tracer.enabled:
                tracer.counter("knn.invalid_queries").inc(
                    int(invalid_rows.size)
                )
            k_cols = ids.shape[1]
            full_ids = np.full(
                (queries.shape[0], k_cols), -1, dtype=np.int64
            )
            full_dists = np.full(
                (queries.shape[0], k_cols), np.nan, dtype=np.float64
            )
            full_ids[valid] = ids
            full_dists[valid] = distances
            zero = QueryStats(0, 0, 0, 0, 0.0)
            full_stats: List[QueryStats] = [zero] * queries.shape[0]
            for row, s in zip(np.flatnonzero(valid).tolist(), stats):
                full_stats[row] = s
            ids, distances, stats = full_ids, full_dists, full_stats
        if tracer.enabled and wall > 0:
            tracer.gauge("knn.batch_qps").set(queries.shape[0] / wall)
        return BatchKNNResult(
            ids=ids,
            distances=distances,
            stats=tuple(stats),
            wall_seconds=wall,
            invalid_queries=tuple(invalid_rows.tolist()),
        )

    def _dispatch_batch(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Tracer,
        cold_cache: bool,
        start: float,
        mode: str = "exact",
        rerank_depth: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, List[QueryStats], float]:
        """Route pre-validated queries to the fast path or the loop.

        The loop gets the caller's rows (:meth:`knn` normalizes each one
        under the cosine metric); the fast path gets them normalized
        here, through the same :func:`normalize_rows`.
        """
        has_fast_path = type(self)._knn_batch is not VectorIndex._knn_batch
        if has_fast_path and cold_cache and mode == "exact":
            if self.metric == "cosine":
                queries = normalize_rows(queries)
            with self.counters.cpu_timer():
                ids, distances, stats = self._knn_batch(queries, k, tracer)
            wall = time.perf_counter() - start
            per_query = wall / max(1, queries.shape[0])
            stats = [replace(s, cpu_seconds=per_query) for s in stats]
            # The loop path records per query via _measured; the
            # vectorized path records here so the flight recorder sees
            # every query either way.
            flight = getattr(self, "flight", None)
            if flight is not None:
                for s in stats:
                    flight.record(self.name, "knn_batch", s, k=k)
        else:
            ids, distances, stats = self._knn_batch_loop(
                queries, k, tracer, cold_cache,
                mode=mode, rerank_depth=rerank_depth,
            )
            wall = time.perf_counter() - start
        return ids, distances, stats, wall

    def _knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Tracer,
    ) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
        """Vectorized cold-cache batch entry; subclasses override, usually
        by running the same engine as :meth:`_search` with I/O charged to
        per-query ledgers instead of the shared pool.  Must return
        ``(Q, k)`` ids/distances plus per-query stats whose
        page/distance/key counts equal a cold per-query :meth:`knn` loop
        bit-for-bit (``cpu_seconds`` may be 0 — the caller apportions
        wall time).  The base implementation is never called (the caller
        routes to :meth:`_knn_batch_loop` when this is not overridden).
        """
        raise NotImplementedError

    def _knn_batch_loop(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Tracer,
        cold_cache: bool,
        mode: str = "exact",
        rerank_depth: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
        """Reference batch execution: a per-query :meth:`knn` loop."""
        # Mode kwargs are forwarded only off the exact path so vanilla
        # subclasses (and test doubles) with the historical ``knn``
        # signature keep working untouched.
        knn_kwargs = (
            {}
            if mode == "exact"
            else {"mode": mode, "rerank_depth": rerank_depth}
        )
        id_rows: List[np.ndarray] = []
        dist_rows: List[np.ndarray] = []
        stats: List[QueryStats] = []
        for query in queries:
            if cold_cache:
                self.reset_cache()
            result = self.knn(query, k, tracer=tracer, **knn_kwargs)
            id_rows.append(result.ids)
            dist_rows.append(result.distances)
            stats.append(result.stats)
        if not id_rows:
            return (
                np.empty((0, 0), dtype=np.int64),
                np.empty((0, 0), dtype=np.float64),
                [],
            )
        return np.vstack(id_rows), np.vstack(dist_rows), stats

    def reset_cache(self) -> None:
        """Drop the buffer pool contents (cold-cache measurement)."""
        self.pool.clear()

    # ------------------------------------------------------------------
    # approximate tier (DESIGN.md §16)
    # ------------------------------------------------------------------

    def attach_encoder(
        self,
        config=None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ):
        """Train and attach a PQ code layer for ``mode="approx"`` queries.

        One seeded codebook per bulk partition (reduced subspace /
        outlier set), code pages allocated on this index's store, and
        the layer pickles along with the index through snapshots.  Exact
        search never reads code pages, so attaching cannot move an
        exact-mode counter or fingerprint.  Returns the attached
        :class:`~repro.encode.ApproxLayer`.
        """
        from ..encode import build_encoder

        self.encoder = build_encoder(
            self, config=config, seed=seed, tracer=tracer
        )
        return self.encoder

    def _approx_rerank_pages(self, rids: np.ndarray) -> np.ndarray:
        """Data page id holding each bulk rid's frame vector, for the
        approximate tier's exact rerank to charge its reads through the
        same accounting as exact search.  Schemes override with their
        build layout (iDistance routes through ``locate``)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not map rids to data pages; "
            "approximate rerank is unavailable"
        )

    # ------------------------------------------------------------------
    # robustness
    # ------------------------------------------------------------------

    @property
    def query_dim(self) -> Optional[int]:
        """Expected query dimensionality (the original-space width), or
        ``None`` when the index has no reduced dataset to derive it from."""
        reduced = getattr(self, "reduced", None)
        if reduced is None:
            return None
        return int(reduced.dimensionality)

    @property
    def metric(self) -> str:
        """The search metric the index answers under (``"l2"`` or
        ``"cosine"``), inherited from the reduced dataset it was built
        over.  Cosine is implemented as L2 over unit-normalized vectors
        (DESIGN.md §13): the stored data was normalized at reduction time,
        and queries/inserts are normalized on the way in, after which every
        kernel, bound, and counter behaves exactly as under L2."""
        reduced = getattr(self, "reduced", None)
        return getattr(reduced, "metric", "l2") if reduced is not None else "l2"

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        """Validate one query vector, raising :class:`InvalidQueryError`.

        Rejects non-1-d inputs, dimensionality mismatches, and NaN/Inf
        components — all of which would otherwise flow through the distance
        kernels and come back as confidently wrong neighbors.
        """
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise InvalidQueryError(
                f"query must be a 1-d vector, got shape {query.shape}"
            )
        expected = self.query_dim
        if expected is not None and query.shape[0] != expected:
            raise InvalidQueryError(
                f"query has {query.shape[0]} dimensions; the index was "
                f"built over {expected}-dimensional data"
            )
        if not np.isfinite(query).all():
            raise InvalidQueryError(
                "query contains NaN or Inf components"
            )
        if self.metric == "cosine":
            if float(np.linalg.norm(query)) == 0.0:
                raise InvalidQueryError(
                    "cosine similarity is undefined for the zero vector"
                )
            # Through normalize_rows (not a scalar division) so the
            # per-query path is bit-identical to the batched one.
            query = normalize_rows(query[None, :])[0]
        return query

    def _prepare_point(self, point: np.ndarray) -> np.ndarray:
        """Canonicalize one insert vector: contiguous float64, normalized
        to unit length under the cosine metric (zero vectors are rejected
        — they have no direction to index)."""
        point = np.ascontiguousarray(np.asarray(point, dtype=np.float64))
        if self.metric == "cosine":
            if float(np.linalg.norm(point)) == 0.0:
                raise InvalidQueryError(
                    "cannot insert the zero vector under the cosine metric"
                )
            point = normalize_rows(point[None, :])[0]
        return point

    def _repoint_store(self, store: PageStore) -> None:
        """Swap every component's store reference (buffer pool, B+-tree,
        Hybrid trees) to ``store`` — the attach/detach primitive shared by
        fault injection and WAL protection."""
        self.store = store
        self.pool.store = store
        tree = getattr(self, "tree", None)
        if tree is not None:
            tree.store = store
        for hybrid in getattr(self, "trees", []):
            hybrid.store = store

    def enable_faults(
        self,
        plan: FaultPlan,
        metrics: Optional[MetricsRegistry] = None,
    ) -> FaultyPageStore:
        """Wrap this index's page store in a seeded fault injector.

        Every component holding a store reference (buffer pool, B+-tree,
        Hybrid trees) is repointed at the wrapper, so all subsequent page
        traffic flows through the :class:`~repro.storage.faults.FaultPlan`.
        Returns the wrapper; its ``fault_metrics`` registry carries the
        ``faults.injected*`` / ``faults.retried`` counters.  Calling this
        on an already-faulty index layers a second plan — usually a test
        bug — so it raises instead.
        """
        if isinstance(self.store, FaultyPageStore):
            raise RuntimeError(
                "fault injection is already enabled on this index"
            )
        faulty = FaultyPageStore(self.store, plan, metrics=metrics)
        self._repoint_store(faulty)
        return faulty

    def disable_faults(self) -> None:
        """Undo :meth:`enable_faults`, restoring the pristine inner store."""
        store = self.store
        if not isinstance(store, FaultyPageStore):
            return
        self._repoint_store(store.inner)

    # ------------------------------------------------------------------
    # durability (DESIGN.md §10)
    # ------------------------------------------------------------------

    def enable_wal(
        self,
        wal: Union[WriteAheadLog, str, Path],
        crashpoint: Optional[CrashPoint] = None,
    ) -> WALPageStore:
        """Put every subsequent page mutation under write-ahead logging.

        ``wal`` is an open :class:`~repro.storage.wal.WriteAheadLog` or a
        path to create one at.  All store references are repointed at a
        :class:`~repro.storage.wal.WALPageStore` wrapper, after which
        :meth:`insert` / :meth:`delete` run as logged transactions and are
        recoverable via :func:`repro.recovery.recover`.  ``crashpoint``
        arms a deterministic simulated crash (test harnesses).

        Layering rules: WAL-over-faults or faults-over-WAL is not
        supported — disable one before enabling the other.
        """
        if isinstance(self.store, (WALPageStore, FaultyPageStore)):
            raise RuntimeError(
                "the index's store is already wrapped (WAL or fault "
                "injection); disable that layer first"
            )
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        wal_store = WALPageStore(self.store, wal, crashpoint=crashpoint)
        self._repoint_store(wal_store)
        return wal_store

    def disable_wal(self) -> Optional[WALPageStore]:
        """Detach WAL protection, restoring the inner store.

        Returns the detached wrapper (so a checkpoint can reattach it via
        :meth:`reattach_wal`), or ``None`` when WAL was not enabled.  The
        log itself is left open and untouched.
        """
        store = self.store
        if not isinstance(store, WALPageStore):
            return None
        self._repoint_store(store.inner)
        return store

    def reattach_wal(self, wal_store: WALPageStore) -> None:
        """Re-point the index at a wrapper from :meth:`disable_wal`
        (checkpointing detaches around the snapshot write)."""
        if wal_store.inner is not self.store:
            raise RuntimeError(
                "wal_store does not wrap this index's current store"
            )
        self._repoint_store(wal_store)

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log, or ``None`` when not enabled."""
        store = self.store
        if isinstance(store, WALPageStore):
            return store.wal
        return None

    @contextmanager
    def _wal_txn(self, kind: str):
        """Run a mutation as a WAL transaction when WAL is enabled.

        Yields the open :class:`~repro.storage.wal.WALTransaction` (the
        mutator calls ``set_meta`` with its recovery after-image before
        the block ends) or ``None`` when the index is unprotected — the
        mutation then simply runs unlogged, preserving the pre-WAL API.
        """
        wal = self.wal
        if wal is None:
            yield None
            return
        with wal.transaction(kind) as txn:
            yield txn

    def _apply_recovery_meta(self, meta: dict) -> None:
        """Apply one committed transaction's index-level after-image
        (recovery's metadata redo).  Subclasses that support online
        mutation override this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support metadata recovery"
        )

    @property
    def live_count(self) -> int:
        """Visible points: bulk load plus online inserts minus deletes."""
        reduced = getattr(self, "reduced", None)
        bulk = int(reduced.n_points) if reduced is not None else 0
        return (
            bulk
            + int(getattr(self, "n_inserted", 0))
            - len(getattr(self, "_tombstones", ()))
        )

    def _tombstone_array(self) -> np.ndarray:
        """Sorted int64 array of deleted rids, for vectorized filtering.

        Cached by size — tombstone sets only grow, so a size match means
        the cache is current.
        """
        tombs = getattr(self, "_tombstones", None)
        if not tombs:
            return np.empty(0, dtype=np.int64)
        cache = getattr(self, "_tomb_cache", None)
        if cache is None or cache.size != len(tombs):
            cache = np.fromiter(
                sorted(tombs), dtype=np.int64, count=len(tombs)
            )
            self._tomb_cache = cache
        return cache

    @property
    def size_pages(self) -> int:
        """Total pages the index occupies."""
        return self.store.allocated_pages

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of buffered reads served without physical I/O."""
        return self.pool.hit_rate

    def storage_stats(self) -> dict:
        """Buffer-pool and page-store state, for traces and tests.

        Exposes the pool's hit/miss split (``logical_reads`` vs
        ``physical_reads`` in counter terms) so cache behavior can be
        asserted without reaching into the pool.
        """
        return {
            "buffer_hits": self.pool.hits,
            "buffer_misses": self.pool.misses,
            "buffer_hit_rate": self.pool.hit_rate,
            "resident_pages": len(self.pool),
            "capacity_pages": self.pool.capacity_pages,
            "allocated_pages": self.store.allocated_pages,
        }

    def _measured(
        self,
        fn,
        *args,
        tracer: Tracer = NULL_TRACER,
        k: Optional[int] = None,
        **kwargs,
    ):
        """Run ``fn`` under the CPU timer and return (result, QueryStats).

        When a real ``tracer`` is supplied the call is wrapped in a
        ``knn.query`` span (cost delta = the whole query) and the buffer
        pool feeds ``buffer.hits``/``buffer.misses`` counters for the
        duration.  ``fn`` receives ``*args``/``kwargs`` untouched —
        callers that want per-phase spans pass the tracer along inside
        ``args`` themselves.  An enabled flight recorder (see
        :meth:`enable_flight_recorder`) gets the finished stats; ``k``
        only labels that record.
        """
        before = self.counters.snapshot()
        previous_pool_tracer = self.pool.tracer
        self.pool.tracer = tracer if tracer.enabled else None
        try:
            with tracer.span(
                "knn.query", counters=self.counters, scheme=self.name
            ):
                with self.counters.cpu_timer():
                    result = fn(*args, **kwargs)
        finally:
            self.pool.tracer = previous_pool_tracer
        stats = QueryStats.from_snapshots(before, self.counters.snapshot())
        if tracer.enabled:
            tracer.gauge("buffer.hit_rate").set(self.pool.hit_rate)
        flight = getattr(self, "flight", None)
        if flight is not None:
            flight.record(self.name, "knn", stats, k=k)
        return result, stats

    # ------------------------------------------------------------------
    # observability (DESIGN.md §12)
    # ------------------------------------------------------------------

    def explain(
        self,
        query: np.ndarray,
        k: int,
        mode: str = "exact",
        rerank_depth: Optional[int] = None,
    ) -> "QueryExplain":  # noqa: F821 - imported lazily below
        """Run one cold-cache query under a private tracer and return its
        :class:`~repro.obs.explain.QueryExplain` — the EXPLAIN ANALYZE
        view of where that query's pages, distance evaluations, and key
        comparisons went, phase by phase and (for iDistance) partition by
        partition.  ``mode="approx"`` explains the encoder path instead;
        its ``knn.approx.scan`` / ``knn.approx.rerank`` phases attribute
        code-scan vs rerank cost.

        The query executes for real: the index's counters advance exactly
        as a normal :meth:`knn` call would, and the explain totals equal
        that call's :class:`QueryStats` counter for counter.
        """
        from ..obs.explain import explain_from_tracer

        knn_kwargs = (
            {}
            if mode == "exact"
            else {"mode": mode, "rerank_depth": rerank_depth}
        )
        tracer = Tracer(counters=self.counters)
        self.reset_cache()
        result = self.knn(query, k, tracer=tracer, **knn_kwargs)
        return explain_from_tracer(
            tracer,
            k=k,
            result_ids=result.ids.tolist(),
            delta_rids=self._delta_rids(),
        )

    def _delta_rids(self):
        """Row ids currently living in delta structures (online inserts
        not yet merged into the bulk-loaded index), scheme-agnostic:
        iDistance tracks per-partition delta pages via ``_delta_location``;
        SeqScan/gLDR keep a shared :class:`~repro.index.dynamic.DeltaStore`.
        """
        locations = getattr(self, "_delta_location", None)
        if locations is not None:
            return locations.keys()
        delta = getattr(self, "delta", None)
        if delta is not None:
            return delta.rids
        return ()

    def enable_flight_recorder(
        self,
        capacity: int = 256,
        slow_threshold: Optional[int] = None,
    ):
        """Attach a :class:`~repro.obs.flight.FlightRecorder`: every
        subsequent query leaves a bounded-memory cost record, with
        ``slow_threshold`` (logical cost units — machine-independent)
        classifying slow queries.  Returns the recorder; set
        ``self.flight = None`` to detach."""
        from ..obs.flight import FlightRecorder

        self.flight = FlightRecorder(
            capacity=capacity, slow_threshold=slow_threshold
        )
        return self.flight

    def _note_routed_insert(self, subspace_idx: int, residual: float) -> None:
        """Record one online insert's routing residual (its ``ProjDist_r``
        to the chosen subspace) for the health sampler's live MPE
        estimate.  Outlier-routed inserts (``subspace_idx < 0``) carry no
        subspace residual.  Guarded with ``getattr`` because recovered /
        unpickled indexes may predate the attribute."""
        if subspace_idx < 0:
            return
        residuals = getattr(self, "_insert_residuals", None)
        if residuals is None:
            residuals = self._insert_residuals = {}
        count, total = residuals.get(subspace_idx, (0, 0.0))
        residuals[subspace_idx] = (count + 1, total + float(residual))
