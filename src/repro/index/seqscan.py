"""Sequential scan over the reduced data — Figure 9's floor/ceiling line.

Stores each partition's reduced vectors packed into data pages and answers
a KNN query by reading every page once, sequentially, and scoring every
vector.  No index structure, no random I/O: for a reduced dataset of
``n`` vectors at average width ``d_r`` the cost is exactly
``ceil(n * d_r * 4 / 4096)`` sequential page reads — the bar the paper shows
gLDR falling *behind* once the dimensionality reaches ~20.

Online mutation (DESIGN.md §10): inserts append to a
:class:`~repro.index.dynamic.DeltaStore` whose pages join the scan;
deletes tombstone the rid, and the scan still scores the dead entry but
filters it from the result — both run as WAL transactions when
:meth:`~repro.index.base.VectorIndex.enable_wal` is active.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..obs.tracer import Tracer
from ..reduction.base import ReducedDataset
from ..storage.pager import pages_for_vectors, rows_per_page
from .base import DEFAULT_POOL_PAGES, VectorIndex, canonical_top_k
from .dynamic import DeltaStore, route_point

__all__ = ["SequentialScan"]


class SequentialScan(VectorIndex):
    """Full scan of the reduced representations (subspace-aware scoring)."""

    name = "SeqScan"

    def __init__(
        self,
        reduced: ReducedDataset,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory=None,
    ) -> None:
        super().__init__(pool_pages=pool_pages, store_factory=store_factory)
        self.reduced = reduced
        #: Pages the bulk-loaded data occupies (subspaces + outliers).
        self.scan_pages = sum(
            pages_for_vectors(s.size, s.reduced_dim)
            for s in reduced.subspaces
        ) + pages_for_vectors(
            reduced.outliers.size, reduced.dimensionality
        )
        # Materialize the page map so the store reflects reality, and
        # remember which page holds each rid's vector so the approximate
        # tier's exact rerank charges the same layout a scan reads.
        self._page_of_rid = np.full(reduced.n_points, -1, dtype=np.int64)
        for subspace in reduced.subspaces:
            pages = [
                self.store.allocate(
                    ("seqscan-data", subspace.subspace_id), 0
                )
                for _ in range(
                    pages_for_vectors(subspace.size, subspace.reduced_dim)
                )
            ]
            if pages:
                per_page = rows_per_page(subspace.reduced_dim)
                rows = np.arange(subspace.size, dtype=np.int64)
                self._page_of_rid[subspace.member_ids] = np.asarray(
                    pages, dtype=np.int64
                )[np.minimum(rows // per_page, len(pages) - 1)]
        outlier_pages = [
            self.store.allocate(("seqscan-outliers",), 0)
            for _ in range(
                pages_for_vectors(
                    reduced.outliers.size, reduced.dimensionality
                )
            )
        ]
        if outlier_pages:
            per_page = rows_per_page(reduced.dimensionality)
            rows = np.arange(reduced.outliers.size, dtype=np.int64)
            self._page_of_rid[reduced.outliers.member_ids] = np.asarray(
                outlier_pages, dtype=np.int64
            )[np.minimum(rows // per_page, len(outlier_pages) - 1)]
        self.delta = DeltaStore("seqscan")
        self.n_inserted = 0
        self._tombstones: set = set()

    def _approx_rerank_pages(self, rids: np.ndarray) -> np.ndarray:
        """Data page per bulk rid, from the layout recorded at build."""
        return self._page_of_rid[np.asarray(rids, dtype=np.int64)]

    @property
    def total_scan_pages(self) -> int:
        """Pages one full scan reads: bulk data plus the insert delta."""
        return self.scan_pages + len(self.delta.pages)

    # ------------------------------------------------------------------
    # online mutation
    # ------------------------------------------------------------------

    def insert(
        self, point: np.ndarray, rid: int, beta: float = 0.1
    ) -> int:
        """Insert a point into the scan's delta store, routed like the
        paper's dynamic insert (nearest subspace within β, else outlier).
        Returns the subspace index used (-1 for outlier/full-d).
        Raises ``ValueError`` for a rid that is live or was deleted."""
        point = self._prepare_point(point)
        rid = int(rid)
        if rid in self._tombstones:
            raise ValueError(
                f"rid {rid} was deleted from this index; deleted ids "
                "cannot be reused before a rebuild"
            )
        if 0 <= rid < self.reduced.n_points or rid in self.delta.rids:
            raise ValueError(f"rid {rid} is already live in this index")
        sidx, vector, residual = route_point(self.reduced, point, beta)
        self._note_routed_insert(sidx, residual)
        with self._wal_txn("insert") as txn:
            self.delta.add(self.store, rid, sidx, vector)
            self.n_inserted += 1
            if txn is not None:
                txn.set_meta(
                    {
                        "kind": "insert",
                        "rid": rid,
                        "subspace": sidx,
                        "vector": vector,
                        **self.delta.fill_meta(),
                    }
                )
        return sidx

    def delete(self, rid: int) -> None:
        """Tombstone a record id.  Raises ``KeyError`` for unknown or
        already-deleted rids."""
        rid = int(rid)
        if rid in self._tombstones:
            raise KeyError(f"rid {rid} was already deleted")
        if not (0 <= rid < self.reduced.n_points) and (
            rid not in self.delta.rids
        ):
            raise KeyError(f"rid {rid} is not in the index")
        with self._wal_txn("delete") as txn:
            self._tombstones.add(rid)
            if txn is not None:
                txn.set_meta({"kind": "delete", "rid": rid})

    def _apply_recovery_meta(self, meta: dict) -> None:
        if not hasattr(self, "_tombstones"):
            self._tombstones = set()
        kind = meta["kind"]
        if kind == "insert":
            self.delta.apply_insert(
                meta["rid"], meta["subspace"], meta["vector"], meta
            )
            self.n_inserted = getattr(self, "n_inserted", 0) + 1
        elif kind == "delete":
            self._tombstones.add(int(meta["rid"]))
        else:
            raise ValueError(f"unknown recovery meta kind {kind!r}")

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _search(
        self,
        query: np.ndarray,
        k: int,
        tracer: Tracer,
    ) -> Tuple[np.ndarray, np.ndarray]:
        k = min(k, self.live_count)
        if k <= 0:  # every point deleted — nothing to return
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        with tracer.span(
            "knn.sequential_scan",
            counters=self.counters,
            pages=self.total_scan_pages,
        ):
            self.counters.count_sequential_read(self.total_scan_pages)
            id_chunks: List[np.ndarray] = []
            dist_chunks: List[np.ndarray] = []
            q_projs: List[np.ndarray] = []
            for subspace in self.reduced.subspaces:
                q_proj = subspace.project(query)
                q_projs.append(q_proj)
                diff = subspace.projections - q_proj
                dist_chunks.append(np.linalg.norm(diff, axis=1))
                id_chunks.append(subspace.member_ids)
                self.counters.count_distance(
                    subspace.size, dims=subspace.reduced_dim
                )
            outliers = self.reduced.outliers
            if outliers.size:
                diff = outliers.points - query
                dist_chunks.append(np.linalg.norm(diff, axis=1))
                id_chunks.append(outliers.member_ids)
                self.counters.count_distance(
                    outliers.size, dims=self.reduced.dimensionality
                )
            if len(self.delta):
                dist_chunks.append(
                    self.delta.score(query, q_projs, self.counters)
                )
                id_chunks.append(
                    np.asarray(self.delta.rids, dtype=np.int64)
                )

            ids = np.concatenate(id_chunks)
            distances = np.concatenate(dist_chunks)
            tombs = self._tombstone_array()
            if tombs.size:
                alive = ~np.isin(ids, tombs)
                ids, distances = ids[alive], distances[alive]
            return canonical_top_k(ids, distances, k)
