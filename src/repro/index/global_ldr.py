"""gLDR: the Global Index of the LDR paper — one Hybrid tree per cluster.

This is the third indexing scheme of Figures 9/10: reduced clusters each get
their own multi-dimensional index (a Hybrid tree), and an in-memory array
keeps each cluster's reference frame so a query can be projected per
cluster.  KNN search runs a single best-first queue *across* all trees,
seeded with each root's MINDIST, so the global K-th-best distance prunes
every tree simultaneously; outliers (stored at full dimensionality) are
scanned sequentially, exactly as the reduced clusters' leftovers are
handled in the LDR paper.

Scoring matches the extended iDistance: within-cluster reduced L2 (a lower
bound of the true distance), full L2 for outliers — so precision
comparisons between the schemes are apples to apples and the cost
difference is purely structural.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from ..obs.tracer import Tracer
from ..reduction.base import ReducedDataset
from ..storage.pager import pages_for_vectors, rows_per_page
from .base import DEFAULT_POOL_PAGES, VectorIndex, canonical_top_k
from .dynamic import DeltaStore, route_point
from .hybrid_tree import HybridTree, offer_top_k

__all__ = ["GlobalLDRIndex"]


class GlobalLDRIndex(VectorIndex):
    """One Hybrid tree per reduced cluster + sequential outlier scan."""

    name = "gLDR"

    def __init__(
        self,
        reduced: ReducedDataset,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory=None,
    ) -> None:
        super().__init__(pool_pages=pool_pages, store_factory=store_factory)
        self.reduced = reduced
        self.trees: List[HybridTree] = []
        for subspace in reduced.subspaces:
            self.trees.append(
                HybridTree(
                    self.store,
                    self.pool,
                    subspace.projections,
                    subspace.member_ids,
                )
            )
        self.outlier_pages = pages_for_vectors(
            reduced.outliers.size, reduced.dimensionality
        )
        self._outlier_page_ids = [
            self.store.allocate(("gldr-outliers",), 0)
            for _ in range(self.outlier_pages)
        ]
        self.delta = DeltaStore("gldr")
        self.n_inserted = 0
        self._tombstones: set = set()

    def _approx_rerank_pages(self, rids: np.ndarray) -> np.ndarray:
        """Data page per bulk rid: the Hybrid-tree leaf that owns the
        row (derived once per index via the accounting-free
        ``leaf_of_rows`` walk), or the outlier page holding the packed
        full-``d`` vector."""
        page_of_rid = getattr(self, "_rerank_page_of_rid", None)
        if page_of_rid is None:
            page_of_rid = np.full(
                self.reduced.n_points, -1, dtype=np.int64
            )
            for tree in self.trees:
                page_of_rid[tree.rids] = tree.leaf_of_rows()
            outliers = self.reduced.outliers
            if outliers.size:
                per_page = rows_per_page(self.reduced.dimensionality)
                pages = np.asarray(
                    self._outlier_page_ids, dtype=np.int64
                )
                rows = np.arange(outliers.size, dtype=np.int64)
                page_of_rid[outliers.member_ids] = pages[
                    np.minimum(rows // per_page, pages.size - 1)
                ]
            self._rerank_page_of_rid = page_of_rid
        return page_of_rid[np.asarray(rids, dtype=np.int64)]

    # ------------------------------------------------------------------
    # online mutation
    # ------------------------------------------------------------------

    def insert(
        self, point: np.ndarray, rid: int, beta: float = 0.1
    ) -> int:
        """Insert a point into the index's delta store, routed like the
        paper's dynamic insert (nearest subspace within β, else outlier).
        The delta rides alongside the Hybrid trees and is scanned by every
        query.  Returns the subspace index used (-1 for outlier/full-d).
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

    def _search(
        self,
        query: np.ndarray,
        k: int,
        tracer: Tracer,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Best-first search: outliers and the insert delta first (exact
        distances tighten the global bound), then one frontier across
        every cluster's Hybrid tree."""
        k = min(k, self.live_count)
        if k <= 0:  # every point deleted — nothing to return
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        q_proj = [
            self.reduced.subspaces[i].project(query)
            for i in range(len(self.trees))
        ]
        results: List[Tuple[float, int]] = []  # see offer_top_k
        tombs = getattr(self, "_tombstones", ())

        def offer(dist: float, rid: int) -> None:
            if rid not in tombs:
                offer_top_k(results, k, dist, rid)

        # Outliers first: their exact distances tighten the global bound
        # before any tree is descended.
        outliers = self.reduced.outliers
        if outliers.size:
            with tracer.span(
                "gldr.outlier_scan",
                counters=self.counters,
                outliers=int(outliers.size),
            ):
                self.counters.count_sequential_read(self.outlier_pages)
                dists = np.linalg.norm(outliers.points - query, axis=1)
                self.counters.count_distance(
                    outliers.size, dims=self.reduced.dimensionality
                )
                for dist, rid in zip(dists, outliers.member_ids):
                    offer(float(dist), int(rid))

        # Delta store next (few entries; exact distances, like outliers):
        # scoring it before the trees tightens the bound further.
        delta = getattr(self, "delta", None)
        if delta is not None and len(delta):
            with tracer.span(
                "gldr.delta_scan",
                counters=self.counters,
                entries=len(delta),
            ):
                for page in delta.pages:
                    self.pool.read(page)
                dists = delta.score(query, q_proj, self.counters)
                for dist, rid in zip(dists.tolist(), delta.rids):
                    offer(dist, rid)

        # One global frontier across every cluster's tree.
        frontier: List[Tuple[float, int, int]] = []
        for tree_idx, tree in enumerate(self.trees):
            heapq.heappush(
                frontier,
                (tree.root_mindist(q_proj[tree_idx]), tree_idx, tree.root_page),
            )

        with tracer.span(
            "gldr.tree_search", counters=self.counters, trees=len(self.trees)
        ) as tree_span:
            expanded = 0
            while frontier:
                mindist, tree_idx, page = heapq.heappop(frontier)
                if len(results) == k and mindist > -results[0][0]:
                    break

                def push(child_mindist: float, child_page: int) -> None:
                    heapq.heappush(
                        frontier, (child_mindist, tree_idx, child_page)
                    )

                self.trees[tree_idx].expand(
                    page, q_proj[tree_idx], push, offer
                )
                expanded += 1
            if tracer.enabled:
                tree_span.set(nodes_expanded=expanded)

        ids = np.array([-rid for _, rid in results], dtype=np.int64)
        distances = np.array([-d for d, _ in results], dtype=np.float64)
        return canonical_top_k(ids, distances, k)
