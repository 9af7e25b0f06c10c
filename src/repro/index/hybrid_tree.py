"""Hybrid tree — the multi-dimensional index under the gLDR baseline.

Chakrabarti & Mehrotra's Hybrid tree (ICDE 1999) is a kd-tree/R-tree hybrid:
internal nodes partition space with single-dimension splits (kd style,
packed many to a disk page) while allowing the relaxed, overlap-tolerant
semantics of data-partitioning trees.  The LDR paper's *Global Index* (gLDR
here) builds one Hybrid tree per reduced cluster.

Our from-scratch implementation keeps the two properties the ICDE-2003 paper
uses to explain gLDR's costs (§6.2):

* **internal nodes carry multi-dimensional geometry** — each child entry
  stores a d_r-dimensional bounding rectangle, so fanout shrinks as
  dimensionality grows (``4096 / (8·d_r + 8)`` children per page vs. the
  B+-tree's constant 256), which is what drives gLDR's I/O past a
  sequential scan at ~20 dimensions;
* **search computes L-norms in the nodes** — pruning requires a
  d_r-dimensional MINDIST per child rectangle, so CPU cost scales with
  dimensionality, unlike iDistance's one-dimensional key comparisons.

Construction is a recursive kd partitioning: split the largest group at the
median of its widest dimension until a node's child count reaches the page
fanout, then recurse.  This yields zero-overlap rectangles (the best case
for the baseline — our gLDR numbers are, if anything, generous to it).
Search is classic best-first branch-and-bound on MINDIST.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..storage.buffer import BufferPool
from ..storage.pager import PAGE_SIZE, POINTER_SIZE, RID_SIZE, PageStore, vector_bytes
from ..storage.metrics import CostCounters

__all__ = [
    "HybridTree",
    "hybrid_internal_fanout",
    "hybrid_leaf_capacity",
    "offer_top_k",
]


def offer_top_k(
    results: List[Tuple[float, int]], k: int, dist: float, rid: int
) -> None:
    """Offer one candidate to a best-K heap under ``(distance, rid)``.

    ``results`` is a heapq min-heap of ``(-distance, -rid)``, so its root
    is the worst kept candidate; a new one replaces it when it is smaller
    in ``(distance, rid)`` order, which keeps the smaller rid on a tie.
    """
    if len(results) < k:
        heapq.heappush(results, (-dist, -rid))
    elif (-dist, -rid) > results[0]:
        heapq.heapreplace(results, (-dist, -rid))


def hybrid_internal_fanout(dimensionality: int) -> int:
    """Children per internal page: each child entry needs a d-dimensional
    rectangle (two float32 corners) plus a pointer."""
    entry_bytes = 2 * vector_bytes(dimensionality) + POINTER_SIZE
    return max(2, PAGE_SIZE // entry_bytes)


def hybrid_leaf_capacity(dimensionality: int) -> int:
    """Vectors per leaf page: vector payload plus a record id each."""
    entry_bytes = vector_bytes(dimensionality) + RID_SIZE
    return max(1, PAGE_SIZE // entry_bytes)


@dataclass
class _Leaf:
    rows: np.ndarray  # indices into the tree's vector block

    is_leaf = True


@dataclass
class _Internal:
    child_pages: List[int]
    rect_lo: np.ndarray  # (n_children, d)
    rect_hi: np.ndarray

    is_leaf = False


class HybridTree:
    """One Hybrid tree over a single cluster's reduced vectors.

    The tree shares its owner's page store / buffer pool so that the gLDR
    composite's I/O is accounted in one place.
    """

    def __init__(
        self,
        store: PageStore,
        pool: BufferPool,
        vectors: np.ndarray,
        rids: np.ndarray,
    ) -> None:
        self.store = store
        self.pool = pool
        self.counters: CostCounters = pool.counters
        self.vectors = np.ascontiguousarray(
            np.asarray(vectors, dtype=np.float64)
        )
        self.rids = np.asarray(rids, dtype=np.int64)
        if self.vectors.shape[0] != self.rids.size:
            raise ValueError(
                f"{self.vectors.shape[0]} vectors but {self.rids.size} rids"
            )
        if self.vectors.shape[0] == 0:
            raise ValueError("cannot build a HybridTree over zero vectors")
        self.dimensionality = self.vectors.shape[1]
        self.leaf_capacity = hybrid_leaf_capacity(self.dimensionality)
        self.fanout = hybrid_internal_fanout(self.dimensionality)
        self.root_page = self._build(
            np.arange(self.vectors.shape[0], dtype=np.int64)
        )
        root_block = self.vectors[: self.vectors.shape[0]]
        self.root_lo = root_block.min(axis=0)
        self.root_hi = root_block.max(axis=0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self, rows: np.ndarray) -> int:
        if rows.size <= self.leaf_capacity:
            leaf = _Leaf(rows=rows)
            size = rows.size * (
                vector_bytes(self.dimensionality) + RID_SIZE
            )
            return self.store.allocate(leaf, size)

        groups: List[np.ndarray] = [rows]
        # kd-style: repeatedly median-split the largest group on its widest
        # dimension until the node is full (or nothing can split).
        while len(groups) < self.fanout:
            largest_idx = max(
                range(len(groups)), key=lambda g: groups[g].size
            )
            largest = groups[largest_idx]
            if largest.size <= max(2, self.leaf_capacity // 2):
                break
            block = self.vectors[largest]
            spreads = block.max(axis=0) - block.min(axis=0)
            dim = int(np.argmax(spreads))
            if spreads[dim] <= 0.0:
                break  # all duplicates: cannot split further
            order = np.argsort(block[:, dim], kind="stable")
            mid = largest.size // 2
            left, right = largest[order[:mid]], largest[order[mid:]]
            if left.size == 0 or right.size == 0:
                break
            groups[largest_idx] = left
            groups.append(right)

        if len(groups) == 1:
            # Unsplittable oversized group (mass duplicates): oversized leaf
            # spanning multiple pages' worth — charge accordingly.
            leaf = _Leaf(rows=rows)
            pages = -(-rows.size // self.leaf_capacity)
            for _ in range(pages - 1):
                self.store.allocate(("hybrid-overflow",), 0)
            return self.store.allocate(
                leaf,
                min(
                    PAGE_SIZE,
                    rows.size
                    * (vector_bytes(self.dimensionality) + RID_SIZE),
                ),
            )

        child_pages = []
        los, his = [], []
        for group in groups:
            block = self.vectors[group]
            los.append(block.min(axis=0))
            his.append(block.max(axis=0))
            child_pages.append(self._build(group))
        node = _Internal(
            child_pages=child_pages,
            rect_lo=np.vstack(los),
            rect_hi=np.vstack(his),
        )
        size = len(child_pages) * (
            2 * vector_bytes(self.dimensionality) + POINTER_SIZE
        )
        return self.store.allocate(node, min(size, PAGE_SIZE))

    def leaf_of_rows(self) -> np.ndarray:
        """Leaf page id per vector row, by walking the built tree.

        Uses ``raw_fetch`` (a build-time internal: no pool traffic, no
        counters, no injected faults) so callers can derive the physical
        layout — e.g. the approximate tier's rerank I/O charging —
        without perturbing measured state.  Overflow pages of oversized
        duplicate leaves are not represented: every row maps to the leaf
        page that owns its entry.
        """
        out = np.full(self.vectors.shape[0], -1, dtype=np.int64)
        stack = [self.root_page]
        while stack:
            page_id = stack.pop()
            node = self.store.raw_fetch(page_id).payload
            if getattr(node, "is_leaf", False):
                out[node.rows] = page_id
            elif isinstance(node, _Internal):
                stack.extend(node.child_pages)
        return out

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def root_mindist(self, q: np.ndarray) -> float:
        """MINDIST from the query to the tree's bounding box (seed value)."""
        clipped = np.clip(q, self.root_lo, self.root_hi)
        self.counters.count_distance(dims=self.dimensionality)
        return float(np.linalg.norm(q - clipped))

    def expand(
        self,
        page_id: int,
        q: np.ndarray,
        push: Callable[[float, int], None],
        offer: Callable[[float, int], None],
    ) -> None:
        """Process one node: push children (with MINDIST) or score a leaf.

        ``push(mindist, child_page)`` enqueues internal work;
        ``offer(distance, rid)`` reports candidate neighbors.
        Every child-rectangle MINDIST and every leaf-vector distance is a
        d_r-dimensional L-norm, counted as a distance computation.
        """
        node = self.pool.read(page_id)
        if node.is_leaf:
            rows = node.rows
            block = self.vectors[rows]
            dists = np.linalg.norm(block - q, axis=1)
            self.counters.count_distance(rows.size, dims=self.dimensionality)
            for dist, row in zip(dists, rows):
                offer(float(dist), int(self.rids[row]))
            return
        clipped = np.clip(q, node.rect_lo, node.rect_hi)
        mindists = np.linalg.norm(clipped - q, axis=1)
        self.counters.count_distance(
            len(node.child_pages), dims=self.dimensionality
        )
        for mindist, child in zip(mindists, node.child_pages):
            push(float(mindist), child)

    # ------------------------------------------------------------------
    # standalone KNN (used directly by tests; gLDR drives expand() itself)
    # ------------------------------------------------------------------

    def knn(self, q: np.ndarray, k: int) -> List[Tuple[float, int]]:
        """Exact KNN within this tree as ``(distance, rid)`` pairs, in
        that order."""
        q = np.asarray(q, dtype=np.float64)
        results: List[Tuple[float, int]] = []  # see offer_top_k
        frontier: List[Tuple[float, int]] = [
            (self.root_mindist(q), self.root_page)
        ]

        def offer(dist: float, rid: int) -> None:
            offer_top_k(results, k, dist, rid)

        def push(mindist: float, page: int) -> None:
            heapq.heappush(frontier, (mindist, page))

        while frontier:
            mindist, page = heapq.heappop(frontier)
            if len(results) == k and mindist > -results[0][0]:
                break
            self.expand(page, q, push, offer)
        return sorted((-d, -rid) for d, rid in results)
