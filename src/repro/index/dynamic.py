"""Online-mutation plumbing shared by the flat-layout schemes.

The extended iDistance carries its own per-partition main+delta layout
(§5's auxiliary arrays exist for exactly that); ``SequentialScan`` and
``GlobalLDRIndex`` get the same ``insert``/``delete`` API through the
simpler machinery here: a single append-only :class:`DeltaStore` holding
the dynamically inserted vectors (packed into data pages by byte budget),
plus rid tombstones kept on the index for deletes.  Both are small by
design — online updates accumulate between index rebuilds, they do not
reorganize the bulk layout.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..linalg.kernels import column_l2
from ..reduction.base import ReducedDataset
from ..storage.pager import PAGE_SIZE, PageStore, vector_bytes

__all__ = ["DeltaStore", "route_point"]


def route_point(
    reduced: ReducedDataset, point: np.ndarray, beta: float
) -> Tuple[int, np.ndarray, float]:
    """Route a new point the way the paper's dynamic insert does.

    Returns ``(subspace_index, stored_vector, residual)``: the subspace
    with the smallest ``ProjDist_r`` hosts the point (stored as its
    reduced projection) when that distance is within ``beta``; otherwise
    the point is an outlier (``-1``) stored at full dimensionality.
    ``residual`` is that smallest ``ProjDist_r`` (``inf`` when there are
    no subspaces) — already computed for the routing decision, and fed to
    the health sampler's live MPE-drift estimate for free.
    """
    point = np.asarray(point, dtype=np.float64)
    best_idx = -1
    best_dist = np.inf
    for i, subspace in enumerate(reduced.subspaces):
        dist = float(subspace.proj_dist_r(point)[0])
        if dist < best_dist:
            best_idx, best_dist = i, dist
    if best_idx < 0 or best_dist > beta:
        return -1, point, best_dist
    return best_idx, reduced.subspaces[best_idx].project(point), best_dist


class DeltaStore:
    """Append-only side store for dynamically inserted vectors.

    Vectors of mixed widths (reduced projections and full-dimensional
    outliers) pack into shared data pages by byte budget; every page is
    allocated on the owning index's page store so the allocation is
    WAL-logged and the index's page count reflects the inserts.  Scans
    charge the pages and score every entry — the flat-layout analogue of
    iDistance's per-partition delta scoring.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.vectors: List[np.ndarray] = []
        self.rids: List[int] = []
        self.subspace_ids: List[int] = []  # -1 = full-dimensional outlier
        self.pages: List[int] = []
        self.bytes_in_last_page = 0

    def __len__(self) -> int:
        return len(self.rids)

    def add(
        self,
        store: PageStore,
        rid: int,
        subspace_id: int,
        vector: np.ndarray,
    ) -> None:
        """Append one entry, allocating a fresh data page when the current
        one cannot hold the vector's bytes."""
        vector = np.asarray(vector, dtype=np.float64)
        nbytes = max(1, vector_bytes(vector.size))
        if (
            not self.pages
            or self.bytes_in_last_page + nbytes > PAGE_SIZE
        ):
            self.pages.append(
                store.allocate(
                    (f"{self.label}-delta", len(self.pages)), 0
                )
            )
            self.bytes_in_last_page = 0
        self.bytes_in_last_page += nbytes
        self.vectors.append(vector)
        self.rids.append(int(rid))
        self.subspace_ids.append(int(subspace_id))

    def entries(self):
        """Iterate ``(vector, rid, subspace_id)`` in insertion order."""
        return zip(self.vectors, self.rids, self.subspace_ids)

    def score(
        self,
        query: np.ndarray,
        q_frames: Sequence[np.ndarray],
        counters,
    ) -> np.ndarray:
        """Distance from ``query`` to every entry, in insertion order.

        An entry of subspace ``s`` is scored against ``q_frames[s]`` (the
        query's projection into that subspace), an outlier against the
        raw ``query``.  Each subspace's entries are stacked
        dimension-major and scored by :func:`~repro.linalg.kernels.column_l2`,
        the kernel iDistance scores its delta with, so an inserted vector
        gets the same bits in every scheme.  Charges one distance per
        entry to ``counters``.
        """
        out = np.empty(len(self.rids), dtype=np.float64)
        sids = np.asarray(self.subspace_ids, dtype=np.int64)
        for sidx in np.unique(sids).tolist():
            at = np.flatnonzero(sids == sidx)
            columns = np.stack([self.vectors[i] for i in at.tolist()], axis=1)
            ref = q_frames[sidx] if sidx >= 0 else query
            out[at] = column_l2(columns, ref)
            counters.count_distance(at.size, dims=max(1, columns.shape[0]))
        return out

    # -- recovery support ------------------------------------------------

    def fill_meta(self) -> dict:
        """Page-layout state for a commit record's after-image."""
        return {
            "delta_pages": list(self.pages),
            "delta_bytes_in_last_page": self.bytes_in_last_page,
        }

    def apply_insert(
        self,
        rid: int,
        subspace_id: int,
        vector: np.ndarray,
        fill_meta: Optional[dict] = None,
    ) -> None:
        """Metadata redo: append an entry whose page allocations were
        already replayed physically; restore the page-fill state."""
        self.vectors.append(np.asarray(vector, dtype=np.float64))
        self.rids.append(int(rid))
        self.subspace_ids.append(int(subspace_id))
        if fill_meta is not None:
            self.pages = list(fill_meta["delta_pages"])
            self.bytes_in_last_page = int(
                fill_meta["delta_bytes_in_last_page"]
            )
