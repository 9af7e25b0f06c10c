"""Extended iDistance (§5): one B+-tree over every reduced subspace.

Every partition — each elliptical subspace, plus the outlier set treated as
"a subspace in its original dimensionality" — maps its points to one
dimension with

    key = i * c + dist(P, O_i)

where ``O_i`` is the partition's reference point (the cluster centroid;
the origin of the subspace's axis system for projections) and ``c`` a
stretching constant that range-partitions the key space so partition ``i``
occupies ``[i*c, (i+1)*c)``.  All keys live in a single B+-tree; an
auxiliary array per partition keeps the centroid, principal components and
min/max radius for searching, and covariances for dynamic insertion.

KNN search grows a query sphere iteratively.  For radius ``R`` and the
query's projection ``q_i`` (at distance ``d_i = ||q_i - O_i||`` from the
reference), the annulus geometry gives the paper's three cases:

1. ``d_i <= max_radius`` — the query sits inside the partition's data
   sphere: scan the tree outward in both directions from key
   ``i*c + d_i``.
2. ``d_i > max_radius`` but ``d_i - R <= max_radius`` — the sphere
   intersects from outside: scan inward (leftward) from the partition's
   rim ``i*c + max_radius``.
3. no intersection — skip the partition at this radius.

(The symmetric interior case ``d_i < min_radius`` scans outward from the
inner rim; the paper's figure omits it but correctness requires it.)

The scan prunes with the triangle inequality: an entry with key offset
``o`` has reduced distance at least ``|d_i - o|``, so a direction stops
once ``|d_i - o|`` exceeds the current search bound.  Search terminates
when the K-th best distance is within the searched radius ``R`` — at that
point no unexamined point can score better, because every key interval
within ``R`` of every ``d_i`` has been consumed.  The result is therefore
the *exact* KNN under the reduced-space scoring (the lossiness relative to
the original space is entirely the reduction's, which is what precision
measures).

I/O model: the B+-tree stores (key, rid) entries; the reduced vectors are
packed, in key order, into per-partition data pages read when a candidate
is scored.  Key order means an expanding scan touches a contiguous run of
data pages — the same locality as storing vectors in the leaves, with the
accounting kept explicit.  In memory each partition holds its vectors
*dimension-major*: one C-contiguous ``(width, m)`` array in key order, so
a key-ordered run of candidates is a column slice and a subspace of a few
retained dimensions is scored a whole coordinate row at a time
(:func:`~repro.linalg.kernels.column_l2`), with every distance
bit-identical to ``np.linalg.norm(rows - q, axis=1)`` over the row-major
rows.  The layout changes no page: page accounting is by entry position,
and a page holds the same entries either way.

One engine, :meth:`ExtendedIDistance._scan`, runs this search for a block
of queries at once; the entry point only picks how it charges I/O.
:meth:`~repro.index.base.VectorIndex.knn` runs it on one row and charges
live (:class:`_PoolCharge`: pages through the buffer pool, counts into the
index's counters, under ``knn.expand_radius`` / ``knn.probe_partition``
spans).  A cold :meth:`~repro.index.base.VectorIndex.knn_batch` runs it on
every row and records each query's reads in a :class:`_QueryLedger`,
settled afterwards against a cold LRU of the pool's capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.subspace import EllipticalSubspace, OutlierSet
from ..linalg.backend import cold_lru_physical_reads, multi_arange
from ..linalg.kernels import column_l2, gather_column_l2
from ..obs.tracer import NULL_TRACER, Tracer
from ..reduction.base import ReducedDataset
from ..btree.tree import BPlusTree
from ..storage.metrics import CostSnapshot
from ..storage.pager import PAGE_SIZE, vector_bytes
from .base import (
    DEFAULT_POOL_PAGES,
    QueryStats,
    VectorIndex,
    canonical_top_k,
)

__all__ = ["ExtendedIDistance"]


@dataclass
class _Partition:
    """Search-time state for one subspace (or the outlier set)."""

    index: int
    subspace: Optional[EllipticalSubspace]  # None for the outlier partition
    centroid: np.ndarray  # reference point in the partition's own frame
    columns: np.ndarray  # (width, m) dimension-major, sorted by key offset
    rids: np.ndarray  # (m,) global point ids, same order
    offsets: np.ndarray  # (m,) = dist(P, O_i), ascending
    page_of_entry: np.ndarray  # (m,) data page id per entry
    min_radius: float
    max_radius: float

    def __post_init__(self) -> None:
        # Dynamically inserted entries live in a main+delta layout: the
        # bulk-loaded arrays stay immutable, inserts append here and the
        # search scores the (small) delta on first contact.
        self.delta_vectors: List[np.ndarray] = []
        self.delta_rids: List[int] = []
        self.delta_pages: List[int] = []
        # Deleted bulk entries by key-ordered position: scans drop them
        # with one mask lookup instead of a rid-set membership test.
        self.dead = np.zeros(self.rids.size, dtype=bool)

    @property
    def size(self) -> int:
        return self.rids.size + len(self.delta_rids)

    @property
    def width(self) -> int:
        return self.columns.shape[0]

    def project_query(self, query: np.ndarray) -> np.ndarray:
        if self.subspace is not None:
            return self.subspace.project(query)
        return np.asarray(query, dtype=np.float64)


#: Segment length at or above which the batch scan scores a segment on a
#: contiguous array view instead of routing it through the shared gather
#: kernel — long runs pay more for the gather copy than for one numpy call.
_BATCH_SEG_VIEW_MIN = 256


class _QueryLedger:
    """Deferred cost charging, for the cold-cache :meth:`knn_batch`.

    A shared scan never routes I/O through the shared buffer pool —
    interleaving queries would corrupt each query's cold-cache accounting.
    Instead every page read the query issues is recorded here in program
    order as an inclusive page-id range, and :func:`_settle_ledgers`
    replays the expanded sequence against an LRU of the pool's capacity to
    recover the exact logical/physical read counts.
    """

    __slots__ = (
        "page_lo",
        "page_hi",
        "key_comparisons",
        "distance_computations",
        "distance_flops",
    )

    def __init__(self) -> None:
        self.page_lo: List[int] = []
        self.page_hi: List[int] = []
        self.key_comparisons = 0
        self.distance_computations = 0
        self.distance_flops = 0

    def read_range(self, lo: int, hi: int) -> None:
        """Record reads of the contiguous page ids ``lo..hi`` inclusive."""
        self.page_lo.append(lo)
        self.page_hi.append(hi)

    def descend(self, tree: BPlusTree, key: float) -> None:
        """Record a root-to-leaf descent toward ``key``."""
        pages, comparisons = tree.descend_path(key)
        for page in pages:
            self.read_range(page, page)
        self.key_comparisons += comparisons

    def count(self, keys: int, distances: int, width: int) -> None:
        """Record key comparisons and ``width``-wide distance evaluations."""
        self.key_comparisons += keys
        self.distance_computations += distances
        self.distance_flops += distances * width

    def page_sequence(self) -> np.ndarray:
        """The full page-read sequence, ranges expanded, in read order."""
        return multi_arange(
            np.asarray(self.page_lo, dtype=np.int64),
            np.asarray(self.page_hi, dtype=np.int64) + 1,
        )


class _PoolCharge:
    """Live cost charging, for one :meth:`knn` query.

    Same interface as :class:`_QueryLedger`, but every page read goes
    through the index's buffer pool as it happens (warm-cache hits, fault
    retries and the pool's tracer counters included) and every count
    lands in the index's counters, so each enclosing ``knn.*`` span sees
    exactly the cost paid inside it.
    """

    __slots__ = ("pool", "counters")

    def __init__(self, pool, counters) -> None:
        self.pool = pool
        self.counters = counters

    def read_range(self, lo: int, hi: int) -> None:
        read = self.pool.read
        for page in range(lo, hi + 1):
            read(page)

    def descend(self, tree: BPlusTree, key: float) -> None:
        tree._descend(key)

    def count(self, keys: int, distances: int, width: int) -> None:
        self.counters.count_key_comparison(keys)
        self.counters.count_distance(distances, dims=width)


def _settle_ledgers(
    ledgers: List["_QueryLedger"], capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(logical, physical)`` read counts for every ledger at once.

    Equivalent to an LRU replay of each ledger's page sequence, but the
    common case — every query's working set fits the pool, so physical
    reads = distinct pages — is answered with ONE combined unique over
    all queries (page ids offset into disjoint per-query blocks).  Only
    queries whose distinct count exceeds the capacity fall back to the
    exact per-query LRU replay.
    """
    n = len(ledgers)
    logical = np.zeros(n, dtype=np.int64)
    physical = np.zeros(n, dtype=np.int64)
    if n == 0:
        return logical, physical
    lens = np.array(
        [len(led.page_lo) for led in ledgers], dtype=np.int64
    )
    if not lens.any():
        return logical, physical
    los = np.concatenate(
        [np.asarray(led.page_lo, dtype=np.int64) for led in ledgers]
    )
    his = np.concatenate(
        [np.asarray(led.page_hi, dtype=np.int64) for led in ledgers]
    )
    pages = multi_arange(los, his + 1)
    run_lens = his - los + 1
    query_of_page = np.repeat(
        np.repeat(np.arange(n, dtype=np.int64), lens), run_lens
    )
    logical = np.bincount(query_of_page, minlength=n)
    stride = int(pages.max()) + 1 if pages.size else 1
    distinct_keys = np.unique(query_of_page * stride + pages)
    physical = np.bincount(distinct_keys // stride, minlength=n)
    over = np.flatnonzero(physical > capacity)
    for qi in over.tolist():
        physical[qi] = cold_lru_physical_reads(
            ledgers[qi].page_sequence(), capacity
        )
    return logical, physical


class ExtendedIDistance(VectorIndex):
    """The paper's extended iDistance over a :class:`ReducedDataset`."""

    name = "iDistance"

    def __init__(
        self,
        reduced: ReducedDataset,
        radius_step: Optional[float] = None,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory=None,
    ) -> None:
        super().__init__(pool_pages=pool_pages, store_factory=store_factory)
        self.reduced = reduced
        self.partitions: List[_Partition] = []
        self._build_partitions()
        radii = [p.max_radius for p in self.partitions] or [1.0]
        global_max = max(radii)
        #: Key-space stretch constant: strictly larger than any offset.
        self.c = global_max * 1.01 + 1e-9
        #: Radius increment per search iteration (ΔR).  Default: 5% of the
        #: largest partition radius — small enough to stop early, large
        #: enough to converge in a few iterations.
        self.radius_step = (
            radius_step if radius_step is not None else global_max * 0.05
        )
        if self.radius_step <= 0:
            self.radius_step = 1e-6
        self._rid_location = self._build_rid_map()
        # Locations of dynamically inserted rids (possibly sparse / beyond
        # the bulk id range); positions count past the bulk arrays into the
        # partition's delta store.
        self._delta_location: Dict[int, Tuple[int, int]] = {}
        self.n_inserted = 0
        # Deleted rids.  Deletes remove the B+-tree entry physically but
        # leave the (immutable) bulk/delta vector arrays alone; scans filter
        # dead rids when offering candidates.
        self._tombstones: set = set()
        self.tree = BPlusTree(self.store, self.pool)
        self._bulk_load_tree()
        # Entry rank -> leaf page, for charging tree I/O during scans: the
        # bulk load packs `fill` entries per leaf in key order, and key
        # order equals concatenated partition order.
        self._leaf_fill = max(2, int(self.tree.leaf_capacity * 0.9))
        self._leaf_pages = np.asarray(
            self.tree.leaf_page_ids(), dtype=np.int64
        )
        sizes = [p.size for p in self.partitions]
        self._rank_base = np.concatenate(
            [[0], np.cumsum(sizes)]
        ).astype(np.int64)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Snapshots saved before the dimension-major layout carry
        # row-major ``vectors``: transpose them once.
        for partition in self.partitions:
            vectors = partition.__dict__.pop("vectors", None)
            if vectors is not None:
                partition.columns = np.ascontiguousarray(vectors.T)
        # Snapshots saved before partitions carried a dead mask: rebuild
        # it from the tombstone set.
        if self.partitions and not hasattr(self.partitions[0], "dead"):
            for partition in self.partitions:
                partition.dead = np.zeros(partition.rids.size, dtype=bool)
            for rid in list(getattr(self, "_tombstones", ())):
                self._tombstone(rid)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_partitions(self) -> None:
        for subspace in self.reduced.subspaces:
            vectors = subspace.projections
            offsets = np.linalg.norm(vectors, axis=1)
            self._add_partition(
                subspace=subspace,
                centroid=np.zeros(subspace.reduced_dim),
                vectors=vectors,
                rids=subspace.member_ids,
                offsets=offsets,
            )
        outliers = self.reduced.outliers
        if outliers.size:
            offsets = np.linalg.norm(
                outliers.points - outliers.centroid, axis=1
            )
            self._add_partition(
                subspace=None,
                centroid=outliers.centroid,
                vectors=outliers.points,
                rids=outliers.member_ids,
                offsets=offsets,
            )

    def _add_partition(
        self,
        subspace: Optional[EllipticalSubspace],
        centroid: np.ndarray,
        vectors: np.ndarray,
        rids: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        order = np.argsort(offsets, kind="stable")
        columns = np.ascontiguousarray(vectors.T[:, order])
        rids = rids[order]
        offsets = offsets[order]
        width = columns.shape[0]
        per_page = max(1, PAGE_SIZE // max(1, vector_bytes(width)))
        page_of_entry = np.empty(rids.size, dtype=np.int64)
        for lo in range(0, rids.size, per_page):
            hi = min(lo + per_page, rids.size)
            page_id = self.store.allocate(
                ("idistance-data", len(self.partitions), lo, hi),
                vector_bytes(width) * (hi - lo),
            )
            page_of_entry[lo:hi] = page_id
        self.partitions.append(
            _Partition(
                index=len(self.partitions),
                subspace=subspace,
                centroid=centroid,
                columns=columns,
                rids=rids,
                offsets=offsets,
                page_of_entry=page_of_entry,
                min_radius=float(offsets[0]) if offsets.size else 0.0,
                max_radius=float(offsets[-1]) if offsets.size else 0.0,
            )
        )

    def _build_rid_map(self) -> np.ndarray:
        location = np.full((self.reduced.n_points, 2), -1, dtype=np.int64)
        for partition in self.partitions:
            location[partition.rids, 0] = partition.index
            location[partition.rids, 1] = np.arange(partition.size)
        return location

    def _bulk_load_tree(self) -> None:
        keys: List[float] = []
        rids: List[int] = []
        for partition in self.partitions:
            base = partition.index * self.c
            keys.extend((base + partition.offsets).tolist())
            rids.extend(partition.rids.tolist())
        self.tree.bulk_load(keys, rids)

    # ------------------------------------------------------------------
    # dynamic insertion (the §5 auxiliary arrays exist for this)
    # ------------------------------------------------------------------

    def insert(
        self, point: np.ndarray, rid: int, beta: float = 0.1
    ) -> int:
        """Insert a new point, routing it like the paper's dynamic insert:
        the subspace with the smallest ProjDist_r hosts the point if that
        distance is within β, otherwise it joins the outlier partition.

        The point's key goes into the shared B+-tree; its vector joins the
        partition's delta store (a main+delta layout: bulk-loaded arrays
        stay immutable, deltas are scored on first contact by a query).
        Returns the partition index used.

        Raises ``ValueError`` if the point's key offset would not fit the
        partition's key range (the stretch constant ``c`` is fixed at
        build time), if no outlier partition exists to absorb a
        non-conforming point, or if ``rid`` is live or was deleted.
        """
        point = self._prepare_point(point)
        best: Optional[_Partition] = None
        best_dist = np.inf
        for partition in self.partitions:
            if partition.subspace is None:
                continue
            dist = float(partition.subspace.proj_dist_r(point)[0])
            if dist < best_dist:
                best, best_dist = partition, dist
        if best is None or best_dist > beta:
            outliers = [
                p for p in self.partitions if p.subspace is None
            ]
            if not outliers:
                raise ValueError(
                    "point fits no subspace within beta and the index was "
                    "built without an outlier partition"
                )
            best = outliers[0]

        vector = best.project_query(point)
        offset = float(np.linalg.norm(vector - best.centroid))
        # Keys must stay inside the partition's [i*c, (i+1)*c) range — except
        # in the *last* partition (the outlier set, when present), above
        # whose range no other partition lives.
        if offset >= self.c and best.index != len(self.partitions) - 1:
            raise ValueError(
                f"key offset {offset:.4f} exceeds the partition stretch "
                f"constant c={self.c:.4f}; rebuild the index to extend "
                "its key space"
            )
        rid = int(rid)
        if rid in self._tombstones:
            raise ValueError(
                f"rid {rid} was deleted from this index; deleted ids "
                "cannot be reused before a rebuild"
            )
        if rid in self._delta_location or (
            0 <= rid < self._rid_location.shape[0]
            and self._rid_location[rid, 0] >= 0
        ):
            raise ValueError(f"rid {rid} is already live in this index")
        self._note_routed_insert(
            best.index if best.subspace is not None else -1, best_dist
        )
        with self._wal_txn("insert") as txn:
            self.tree.insert(best.index * self.c + offset, rid)
            best.delta_vectors.append(vector)
            best.delta_rids.append(rid)
            self._delta_location[rid] = (
                best.index,
                best.rids.size + len(best.delta_rids) - 1,
            )
            best.max_radius = max(best.max_radius, offset)
            best.min_radius = min(best.min_radius, offset)
            # Delta vectors pack into pages of their own (charged on scan).
            per_page = max(
                1, PAGE_SIZE // max(1, vector_bytes(vector.shape[0]))
            )
            if len(best.delta_rids) > len(best.delta_pages) * per_page:
                best.delta_pages.append(
                    self.store.allocate(
                        ("idistance-delta", best.index,
                         len(best.delta_pages)),
                        0,
                    )
                )
            self.n_inserted = getattr(self, "n_inserted", 0) + 1
            if txn is not None:
                txn.set_meta(
                    {
                        "kind": "insert",
                        "rid": rid,
                        "partition": best.index,
                        "vector": vector,
                        "delta_pages": list(best.delta_pages),
                        "min_radius": best.min_radius,
                        "max_radius": best.max_radius,
                        **self._tree_meta(),
                    }
                )
        return best.index

    def delete(self, rid: int) -> int:
        """Delete a record id: remove its B+-tree entry physically and
        tombstone the rid (the immutable vector arrays keep the dead entry;
        scans still score it but filter it from results).  Returns the
        partition index the rid lived in.  Raises ``KeyError`` for unknown
        or already-deleted rids.
        """
        rid = int(rid)
        part_idx, position = self.locate(rid)
        partition = self.partitions[part_idx]
        # Reconstruct the entry's key exactly as insertion computed it —
        # bulk keys came from the stored offsets, delta keys from
        # ||vector - centroid|| — so the float is bit-identical.
        if position < partition.rids.size:
            offset = float(partition.offsets[position])
        else:
            vector = partition.delta_vectors[
                position - partition.rids.size
            ]
            offset = float(np.linalg.norm(vector - partition.centroid))
        with self._wal_txn("delete") as txn:
            self.tree.delete(part_idx * self.c + offset, rid)
            self._tombstone(rid)
            if txn is not None:
                txn.set_meta(
                    {"kind": "delete", "rid": rid, **self._tree_meta()}
                )
        return part_idx

    def _tombstone(self, rid: int) -> None:
        """Record ``rid`` as deleted: in the tombstone set, and for a bulk
        rid also in its partition's ``dead`` mask, which scans filter by."""
        self._tombstones.add(rid)
        if 0 <= rid < self._rid_location.shape[0]:
            part_idx, position = self._rid_location[rid].tolist()
            if part_idx >= 0:
                self.partitions[part_idx].dead[position] = True

    def _tree_meta(self) -> dict:
        """The B+-tree's in-memory scalars, for a commit after-image
        (page contents are redone physically; these are not page-resident)."""
        return {
            "tree_root": self.tree.root_page,
            "tree_height": self.tree.height,
            "tree_n_entries": self.tree.n_entries,
            "tree_first_leaf": self.tree._first_leaf,
        }

    def _apply_recovery_meta(self, meta: dict) -> None:
        if not hasattr(self, "_tombstones"):
            self._tombstones = set()
        kind = meta["kind"]
        if kind == "insert":
            partition = self.partitions[meta["partition"]]
            vector = np.asarray(meta["vector"], dtype=np.float64)
            partition.delta_vectors.append(vector)
            partition.delta_rids.append(int(meta["rid"]))
            partition.delta_pages = list(meta["delta_pages"])
            partition.min_radius = float(meta["min_radius"])
            partition.max_radius = float(meta["max_radius"])
            self._delta_location[int(meta["rid"])] = (
                partition.index,
                partition.rids.size + len(partition.delta_rids) - 1,
            )
            self.n_inserted = getattr(self, "n_inserted", 0) + 1
        elif kind == "delete":
            self._tombstone(int(meta["rid"]))
        else:
            raise ValueError(f"unknown recovery meta kind {kind!r}")
        self.tree.root_page = meta["tree_root"]
        self.tree.height = meta["tree_height"]
        self.tree.n_entries = meta["tree_n_entries"]
        self.tree._first_leaf = meta["tree_first_leaf"]

    def locate(self, rid: int) -> Tuple[int, int]:
        """Where a record id lives: ``(partition_index, position)``.

        ``position`` indexes the partition's key-ordered layout: positions
        below ``partition.rids.size`` address the bulk-loaded arrays
        (``partition.columns[:, position]``); positions at or above it
        address the delta store (``position - partition.rids.size`` into
        ``partition.delta_vectors``), in insertion order.  Bulk locations
        come from the rid map built at load time; dynamic inserts register
        themselves as they arrive.  Raises ``KeyError`` for unknown rids.
        """
        rid = int(rid)
        if rid in getattr(self, "_tombstones", ()):
            raise KeyError(f"rid {rid} was deleted from the index")
        if (
            0 <= rid < self._rid_location.shape[0]
            and self._rid_location[rid, 0] >= 0
        ):
            return (
                int(self._rid_location[rid, 0]),
                int(self._rid_location[rid, 1]),
            )
        location = self._delta_location.get(rid)
        if location is None:
            raise KeyError(f"rid {rid} is not in the index")
        return location

    def _approx_rerank_pages(self, rids: np.ndarray) -> np.ndarray:
        """Data page per bulk rid, through the :meth:`locate` rid map:
        the bulk location gives the partition's key-ordered position,
        whose page the bulk load recorded in ``page_of_entry``.  Only
        coded (bulk, live) rids reach rerank — delta entries are scored
        exactly during the scan phase and never rerank."""
        locations = self._rid_location[np.asarray(rids, dtype=np.int64)]
        pages = np.empty(locations.shape[0], dtype=np.int64)
        for pidx in np.unique(locations[:, 0]).tolist():
            mask = locations[:, 0] == pidx
            pages[mask] = self.partitions[pidx].page_of_entry[
                locations[mask, 1]
            ]
        return pages

    # ------------------------------------------------------------------
    # search: one shared-scan engine, two ways of charging its I/O
    # ------------------------------------------------------------------

    _query_histograms = True

    def _search(
        self, query: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`knn`: the shared scan on one row, charged live."""
        k_eff = min(k, self.live_count)
        if k_eff <= 0:  # every point deleted — nothing to return
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        (ids, distances), _ = self._scan(
            query[None], k_eff, tracer, live=True
        )
        return ids[0], distances[0]

    def _knn_batch(
        self, queries: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
        """Cold-cache :meth:`knn_batch`: the shared scan over every row,
        each query's I/O recorded in a :class:`_QueryLedger` and settled
        against an exact LRU replay at the end (tree descents replayed via
        :meth:`~repro.btree.tree.BPlusTree.descend_path`), so per-query
        stats equal a cold :meth:`knn` loop; the batch totals are then
        folded into the index's own counters."""
        n_queries = queries.shape[0]
        if n_queries == 0:
            return (
                np.empty((0, 0), dtype=np.int64),
                np.empty((0, 0), dtype=np.float64),
                [],
            )
        k_eff = min(k, self.live_count)
        if k_eff <= 0:  # every point deleted — nothing to return
            zero = QueryStats(0, 0, 0, 0, 0.0)
            return (
                np.empty((n_queries, 0), dtype=np.int64),
                np.empty((n_queries, 0), dtype=np.float64),
                [zero] * n_queries,
            )
        (ids, distances), ledgers = self._scan(
            queries, k_eff, tracer, live=False
        )

        # Settle: per-query LRU replay of the recorded page sequences and
        # one fold of the batch totals into the index's counters.
        stats: List[QueryStats] = []
        with tracer.span("knn.batch.settle", n_queries=n_queries):
            logical, physical = _settle_ledgers(
                ledgers, self.pool.capacity_pages
            )
            for led, reads in zip(ledgers, physical.tolist()):
                stats.append(
                    QueryStats(
                        page_reads=reads,
                        distance_computations=led.distance_computations,
                        distance_flops=led.distance_flops,
                        key_comparisons=led.key_comparisons,
                        cpu_seconds=0.0,
                    )
                )
        self.counters.merge(
            CostSnapshot(
                logical_reads=int(logical.sum()),
                physical_reads=int(physical.sum()),
                key_comparisons=sum(
                    led.key_comparisons for led in ledgers
                ),
                distance_computations=sum(
                    led.distance_computations for led in ledgers
                ),
                distance_flops=sum(
                    led.distance_flops for led in ledgers
                ),
            )
        )
        return ids, distances, stats

    def _scan(
        self,
        queries: np.ndarray,
        k_eff: int,
        tracer: Tracer,
        live: bool,
    ) -> Tuple[Tuple[np.ndarray, np.ndarray], list]:
        """The expanding-radius KNN search of every row of ``queries``.

        Every query expands its search radius in lockstep.  Per partition
        and radius step, the still-active queries' directional block
        boundaries come from *vectorized* searchsorted calls.  Blocks of
        at least ``_BATCH_SEG_VIEW_MIN`` entries are scored one by one on
        column slices of the partition's dimension-major array
        (:func:`~repro.linalg.kernels.column_l2`); all shorter ones go
        through ONE gather kernel,
        ``columns[:, flat_positions] - q_proj[:, query_of_entry]``
        (:func:`~repro.linalg.kernels.gather_column_l2`); a delta store
        is stacked dimension-major on first contact and scored by
        ``column_l2`` too.  Both kernels replay numpy's pairwise
        summation order, so every distance is bit-identical to
        ``np.linalg.norm(rows - q, axis=1)`` over row-major rows (see
        :mod:`repro.linalg.kernels`).  Only top-K selection stays per
        query: ``merge`` folds each scored block into the query's dense
        best row by :func:`~repro.index.base.canonical_top_k`, so the
        answer is the top-K by ``(distance, rid)`` whichever rows share
        the scan and in whatever order tied candidates arrive.  The k-th
        best distance — hence every search bound and the termination test
        — does not depend on that order either, so page reads and counts
        are those of any exact selection.

        ``live`` picks how cost is charged.  ``True`` (one row, from
        :meth:`knn`): through the buffer pool and counters as each probe
        runs, under ``knn.expand_radius`` / ``knn.probe_partition`` spans.
        ``False`` (cold :meth:`knn_batch`): into one :class:`_QueryLedger`
        per row, under ``knn.batch.*`` spans; the caller settles them.

        Returns ``(ids, distances)``, each ``(Q, k_eff)`` with rows in
        ``(distance, rid)`` order, and the per-query chargers.
        """
        n_queries = queries.shape[0]
        n_parts = len(self.partitions)
        tomb_set = self._tombstones
        any_dead = bool(tomb_set)
        charges = (
            [_PoolCharge(self.pool, self.counters)]
            if live
            else [_QueryLedger() for _ in range(n_queries)]
        )

        # Per-partition query geometry.  Projections stay per-query gemv
        # calls (a stacked gemm is NOT bit-identical to gemv rows — see
        # repro.linalg.kernels), gathered into one dimension-major
        # (width, Q) array per partition, like the partition's columns.
        q_proj: List[np.ndarray] = []
        q_dist = np.empty((n_parts, n_queries), dtype=np.float64)
        with (NULL_TRACER if live else tracer).span(
            "knn.batch.project_queries",
            n_queries=n_queries,
            partitions=n_parts,
        ):
            for partition in self.partitions:
                block = np.empty(
                    (partition.width, n_queries), dtype=np.float64
                )
                centroid = partition.centroid
                row = q_dist[partition.index]
                subspace = partition.subspace
                # sqrt(x·x) below is bit-identical to np.linalg.norm on
                # a 1-d vector (norm computes exactly this) at a fraction
                # of the call overhead; the projection keeps the same
                # per-query `(q - mean) @ basis` gemv as project().
                if subspace is not None:
                    mean, basis = subspace.mean, subspace.basis
                    for i in range(n_queries):
                        proj = (queries[i] - mean) @ basis
                        block[:, i] = proj
                        diff = proj - centroid
                        row[i] = math.sqrt(float(np.dot(diff, diff)))
                else:
                    block[:] = queries.T
                    for i in range(n_queries):
                        diff = queries[i] - centroid
                        row[i] = math.sqrt(float(np.dot(diff, diff)))
                q_proj.append(block)

        # Each partition's delta store (dynamic inserts) is stacked once,
        # dimension-major, when the first query reaches that partition:
        # (columns, rids, dead mask or None).
        delta_blocks: Dict[int, tuple] = {}

        max_r = np.array([[p.max_radius] for p in self.partitions])
        min_r = np.array([[p.min_radius] for p in self.partitions])
        nonempty = np.array([p.size > 0 for p in self.partitions], bool)
        if nonempty.any():
            max_needed = (q_dist[nonempty] + max_r[nonempty]).max(axis=0)
        else:
            max_needed = np.zeros(n_queries)

        # Each query's best K so far, in (distance, rid) order; unfilled
        # slots hold distance inf.  kth is a view of the K-th column.
        best_d = np.full((n_queries, k_eff), np.inf)
        best_r = np.full((n_queries, k_eff), -1, dtype=np.int64)
        kth = best_d[:, -1]
        active = np.ones(n_queries, dtype=bool)
        contacted = np.zeros((n_parts, n_queries), dtype=bool)
        in_pos = np.zeros((n_parts, n_queries), dtype=np.int64)
        out_pos = np.zeros((n_parts, n_queries), dtype=np.int64)

        leaf_pages = self._leaf_pages
        # Bulk-loaded leaves get consecutive page ids; charge leaf runs as
        # ranges when that holds, else as per-leaf singletons.
        leaf_runs = leaf_pages.size <= 1 or bool(
            (np.diff(leaf_pages) == 1).all()
        )
        fill = self._leaf_fill
        radius = self.radius_step

        def merge(
            qi: int,
            d: np.ndarray,
            rid: np.ndarray,
            dead: Optional[np.ndarray] = None,
        ) -> None:
            """Fold scored candidates into query ``qi``'s best row.  Only
            live ones at or within the k-th best can enter; a tie at it
            enters, and the canonical order keeps the smaller rid."""
            keep = d <= kth[qi]
            if dead is not None:
                keep[dead] = False
            n_keep = int(np.count_nonzero(keep))
            if n_keep == 0:
                return
            if n_keep < d.size:
                d, rid = d[keep], rid[keep]
            best_r[qi], best_d[qi] = canonical_top_k(
                np.concatenate((best_r[qi], rid)),
                np.concatenate((best_d[qi], d)),
                k_eff,
            )

        def probe(partition: _Partition, act: np.ndarray) -> None:
            """Advance every active query's scan of one partition to cover
            the key interval ``[d_i - radius, d_i + radius]``."""
            p = partition.index
            if not engaged[p]:
                return
            offsets = partition.offsets
            bulk = offsets.size
            Qp = q_proj[p]
            columns = partition.columns
            width_charge = max(1, partition.width)

            # First contact per query: descend the tree to the entry
            # nearest the query's own offset (clamped into the annulus,
            # which also realizes cases 1, 2 and the interior case) and
            # score the (small) delta store whole.
            for qi in act[touch[p]].tolist():
                d_i = float(q_dist[p, qi])
                charge = charges[qi]
                seek = min(
                    max(d_i, partition.min_radius),
                    partition.max_radius,
                )
                charge.descend(self.tree, p * self.c + seek)
                pos = int(np.searchsorted(offsets, seek))
                in_pos[p, qi] = pos - 1
                out_pos[p, qi] = pos
                contacted[p, qi] = True
                if partition.delta_rids:
                    for page in partition.delta_pages:
                        charge.read_range(page, page)
                    delta = delta_blocks.get(p)
                    if delta is None:
                        drids = partition.delta_rids
                        ddead = (
                            np.array([r in tomb_set for r in drids])
                            if any_dead
                            else None
                        )
                        delta = delta_blocks[p] = (
                            np.stack(partition.delta_vectors, axis=1),
                            np.asarray(drids),
                            ddead,
                        )
                    dcols, drids, ddead = delta
                    charge.count(0, drids.size, width_charge)
                    merge(qi, column_l2(dcols, Qp[:, qi]), drids, ddead)

            sub = act[contacted[p, act]]
            if sub.size == 0 or bulk == 0:
                return
            d_vec = q_dist[p, sub]
            # Per-query search bound, then both directions' new blocks.
            # The triangle inequality prunes: an entry at key offset o is
            # at least |d_i - o| away, so nothing beyond the bound can
            # improve the answer.  Cursors hold the next unvisited
            # position (-1 / bulk once a direction is exhausted); the
            # clamps make a direction with nothing new an empty block
            # that leaves its cursor in place.
            bound = np.minimum(radius, kth[sub])
            in_stop = in_pos[p, sub] + 1
            in_start = np.minimum(
                np.searchsorted(offsets, d_vec - bound, side="left"),
                in_stop,
            )
            out_start = out_pos[p, sub]
            out_stop = np.maximum(
                np.searchsorted(offsets, d_vec + bound, side="right"),
                out_start,
            )
            in_pos[p, sub] = in_start - 1
            out_pos[p, sub] = out_stop

            # The non-empty blocks, each query's inward one before its
            # outward one.  Long blocks are scored one by one on
            # contiguous views (no gather copies); everything shorter is
            # batched into ONE gather kernel so small per-query slabs
            # don't pay numpy call overhead each.
            starts = np.empty(2 * sub.size, dtype=np.int64)
            starts[0::2] = in_start
            starts[1::2] = out_start
            lens = np.empty_like(starts)
            lens[0::2] = in_stop - in_start
            lens[1::2] = out_stop - out_start
            segs = np.flatnonzero(lens)
            if segs.size == 0:
                return
            seg_q = sub[segs >> 1]
            seg_lo = starts[segs]
            seg_len = lens[segs]
            seg_hi = seg_lo + seg_len - 1
            dead = partition.dead if any_dead else None
            small = seg_len < _BATCH_SEG_VIEW_MIN
            small_len = seg_len * small
            if small.any():
                flat = multi_arange(seg_lo[small], seg_hi[small] + 1)
                entry_q = np.repeat(seg_q, small_len)
                dists_flat = gather_column_l2(columns, flat, Qp, entry_q)
                rids_flat = partition.rids[flat]
                if dead is not None:
                    dead_flat = dead[flat]
            # Offset of each small block inside the gathered arrays.
            flat_start = np.cumsum(small_len) - small_len
            rids_all = partition.rids
            rank0 = int(self._rank_base[p])
            leaf_a = (rank0 + seg_lo) // fill
            leaf_b = (rank0 + seg_hi) // fill
            if leaf_runs:
                leaf_a, leaf_b = leaf_pages[leaf_a], leaf_pages[leaf_b]
            page_of_entry = partition.page_of_entry

            for qi, lo_pos, ln, is_small, s0, la, lb, pg_lo, pg_hi in zip(
                seg_q.tolist(),
                seg_lo.tolist(),
                seg_len.tolist(),
                small.tolist(),
                flat_start.tolist(),
                leaf_a.tolist(),
                leaf_b.tolist(),
                page_of_entry[seg_lo].tolist(),
                page_of_entry[seg_hi].tolist(),
            ):
                charge = charges[qi]
                # I/O: the B+-tree leaf run covering the block's entry
                # ranks, then its contiguous data-page run (entries are
                # rank-ordered and partition data pages were allocated
                # consecutively).
                if leaf_runs:
                    charge.read_range(la, lb)
                else:
                    for leaf_idx in range(la, lb + 1):
                        page = int(leaf_pages[leaf_idx])
                        charge.read_range(page, page)
                charge.read_range(pg_lo, pg_hi)
                charge.count(ln, ln, width_charge)
                if is_small:
                    seg = slice(s0, s0 + ln)
                    seg_d, seg_r = dists_flat[seg], rids_flat[seg]
                    seg_dead = None if dead is None else dead_flat[seg]
                else:
                    seg = slice(lo_pos, lo_pos + ln)
                    seg_d = column_l2(columns[:, seg], Qp[:, qi])
                    seg_r = rids_all[seg]
                    seg_dead = None if dead is None else dead[seg]
                merge(qi, seg_d, seg_r, seg_dead)

        # Search terminates once the k-th best distance is within the
        # searched radius (no unexamined entry can score better) or the
        # radius covers every partition's whole annulus.
        expansions = 0
        total_expansions = 0
        while True:
            act = np.flatnonzero(active)
            if act.size == 0:
                break
            expansions += 1
            total_expansions += act.size
            # Live: one span per radius expansion and per partition probe,
            # whose cost deltas are exactly what that step paid.
            if live:
                expand = tracer.span(
                    "knn.expand_radius",
                    counters=self.counters,
                    radius=radius,
                    expansion=expansions,
                )
            else:
                expand = tracer.span(
                    "knn.batch.expand_radius",
                    radius=radius,
                    active_queries=int(act.size),
                )
            # Case 3 of the module docstring, for every partition at
            # once: a sphere that has not reached a partition's annulus
            # opens nothing there, and a partition no active query has
            # opened or now touches has nothing to probe.
            d_act = q_dist[:, act]
            opened = contacted[:, act]
            touch = (
                ~opened
                & (d_act - radius <= max_r)
                & (d_act + radius >= min_r)
            )
            engaged = (opened | touch).any(axis=1)
            with expand as expand_span:
                for partition in self.partitions:
                    if partition.size == 0:
                        continue
                    if not live:
                        probe(partition, act)
                        continue
                    with tracer.span(
                        "knn.probe_partition",
                        counters=self.counters,
                        partition=partition.index,
                        outliers=partition.subspace is None,
                    ):
                        probe(partition, act)
                if live and tracer.enabled:
                    expand_span.set(
                        found=int(np.isfinite(best_d[0]).sum()),
                        kth_best=float(kth[0]),
                    )
            done = (np.isfinite(kth[act]) & (kth[act] <= radius)) | (
                radius > max_needed[act]
            )
            active[act[done]] = False
            radius += self.radius_step
        if tracer.enabled:
            tracer.counter("knn.radius_expansions").inc(total_expansions)
            if live:
                tracer.histogram(
                    "knn.expansions_per_query", buckets=tuple(range(1, 65))
                ).observe(expansions)
        return (best_r, best_d), charges
