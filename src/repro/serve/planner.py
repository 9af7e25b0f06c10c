"""Partition a built reduction across N shards, exactly.

The merge at the router is only *exact* if every shard computes the same
distance for a point as the single-node index would.  Both split modes
guarantee that by construction: a shard's :class:`~repro.reduction.base.
ReducedDataset` keeps each subspace's mean/basis/covariance byte-for-byte
and takes *row subsets* of its projections — a point's distance to a query
depends only on its own reduced representation (or raw vector, for
outliers) and the query, never on which other points share the shard.
The union of per-shard exact top-K therefore contains the global top-K,
and a deterministic (distance, rid) merge recovers it.

Two modes:

* ``"partition"`` — whole ellipsoids: subspace ``i`` lands on shard
  ``i % n_shards``, outliers split by ``rid % n_shards``.  Aligned with
  the paper's search structure (each ellipsoid is independently
  searchable, §4), so a query prunes whole shards exactly as the
  single-node iDistance prunes whole partitions.  Needs at least as many
  subspaces(+outliers) as shards.
* ``"hash"`` — every subspace's members split by ``rid % n_shards``; each
  shard gets a thinner copy of every subspace.  Works for any scheme and
  shard count (SequentialScan / GlobalLDR have no partition alignment to
  exploit), at the cost of every shard touching every query.

Shard-local rid space: index build paths size arrays by ``n_points`` and
index them by rid, so a shard cannot keep global rids.  Each shard
renumbers its points ``0..m-1`` in ascending global-rid order and carries
``rid_map`` (local → global, int64, sorted); the worker translates ids on
the way out, so the router only ever sees global rids.  Because the
renumbering is monotone, a shard breaks distance ties exactly as the
single-node index does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.subspace import EllipticalSubspace, OutlierSet
from ..reduction.base import ReducedDataset

__all__ = ["ShardAssignment", "ShardPlan", "ShardPlanner", "mode_for_scheme"]

_MODES = ("partition", "hash")


def mode_for_scheme(scheme: str) -> str:
    """The natural split mode for an index scheme (ISSUE/DESIGN.md §14):
    partition-aligned for the extended iDistance, hash-of-rid otherwise."""
    return "partition" if scheme == "iMMDR" else "hash"


@dataclass(frozen=True)
class ShardAssignment:
    """One shard's slice of the reduction, in shard-local rid space."""

    shard_id: int
    #: Shard-local reduction: member_ids renumbered 0..m-1, projections /
    #: outlier points row-subset from the global arrays (same floats).
    reduced: ReducedDataset
    #: ``rid_map[local_rid] == global_rid`` (int64, length m, ascending).
    rid_map: np.ndarray

    @property
    def n_points(self) -> int:
        return int(self.rid_map.size)


@dataclass(frozen=True)
class ShardPlan:
    """A complete, disjoint, covering assignment of points to shards."""

    mode: str
    n_shards: int
    n_points: int
    dimensionality: int
    metric: str
    shards: Tuple[ShardAssignment, ...]

    def __post_init__(self) -> None:
        covered = sum(s.n_points for s in self.shards)
        if covered != self.n_points:
            raise ValueError(
                f"shards cover {covered} points, dataset has {self.n_points}"
            )

    def describe(self) -> str:
        sizes = ", ".join(
            f"shard {s.shard_id}: {s.n_points} pts "
            f"({s.reduced.n_subspaces} subspaces, "
            f"{s.reduced.outliers.size} outliers)"
            for s in self.shards
        )
        return (
            f"ShardPlan(mode={self.mode}, {self.n_shards} shards over "
            f"{self.n_points} points): {sizes}"
        )


class ShardPlanner:
    """Builds a :class:`ShardPlan` from a fitted reduction."""

    def __init__(self, n_shards: int, mode: str = "hash") -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.n_shards = n_shards
        self.mode = mode

    # -- assignment ------------------------------------------------------

    def _subspace_masks(
        self, reduced: ReducedDataset, shard: int
    ) -> List[np.ndarray]:
        """Per-subspace boolean member masks owned by ``shard``."""
        masks = []
        for idx, subspace in enumerate(reduced.subspaces):
            if self.mode == "partition":
                own = idx % self.n_shards == shard
                masks.append(
                    np.full(subspace.size, own, dtype=bool)
                )
            else:
                masks.append(subspace.member_ids % self.n_shards == shard)
        return masks

    def plan(self, reduced: ReducedDataset) -> ShardPlan:
        """Split ``reduced`` into ``n_shards`` disjoint shard reductions.

        Raises ``ValueError`` when any shard would end up empty (the
        dataset has fewer partitions/points than shards): an empty shard
        cannot build an index, and silently planning fewer shards than
        asked for would make the router's topology lie.
        """
        shards: List[ShardAssignment] = []
        for shard in range(self.n_shards):
            masks = self._subspace_masks(reduced, shard)
            outlier_mask = (
                reduced.outliers.member_ids % self.n_shards == shard
                if reduced.outliers.size
                else np.zeros(0, dtype=bool)
            )
            total = int(sum(int(m.sum()) for m in masks)) + int(
                outlier_mask.sum()
            )
            if total == 0:
                raise ValueError(
                    f"shard {shard} of {self.n_shards} would be empty "
                    f"(mode={self.mode!r}, {reduced.n_subspaces} subspaces, "
                    f"{reduced.outliers.size} outliers); use fewer shards "
                    f"or mode='hash'"
                )
            # Local rids in global rid order (see the module docstring).
            owned = [
                subspace.member_ids[mask]
                for subspace, mask in zip(reduced.subspaces, masks)
            ]
            owned_out = reduced.outliers.member_ids[outlier_mask]
            rid_map = np.sort(np.concatenate([*owned, owned_out])).astype(
                np.int64, copy=False
            )
            subspaces: List[EllipticalSubspace] = []
            for subspace, mask, rids in zip(reduced.subspaces, masks, owned):
                if rids.size == 0:
                    continue
                subspaces.append(
                    EllipticalSubspace(
                        subspace_id=len(subspaces),
                        mean=subspace.mean,
                        basis=subspace.basis,
                        covariance=subspace.covariance,
                        member_ids=np.searchsorted(rid_map, rids),
                        projections=subspace.projections[mask],
                        discovered_at_dim=subspace.discovered_at_dim,
                        mpe=subspace.mpe,
                        ellipticity=subspace.ellipticity,
                    )
                )
            if owned_out.size:
                out_points = reduced.outliers.points[outlier_mask]
            else:
                out_points = np.empty(
                    (0, reduced.dimensionality), dtype=np.float64
                )
            outliers = OutlierSet(
                member_ids=np.searchsorted(rid_map, owned_out),
                points=out_points,
            )
            shard_reduced = ReducedDataset(
                method=reduced.method,
                subspaces=subspaces,
                outliers=outliers,
                n_points=total,
                dimensionality=reduced.dimensionality,
                info=dict(
                    reduced.info,
                    shard_id=float(shard),
                    shard_of=float(self.n_shards),
                ),
                metric=getattr(reduced, "metric", "l2"),
            )
            shards.append(
                ShardAssignment(
                    shard_id=shard, reduced=shard_reduced, rid_map=rid_map
                )
            )
        return ShardPlan(
            mode=self.mode,
            n_shards=self.n_shards,
            n_points=reduced.n_points,
            dimensionality=reduced.dimensionality,
            metric=getattr(reduced, "metric", "l2"),
            shards=tuple(shards),
        )
