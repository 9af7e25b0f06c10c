"""Shard planning: disjoint covering splits with bit-identical floats."""

import numpy as np
import pytest

from repro.serve.planner import ShardPlanner, mode_for_scheme


def _global_rids(plan):
    return np.concatenate([a.rid_map for a in plan.shards])


@pytest.mark.parametrize("mode", ["hash", "partition"])
def test_split_is_disjoint_and_covering(serve_reduced, mode):
    plan = ShardPlanner(2, mode).plan(serve_reduced)
    rids = _global_rids(plan)
    assert rids.size == serve_reduced.n_points
    assert np.unique(rids).size == rids.size
    np.testing.assert_array_equal(
        np.sort(rids), np.arange(serve_reduced.n_points)
    )


@pytest.mark.parametrize("mode", ["hash", "partition"])
def test_shard_local_rid_space(serve_reduced, mode):
    plan = ShardPlanner(2, mode).plan(serve_reduced)
    for assignment in plan.shards:
        reduced = assignment.reduced
        assert reduced.n_points == assignment.rid_map.size
        local = np.concatenate(
            [s.member_ids for s in reduced.subspaces]
            + [reduced.outliers.member_ids]
        )
        np.testing.assert_array_equal(
            np.sort(local), np.arange(reduced.n_points)
        )


def test_hash_mode_preserves_projection_rows_bitwise(serve_reduced):
    plan = ShardPlanner(3, "hash").plan(serve_reduced)
    for assignment in plan.shards:
        for local in assignment.reduced.subspaces:
            # Match the local subspace back to its global original by
            # identical basis (bases are unique per subspace).
            source = next(
                s
                for s in serve_reduced.subspaces
                if s.basis.shape == local.basis.shape
                and np.array_equal(s.basis, local.basis)
            )
            global_rids = assignment.rid_map[local.member_ids]
            lookup = {
                int(rid): i
                for i, rid in enumerate(source.member_ids.tolist())
            }
            rows = np.array([lookup[int(r)] for r in global_rids])
            assert np.array_equal(
                local.projections, source.projections[rows]
            )


def test_partition_mode_keeps_ellipsoids_whole(serve_reduced):
    n_shards = 2
    plan = ShardPlanner(n_shards, "partition").plan(serve_reduced)
    for idx, subspace in enumerate(serve_reduced.subspaces):
        owner = plan.shards[idx % n_shards]
        local = owner.reduced.subspaces
        match = [
            s
            for s in local
            if s.size == subspace.size
            and np.array_equal(s.projections, subspace.projections)
        ]
        assert len(match) == 1
        np.testing.assert_array_equal(
            owner.rid_map[match[0].member_ids], subspace.member_ids
        )


def test_empty_shard_raises(serve_reduced):
    # Far more shards than partitions: partition mode must refuse rather
    # than plan shards that cannot build an index.
    with pytest.raises(ValueError, match="empty"):
        ShardPlanner(64, "partition").plan(serve_reduced)


def test_metric_and_info_propagate(serve_reduced):
    plan = ShardPlanner(2, "hash").plan(serve_reduced)
    assert plan.metric == serve_reduced.metric
    for assignment in plan.shards:
        assert assignment.reduced.metric == serve_reduced.metric
        assert assignment.reduced.info["shard_of"] == 2.0


def test_mode_for_scheme():
    assert mode_for_scheme("iMMDR") == "partition"
    assert mode_for_scheme("gLDR") == "hash"
    assert mode_for_scheme("SeqScan") == "hash"


def test_planner_validation():
    with pytest.raises(ValueError):
        ShardPlanner(0)
    with pytest.raises(ValueError):
        ShardPlanner(2, "range")


def test_describe_mentions_every_shard(serve_reduced):
    plan = ShardPlanner(2, "hash").plan(serve_reduced)
    text = plan.describe()
    assert "shard 0" in text and "shard 1" in text


@pytest.mark.parametrize("mode", ["hash", "partition"])
def test_local_rids_follow_global_rid_order(serve_reduced, mode):
    """A shard breaks distance ties by local rid; that matches the
    single-node ``(distance, rid)`` order only if renumbering is
    monotone."""
    plan = ShardPlanner(3, mode).plan(serve_reduced)
    for assignment in plan.shards:
        assert (np.diff(assignment.rid_map) > 0).all()
