"""Dynamic insertion into the extended iDistance (the §5 capability the
paper's auxiliary covariance/radius arrays exist for)."""

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.reduction.mmdr_adapter import model_to_reduced


@pytest.fixture(scope="module")
def built_index():
    spec = SyntheticSpec(
        n_points=4000,
        dimensionality=24,
        n_clusters=3,
        retained_dims=4,
        variance_r=0.3,
        variance_e=0.012,
        noise_fraction=0.01,
    )
    ds = generate_correlated_clusters(spec, np.random.default_rng(55))
    model = MMDR().fit(ds.points, np.random.default_rng(56))
    index = ExtendedIDistance(model_to_reduced(model))
    return ds, model, index


class TestRouting:
    def test_cluster_point_joins_its_subspace(self, built_index):
        ds, model, index = built_index
        subspace = model.subspaces[0]
        # A fresh point synthesized inside subspace 0's plane.
        new_point = subspace.reconstruct(
            subspace.projections[:25].mean(axis=0)
        )
        partition = index.insert(new_point, rid=999_001)
        assert partition == subspace.subspace_id

    def test_far_point_goes_to_outlier_partition(self, built_index):
        _, model, index = built_index
        junk = np.full(model.dimensionality, 40.0)
        partition = index.insert(junk, rid=999_002)
        assert index.partitions[partition].subspace is None

    def test_tree_grows(self, built_index):
        ds, _, index = built_index
        before = len(index.tree)
        index.insert(ds.points[0] + 0.001, rid=999_003)
        assert len(index.tree) == before + 1


class TestSearchAfterInsert:
    def test_inserted_point_is_findable(self, built_index):
        ds, model, index = built_index
        subspace = model.subspaces[1]
        anchor = ds.points[subspace.member_ids[3]]
        new_point = anchor + 1e-6  # essentially a duplicate
        index.insert(new_point, rid=999_100)
        index.reset_cache()
        result = index.knn(anchor, 3)
        assert 999_100 in result.ids.tolist()

    def test_inserted_outlier_is_findable(self, built_index):
        _, model, index = built_index
        lonely = np.full(model.dimensionality, -30.0)
        index.insert(lonely, rid=999_200)
        index.reset_cache()
        result = index.knn(lonely, 1)
        assert result.ids[0] == 999_200

    def test_existing_answers_unchanged_for_far_queries(self, built_index):
        """Inserting into one region must not corrupt answers elsewhere."""
        ds, _, index = built_index
        query = ds.points[100]
        baseline = index.knn(query, 10).ids
        far = np.full(ds.points.shape[1], 25.0)
        index.insert(far, rid=999_300)
        index.reset_cache()
        after = index.knn(query, 10).ids
        assert set(after.tolist()) == set(baseline.tolist())

    def test_many_inserts_then_exact_self_queries(self, built_index):
        ds, model, index = built_index
        rng = np.random.default_rng(4)
        subspace = model.subspaces[0]
        inserted = []
        for i in range(30):
            base = ds.points[subspace.member_ids[rng.integers(
                subspace.member_ids.size)]]
            point = base + rng.normal(0, 1e-4, base.shape)
            rid = 1_000_000 + i
            index.insert(point, rid=rid)
            inserted.append((point, rid))
        index.reset_cache()
        hits = sum(
            rid in index.knn(point, 2).ids.tolist()
            for point, rid in inserted
        )
        assert hits >= 28  # near-duplicates must find themselves


class TestKeySpaceGuard:
    def test_offset_beyond_c_rejected(self, built_index):
        _, model, index = built_index
        subspace = model.subspaces[0]
        # A point inside the subspace's plane but absurdly far out along it
        # would need a key outside the partition's range.
        direction = subspace.basis[:, 0]
        far_in_plane = subspace.mean + direction * (index.c * 5)
        with pytest.raises(ValueError):
            index.insert(far_in_plane, rid=999_999)


@pytest.mark.parametrize(
    "scheme", [ExtendedIDistance, SequentialScan, GlobalLDRIndex]
)
def test_insert_rejects_live_rid(scheme, built_index):
    """A rid already live (bulk-loaded or inserted) cannot be inserted
    again: it would answer twice and count twice in ``live_count``."""
    ds, model, _ = built_index
    index = scheme(model_to_reduced(model))
    n = ds.points.shape[0]
    with pytest.raises(ValueError, match="already live"):
        index.insert(ds.points[5] + 1e-6, rid=5)
    index.insert(ds.points[6] + 1e-6, rid=999_500)
    with pytest.raises(ValueError, match="already live"):
        index.insert(ds.points[6] + 2e-6, rid=999_500)
    assert index.live_count == n + 1
    index.reset_cache()
    ids = index.knn(ds.points[5], 5).ids.tolist()
    assert ids.count(5) == 1
    assert len(set(ids)) == len(ids)
