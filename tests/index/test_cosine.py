"""Cosine metric, end-to-end: cosine ≡ L2 over unit-normalized vectors.

The reduction is built over normalized rows (the workload spec does this)
and the index normalizes queries and inserted points at the boundary, so
a cosine index over data ``X`` must behave *bit-identically* to an L2
index over ``normalize_rows(X)`` queried with normalized queries — that
is the whole implementation, and these tests pin it for every scheme.
"""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index.base import InvalidQueryError
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.linalg.kernels import normalize_rows
from repro.reduction.mmdr_adapter import MMDRReducer

SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]


@pytest.fixture(scope="module")
def setting():
    """Unit-normalized dataset, one reduction, and raw (unnormalized)
    query vectors the cosine indexes must normalize themselves."""
    spec = SyntheticSpec(
        n_points=1200,
        dimensionality=12,
        n_clusters=3,
        retained_dims=4,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    ds = generate_correlated_clusters(spec, np.random.default_rng(3))
    normalized = normalize_rows(
        np.ascontiguousarray(ds.points, dtype=np.float64)
    )
    rng = np.random.default_rng(9)
    raw_queries = ds.points[:8] * rng.uniform(0.1, 10.0, size=(8, 1))
    return normalized, raw_queries


def build_pair(scheme, normalized):
    """The cosine index and its L2 twin over the *same* reduction."""
    cosine_reduced = MMDRReducer().reduce(normalized, np.random.default_rng(7))
    cosine_reduced.metric = "cosine"
    l2_reduced = MMDRReducer().reduce(normalized, np.random.default_rng(7))
    return scheme(cosine_reduced), scheme(l2_reduced)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestCosineEqualsL2OnNormalized:
    def test_metric_property(self, scheme, setting):
        normalized, _ = setting
        cos_index, l2_index = build_pair(scheme, normalized)
        assert cos_index.metric == "cosine"
        assert l2_index.metric == "l2"

    def test_knn_matches_l2_twin_bit_for_bit(self, scheme, setting):
        normalized, raw_queries = setting
        cos_index, l2_index = build_pair(scheme, normalized)
        unit_queries = normalize_rows(raw_queries)
        for raw, unit in zip(raw_queries, unit_queries):
            got = cos_index.knn(raw, 10)
            want = l2_index.knn(unit, 10)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.distances, want.distances)

    def test_query_scale_invariance(self, scheme, setting):
        # Not bit-exact: normalizing a scaled vector rounds its unit image
        # differently in the last ulp, so only near-equality is promised.
        normalized, raw_queries = setting
        cos_index, _ = build_pair(scheme, normalized)
        q = raw_queries[0]
        a = cos_index.knn(q, 10)
        b = cos_index.knn(q * 123.0, 10)
        assert np.array_equal(a.ids, b.ids)
        np.testing.assert_allclose(a.distances, b.distances, atol=1e-12)

    def test_batch_matches_sequential(self, scheme, setting):
        # Both cache protocols: the vectorized engine and the per-query
        # loop must each normalize a raw row exactly once, as knn does.
        normalized, raw_queries = setting
        cos_index, _ = build_pair(scheme, normalized)
        for cold_cache in (True, False):
            batch = cos_index.knn_batch(
                raw_queries, 10, cold_cache=cold_cache
            )
            assert batch.invalid_queries == ()
            for qi, raw in enumerate(raw_queries):
                want = cos_index.knn(raw, 10)
                assert np.array_equal(batch.ids[qi], want.ids)
                assert np.array_equal(batch.distances[qi], want.distances)

    def test_insert_normalizes_at_the_boundary(self, scheme, setting):
        normalized, raw_queries = setting
        cos_index, l2_index = build_pair(scheme, normalized)
        new_point = raw_queries[0] * 42.0  # wildly off unit length
        rid = 1_000_000
        cos_index.insert(new_point, rid)
        l2_index.insert(normalize_rows(new_point[None, :])[0], rid)
        got = cos_index.knn(new_point, 3)
        want = l2_index.knn(normalize_rows(new_point[None, :])[0], 3)
        assert rid in got.ids
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.distances, want.distances)

    def test_delete_under_cosine(self, scheme, setting):
        normalized, raw_queries = setting
        cos_index, _ = build_pair(scheme, normalized)
        rid = 1_000_001
        cos_index.insert(raw_queries[1], rid)
        assert rid in cos_index.knn(raw_queries[1], 3).ids
        cos_index.delete(rid)
        assert rid not in cos_index.knn(raw_queries[1], 10).ids


@pytest.mark.parametrize("scheme", SCHEMES)
class TestZeroVectors:
    """A zero vector has no direction: per-query/insert it is an error,
    in a batch it is skipped and reported like a NaN row."""

    def test_zero_query_raises(self, scheme, setting):
        normalized, _ = setting
        cos_index, _ = build_pair(scheme, normalized)
        with pytest.raises(InvalidQueryError, match="zero"):
            cos_index.knn(np.zeros(normalized.shape[1]), 5)

    def test_zero_insert_raises(self, scheme, setting):
        normalized, _ = setting
        cos_index, _ = build_pair(scheme, normalized)
        with pytest.raises(InvalidQueryError, match="zero"):
            cos_index.insert(np.zeros(normalized.shape[1]), 999)

    def test_batch_skips_and_reports_zero_rows(self, scheme, setting):
        normalized, raw_queries = setting
        cos_index, _ = build_pair(scheme, normalized)
        queries = raw_queries[:3].copy()
        queries[1] = 0.0
        batch = cos_index.knn_batch(queries, 5)
        assert batch.invalid_queries == (1,)
        assert np.all(batch.ids[1] == -1)
        for qi in (0, 2):
            want = cos_index.knn(queries[qi], 5)
            assert np.array_equal(batch.ids[qi], want.ids)

    def test_l2_twin_accepts_zero_queries(self, scheme, setting):
        # The zero-vector rules are cosine-only; L2 must be unaffected.
        normalized, _ = setting
        _, l2_index = build_pair(scheme, normalized)
        result = l2_index.knn(np.zeros(normalized.shape[1]), 5)
        assert len(result.ids) == 5
