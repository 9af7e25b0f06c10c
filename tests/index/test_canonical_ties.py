"""Every exact scheme answers the top-K in one order: ``(distance, rid)``.

On data where every vector appears three times, distances tie at the
k-th place on nearly every query.  A scheme that keeps the first tied rid
it meets — or an arbitrary one — disagrees with a brute-force oracle that
breaks ties by rid, so these tests check ids exactly.
"""

import numpy as np
import pytest

from repro.bench.spec import INDEX_SCHEMES
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.reduction import MMDRReducer

pytestmark = pytest.mark.perf_smoke

COPIES = 3


def oracle(reduced, query, k):
    """Exact scan over the reduced vectors, ordered by ``(distance, rid)``."""
    ids, dists = [], []
    for sub in reduced.subspaces:
        diff = sub.projections - sub.project(query)
        dists.append(np.linalg.norm(diff, axis=1))
        ids.append(sub.member_ids)
    if reduced.outliers.size:
        dists.append(np.linalg.norm(reduced.outliers.points - query, axis=1))
        ids.append(reduced.outliers.member_ids)
    ids, dists = np.concatenate(ids), np.concatenate(dists)
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


@pytest.fixture(scope="module")
def tripled():
    spec = SyntheticSpec(
        n_points=300,
        dimensionality=12,
        n_clusters=2,
        retained_dims=3,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.02,
    )
    base = generate_correlated_clusters(
        spec, np.random.default_rng(21)
    ).points
    points = np.vstack([base] * COPIES)
    reduced = MMDRReducer().reduce(points, np.random.default_rng(4))
    rng = np.random.default_rng(8)
    rows = rng.choice(base.shape[0], 40, replace=False)
    # Half the queries sit exactly on a stored vector, half just off one.
    queries = base[rows].copy()
    queries[::2] += rng.normal(0.0, 0.01, queries[::2].shape)
    return reduced, points, queries


@pytest.mark.parametrize("k", [4, 10])
@pytest.mark.parametrize("scheme", sorted(INDEX_SCHEMES))
def test_knn_and_batch_match_oracle_under_ties(tripled, scheme, k):
    reduced, _, queries = tripled
    index = INDEX_SCHEMES[scheme](reduced)
    batch = index.knn_batch(queries, k)
    for row, query in enumerate(queries):
        want_ids, want_d = oracle(reduced, query, k)
        got = index.knn(query, k)
        np.testing.assert_array_equal(got.ids, want_ids)
        np.testing.assert_allclose(got.distances, want_d, rtol=1e-9)
        np.testing.assert_array_equal(batch.ids[row], want_ids)
        np.testing.assert_allclose(batch.distances[row], want_d, rtol=1e-9)


def test_schemes_agree_after_duplicate_inserts_and_deletes(tripled):
    """Inserted vectors land in each scheme's delta store, where ties must
    be broken by rid too.  Each one is inserted three times (an exact tie
    within a scheme) a small step away from a stored vector, so no delta
    distance sits within rounding of a bulk one; deletes then remove some
    bulk rids and one copy of every third inserted triple."""
    reduced, points, queries = tripled
    n = reduced.n_points
    rng = np.random.default_rng(30)
    sources = np.arange(0, n // COPIES, 7)
    moved = points[sources] + rng.normal(0.0, 1e-3, (sources.size, 12))
    indexes = {name: build(reduced) for name, build in INDEX_SCHEMES.items()}
    for index in indexes.values():
        rid = n
        for vector in moved:
            for _ in range(COPIES):
                index.insert(vector, rid)
                rid += 1
        for dead in [*range(0, n, 11), *range(n, rid, 3 * COPIES)]:
            index.delete(dead)
    answers = {
        name: index.knn_batch(queries, 10)
        for name, index in indexes.items()
    }
    ref = answers["SeqScan"]
    for name, got in answers.items():
        np.testing.assert_array_equal(got.ids, ref.ids, err_msg=name)
        np.testing.assert_allclose(
            got.distances, ref.distances, rtol=1e-9, err_msg=name
        )
        for row, query in enumerate(queries[:8]):
            one = indexes[name].knn(query, 10)
            np.testing.assert_array_equal(one.ids, ref.ids[row])


def test_inserted_copies_score_the_same_bits_in_every_scheme(tripled):
    """Exact copies of bulk vectors, inserted online, land in each
    scheme's delta store.  Every scheme must score a delta entry with the
    same kernel as iDistance (a 1-d ``np.linalg.norm`` goes through BLAS
    ``dot`` and differs in the last bit for a share of vectors), so the
    answers agree in ids *and* in every distance bit."""
    reduced, points, queries = tripled
    n = reduced.n_points
    sources = np.arange(0, n // COPIES, 3)
    indexes = {name: build(reduced) for name, build in INDEX_SCHEMES.items()}
    for index in indexes.values():
        for rid, source in enumerate(sources.tolist(), start=n):
            index.insert(points[source], rid)
    for k in (4, 10):
        answers = {
            name: index.knn_batch(queries, k)
            for name, index in indexes.items()
        }
        ref = answers["SeqScan"]
        for name, got in answers.items():
            np.testing.assert_array_equal(got.ids, ref.ids, err_msg=name)
            assert np.array_equal(got.distances, ref.distances), name
            for row, query in enumerate(queries):
                one = indexes[name].knn(query, k)
                np.testing.assert_array_equal(one.ids, ref.ids[row])
                assert np.array_equal(one.distances, ref.distances[row])
