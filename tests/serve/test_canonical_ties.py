"""Sharded answers equal single-node answers when distances tie.

Every vector appears three times, so most queries tie at the k-th place.
Each shard selects by ``(distance, rid)`` in a local rid space that keeps
global rid order, so the router's merge must reproduce the single-node
answer exactly — ids included, with no re-sort on either side.
"""

import numpy as np
import pytest

from repro.bench.spec import INDEX_SCHEMES
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.reduction import MMDRReducer

from .conftest import fork_only

pytestmark = fork_only


@pytest.fixture(scope="module")
def tripled():
    spec = SyntheticSpec(
        n_points=200,
        dimensionality=10,
        n_clusters=3,
        retained_dims=3,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.02,
    )
    base = generate_correlated_clusters(
        spec, np.random.default_rng(17)
    ).points
    reduced = MMDRReducer().reduce(
        np.vstack([base] * 3), np.random.default_rng(2)
    )
    rng = np.random.default_rng(6)
    queries = base[rng.choice(base.shape[0], 12, replace=False)].copy()
    queries[::2] += rng.normal(0.0, 0.01, queries[::2].shape)
    return reduced, queries


@pytest.mark.parametrize("n_shards", [2, 3])
@pytest.mark.parametrize("scheme", sorted(INDEX_SCHEMES))
def test_router_equals_single_node_under_ties(
    serve_cluster, tripled, scheme, n_shards
):
    reduced, queries = tripled
    single = INDEX_SCHEMES[scheme](reduced).knn_batch(queries, 7)
    router = serve_cluster(scheme=scheme, n_shards=n_shards, reduced=reduced)
    result = router.knn(queries, 7)
    assert not result.partial
    np.testing.assert_array_equal(result.ids, single.ids)
    np.testing.assert_array_equal(result.distances, single.distances)
