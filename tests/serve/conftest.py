"""Shared serving-layer fixtures: one small reduction, real fork workers.

The dataset is deliberately small (600 x 10): every e2e test forks worker
processes and pays real checkpoint + recovery per spawn, so the fixture
keeps shard builds cheap while still exercising multiple subspaces plus
outliers.
"""

import multiprocessing
import tempfile

import numpy as np
import pytest

from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.data.workload import sample_queries
from repro.reduction import MMDRReducer
from repro.serve import Router, RouterConfig, ShardPlanner, Supervisor
from repro.serve.planner import mode_for_scheme

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard workers require the fork start method",
)


@pytest.fixture(scope="session")
def serve_points():
    spec = SyntheticSpec(
        n_points=600,
        dimensionality=10,
        n_clusters=2,
        retained_dims=3,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    return generate_correlated_clusters(
        spec, np.random.default_rng(7)
    ).points


@pytest.fixture(scope="session")
def serve_reduced(serve_points):
    return MMDRReducer().reduce(serve_points, np.random.default_rng(1))


@pytest.fixture(scope="session")
def serve_queries(serve_points):
    return sample_queries(
        serve_points, 8, np.random.default_rng(5), k=5, method="perturbed"
    ).queries


@pytest.fixture
def serve_cluster(serve_reduced, tmp_path):
    """Factory: spin up a sharded cluster, tear it down afterwards.

    ``serve_cluster(scheme=..., n_shards=..., mode=..., store=...,
    config=..., fault_specs={shard: WorkerFaultSpec}, reduced=...)`` ->
    started Router (``reduced`` defaults to ``serve_reduced``).
    """
    routers = []

    def factory(
        scheme="SeqScan",
        n_shards=3,
        mode=None,
        store="memory",
        config=None,
        fault_specs=None,
        reduced=None,
    ):
        plan = ShardPlanner(
            n_shards, mode if mode is not None else mode_for_scheme(scheme)
        ).plan(reduced if reduced is not None else serve_reduced)
        root = tempfile.mkdtemp(dir=tmp_path)
        supervisor = Supervisor(plan, scheme, root, store=store)
        for shard_id, spec in (fault_specs or {}).items():
            supervisor.set_fault_spec(shard_id, spec)
        router = Router(
            supervisor,
            config if config is not None else RouterConfig(deadline_s=10.0),
        )
        supervisor.start()
        routers.append(router)
        return router

    yield factory
    for router in routers:
        router.close()
