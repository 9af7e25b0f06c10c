"""Query workloads for the KNN experiments.

The paper evaluates with 100 queries, 10-NN, L2 search distance (§6).  Query
points follow the data distribution — the standard protocol when none is
stated is to draw them from the dataset itself, optionally with a small
perturbation so a query is not trivially its own nearest neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = ["QueryWorkload", "sample_queries"]


@dataclass(frozen=True)
class QueryWorkload:
    """A batch of query points plus the K for KNN evaluation."""

    queries: np.ndarray
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.queries.ndim != 2:
            raise ValueError(
                f"queries must be (n, d), got shape {self.queries.shape}"
            )

    @property
    def n_queries(self) -> int:
        return self.queries.shape[0]


def sample_queries(
    data: np.ndarray,
    n_queries: int,
    rng: np.random.Generator,
    k: int = 10,
    method: Literal["points", "perturbed"] = "points",
    perturbation: float = 0.01,
) -> QueryWorkload:
    """Draw a query workload from the data distribution.

    ``method="points"`` samples dataset rows verbatim (the paper's setup:
    queries follow the data).  ``method="perturbed"`` adds isotropic Gaussian
    noise of scale ``perturbation`` so queries land *near* the data manifold
    but not exactly on stored points.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot sample queries from an empty dataset")
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    rows = rng.choice(n, size=n_queries, replace=n_queries > n)
    queries = data[rows].copy()
    if method == "perturbed":
        queries += rng.normal(0.0, perturbation, size=queries.shape)
    elif method != "points":
        raise ValueError(f"unknown method {method!r}")
    return QueryWorkload(queries=queries, k=k)
