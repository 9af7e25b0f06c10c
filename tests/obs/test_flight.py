"""Flight recorder: bounded memory, logical slow-query classification, and
the never-perturb-the-measurement contract."""

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.workload import sample_queries
from repro.index.base import QueryStats
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.obs.flight import (
    LOGICAL_PAGE_WEIGHT,
    FlightRecorder,
    logical_cost,
)
from repro.reduction.mmdr_adapter import model_to_reduced


def stats(pages=0, dist=0, flops=0, keys=0):
    return QueryStats(
        page_reads=pages,
        distance_computations=dist,
        distance_flops=flops,
        key_comparisons=keys,
        cpu_seconds=0.0,
    )


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(two_cluster_dataset.points, np.random.default_rng(5))
    return model_to_reduced(model)


@pytest.fixture(scope="module")
def workload(two_cluster_dataset):
    return sample_queries(
        two_cluster_dataset.points,
        6,
        np.random.default_rng(9),
        k=5,
        method="perturbed",
    )


class TestLogicalCost:
    def test_pages_weighted_by_page_value_count(self):
        s = stats(pages=2, flops=10, keys=5)
        assert logical_cost(s) == 15 + 2 * LOGICAL_PAGE_WEIGHT

    def test_zero_work_is_zero(self):
        assert logical_cost(stats()) == 0


class TestRingBuffer:
    def test_capacity_bounds_retention_not_lifetime(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("s", "knn", stats(flops=i))
        assert rec.total_queries == 5
        assert len(rec.records) == 3
        assert [r.seq for r in rec.records] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_slow_threshold_classifies_and_counts(self):
        rec = FlightRecorder(capacity=8, slow_threshold=100)
        rec.record("s", "knn", stats(flops=99))
        rec.record("s", "knn", stats(flops=100))  # at threshold -> slow
        rec.record("s", "knn", stats(pages=1))
        assert rec.slow_queries == 2
        assert [r.seq for r in rec.slow_records()] == [1, 2]
        assert not rec.records[0].slow

    def test_no_threshold_means_nothing_is_slow(self):
        rec = FlightRecorder(capacity=4)
        rec.record("s", "knn", stats(pages=1000))
        assert rec.slow_queries == 0
        assert rec.slow_records() == []

    def test_top_offenders_cost_desc_then_oldest_first(self):
        rec = FlightRecorder(capacity=8)
        rec.record("s", "knn", stats(flops=5))
        rec.record("s", "knn", stats(flops=9))
        rec.record("s", "knn", stats(flops=5))  # ties with seq 0
        top = rec.top_offenders(3)
        assert [r.seq for r in top] == [1, 0, 2]
        assert rec.top_offenders(1)[0].logical_cost == 9

    def test_summary_and_render(self):
        rec = FlightRecorder(capacity=4, slow_threshold=7)
        rec.record("iDistance", "knn", stats(flops=10), k=3)
        summary = rec.summary()
        assert summary["total_queries"] == 1
        assert summary["slow_queries"] == 1
        assert summary["max_logical_cost"] == 10
        text = rec.render()
        assert "flight recorder:" in text
        assert "iDistance" in text
        assert "(threshold 7)" in text


class TestIndexIntegration:
    def test_knn_loop_records_every_query(self, reduced, workload):
        index = SequentialScan(reduced)
        rec = index.enable_flight_recorder(capacity=16)
        for query in workload.queries:
            index.reset_cache()
            res = index.knn(query, workload.k)
        assert rec.total_queries == workload.n_queries
        last = rec.records[-1]
        assert last.kind == "knn"
        assert last.k == workload.k
        assert last.scheme == index.name
        assert last.page_reads == res.stats.page_reads
        assert last.logical_cost == logical_cost(res.stats)

    def test_batch_fast_path_records_with_batch_kind(
        self, reduced, workload
    ):
        index = ExtendedIDistance(reduced)
        rec = index.enable_flight_recorder(capacity=16)
        index.knn_batch(workload.queries, workload.k)
        assert rec.total_queries == workload.n_queries
        assert all(r.kind == "knn_batch" for r in rec.records)

    def test_recorder_never_perturbs_results_or_accounting(
        self, reduced, workload
    ):
        plain = SequentialScan(reduced)
        recorded = SequentialScan(reduced)
        recorded.enable_flight_recorder(capacity=4, slow_threshold=1)
        a = plain.knn_batch(workload.queries, workload.k)
        b = recorded.knn_batch(workload.queries, workload.k)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)
        for sa, sb in zip(a.stats, b.stats):
            assert sa.page_reads == sb.page_reads
            assert sa.distance_computations == sb.distance_computations
            assert sa.distance_flops == sb.distance_flops
            assert sa.key_comparisons == sb.key_comparisons

    def test_detach_by_clearing_the_attribute(self, reduced, workload):
        index = SequentialScan(reduced)
        rec = index.enable_flight_recorder()
        index.knn(workload.queries[0], workload.k)
        index.flight = None
        index.knn(workload.queries[1], workload.k)
        assert rec.total_queries == 1
