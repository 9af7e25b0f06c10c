"""Batched execution must be bit-identical to the per-query loop.

The batched engine (:meth:`VectorIndex.knn_batch`) exists purely to
amortize per-query overhead — the contract is that results AND cold-cache
cost accounting are bit-for-bit those of a sequential ``knn`` loop.  These tests enforce that
contract on every scheme, in property style: many queries, several k values,
dynamic inserts, tracer on and off.  iDistance's ``knn`` and ``knn_batch``
share one engine, so its answers are also checked against an independent
reference, a SequentialScan fed the same mutations.
"""

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.workload import sample_queries
from repro.eval.harness import run_query_batch
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.persist.snapshot import load_index, save_index
from repro.recovery.recover import checkpoint, recover
from repro.reduction.mmdr_adapter import model_to_reduced
from repro.storage.wal import WriteAheadLog


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(
        two_cluster_dataset.points, np.random.default_rng(5)
    )
    return two_cluster_dataset, model_to_reduced(model)


@pytest.fixture(scope="module")
def workload(two_cluster_dataset):
    return sample_queries(
        two_cluster_dataset.points,
        20,
        np.random.default_rng(9),
        k=10,
        method="perturbed",
    )


SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]


def sequential_reference(index, workload):
    """The ground truth: a cold per-query knn loop."""
    ids, dists, stats = [], [], []
    for query in workload.queries:
        index.reset_cache()
        res = index.knn(query, workload.k)
        ids.append(res.ids)
        dists.append(res.distances)
        stats.append(res.stats)
    return np.vstack(ids), np.vstack(dists), stats


def matches_reference(ids, dists, ref, k, rtol=1e-9):
    """Whether ``(ids, dists)`` is a correct top-``k`` answer judged by a
    deeper ``ref`` answer of another scheme: ``k`` distinct rids, each at
    its reference distance, whose distances are the ``k`` smallest.  A rid
    tied with the k-th may stand in for another, and distances agree to
    ``rtol`` (two schemes may round a reduced distance differently in the
    last bit)."""
    ref_dist = dict(zip(ref.ids.tolist(), ref.distances.tolist()))
    return (
        ids.size == k
        and np.unique(ids).size == k
        and all(rid in ref_dist for rid in ids.tolist())
        and np.allclose(
            dists, [ref_dist[rid] for rid in ids.tolist()],
            rtol=rtol, atol=0.0,
        )
        and np.allclose(
            np.sort(dists), ref.distances[:k], rtol=rtol, atol=0.0
        )
    )


def assert_equivalent(seq, batch):
    seq_ids, seq_dists, seq_stats = seq
    batch_ids, batch_dists, batch_stats = batch
    assert np.array_equal(seq_ids, batch_ids)
    assert np.array_equal(seq_dists, batch_dists)
    for a, b in zip(seq_stats, batch_stats):
        assert a.page_reads == b.page_reads
        assert a.distance_computations == b.distance_computations
        assert a.distance_flops == b.distance_flops
        assert a.key_comparisons == b.key_comparisons


class TestBatchEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_knn_batch_bit_identical(self, scheme, reduced, workload):
        _, red = reduced
        seq = sequential_reference(scheme(red), workload)
        index = scheme(red)
        res = index.knn_batch(workload.queries, workload.k)
        assert_equivalent(seq, (res.ids, res.distances, list(res.stats)))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_counters_match_sequential_totals(self, scheme, reduced, workload):
        """A batch run must leave the index's own counters at exactly the
        sequential totals (deterministic fields)."""
        _, red = reduced
        ref = scheme(red)
        sequential_reference(ref, workload)
        fields = (
            "logical_reads",
            "physical_reads",
            "sequential_reads",
            "distance_computations",
            "distance_flops",
            "key_comparisons",
        )
        batch_index = scheme(red)
        batch_index.knn_batch(workload.queries, workload.k)
        for f in fields:
            assert getattr(batch_index.counters, f) == getattr(
                ref.counters, f
            ), f

    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_k_sweep_on_idistance(self, k, reduced, two_cluster_dataset):
        _, red = reduced
        wl = sample_queries(
            two_cluster_dataset.points, 12, np.random.default_rng(k), k=k
        )
        seq = sequential_reference(ExtendedIDistance(red), wl)
        index = ExtendedIDistance(red)
        res = index.knn_batch(wl.queries, wl.k)
        assert_equivalent(seq, (res.ids, res.distances, list(res.stats)))

    def test_after_dynamic_inserts(
        self, reduced, two_cluster_dataset, tmp_path
    ):
        """Inserts, then deletes of bulk and inserted rids, replayed by WAL
        recovery and carried through a snapshot: ``knn`` and ``knn_batch``
        must agree bit-for-bit, and both must answer as a SequentialScan
        fed the same ops does (the independent reference)."""
        _, red = reduced
        points = two_cluster_dataset.points
        rng = np.random.default_rng(31)
        wl = sample_queries(points, 15, rng, k=8, method="perturbed")
        ops = []
        for i in range(25):
            base = points[rng.integers(points.shape[0])]
            ops.append(
                ("insert", base + rng.normal(0, 1e-3, base.shape),
                 2_000_000 + i)
            )
        # Delete the current two best bulk answers of several queries, so
        # a bulk delete the scan fails to filter changes an answer.
        probe = SequentialScan(red)
        doomed = []
        for query in wl.queries[:6]:
            for rid in probe.knn(query, 2).ids.tolist():
                if rid not in doomed:
                    doomed.append(rid)
        ops += [("delete", rid) for rid in doomed]
        ops += [("delete", 2_000_000 + i) for i in range(0, 25, 3)]

        def apply(index):
            for op in ops:
                if op[0] == "insert":
                    index.insert(op[1], rid=op[2])
                else:
                    index.delete(op[1])

        index = ExtendedIDistance(red)
        wal = WriteAheadLog(tmp_path / "wal.log")
        index.enable_wal(wal)
        checkpoint(index, tmp_path / "ckpt")
        apply(index)
        wal.close()
        recovered, report = recover(tmp_path / "wal.log")
        assert report.metas_applied == len(ops)
        save_index(recovered, tmp_path / "snap")
        oracle = SequentialScan(red)
        apply(oracle)

        seq = sequential_reference(load_index(tmp_path / "snap"), wl)
        res = load_index(tmp_path / "snap").knn_batch(wl.queries, wl.k)
        assert_equivalent(seq, (res.ids, res.distances, list(res.stats)))
        for row, query in enumerate(wl.queries):
            ref = oracle.knn(query, wl.k + 5)
            assert matches_reference(
                res.ids[row], res.distances[row], ref, wl.k
            ), row

    def test_tracer_does_not_change_batch_results(self, reduced, workload):
        _, red = reduced
        plain = ExtendedIDistance(red).knn_batch(
            workload.queries, workload.k
        )
        traced = ExtendedIDistance(red).knn_batch(
            workload.queries, workload.k, tracer=Tracer()
        )
        assert np.array_equal(plain.ids, traced.ids)
        assert np.array_equal(plain.distances, traced.distances)
        for a, b in zip(plain.stats, traced.stats):
            assert a.page_reads == b.page_reads
            assert a.distance_computations == b.distance_computations

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_overhead_invariant_on_batch_path(
        self, scheme, reduced, workload
    ):
        """The full zero-overhead contract through knn_batch: an active
        tracer must leave results, per-query stats AND the index's own
        counters bit-identical to the NULL_TRACER default."""
        _, red = reduced
        plain_index = scheme(red)
        plain = plain_index.knn_batch(
            workload.queries, workload.k, tracer=NULL_TRACER
        )
        traced_index = scheme(red)
        traced = traced_index.knn_batch(
            workload.queries, workload.k, tracer=Tracer()
        )
        assert_equivalent(
            (plain.ids, plain.distances, list(plain.stats)),
            (traced.ids, traced.distances, list(traced.stats)),
        )
        for f in (
            "logical_reads",
            "physical_reads",
            "sequential_reads",
            "distance_computations",
            "distance_flops",
            "key_comparisons",
        ):
            assert getattr(plain_index.counters, f) == getattr(
                traced_index.counters, f
            ), f

    def test_batch_spans_emitted(self, reduced, workload):
        _, red = reduced
        tracer = Tracer()
        ExtendedIDistance(red).knn_batch(
            workload.queries, workload.k, tracer=tracer
        )
        names = [s.name for s in tracer.spans]
        assert "knn.batch" in names
        assert "knn.batch.project_queries" in names
        assert "knn.batch.expand_radius" in names
        assert tracer.metrics.gauge("knn.batch_qps").value > 0

    def test_empty_and_single_query_batches(self, reduced, two_cluster_dataset):
        _, red = reduced
        index = ExtendedIDistance(red)
        empty = index.knn_batch(np.empty((0, red.dimensionality)), 5)
        assert empty.ids.shape[0] == 0
        query = two_cluster_dataset.points[:1]
        single = index.knn_batch(query, 3)
        index.reset_cache()
        one = index.knn(query[0], 3)
        assert np.array_equal(single.ids[0], one.ids)
        assert np.array_equal(single.distances[0], one.distances)


class TestHarnessRouting:
    def test_run_query_batch_routes_agree(self, reduced, workload):
        _, red = reduced
        ids_loop, ids_batch = [], []
        loop = run_query_batch(
            ExtendedIDistance(red), workload, collect_ids=ids_loop
        )
        batch = run_query_batch(
            ExtendedIDistance(red),
            workload,
            collect_ids=ids_batch,
            use_batch=True,
        )
        assert loop.mean_page_reads == batch.mean_page_reads
        assert (
            loop.mean_distance_computations
            == batch.mean_distance_computations
        )
        assert len(ids_loop) == len(ids_batch) == workload.n_queries
        for a, b in zip(ids_loop, ids_batch):
            assert np.array_equal(a, b)

    def test_warm_cache_fast_paths_rejected(self, reduced, workload):
        _, red = reduced
        with pytest.raises(ValueError):
            run_query_batch(
                ExtendedIDistance(red),
                workload,
                cold_cache=False,
                use_batch=True,
            )


class TestLocate:
    def test_bulk_rids_locatable(self, reduced):
        _, red = reduced
        index = ExtendedIDistance(red)
        for partition in index.partitions:
            if partition.size == 0:
                continue
            rid = int(partition.rids[partition.size // 2])
            p, pos = index.locate(rid)
            assert p == partition.index
            assert int(partition.rids[pos]) == rid

    def test_inserted_rids_locatable(self, reduced, two_cluster_dataset):
        _, red = reduced
        index = ExtendedIDistance(red)
        base = two_cluster_dataset.points[7]
        partition = index.insert(base + 1e-5, rid=3_000_000)
        p, pos = index.locate(3_000_000)
        assert p == partition
        part = index.partitions[p]
        assert pos >= part.rids.size  # delta store positions sit past bulk
        delta_pos = pos - part.rids.size
        assert part.delta_rids[delta_pos] == 3_000_000

    def test_unknown_rid_raises(self, reduced):
        _, red = reduced
        index = ExtendedIDistance(red)
        with pytest.raises(KeyError):
            index.locate(987_654_321)
        with pytest.raises(KeyError):
            index.locate(-1)
