"""Snapshot round trips of indexes carrying online inserts/deletes, and
load-then-recover ordering (snapshot as the recovery baseline)."""

import pickle

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.persist import load_index, save_index
from repro.recovery import checkpoint, recover
from repro.reduction.mmdr_adapter import model_to_reduced
from repro.storage.wal import WriteAheadLog

SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(two_cluster_dataset.points, np.random.default_rng(5))
    return two_cluster_dataset, model_to_reduced(model)


def mutate(index, points, n_bulk):
    """A fixed little update mix: 3 inserts, 2 deletes."""
    rng = np.random.default_rng(31)
    for j in range(3):
        point = points[int(rng.integers(0, len(points)))] + rng.normal(
            0.0, 0.01, points.shape[1]
        )
        index.insert(point, n_bulk + j, beta=0.5)
    for rid in (4, 17):
        index.delete(rid)


def assert_same_answers(a, b, queries, k=5):
    for query in queries:
        ra, rb = a.knn(query, k), b.knn(query, k)
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.distances, rb.distances)


class TestDynamicRoundTrip:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_delta_and_tombstones_survive_round_trip(
        self, scheme, reduced, tmp_path
    ):
        ds, red = reduced
        index = scheme(red)
        mutate(index, ds.points, red.n_points)
        save_index(index, tmp_path / "snap")
        restored = load_index(tmp_path / "snap")

        assert restored.live_count == index.live_count
        assert getattr(restored, "n_inserted") == 3
        assert restored._tombstones == {4, 17}
        if scheme is ExtendedIDistance:
            deltas = [
                p.delta_rids for p in restored.partitions if p.delta_rids
            ]
            assert sum(len(d) for d in deltas) == 3
        else:
            assert len(restored.delta) == 3
            got = [
                np.asarray(v) for v in restored.delta.vectors
            ]
            want = [np.asarray(v) for v in index.delta.vectors]
            assert all(
                np.array_equal(g, w) for g, w in zip(got, want)
            )
        assert_same_answers(index, restored, ds.points[:4])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_restored_index_keeps_mutating(
        self, scheme, reduced, tmp_path
    ):
        ds, red = reduced
        index = scheme(red)
        mutate(index, ds.points, red.n_points)
        save_index(index, tmp_path / "snap")
        restored = load_index(tmp_path / "snap")
        # deletes of already-deleted rids must still be rejected
        with pytest.raises(KeyError):
            restored.delete(4)
        restored.insert(ds.points[0], red.n_points + 50, beta=0.5)
        restored.delete(25)
        assert restored.live_count == index.live_count  # +1 insert -1 delete

    def test_snapshot_refuses_attached_wal(self, reduced, tmp_path):
        _, red = reduced
        index = ExtendedIDistance(red)
        index.enable_wal(tmp_path / "wal.log")
        with pytest.raises(Exception, match="pickle"):
            save_index(index, tmp_path / "snap")
        index.wal.close()


def test_idistance_snapshot_without_dead_masks_loads(reduced):
    """An iDistance pickled before partitions carried ``dead`` masks
    rebuilds them from its tombstones on load."""
    ds, red = reduced
    index = ExtendedIDistance(red)
    mutate(index, ds.points, red.n_points)
    old = pickle.loads(pickle.dumps(index))
    for partition in old.partitions:
        del partition.dead
    restored = pickle.loads(pickle.dumps(old))
    for a, b in zip(index.partitions, restored.partitions):
        assert np.array_equal(a.dead, b.dead)
    assert_same_answers(index, restored, ds.points[:4])


def test_idistance_snapshot_with_row_major_vectors_loads(reduced):
    """An iDistance pickled before partitions were stored dimension-major
    carries row-major ``vectors``; loading it rebuilds ``columns`` and
    answers ``knn`` and ``knn_batch`` exactly as the live index does."""
    ds, red = reduced
    index = ExtendedIDistance(red)
    mutate(index, ds.points, red.n_points)
    old = pickle.loads(pickle.dumps(index))
    for partition in old.partitions:
        partition.vectors = np.ascontiguousarray(
            partition.__dict__.pop("columns").T
        )
    restored = pickle.loads(pickle.dumps(old))
    for a, b in zip(index.partitions, restored.partitions):
        assert not hasattr(b, "vectors")
        assert b.columns.flags.c_contiguous
        assert np.array_equal(a.columns, b.columns)
    assert_same_answers(index, restored, ds.points[:4])
    want = index.knn_batch(ds.points[:8], 5)
    got = restored.knn_batch(ds.points[:8], 5)
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.distances, want.distances)


class TestLoadThenRecoverOrdering:
    """The snapshot is the *baseline*; WAL records after its CHECKPOINT are
    the delta.  Loading the snapshot and then recovering must equal the
    live index that kept mutating — in that order, for every scheme."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_checkpoint_then_updates_then_recover(
        self, scheme, reduced, tmp_path
    ):
        ds, red = reduced
        index = scheme(red)
        wal = WriteAheadLog(tmp_path / "wal.log")
        index.enable_wal(wal)
        checkpoint(index, tmp_path / "ckpt")
        mutate(index, ds.points, red.n_points)
        wal.close()

        recovered, report = recover(tmp_path / "wal.log")
        assert report.snapshot_path == str(tmp_path / "ckpt")
        assert report.committed_txns == 5
        assert report.discarded_txns == 0
        assert sorted(report.committed_kinds) == [
            "delete", "delete", "insert", "insert", "insert"
        ]
        assert recovered.live_count == index.live_count
        assert_same_answers(index, recovered, ds.points[:4])

    def test_recover_without_checkpoint_is_typed_error(self, tmp_path):
        from repro.recovery import RecoveryError

        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(RecoveryError, match="CHECKPOINT"):
            recover(tmp_path / "wal.log")

    def test_recover_missing_log_is_typed_error(self, tmp_path):
        from repro.recovery import RecoveryError

        with pytest.raises(RecoveryError, match="no write-ahead log"):
            recover(tmp_path / "absent.log")

    def test_recovery_is_idempotent(self, reduced, tmp_path):
        """Recovering twice from the same log gives the same index (LSN
        gates make physical redo idempotent; metadata redo restarts from
        the freshly loaded snapshot each time)."""
        ds, red = reduced
        index = ExtendedIDistance(red)
        wal = WriteAheadLog(tmp_path / "wal.log")
        index.enable_wal(wal)
        checkpoint(index, tmp_path / "ckpt")
        mutate(index, ds.points, red.n_points)
        wal.close()

        first, _ = recover(tmp_path / "wal.log")
        second, _ = recover(tmp_path / "wal.log")
        assert first.live_count == second.live_count
        assert_same_answers(first, second, ds.points[:4])
        first.tree.check_invariants()
        second.tree.check_invariants()
