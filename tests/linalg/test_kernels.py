"""Unit tests for the batch-scan kernels and their bit-identity contracts."""

import numpy as np
import pytest

from repro.linalg.kernels import (
    batch_l2_rows,
    cold_lru_physical_reads,
    column_l2,
    flat_l2,
    gather_column_l2,
    multi_arange,
)


class TestMultiArange:
    def test_matches_per_segment_arange(self, rng):
        starts = rng.integers(0, 50, size=20)
        stops = starts + rng.integers(0, 9, size=20)
        expected = np.concatenate(
            [np.arange(a, b) for a, b in zip(starts, stops)]
            or [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(multi_arange(starts, stops), expected)

    def test_all_empty_segments(self):
        starts = np.array([3, 7, 7])
        out = multi_arange(starts, starts)
        assert out.size == 0 and out.dtype == np.int64

    def test_no_segments(self):
        out = multi_arange(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            multi_arange(np.array([5]), np.array([4]))


class TestBatchL2Rows:
    def test_rows_bit_identical_to_per_query_norm(self, rng):
        points = rng.normal(size=(300, 17))
        queries = rng.normal(size=(9, 17))
        out = batch_l2_rows(points, queries)
        for i in range(queries.shape[0]):
            row = np.linalg.norm(points - queries[i], axis=1)
            assert np.array_equal(out[i], row)

    def test_chunking_preserves_bit_identity(self, rng, monkeypatch):
        import repro.linalg.kernels as kernels

        points = rng.normal(size=(64, 8))
        queries = rng.normal(size=(10, 8))
        full = batch_l2_rows(points, queries)
        # Force a tiny buffer so every query lands in its own chunk.
        monkeypatch.setattr(kernels, "_MAX_BUFFER_ELEMS", 1)
        chunked = batch_l2_rows(points, queries)
        assert np.array_equal(full, chunked)

    def test_empty_inputs(self):
        assert batch_l2_rows(np.empty((0, 4)), np.empty((3, 4))).shape == (3, 0)
        assert batch_l2_rows(np.empty((5, 4)), np.empty((0, 4))).shape == (0, 5)


class TestFlatL2:
    def test_entries_bit_identical_to_per_block_norm(self, rng):
        points = rng.normal(size=(200, 6))
        queries = rng.normal(size=(4, 6))
        positions = rng.integers(0, 200, size=150)
        owner = rng.integers(0, 4, size=150)
        out = flat_l2(points, positions, queries, owner)
        for q in range(4):
            mask = owner == q
            block = np.linalg.norm(points[positions[mask]] - queries[q], axis=1)
            assert np.array_equal(out[mask], block)

    def test_chunking_preserves_bit_identity(self, rng, monkeypatch):
        import repro.linalg.kernels as kernels

        points = rng.normal(size=(50, 5))
        queries = rng.normal(size=(3, 5))
        positions = rng.integers(0, 50, size=40)
        owner = rng.integers(0, 3, size=40)
        full = flat_l2(points, positions, queries, owner)
        monkeypatch.setattr(kernels, "_MAX_BUFFER_ELEMS", 1)
        chunked = flat_l2(points, positions, queries, owner)
        assert np.array_equal(full, chunked)

    def test_empty(self):
        out = flat_l2(
            np.empty((0, 3)),
            np.empty(0, dtype=np.int64),
            np.empty((0, 3)),
            np.empty(0, dtype=np.int64),
        )
        assert out.size == 0


@pytest.mark.kernel_smoke
class TestColumnL2:
    """The dimension-major kernels replay numpy's own pairwise reduction
    order, so they must equal ``np.linalg.norm(rows - q, axis=1)`` bit for
    bit at every width: sequential (< 8), eight lanes (8..128) and the
    halving recursion (> 128).  A numpy release that changes its summation
    order fails here, on every CI interpreter."""

    WIDTHS = range(1, 301)
    LENGTHS = (0, 1, 7, 8, 9, 1000)

    def test_slices_bit_identical_to_row_norm(self, rng):
        for width in self.WIDTHS:
            rows = rng.normal(size=(1002, width)) * rng.uniform(0.01, 100)
            columns = np.ascontiguousarray(rows.T)
            query = rng.normal(size=width)
            for length in self.LENGTHS:
                lo = int(rng.integers(0, 1002 - length + 1))
                seg = slice(lo, lo + length)
                want = np.linalg.norm(rows[seg] - query, axis=1)
                got = column_l2(columns[:, seg], query)
                assert np.array_equal(got, want), (width, length)

    def test_gathers_bit_identical_to_row_norm(self, rng):
        for width in self.WIDTHS:
            rows = rng.normal(size=(300, width)) * rng.uniform(0.01, 100)
            columns = np.ascontiguousarray(rows.T)
            queries = rng.normal(size=(5, width))
            q_columns = np.ascontiguousarray(queries.T)
            for length in self.LENGTHS:
                positions = rng.integers(0, 300, size=length)
                owner = rng.integers(0, 5, size=length)
                want = np.linalg.norm(rows[positions] - queries[owner], axis=1)
                got = gather_column_l2(columns, positions, q_columns, owner)
                assert np.array_equal(got, want), (width, length)

    def test_gather_chunking_preserves_bit_identity(self, rng, monkeypatch):
        import repro.linalg.kernels as kernels

        columns = rng.normal(size=(9, 60))
        queries = rng.normal(size=(9, 3))
        positions = rng.integers(0, 60, size=40)
        owner = rng.integers(0, 3, size=40)
        full = gather_column_l2(columns, positions, queries, owner)
        monkeypatch.setattr(kernels, "_MAX_BUFFER_ELEMS", 1)
        assert np.array_equal(
            gather_column_l2(columns, positions, queries, owner), full
        )

    def test_zero_width(self):
        assert np.array_equal(
            column_l2(np.empty((0, 3)), np.empty(0)), np.zeros(3)
        )


def _reference_lru(sequence, capacity):
    """Straight-line LRU model, independent of the implementation."""
    resident = []
    physical = 0
    for page in sequence:
        if page in resident:
            resident.remove(page)
            resident.append(page)
            continue
        physical += 1
        resident.append(page)
        if len(resident) > capacity:
            resident.pop(0)
    return physical


class TestColdLruPhysicalReads:
    def test_empty_sequence(self):
        assert cold_lru_physical_reads(np.empty(0, dtype=np.int64), 4) == 0

    def test_distinct_fast_path(self):
        seq = np.array([3, 1, 3, 2, 1, 1])
        assert cold_lru_physical_reads(seq, capacity=8) == 3

    def test_eviction_replay_matches_reference(self, rng):
        for _ in range(25):
            seq = rng.integers(0, 12, size=rng.integers(1, 80))
            capacity = int(rng.integers(1, 10))
            assert cold_lru_physical_reads(seq, capacity) == _reference_lru(
                seq.tolist(), capacity
            )

    def test_matches_buffer_pool(self, rng):
        """The model must mirror the real BufferPool's accounting."""
        from repro.storage.buffer import BufferPool
        from repro.storage.metrics import CostCounters
        from repro.storage.pager import PageStore

        counters = CostCounters()
        store = PageStore(counters)
        for i in range(12):
            store.allocate(("kernel-test", i), 0)
        pool = BufferPool(store, 4, counters)
        seq = rng.integers(0, 12, size=120)
        for page in seq.tolist():
            pool.read(int(page))
        assert cold_lru_physical_reads(seq, 4) == counters.physical_reads
