"""Top-k selection and streaming accumulator tests."""

import numpy as np
import pytest

from repro.neighbors.topk import TopKAccumulator, select_topk
from tests.conftest import merge_column_slices


class TestSelectTopk:
    def test_matches_argsort(self, rng):
        d = rng.random((10, 40))
        val, idx = select_topk(d, 5)
        want_idx = np.argsort(d, axis=1)[:, :5]
        np.testing.assert_allclose(val, np.take_along_axis(d, want_idx, 1))

    def test_sorted_output(self, rng):
        val, _ = select_topk(rng.random((6, 30)), 7)
        assert np.all(np.diff(val, axis=1) >= 0)

    def test_k_larger_than_cols(self, rng):
        d = rng.random((4, 3))
        val, idx = select_topk(d, 10)
        assert val.shape == (4, 3)
        np.testing.assert_allclose(val, np.sort(d, axis=1))

    def test_descending(self, rng):
        d = rng.random((5, 20))
        val, _ = select_topk(d, 4, ascending=False)
        np.testing.assert_allclose(val[:, 0], d.max(axis=1))
        assert np.all(np.diff(val, axis=1) <= 0)

    def test_deterministic_ties(self):
        d = np.zeros((2, 6))
        _, idx = select_topk(d, 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2], [0, 1, 2]])

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            select_topk(rng.random((2, 2)), 0)

    def test_1d_rejected(self, rng):
        with pytest.raises(ValueError):
            select_topk(rng.random(5), 2)


class TestAccumulator:
    def test_batched_equals_oneshot(self, rng):
        d = rng.random((8, 57))
        got_val, got_idx = merge_column_slices(d, 6, range(0, 57, 10))
        want_val, want_idx = select_topk(d, 6)
        np.testing.assert_allclose(got_val, want_val)
        np.testing.assert_array_equal(got_idx, want_idx)

    def test_single_batch(self, rng):
        d = rng.random((3, 9))
        val, idx = merge_column_slices(d, 4, [0])
        w_val, w_idx = select_topk(d, 4)
        np.testing.assert_allclose(val, w_val)
        np.testing.assert_array_equal(idx, w_idx)

    def test_tiny_batches(self, rng):
        d = rng.random((5, 20))
        val, idx = merge_column_slices(d, 3, range(20))
        w_val, w_idx = select_topk(d, 3)
        np.testing.assert_allclose(val, w_val)
        np.testing.assert_array_equal(idx, w_idx)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TopKAccumulator(5, 0)


class TestBoundaryTies:
    def test_partition_boundary_ties_pick_smallest_ids(self):
        """Entries tied exactly at the k boundary must resolve by index,
        whatever subset argpartition happened to keep."""
        d = np.array([[5.0, 1.0, 1.0, 1.0, 1.0, 0.5]])
        _, idx = select_topk(d, 3)
        np.testing.assert_array_equal(idx, [[5, 1, 2]])

    def test_split_selection_equals_full_selection(self, rng):
        """Selecting per column-half then merging must equal one full
        selection even when values repeat across the split."""
        vals = rng.integers(0, 4, size=(6, 30)).astype(np.float64)
        want_val, want_idx = select_topk(vals, 5)
        got_val, got_idx = merge_column_slices(vals, 5, [0, 13])
        np.testing.assert_array_equal(got_val, want_val)
        np.testing.assert_array_equal(got_idx, want_idx)


class TestUpdatePairs:
    def test_interleaved_shards_equal_full(self, rng):
        """Columns split round-robin across two 'shards', each selecting
        its own top-k with global ids, and merged via update_pairs must
        equal selecting over the full block — ties included."""
        d = rng.integers(0, 4, size=(5, 16)).astype(np.float64)
        want_val, want_idx = select_topk(d, 6)
        acc = TopKAccumulator(5, 6)
        for ids in (np.arange(0, 16, 2), np.arange(1, 16, 2)):
            val, local = select_topk(d[:, ids], 6)
            acc.update_pairs(val, ids[local])
        got_val, got_idx = acc.finalize()
        np.testing.assert_array_equal(got_val, want_val)
        np.testing.assert_array_equal(got_idx, want_idx)

    def test_merges_preselected_candidates(self, rng):
        d = rng.random((4, 20))
        want_val, want_idx = select_topk(d, 5)
        acc = TopKAccumulator(4, 5)
        for lo, hi in ((0, 8), (8, 20)):
            val, idx = select_topk(d[:, lo:hi], 5)
            acc.update_pairs(val, idx + lo)
        got_val, got_idx = acc.finalize()
        np.testing.assert_array_equal(got_val, want_val)
        np.testing.assert_array_equal(got_idx, want_idx)

    def test_tie_break_by_global_id(self):
        """Candidates arriving in descending-id order still tie-break by
        the global id, not arrival position."""
        acc = TopKAccumulator(1, 2)
        acc.update_pairs(np.array([[1.0, 3.0]]), np.array([[9, 12]]))
        acc.update_pairs(np.array([[1.0, 1.0]]), np.array([[4, 2]]))
        val, idx = acc.finalize()
        np.testing.assert_array_equal(val, [[1.0, 1.0]])
        np.testing.assert_array_equal(idx, [[2, 4]])

    def test_shape_validation(self, rng):
        acc = TopKAccumulator(3, 2)
        with pytest.raises(ValueError, match="equal-shaped"):
            acc.update_pairs(rng.random((3, 4)),
                             np.zeros((3, 5), dtype=np.int64))
        with pytest.raises(ValueError, match="rows"):
            acc.update_pairs(rng.random((2, 4)),
                             np.zeros((2, 4), dtype=np.int64))

    def test_empty_batch_noop(self):
        acc = TopKAccumulator(2, 3)
        acc.update_pairs(np.zeros((2, 0)), np.zeros((2, 0), dtype=np.int64))
        val, idx = acc.finalize()
        assert val.shape == (2, 0)
