"""Unit tests for the CSR container."""

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse.csr import CSRMatrix, check_same_n_cols
from tests.conftest import random_csr, random_dense


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        dense = random_dense(rng, 9, 13, 0.4)
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr.to_dense(), dense)

    def test_from_dense_prunes_zeros(self):
        csr = CSRMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
        assert csr.nnz == 1
        assert csr.shape == (2, 2)

    def test_from_dense_keeps_explicit_zeros_when_not_pruning(self):
        csr = CSRMatrix.from_dense([[0.0, 1.0]], prune=False)
        assert csr.nnz == 2

    def test_from_dense_1d_rejected(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix.from_dense(np.zeros((2, 2, 2)))

    def test_empty(self):
        csr = CSRMatrix.empty((4, 7))
        assert csr.nnz == 0
        assert csr.shape == (4, 7)
        assert csr.to_dense().sum() == 0.0

    def test_explicit_arrays(self):
        csr = CSRMatrix([0, 2, 3], [1, 3, 0], [5.0, 6.0, 7.0], (2, 4))
        np.testing.assert_allclose(
            csr.to_dense(), [[0, 5, 0, 6], [7, 0, 0, 0]])

    def test_unsorted_columns_are_sorted(self):
        csr = CSRMatrix([0, 3], [2, 0, 1], [1.0, 2.0, 3.0], (1, 3))
        np.testing.assert_array_equal(csr.indices, [0, 1, 2])
        np.testing.assert_allclose(csr.data, [2.0, 3.0, 1.0])
        assert csr.has_sorted_indices()


class TestValidation:
    def test_indptr_wrong_length(self):
        with pytest.raises(SparseFormatError, match="indptr"):
            CSRMatrix([0, 1], [0], [1.0], (2, 2))

    def test_indptr_not_starting_at_zero(self):
        with pytest.raises(SparseFormatError, match="indptr"):
            CSRMatrix([1, 1, 1], [], [], (2, 2))

    def test_indptr_decreasing(self):
        with pytest.raises(SparseFormatError, match="non-decreasing"):
            CSRMatrix([0, 2, 1], [0, 1], [1.0, 2.0], (2, 2))

    def test_indices_data_length_mismatch(self):
        with pytest.raises(SparseFormatError, match="equal length"):
            CSRMatrix([0, 2], [0, 1], [1.0], (1, 2))

    def test_column_out_of_range(self):
        with pytest.raises(SparseFormatError, match="out of range"):
            CSRMatrix([0, 1], [5], [1.0], (1, 2))

    def test_nnz_mismatch(self):
        with pytest.raises(SparseFormatError, match="nnz"):
            CSRMatrix([0, 1], [0, 1], [1.0, 2.0], (1, 2))

    def test_float_indices_rejected(self):
        with pytest.raises(SparseFormatError, match="integer"):
            CSRMatrix([0, 1], [0.5], [1.0], (1, 2))


class TestAccessors:
    def test_row(self):
        csr = CSRMatrix.from_dense([[0, 1, 2], [3, 0, 0]])
        cols, vals = csr.row(0)
        np.testing.assert_array_equal(cols, [1, 2])
        np.testing.assert_allclose(vals, [1.0, 2.0])

    def test_row_out_of_range(self):
        csr = CSRMatrix.empty((2, 2))
        with pytest.raises(IndexError):
            csr.row(2)

    def test_degrees(self):
        csr = CSRMatrix.from_dense([[1, 1, 0], [0, 0, 0], [1, 1, 1]])
        np.testing.assert_array_equal(csr.row_degrees(), [2, 0, 3])
        assert csr.max_degree() == 3
        assert csr.min_degree() == 0

    def test_density(self):
        csr = CSRMatrix.from_dense([[1, 0], [0, 1]])
        assert csr.density == pytest.approx(0.5)

    def test_density_of_empty_shape(self):
        assert CSRMatrix.empty((0, 0)).density == 0.0


class TestSlicing:
    def test_slice_rows(self, rng):
        csr = random_csr(rng, 10, 7)
        part = csr.slice_rows(3, 7)
        np.testing.assert_allclose(part.to_dense(), csr.to_dense()[3:7])

    def test_slice_rows_clamps(self, rng):
        csr = random_csr(rng, 5, 4)
        assert csr.slice_rows(-3, 99).shape == (5, 4)
        assert csr.slice_rows(4, 2).shape == (0, 4)


class TestTransforms:
    def test_map_values(self, rng):
        csr = random_csr(rng, 5, 6, positive=True)
        doubled = csr.map_values(lambda v: v * 2)
        np.testing.assert_allclose(doubled.to_dense(), csr.to_dense() * 2)

    def test_prune_threshold(self):
        csr = CSRMatrix.from_dense([[0.001, 1.0, -0.002]])
        pruned = csr.prune(tol=0.01)
        assert pruned.nnz == 1
        np.testing.assert_allclose(pruned.to_dense(), [[0, 1.0, 0]])

    def test_transpose_matches_dense(self, rng):
        csr = random_csr(rng, 8, 5)
        np.testing.assert_allclose(csr.transpose().to_dense(),
                                   csr.to_dense().T)

    def test_transpose_twice_is_identity(self, rng):
        csr = random_csr(rng, 6, 9)
        assert csr.transpose().transpose().allclose(csr)

    def test_transpose_is_built_once(self, rng):
        csr = random_csr(rng, 7, 11)
        first = csr.transpose()
        assert csr.transpose() is first
        fresh = csr.copy().transpose()
        assert fresh is not first and fresh == first

    def test_copy_is_independent(self, rng):
        csr = random_csr(rng, 4, 4)
        cp = csr.copy()
        cp.data[:] = 0
        assert not np.allclose(csr.data, 0) or csr.nnz == 0


class TestEquality:
    def test_eq(self, rng):
        csr = random_csr(rng, 5, 5)
        assert csr == csr.copy()

    def test_eq_different_shape(self):
        assert CSRMatrix.empty((1, 2)) != CSRMatrix.empty((2, 1))

    def test_allclose_tolerance(self, rng):
        csr = random_csr(rng, 5, 5)
        other = csr.map_values(lambda v: v + 1e-13)
        assert csr.allclose(other)
        far = csr.map_values(lambda v: v + 1.0)
        assert not csr.allclose(far) or csr.nnz == 0

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(CSRMatrix.empty((1, 1)))


class TestMisc:
    def test_memory_nbytes_positive(self, rng):
        csr = random_csr(rng, 4, 4)
        assert csr.memory_nbytes() >= csr.nnz * (8 + 8)

    def test_check_same_n_cols(self, rng):
        a = random_csr(rng, 3, 4)
        b = random_csr(rng, 3, 5)
        from repro.errors import ShapeMismatchError
        with pytest.raises(ShapeMismatchError):
            check_same_n_cols(a, b)


class TestTakeRows:
    def test_gathers_arbitrary_rows(self, rng):
        m = random_csr(rng, 12, 9, 0.4)
        rows = np.array([7, 0, 7, 3])
        got = m.take_rows(rows)
        assert got.shape == (4, 9)
        np.testing.assert_allclose(got.to_dense(), m.to_dense()[rows])

    def test_empty_selection(self, rng):
        m = random_csr(rng, 6, 5, 0.4)
        got = m.take_rows(np.array([], dtype=np.int64))
        assert got.shape == (0, 5)
        assert got.nnz == 0

    def test_out_of_range_rejected(self, rng):
        m = random_csr(rng, 6, 5, 0.4)
        with pytest.raises(ValueError):
            m.take_rows(np.array([6]))
        with pytest.raises(ValueError):
            m.take_rows(np.array([-1]))

    def test_2d_rejected(self, rng):
        m = random_csr(rng, 6, 5, 0.4)
        with pytest.raises(ValueError):
            m.take_rows(np.zeros((2, 2), dtype=np.int64))
