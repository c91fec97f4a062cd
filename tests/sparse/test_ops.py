"""Unit tests for sparse helper operations (norms, stacking, batching)."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import iter_row_batches, row_norms, row_sums, vstack
from tests.conftest import random_csr


class TestRowNorms:
    def test_l0(self, rng):
        csr = random_csr(rng, 8, 10)
        np.testing.assert_allclose(
            row_norms(csr, "l0"),
            np.count_nonzero(csr.to_dense(), axis=1))

    def test_l1(self, rng):
        csr = random_csr(rng, 8, 10)
        np.testing.assert_allclose(row_norms(csr, "l1"),
                                   np.abs(csr.to_dense()).sum(axis=1))

    def test_l2(self, rng):
        csr = random_csr(rng, 8, 10)
        np.testing.assert_allclose(row_norms(csr, "l2"),
                                   np.linalg.norm(csr.to_dense(), axis=1))

    def test_l2sq(self, rng):
        csr = random_csr(rng, 8, 10)
        np.testing.assert_allclose(row_norms(csr, "l2sq"),
                                   (csr.to_dense() ** 2).sum(axis=1))

    def test_empty_rows_are_zero(self):
        csr = CSRMatrix.from_dense([[0, 0], [1, 2]])
        np.testing.assert_allclose(row_norms(csr, "l1"), [0.0, 3.0])

    def test_all_empty_matrix(self):
        csr = CSRMatrix.empty((3, 4))
        np.testing.assert_allclose(row_norms(csr, "l2"), np.zeros(3))

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError, match="unknown norm kind"):
            row_norms(random_csr(rng, 2, 2), "l7")


class TestRowSumsMeans:
    def test_row_sums_signed(self, rng):
        csr = random_csr(rng, 6, 9)
        np.testing.assert_allclose(row_sums(csr), csr.to_dense().sum(axis=1))


class TestVstack:
    def test_matches_dense(self, rng):
        parts = [random_csr(rng, n, 5) for n in (3, 0, 4)]
        stacked = vstack(parts)
        np.testing.assert_allclose(
            stacked.to_dense(),
            np.vstack([p.to_dense() for p in parts]))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            vstack([])

    def test_width_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            vstack([random_csr(rng, 2, 3), random_csr(rng, 2, 4)])


class TestBatching:
    def test_batches_cover_matrix(self, rng):
        csr = random_csr(rng, 11, 6)
        rebuilt = vstack([b for _, b in iter_row_batches(csr, 4)])
        assert rebuilt.allclose(csr)

    def test_offsets(self, rng):
        csr = random_csr(rng, 10, 4)
        offsets = [off for off, _ in iter_row_batches(csr, 3)]
        assert offsets == [0, 3, 6, 9]

    def test_invalid_batch_size(self, rng):
        with pytest.raises(ValueError):
            list(iter_row_batches(random_csr(rng, 3, 3), 0))

