"""Conversion tests, including the scipy interop oracle path."""

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse.convert import as_csr, from_scipy, to_scipy_csr
from repro.sparse.coo import COOMatrix
from tests.conftest import random_csr, random_dense

scipy_sparse = pytest.importorskip("scipy.sparse")


class TestAsCsr:
    def test_passthrough(self, rng):
        csr = random_csr(rng, 3, 4)
        assert as_csr(csr) is csr

    def test_from_coo(self, rng):
        csr = random_csr(rng, 3, 4)
        coo = COOMatrix.from_csr(csr)
        assert as_csr(coo).allclose(csr)

    def test_from_dense_array(self, rng):
        dense = random_dense(rng, 4, 5)
        np.testing.assert_allclose(as_csr(dense).to_dense(), dense)

    def test_from_nested_list(self):
        np.testing.assert_allclose(as_csr([[1, 0], [0, 2]]).to_dense(),
                                   [[1, 0], [0, 2]])

    def test_1d_promoted_to_row(self):
        assert as_csr([1.0, 0.0, 2.0]).shape == (1, 3)

    def test_3d_rejected(self):
        with pytest.raises(SparseFormatError):
            as_csr(np.zeros((2, 2, 2)))

    def test_from_scipy_duck_type(self, rng):
        dense = random_dense(rng, 5, 6)
        sp = scipy_sparse.csr_matrix(dense)
        np.testing.assert_allclose(as_csr(sp).to_dense(), dense)


class TestScipyRoundtrip:
    def test_to_scipy(self, rng):
        csr = random_csr(rng, 6, 7)
        sp = to_scipy_csr(csr)
        np.testing.assert_allclose(np.asarray(sp.todense()), csr.to_dense())

    def test_from_scipy_coo(self, rng):
        dense = random_dense(rng, 4, 5)
        sp = scipy_sparse.coo_matrix(dense)
        np.testing.assert_allclose(from_scipy(sp).to_dense(), dense)

    def test_roundtrip_preserves_structure(self, rng):
        csr = random_csr(rng, 8, 9)
        back = from_scipy(to_scipy_csr(csr))
        assert back.allclose(csr)
