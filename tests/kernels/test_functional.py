"""Tests for the shared semiring block math (intersection/union)."""

import numpy as np

from repro.core.monoid import MAX
from repro.core.semiring import dot_product_semiring, namm_semiring
from repro.kernels.functional import (
    co_occurrence_counts,
    gather_intersections,
    intersection_block,
    semiring_block,
    union_block,
)
from repro.sparse.csr import CSRMatrix
from tests.conftest import random_csr


class TestGatherIntersections:
    def test_enumerates_all_co_occurrences(self, rng):
        a = random_csr(rng, 9, 12, 0.4)
        b = random_csr(rng, 7, 12, 0.4)
        da, db = a.to_dense(), b.to_dense()
        total = 0
        for i_rows, j_rows, a_vals, b_vals in gather_intersections(a, b):
            # every yielded element must be a real co-occurrence
            for i, j, av, bv in zip(i_rows, j_rows, a_vals, b_vals):
                assert av != 0 and bv != 0
                assert av in da[i] and bv in db[j]
            total += i_rows.size
        expected = int(((da != 0).astype(int) @ (db != 0).astype(int).T).sum())
        assert total == expected

    def test_chunking_preserves_totals(self, rng):
        a = random_csr(rng, 20, 15, 0.5)
        b = random_csr(rng, 18, 15, 0.5)
        big = sum(p[0].size for p in gather_intersections(a, b))
        small = sum(p[0].size
                    for p in gather_intersections(a, b, chunk_elements=7))
        assert big == small

    def test_empty_inputs(self, rng):
        a = CSRMatrix.empty((3, 5))
        b = random_csr(rng, 2, 5)
        assert list(gather_intersections(a, b)) == []


class TestIntersectionBlock:
    def test_dot_product_matches_dense(self, rng):
        a = random_csr(rng, 11, 9)
        b = random_csr(rng, 8, 9)
        got = intersection_block(a, b, dot_product_semiring())
        np.testing.assert_allclose(got, a.to_dense() @ b.to_dense().T,
                                   atol=1e-12)

    def test_empty_rows_give_identity(self, rng):
        a = CSRMatrix.empty((3, 6))
        b = random_csr(rng, 4, 6)
        got = intersection_block(a, b, dot_product_semiring())
        np.testing.assert_allclose(got, 0.0)

    def test_max_reduce(self, rng):
        a = random_csr(rng, 6, 8, positive=True)
        b = random_csr(rng, 5, 8, positive=True)
        sr = namm_semiring(lambda x, y: x * y, reduce=MAX, name="maxprod")
        # intersection under max: max over shared cols of x*y
        got = intersection_block(a, b, sr, product_op=lambda x, y: x * y)
        da, db = a.to_dense(), b.to_dense()
        prod = da[:, None, :] * db[None, :, :]
        prod[(da[:, None, :] == 0) | (db[None, :, :] == 0)] = 0.0
        np.testing.assert_allclose(got, prod.max(axis=-1), atol=1e-12)


class TestUnionBlock:
    def test_manhattan_sum(self, rng):
        a = random_csr(rng, 10, 13)
        b = random_csr(rng, 9, 13)
        sr = namm_semiring(lambda x, y: np.abs(x - y), name="manhattan")
        got = union_block(a, b, sr)
        da, db = a.to_dense(), b.to_dense()
        want = np.abs(da[:, None, :] - db[None, :, :]).sum(axis=-1)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_chebyshev_max(self, rng):
        a = random_csr(rng, 10, 13)
        b = random_csr(rng, 9, 13)
        sr = namm_semiring(lambda x, y: np.abs(x - y), reduce=MAX,
                           name="chebyshev")
        got = union_block(a, b, sr)
        da, db = a.to_dense(), b.to_dense()
        want = np.abs(da[:, None, :] - db[None, :, :]).max(axis=-1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_side(self, rng):
        a = CSRMatrix.empty((4, 6))
        b = random_csr(rng, 3, 6)
        sr = namm_semiring(lambda x, y: np.abs(x - y), name="manhattan")
        got = union_block(a, b, sr)
        want = np.tile(np.abs(b.to_dense()).sum(axis=1), (4, 1))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dispatch(self, rng):
        a = random_csr(rng, 5, 7)
        b = random_csr(rng, 4, 7)
        dot = semiring_block(a, b, dot_product_semiring())
        np.testing.assert_allclose(dot, a.to_dense() @ b.to_dense().T,
                                   atol=1e-12)
        manhattan = semiring_block(
            a, b, namm_semiring(lambda x, y: np.abs(x - y), name="m"))
        want = np.abs(a.to_dense()[:, None] - b.to_dense()[None]).sum(-1)
        np.testing.assert_allclose(manhattan, want, atol=1e-9)


class TestCoOccurrence:
    def test_counts_match_dense(self, rng):
        a = random_csr(rng, 7, 9)
        b = random_csr(rng, 6, 9)
        counts = co_occurrence_counts(a, b)
        want = (a.to_dense() != 0).astype(int) @ (b.to_dense() != 0).astype(int).T
        np.testing.assert_array_equal(counts, want)

    def test_zero_when_disjoint(self):
        a = CSRMatrix.from_dense([[1.0, 0.0]])
        b = CSRMatrix.from_dense([[0.0, 1.0]])
        assert co_occurrence_counts(a, b)[0, 0] == 0
