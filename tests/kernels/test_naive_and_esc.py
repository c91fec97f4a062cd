"""Tests for the naive per-pair kernel (Alg. 2) and expand-sort-contract
(Alg. 1) — the paper's rejected designs kept as baselines."""

import numpy as np
import pytest

from repro.core.semiring import dot_product_semiring, namm_semiring
from repro.errors import KernelLaunchError
from repro.gpusim.specs import VOLTA_V100
from repro.kernels.expand_sort_contract import ExpandSortContractKernel
from repro.kernels.naive_csr import NaiveCsrKernel
from repro.sparse.csr import CSRMatrix
from tests.conftest import dense_block, random_csr


def _manhattan():
    return namm_semiring(lambda x, y: np.abs(x - y), name="manhattan")


class TestNaiveCsr:
    def test_numeric_dot(self, rng):
        a = random_csr(rng, 9, 12)
        b = random_csr(rng, 7, 12)
        NaiveCsrKernel(VOLTA_V100).run(a, b, dot_product_semiring())
        np.testing.assert_allclose(dense_block(a, b, dot_product_semiring()),
                                   a.to_dense() @ b.to_dense().T, atol=1e-9)

    def test_numeric_union(self, rng):
        a = random_csr(rng, 8, 10)
        b = random_csr(rng, 6, 10)
        NaiveCsrKernel(VOLTA_V100).run(a, b, _manhattan())
        want = np.abs(a.to_dense()[:, None] - b.to_dense()[None]).sum(-1)
        np.testing.assert_allclose(dense_block(a, b, _manhattan()), want,
                                   atol=1e-9)

    def test_exhaustive_even_for_dot(self, rng):
        """§3.2.2: the merge walks the union even when the semiring would
        allow intersection-only work — same iteration count either way."""
        a = random_csr(rng, 10, 14)
        b = random_csr(rng, 8, 14)
        k = NaiveCsrKernel(VOLTA_V100)
        dot_stats = k.run(a, b, dot_product_semiring()).stats
        namm_stats = k.run(a, b, _manhattan()).stats
        assert dot_stats.uncoalesced_loads == namm_stats.uncoalesced_loads

    def test_divergence_grows_with_skew(self, rng):
        """Uniform degrees diverge less than skewed degrees."""
        k = NaiveCsrKernel(VOLTA_V100)
        uniform = CSRMatrix.from_dense(
            (rng.random((64, 64)) < 0.25).astype(float))
        skew_dense = np.zeros((64, 64))
        for i in range(64):
            deg = 1 if i % 2 else 32
            skew_dense[i, rng.choice(64, deg, replace=False)] = 1.0
        skewed = CSRMatrix.from_dense(skew_dense)
        # equalize nnz scale by comparing divergence fractions
        u = k.run(uniform, uniform, _manhattan()).stats
        s = k.run(skewed, skewed, _manhattan()).stats
        assert (s.divergent_branches / max(s.alu_ops, 1)
                > u.divergent_branches / max(u.alu_ops, 1))

    def test_all_loads_uncoalesced(self, rng):
        a = random_csr(rng, 6, 8)
        res = NaiveCsrKernel(VOLTA_V100).run(a, a, _manhattan())
        assert res.stats.coalescing_efficiency < 0.1

    def test_empty_inputs(self):
        a = CSRMatrix.empty((3, 5))
        NaiveCsrKernel(VOLTA_V100).run(a, a, _manhattan())
        np.testing.assert_allclose(dense_block(a, a, _manhattan()), 0.0)


class TestExpandSortContract:
    def test_numeric(self, rng):
        a = random_csr(rng, 7, 11)
        b = random_csr(rng, 5, 11)
        ExpandSortContractKernel(VOLTA_V100).run(a, b, _manhattan())
        want = np.abs(a.to_dense()[:, None] - b.to_dense()[None]).sum(-1)
        np.testing.assert_allclose(dense_block(a, b, _manhattan()), want,
                                   atol=1e-9)

    def test_one_block_per_pair(self, rng):
        a = random_csr(rng, 6, 9)
        b = random_csr(rng, 4, 9)
        res = ExpandSortContractKernel(VOLTA_V100).run(
            a, b, dot_product_semiring())
        assert res.stats.blocks_launched == 6 * 4

    def test_sort_steps_dominate_alu_at_scale(self, rng):
        """§3.2.1: 'the sorting step dominated the performance'."""
        a = random_csr(rng, 12, 400, 0.5)
        res = ExpandSortContractKernel(VOLTA_V100).run(a, a, _manhattan())
        assert res.stats.sort_steps > res.stats.alu_ops

    def test_smem_blowup_unschedulable(self):
        """§3.2.1: both vectors must fit in shared memory — wide pairs
        cannot launch at all."""
        cols = np.arange(7000)
        a = CSRMatrix(np.array([0, 7000]), cols, np.ones(7000), (1, 8000))
        with pytest.raises(KernelLaunchError, match="severe limit"):
            ExpandSortContractKernel(VOLTA_V100).run(
                a, a, dot_product_semiring())

    def test_smem_grows_with_degree(self, rng):
        k = ExpandSortContractKernel(VOLTA_V100)
        small = random_csr(rng, 6, 40, 0.2)
        big = random_csr(rng, 6, 40, 0.9)
        s_small = k.run(small, small, _manhattan()).stats
        s_big = k.run(big, big, _manhattan()).stats
        assert s_big.smem_bytes_per_block > s_small.smem_bytes_per_block
