"""Tests for the load-balanced hybrid CSR+COO kernel (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.semiring import dot_product_semiring, namm_semiring
from repro.errors import KernelLaunchError
from repro.gpusim.specs import VOLTA_V100
from repro.kernels.coo_spmv import LoadBalancedCooKernel, _total_intersections
from repro.kernels.strategy import RowCacheStrategy
from repro.sparse.csr import CSRMatrix
from tests.conftest import dense_block, random_csr


def _manhattan():
    return namm_semiring(lambda x, y: np.abs(x - y), name="manhattan")


class TestTotalIntersections:
    def test_matches_dense(self, rng):
        a = random_csr(rng, 8, 11)
        b = random_csr(rng, 6, 11)
        want = ((a.to_dense() != 0).astype(int)
                @ (b.to_dense() != 0).astype(int).T).sum()
        assert _total_intersections(a, b) == want

    def test_empty(self, rng):
        assert _total_intersections(CSRMatrix.empty((3, 5)),
                                    random_csr(rng, 2, 5)) == 0.0


class TestStrategySelection:
    def test_narrow_input_auto_dense(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100, row_cache="auto")
        a = random_csr(rng, 10, 64)
        k.run(a, a, dot_product_semiring())
        assert all(p.strategy is RowCacheStrategy.DENSE
                   for p in k.last_profiles)

    def test_wide_input_auto_hash(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100, row_cache="auto")
        # 20K columns exceeds Volta's 12K full-occupancy dense budget.
        a = CSRMatrix(np.array([0, 3, 5]), np.array([1, 10, 19000, 5, 18000]),
                      np.ones(5), (2, 20_000))
        k.run(a, a, dot_product_semiring())
        assert all(p.strategy is RowCacheStrategy.HASH
                   for p in k.last_profiles)

    def test_forced_hash(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100, row_cache="hash")
        a = random_csr(rng, 8, 32)
        k.run(a, a, _manhattan())
        assert all(p.strategy is RowCacheStrategy.HASH
                   for p in k.last_profiles)

    def test_forced_bloom(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100, row_cache="bloom")
        a = random_csr(rng, 8, 32)
        k.run(a, a, dot_product_semiring())
        assert all(p.strategy is RowCacheStrategy.BLOOM
                   for p in k.last_profiles)
        np.testing.assert_allclose(dense_block(a, a, dot_product_semiring()),
                                   a.to_dense() @ a.to_dense().T, atol=1e-9)

    def test_dense_too_wide_raises(self):
        k = LoadBalancedCooKernel(VOLTA_V100, row_cache="dense")
        a = CSRMatrix(np.array([0, 1]), np.array([0]), np.ones(1),
                      (1, 100_000))
        with pytest.raises(KernelLaunchError, match="hash"):
            k.run(a, a, dot_product_semiring())


class TestPassStructure:
    def test_expanded_single_pass(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100)
        a = random_csr(rng, 9, 20)
        res = k.run(a, a, dot_product_semiring())
        assert len(k.last_profiles) == 1
        assert res.stats.kernel_launches == 1

    def test_namm_two_passes(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100)
        a = random_csr(rng, 9, 20)
        b = random_csr(rng, 7, 20)
        res = k.run(a, b, _manhattan())
        assert len(k.last_profiles) == 2
        assert res.stats.kernel_launches == 2
        # pass 1 stages A (m blocks), pass 2 stages B (n blocks)
        assert k.last_profiles[0].n_blocks == 9
        assert k.last_profiles[1].n_blocks == 7

    def test_numeric_equivalence(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100)
        a = random_csr(rng, 12, 25)
        b = random_csr(rng, 10, 25)
        k.run(a, b, _manhattan())
        want = np.abs(a.to_dense()[:, None] - b.to_dense()[None]).sum(-1)
        np.testing.assert_allclose(dense_block(a, b, _manhattan()), want,
                                   atol=1e-9)

    def test_workspace_is_nnz_of_streamed(self, rng):
        # §4.3: "our dot product semiring required a workspace buffer of
        # size nnz(B)"
        k = LoadBalancedCooKernel(VOLTA_V100)
        a = random_csr(rng, 6, 15)
        b = random_csr(rng, 9, 15)
        res = k.run(a, b, dot_product_semiring())
        assert res.stats.workspace_bytes == b.nnz * 4.0


class TestHighDegreePartitioning:
    def test_partitioned_blocks_exceed_rows(self):
        spec = VOLTA_V100.with_overrides(
            smem_per_sm_bytes=16 * 1024, smem_per_block_max_bytes=16 * 1024)
        k = LoadBalancedCooKernel(spec, row_cache="hash")
        # hash capacity = 16KiB/2/8 = 1024 slots -> 512 max entries; a row
        # of degree 1500 needs 3 blocks.
        cols = np.arange(1500)
        a = CSRMatrix(np.array([0, 1500]), cols, np.ones(1500), (1, 2000))
        b = CSRMatrix(np.array([0, 2]), np.array([3, 7]), np.ones(2),
                      (1, 2000))
        k.run(a, b, dot_product_semiring())
        assert k.last_profiles[0].n_blocks == 3
        np.testing.assert_allclose(dense_block(a, b, dot_product_semiring()),
                                   a.to_dense() @ b.to_dense().T)


class TestStatsSanity:
    def test_hash_probes_counted(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100, row_cache="hash")
        a = random_csr(rng, 10, 50, 0.5)
        res = k.run(a, a, dot_product_semiring())
        assert res.stats.smem_accesses > 0
        assert res.stats.gmem_transactions > 0

    def test_more_rows_more_work(self, rng):
        k = LoadBalancedCooKernel(VOLTA_V100)
        small = random_csr(rng, 8, 30, 0.4)
        big = random_csr(rng, 32, 30, 0.4)
        t_small = k.run(small, small, dot_product_semiring()).seconds
        t_big = k.run(big, big, dot_product_semiring()).seconds
        assert t_big > t_small
