"""csrgemm baseline tests (§4.3 memory behaviours + selection rule)."""

import numpy as np
import pytest

from repro.baselines import CsrGemmKernel, baseline_engine_for
from repro.core.distances import make_distance
from repro.core.semiring import dot_product_semiring
from repro.errors import SemiringError
from repro.gpusim.specs import VOLTA_V100
from repro.kernels.naive_csr import NaiveCsrKernel
from tests.conftest import dense_block, random_csr


class TestCsrGemm:
    def test_computes_dot_block(self, rng):
        a = random_csr(rng, 9, 14)
        b = random_csr(rng, 7, 14)
        k = CsrGemmKernel(VOLTA_V100)
        k.run(a, b, dot_product_semiring())
        np.testing.assert_allclose(dense_block(a, b, dot_product_semiring()),
                                   a.to_dense() @ b.to_dense().T, atol=1e-12)

    def test_output_density_recorded(self, rng):
        a = random_csr(rng, 10, 12, 0.5)
        k = CsrGemmKernel(VOLTA_V100)
        k.run(a, a, dot_product_semiring())
        want = np.count_nonzero(
            (a.to_dense() != 0).astype(int) @ (a.to_dense() != 0).astype(int).T
        ) / (10 * 10)
        assert k.last_output_density == pytest.approx(want)

    def test_denser_data_denser_output(self, rng):
        k = CsrGemmKernel(VOLTA_V100)
        sparse = random_csr(rng, 20, 40, 0.05)
        dense = random_csr(rng, 20, 40, 0.5)
        k.run(sparse, sparse, dot_product_semiring())
        d_sparse = k.last_output_density
        k.run(dense, dense, dot_product_semiring())
        assert k.last_output_density > d_sparse

    def test_workspace_recorded(self, rng):
        a = random_csr(rng, 8, 10, 0.5)
        k = CsrGemmKernel(VOLTA_V100)
        res = k.run(a, a, dot_product_semiring())
        assert res.stats.workspace_bytes > 0
        assert k.last_workspace_bytes == res.stats.workspace_bytes

    def test_workspace_dwarfs_ours(self, rng):
        """§4.3: cuSPARSE's workspace is far larger than our nnz(B) buffer."""
        from repro.kernels.coo_spmv import LoadBalancedCooKernel
        a = random_csr(rng, 30, 40, 0.3)
        gemm = CsrGemmKernel(VOLTA_V100)
        ours = LoadBalancedCooKernel(VOLTA_V100)
        sr = dot_product_semiring()
        w_gemm = gemm.run(a, a, sr).stats.workspace_bytes
        w_ours = ours.run(a, a, sr).stats.workspace_bytes
        assert w_gemm > 3 * w_ours

    def test_multi_kernel_launches(self, rng):
        a = random_csr(rng, 5, 8)
        res = CsrGemmKernel(VOLTA_V100).run(a, a, dot_product_semiring())
        assert res.stats.kernel_launches >= 4

    def test_rejects_namm(self, rng):
        from repro.core.semiring import namm_semiring
        a = random_csr(rng, 4, 6)
        with pytest.raises(SemiringError, match="NAMM"):
            CsrGemmKernel(VOLTA_V100).run(
                a, a, namm_semiring(lambda x, y: np.abs(x - y), name="m"))

    def test_rejects_replaced_product(self, rng):
        a = random_csr(rng, 4, 6)
        sr = dot_product_semiring(product_op=lambda x, y: x + y, name="odd")
        with pytest.raises(SemiringError, match="product"):
            CsrGemmKernel(VOLTA_V100).run(a, a, sr)


class TestBaselineSelection:
    """The paper's §4.1 rule: csrgemm where possible, naive otherwise."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "jaccard",
                                        "correlation", "dice", "hellinger",
                                        "russellrao"])
    def test_expanded_uses_csrgemm(self, metric):
        assert isinstance(baseline_engine_for(make_distance(metric)),
                          CsrGemmKernel)

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev", "canberra",
                                        "hamming", "jensen_shannon",
                                        "minkowski", "kl_divergence"])
    def test_namm_and_kl_use_naive(self, metric):
        assert isinstance(baseline_engine_for(make_distance(metric)),
                          NaiveCsrKernel)
