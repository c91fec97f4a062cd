"""CPU brute-force baseline tests."""

import numpy as np
import pytest

from repro.baselines.cpu_bruteforce import DGX1_CPU, CpuBruteForce, CpuSpec
from repro.core.reference import pairwise_reference
from tests.conftest import random_csr


class TestExactValues:
    @pytest.mark.parametrize("metric", ["cosine", "manhattan", "chebyshev"])
    def test_matches_reference(self, rng, monkeypatch, metric):
        monkeypatch.setattr(CpuBruteForce, "ROW_BATCH", 5)  # 12 rows: 3 batches
        a = random_csr(rng, 12, 9)
        b = random_csr(rng, 8, 9)
        cpu = CpuBruteForce()
        got = cpu.pairwise(a, b, metric)
        want = pairwise_reference(a.to_dense(), b.to_dense(), metric)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_kneighbors(self, rng):
        a = random_csr(rng, 15, 10)
        cpu = CpuBruteForce()
        dist, idx = cpu.kneighbors(a, a, "euclidean", n_neighbors=3)
        assert dist.shape == (15, 3)
        # self is always the nearest under a metric
        np.testing.assert_array_equal(idx[:, 0], np.arange(15))
        assert np.all(np.diff(dist, axis=1) >= -1e-12)


class TestModeledTime:
    def test_positive_and_scales_with_size(self, rng):
        cpu = CpuBruteForce()
        small = random_csr(rng, 10, 20, 0.3)
        big = random_csr(rng, 40, 20, 0.3)
        t_small = cpu.modeled_seconds(small, small, "cosine")
        t_big = cpu.modeled_seconds(big, big, "cosine")
        assert 0 < t_small < t_big

    def test_namm_slower_than_expanded(self, rng):
        """The paper's CPU column: NAMM metrics are far slower because
        sklearn has no sparse fast path for them. The gap widens with
        degree, so use realistically dense rows."""
        cpu = CpuBruteForce()
        x = random_csr(rng, 100, 300, 0.4)
        t_dot = cpu.modeled_seconds(x, x, "cosine")
        t_namm = cpu.modeled_seconds(x, x, "manhattan")
        assert t_namm > 2 * t_dot

    def test_spec_throughputs(self):
        assert DGX1_CPU.streaming_throughput > 0
        assert DGX1_CPU.merge_throughput > 0
        custom = CpuSpec(name="tiny", n_threads=1, clock_ghz=1.0,
                         simd_flops_per_cycle=1.0, merge_ops_per_cycle=1.0,
                         streaming_efficiency=1.0, merge_efficiency=1.0)
        assert custom.streaming_throughput == pytest.approx(1e9)
        assert custom.merge_throughput == pytest.approx(1e9)
