"""Cross-engine equivalence and engine-registry tests.

Every execution strategy must produce identical numbers — they differ only
in schedule. This is the core invariant of the whole design.
"""

import numpy as np
import pytest

import repro
from repro.core.pairwise import pairwise_distances
from repro.core.reference import pairwise_reference
from repro.errors import EngineConfigError, ReproError, SemiringError
from repro.kernels import (
    available_engines,
    engine_info,
    make_engine,
    register_engine,
)
from repro.kernels.base import PairwiseKernel
from tests.conftest import random_dense

SIM_ENGINES = ("hybrid_coo", "merge_path", "naive_csr",
               "expand_sort_contract")
METRICS = tuple(repro.available_distances())


def _inputs(rng, metric):
    positive = metric in ("kl_divergence", "jensen_shannon", "hellinger")
    x = random_dense(rng, 13, 17, 0.35, positive=positive)
    y = random_dense(rng, 10, 17, 0.3, positive=positive)
    return x, y


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", SIM_ENGINES)
    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_oracle(self, rng, engine, metric):
        x, y = _inputs(rng, metric)
        kw = {"p": 3.0} if metric == "minkowski" else {}
        got = pairwise_distances(x, y, metric=metric, engine=engine, **kw)
        want = pairwise_reference(x, y, metric, **kw)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_csrgemm_matches_on_expanded(self, rng):
        x, y = _inputs(rng, "cosine")
        got = pairwise_distances(x, y, metric="cosine", engine="csrgemm")
        np.testing.assert_allclose(got, pairwise_reference(x, y, "cosine"),
                                   atol=1e-9)

    @pytest.mark.parametrize("metric", ["manhattan", "kl_divergence"])
    def test_csrgemm_rejects_unsupported(self, rng, metric):
        x, y = _inputs(rng, metric)
        with pytest.raises(SemiringError):
            pairwise_distances(x, y, metric=metric, engine="csrgemm")


class TestRegistry:
    def test_available_engines(self):
        names = available_engines()
        for expected in ("hybrid_coo", "merge_path", "naive_csr",
                         "expand_sort_contract", "host", "csrgemm"):
            assert expected in names

    def test_unknown_engine(self):
        with pytest.raises(ReproError, match="unknown engine"):
            make_engine("magic")

    def test_unknown_engine_error_lists_registry(self):
        with pytest.raises(EngineConfigError) as err:
            make_engine("magic")
        assert err.value.available == available_engines()
        for name in available_engines():
            assert name in str(err.value)

    def test_engine_info_records_capabilities(self):
        hybrid = engine_info("hybrid_coo")
        assert hybrid.tunable
        assert set(hybrid.row_cache_strategies) \
            >= {"auto", "dense", "hash", "bloom"}
        assert not engine_info("naive_csr").tunable
        # lookup is case-insensitive, like make_engine
        assert engine_info("HYBRID_COO") is hybrid

    def test_instances_accepted_uniformly(self, rng):
        """The deduped dispatch path: both public entry points take a
        kernel instance, and an explicit conflicting device= raises."""
        from repro.errors import DeviceConfigError
        from repro.gpusim.specs import get_device
        from repro.plan import build_pairwise_plan

        kernel = make_engine("merge_path")
        x = random_dense(rng, 6, 9)
        d_inst = pairwise_distances(x, metric="cosine", engine=kernel)
        d_name = pairwise_distances(x, metric="cosine", engine="merge_path")
        np.testing.assert_array_equal(d_inst, d_name)
        plan = build_pairwise_plan(x, None, "cosine", engine=kernel)
        assert plan.kernel is kernel
        with pytest.raises(DeviceConfigError):
            pairwise_distances(x, metric="cosine", engine=kernel,
                               device=get_device("ampere"))
        with pytest.raises(EngineConfigError, match="registered"):
            pairwise_distances(x, metric="cosine", engine=object())

    def test_register_custom_engine(self, rng):
        class EchoKernel(PairwiseKernel):
            name = "echo_test_kernel"

            def run(self, a, b, semiring, log=None):
                from repro.gpusim.stats import KernelStats
                from repro.kernels.base import KernelResult
                return KernelResult(KernelStats(), seconds=0.0)

        register_engine(EchoKernel)
        try:
            x = random_dense(rng, 4, 5)
            d = pairwise_distances(x, metric="cosine",
                                   engine="echo_test_kernel")
            np.testing.assert_allclose(
                d, pairwise_reference(x, x, "cosine"), atol=1e-9)
        finally:
            from repro.kernels import unregister_engine
            unregister_engine("echo_test_kernel")


class TestSimulatedTimeOrdering:
    """The §3.2 narrative: the load-balanced kernel beats the naive designs
    on NAMM workloads of realistic shape."""

    def _workload(self, rng):
        # Skewed degrees: exactly the load-imbalance regime Alg 2 hates.
        m, k = 96, 256
        x = np.zeros((m, k))
        for i in range(m):
            deg = int(rng.pareto(1.5) * 6) + 1
            cols = rng.choice(k, size=min(deg, k), replace=False)
            x[i, cols] = rng.random(cols.size) + 0.1
        return x

    def test_hybrid_beats_naive_on_namm(self, rng):
        x = self._workload(rng)
        r_hybrid = pairwise_distances(x, metric="manhattan",
                                      engine="hybrid_coo",
                                      return_result=True)
        r_naive = pairwise_distances(x, metric="manhattan",
                                     engine="naive_csr", return_result=True)
        assert r_hybrid.simulated_seconds < r_naive.simulated_seconds

    def test_naive_diverges_and_uncoalesces(self, rng):
        x = self._workload(rng)
        r = pairwise_distances(x, metric="manhattan", engine="naive_csr",
                               return_result=True)
        assert r.stats.divergent_branches > 0
        assert r.stats.uncoalesced_loads > 0

    def test_esc_sort_dominates_its_compute(self, rng):
        x = self._workload(rng)
        r = pairwise_distances(x, metric="manhattan",
                               engine="expand_sort_contract",
                               return_result=True)
        assert r.stats.sort_steps > r.stats.alu_ops * 0.3
