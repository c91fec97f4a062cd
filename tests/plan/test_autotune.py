"""Autotuner: determinism and optimality.

The autotuner's contract: on a monolithic plan its cost-model dry runs are
*exact* (identical counting code, identical pricing), so ``engine="auto"``
must match the per-cell argmin a fixed-configuration sweep would measure —
and, same operands in, the same choice must come out every time.
"""

import pytest

from repro.core.distances import make_distance
from repro.datasets.synthetic import make_skewed
from repro.gpusim.specs import VOLTA_V100
from repro.kernels import make_engine
from repro.plan import (
    Autotuner,
    DenseBlockConsumer,
    PlanExecutor,
    build_pairwise_plan,
)


def _skewed(sigma, **kwargs):
    defaults = dict(n_rows=48, n_cols=512, mean_degree=96.0)
    defaults.update(kwargs)
    return make_skewed(sigma=sigma, **defaults)


def _run(plan):
    return PlanExecutor(plan).execute(DenseBlockConsumer())


class TestAutotuner:
    def test_deterministic_choice(self):
        choices = []
        for _ in range(3):
            plan = build_pairwise_plan(_skewed(2.0), None, "cosine",
                                       engine="auto")
            choices.append((plan.tuning.engine, plan.tuning.row_cache,
                            plan.tuning.max_tile_rows_b,
                            _run(plan).simulated_seconds))
        assert choices[0] == choices[1] == choices[2]

    @pytest.mark.parametrize("sigma", [0.5, 3.5])
    @pytest.mark.parametrize("metric", ["cosine", "manhattan"])
    def test_auto_matches_best_fixed(self, sigma, metric):
        mat = _skewed(sigma)
        fixed = {}
        for engine, kwargs in (("hybrid_coo", {"row_cache": "dense"}),
                               ("hybrid_coo", {"row_cache": "hash"}),
                               ("merge_path", {})):
            kernel = make_engine(engine, VOLTA_V100, **kwargs)
            plan = build_pairwise_plan(mat, None, metric, engine=kernel)
            fixed[(engine, kwargs.get("row_cache"))] = \
                _run(plan).simulated_seconds
        plan = build_pairwise_plan(mat, None, metric, engine="auto")
        auto_seconds = _run(plan).simulated_seconds
        assert auto_seconds <= min(fixed.values()) + 1e-15
        # and the tuner's own estimate of its choice is the executed time
        # minus nothing: on a monolithic plan every candidate's estimate is
        # the exact kernel seconds, so the chosen (engine, row_cache) is
        # the measured argmin too
        best = min(fixed, key=fixed.get)
        assert fixed[(plan.tuning.engine, plan.tuning.row_cache)] \
            == pytest.approx(fixed[best], rel=0, abs=0)

    def test_choice_crosses_over_with_skew(self):
        low = build_pairwise_plan(_skewed(0.5), None, "manhattan",
                                  engine="auto").tuning
        high = build_pairwise_plan(_skewed(3.5), None, "manhattan",
                                   engine="auto").tuning
        assert low.engine == "hybrid_coo"
        assert high.engine == "merge_path"

    def test_candidates_cover_all_runnable_configs(self):
        plan = build_pairwise_plan(_skewed(1.0), None, "cosine",
                                   engine="auto")
        configs = {(c.engine, c.row_cache) for c in plan.tuning.candidates}
        assert configs == {("hybrid_coo", "dense"), ("hybrid_coo", "hash"),
                           ("merge_path", None)}
        # 512 cols fits the dense row cache; a wide operand gates it out
        wide = _skewed(1.0, n_cols=32768, mean_degree=256.0)
        plan = build_pairwise_plan(wide, None, "cosine", engine="auto")
        configs = {(c.engine, c.row_cache) for c in plan.tuning.candidates}
        assert ("hybrid_coo", "dense") not in configs

    def test_fixed_engine_plans_carry_no_tuning(self):
        plan = build_pairwise_plan(_skewed(1.0), None, "cosine",
                                   engine="hybrid_coo")
        assert plan.tuning is None


class TestFeedback:
    def test_tune_accepts_measure_or_semiring(self):
        mat = _skewed(1.0)
        from repro.core.pairwise import prepare_matrix
        measure = make_distance("cosine")
        a = prepare_matrix(mat, measure)
        via_measure = Autotuner().tune(a, a, measure)
        via_semiring = Autotuner().tune(a, a, measure.semiring)
        assert (via_measure.engine, via_measure.row_cache) \
            == (via_semiring.engine, via_semiring.row_cache)

