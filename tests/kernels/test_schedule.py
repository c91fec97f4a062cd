"""Engines as pure launch schedules.

An engine is ``schedule(a, b, semiring) -> LaunchSchedule`` and nothing
else: the base class launches that schedule in ``run`` and prices it in
``estimate_seconds``. These tests pin what that buys — schedules are pure
(equal operands, equal schedules, any call order), pricing a schedule
equals launching it, launching never mutates it, and the hybrid kernel's
stream costs, memoized on the streamed operand, are exactly the recount,
whose atomic count keeps the §3.3 bound.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.distances import make_distance
from repro.core.pairwise import pairwise_distances, prepare_matrix
from repro.gpusim.executor import Launch, LaunchSchedule
from repro.gpusim.specs import VOLTA_V100
from repro.gpusim.stats import KernelStats
from repro.kernels import (
    HostKernel,
    LoadBalancedCooKernel,
    PairwiseKernel,
    make_engine,
    register_engine,
    unregister_engine,
)
from repro.kernels import coo_spmv
from repro.plan import Autotuner, build_pairwise_plan, estimate_execution_seconds
from repro.sparse.csr import CSRMatrix
from tests.conftest import random_csr

ENGINES = ("hybrid_coo", "merge_path", "naive_csr", "expand_sort_contract")


def _operands(rng, metric):
    measure = make_distance(metric)
    a = prepare_matrix(random_csr(rng, 12, 40, 0.3), measure)
    b = prepare_matrix(random_csr(rng, 9, 40, 0.35), measure)
    return a, b, measure.semiring


@pytest.mark.parametrize("metric", ["cosine", "manhattan", "chebyshev"])
@pytest.mark.parametrize("engine", ENGINES)
def test_price_equals_launch_and_launching_is_repeatable(rng, engine, metric):
    a, b, semiring = _operands(rng, metric)
    schedule = make_engine(engine).schedule(a, b, semiring)
    log = []
    first = schedule.execute(VOLTA_V100, log)
    second = schedule.execute(VOLTA_V100, [])
    assert schedule.price(VOLTA_V100) == first[1]
    # the launch log holds each launch with its result, in order
    assert [launch for launch, _ in log] == list(schedule.launches)
    assert sum(result.seconds for _, result in log) == first[1]
    # launching stamps copies: the schedule itself never accumulates
    assert first[0].as_dict() == second[0].as_dict()
    assert first[1] == second[1]


def test_sampled_schedule_is_pure_across_calls(rng, monkeypatch):
    """The hash-probe sampler subsamples lookups with a seeded generator;
    it is seeded per schedule, so one instance gives the same schedule on
    every call instead of drifting as a shared generator advances."""
    monkeypatch.setattr(LoadBalancedCooKernel, "STATS_SAMPLE_QUERIES", 8)
    kernel = LoadBalancedCooKernel(VOLTA_V100, row_cache="hash")
    a, b, semiring = _operands(rng, "manhattan")
    assert b.nnz > kernel.STATS_SAMPLE_QUERIES  # the sampler engages
    runs = [kernel.run(a, b, semiring) for _ in range(3)]
    assert len({r.seconds for r in runs}) == 1
    assert all(r.stats.as_dict() == runs[0].stats.as_dict() for r in runs)
    assert kernel.estimate_seconds(a, b, semiring) == runs[0].seconds
    assert kernel.last_schedule is runs[-1].schedule


def test_host_engine_is_the_empty_schedule(rng):
    a, b, semiring = _operands(rng, "cosine")
    kernel = HostKernel()
    assert kernel.schedule(a, b, semiring).launches == ()
    result = kernel.run(a, b, semiring)
    assert result.seconds == 0.0
    assert result.stats.as_dict() == KernelStats().as_dict()


class TestAtomicBound:
    """§3.3: segment-leader atomics are bounded by the active warps over
    each row of the stream."""

    def test_single_long_row_one_atomic_per_warp(self):
        row = CSRMatrix.from_dense(np.ones((1, 320)))
        assert coo_spmv._atomics_per_block(row, VOLTA_V100) == 10

    def test_one_nonzero_rows_one_atomic_each(self):
        eye = CSRMatrix.from_dense(np.eye(64))
        assert coo_spmv._atomics_per_block(eye, VOLTA_V100) == 64

    def test_between_rows_and_warps_plus_rows(self, rng):
        x = random_csr(rng, 50, 40, 0.5)
        atomics = coo_spmv._atomics_per_block(x, VOLTA_V100)
        n_rows = int(np.count_nonzero(x.row_degrees()))
        n_warps = -(-x.nnz // VOLTA_V100.warp_size)
        assert n_rows <= atomics <= n_warps + n_rows


def test_stream_cost_cache_hit_equals_recount(rng):
    """A second count on the same operand is a memo hit equal to the
    recount; an equal structure held by another object is counted
    afresh."""
    spec = VOLTA_V100
    b = random_csr(rng, 30, 50, 0.4)
    recount = coo_spmv._sample_bank_conflicts(b, spec)
    assert coo_spmv._stream_cost("bank_conflicts", b, spec,
                                 coo_spmv._sample_bank_conflicts) == recount

    def never(*_):
        raise AssertionError("expected a memo hit")

    assert coo_spmv._stream_cost("bank_conflicts", b, spec, never) == recount
    counted = []

    def count(x, s):
        counted.append(x)
        return coo_spmv._sample_bank_conflicts(x, s)

    twin = b.copy()
    assert coo_spmv._stream_cost("bank_conflicts", twin, spec,
                                 count) == recount
    assert len(counted) == 1 and counted[0] is twin


def test_stream_cost_cache_under_concurrent_tile_workers(rng):
    """Tile workers share each operand's memo: with more threads than
    cores and a short switch interval, every lookup still returns its own
    recount."""
    spec = VOLTA_V100
    operands = [random_csr(rng, 5 + i, 16, 0.4) for i in range(80)]
    want = [coo_spmv._atomics_per_block(x, spec) for x in operands]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(coo_spmv._stream_cost, "atomics", x, spec,
                                   coo_spmv._atomics_per_block)
                       for x in operands * 4]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 4


class OneLaunchKernel(PairwiseKernel):
    """An out-of-tree engine: one launch of ten ALU ops per output cell."""

    name = "one_launch_test_kernel"

    def schedule(self, a, b, semiring):
        stats = KernelStats(alu_ops=10.0 * a.n_rows * b.n_rows)
        return LaunchSchedule((Launch(stats, grid_blocks=a.n_rows,
                                      block_threads=128),))


def test_schedule_only_engine_runs_and_estimates_exactly(rng):
    register_engine(OneLaunchKernel)
    try:
        x = random_csr(rng, 10, 20, 0.3)
        result = pairwise_distances(x, metric="cosine",
                                    engine="one_launch_test_kernel",
                                    return_result=True)
        np.testing.assert_allclose(
            result.distances, pairwise_distances(x, metric="cosine",
                                                 engine="host"))
        plan = build_pairwise_plan(x, None, "cosine",
                                   engine="one_launch_test_kernel")
        assert estimate_execution_seconds(plan) == result.simulated_seconds
        assert result.simulated_seconds > 0.0
    finally:
        unregister_engine("one_launch_test_kernel")


def test_tunable_engines_are_the_autotuner_candidates(rng):
    x = random_csr(rng, 6, 20, 0.3)
    before = Autotuner().engine_candidates(x, x)
    assert before == [("hybrid_coo", "dense"), ("hybrid_coo", "hash"),
                      ("merge_path", None)]

    class TunableKernel(OneLaunchKernel):
        name = "tunable_test_kernel"
        tunable = True

    register_engine(TunableKernel)
    try:
        assert Autotuner().engine_candidates(x, x) == before + [
            ("tunable_test_kernel", None)]
    finally:
        unregister_engine("tunable_test_kernel")
