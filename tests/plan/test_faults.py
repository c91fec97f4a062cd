"""Fault-tolerant plan execution: injected faults, recovery, resume.

The acceptance criteria of the fault subsystem:

- a fault schedule the :class:`RecoveryPolicy` absorbs (retry / split /
  degrade) yields **bit-identical** distances to a clean run, for expanded
  and NAMM distances, serial and on 4 workers (``CHAOS_SEED`` lets CI sweep
  the probability coins);
- a schedule it cannot absorb aborts with a structured
  :class:`ExecutionFaultError` carrying the fault log and a delivered-tile
  watermark, the consumer's ``abort`` hook fires, and re-running with
  ``resume_from=watermark`` on the same consumer completes the job without
  recomputing the delivered prefix.
"""

import os

import numpy as np
import pytest

from repro.errors import (
    ExecutionFaultError,
    KernelLaunchError,
    TransientLaunchFault,
)
from repro.faults import FaultInjector, FaultSpec, RecoveryPolicy
from repro.gpusim.specs import VOLTA_V100
from repro.kernels import make_engine
from repro.neighbors.brute_force import NearestNeighbors
from repro.plan import (
    DenseBlockConsumer,
    PlanExecutor,
    TopKConsumer,
    build_pairwise_plan,
)
from tests.conftest import random_csr, random_dense

#: CI's chaos job sweeps this seed; locally it defaults to 0.
SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Budget that cuts the fault-pair fixture into a 3x3 tile grid.
FAULT_BUDGET = 600

#: One deterministic fault of every kind, spread over distinct tiles; the
#: oom at tiles (7,) with depths (0, 1) forces a two-level split cascade.
ABSORBABLE_SPECS = (
    FaultSpec("transient", tiles=(0,)),
    FaultSpec("oom", tiles=(1,)),
    FaultSpec("capacity", tiles=(2,)),
    FaultSpec("slow", tiles=(3,), seconds=0.25),
    FaultSpec("stuck", tiles=(5,)),
    FaultSpec("oom", tiles=(7,), depths=(0, 1)),
)

#: Every kind firing probabilistically on every tile (the bench/CI chaos
#: shape) — which tiles fault depends only on (seed, spec, site).
CHAOS_SPECS = (
    FaultSpec("transient", probability=0.30),
    FaultSpec("stuck", probability=0.10),
    FaultSpec("oom", probability=0.20),
    FaultSpec("capacity", probability=0.15),
    FaultSpec("slow", probability=0.25, seconds=0.01),
)


@pytest.fixture
def fault_pair(rng):
    """A pair big enough for a 3x3 tile grid under ``FAULT_BUDGET``."""
    return (random_csr(rng, 40, 30, 0.3), random_csr(rng, 25, 30, 0.25))


def fault_plan(a, b, metric):
    return build_pairwise_plan(a, b, metric,
                               memory_budget_bytes=FAULT_BUDGET)


class RecordingConsumer(DenseBlockConsumer):
    """DenseBlockConsumer that records deliveries and aborts."""

    def __init__(self):
        super().__init__()
        self.consumed = []
        self.aborts = []

    def consume(self, tile, distances):
        self.consumed.append(tile.index)
        super().consume(tile, distances)

    def abort(self, error):
        self.aborts.append(error)


class TestBitIdentityUnderFaults:
    """Absorbed fault schedules must not change a single output bit."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "jaccard"])
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_absorbed_schedule_bit_identical(self, fault_pair, metric,
                                             n_workers):
        a, b = fault_pair
        plan = fault_plan(a, b, metric)
        assert plan.n_tiles == 9
        clean = PlanExecutor(plan).execute()

        injector = FaultInjector(ABSORBABLE_SPECS, seed=SEED)
        faulty = PlanExecutor(fault_plan(a, b, metric), n_workers=n_workers,
                              recovery=RecoveryPolicy(),
                              fault_injector=injector).execute()

        assert np.array_equal(clean.value, faulty.value)
        assert faulty.n_retries == 2          # transient + stuck
        # tile 1 once; tile 7 at depth 0 plus both its depth-1 halves
        assert faulty.n_tile_splits == 4
        assert faulty.degraded_tiles == (2,)  # capacity -> ladder
        assert faulty.backoff_seconds > 0.0
        assert faulty.n_faults == len(faulty.fault_log) >= 6
        # Recovery only adds simulated time, never removes work.
        assert faulty.serial_seconds > clean.serial_seconds

    @pytest.mark.parametrize("metric", ["euclidean", "jaccard"])
    def test_chaos_schedule_identical_across_worker_counts(self, fault_pair,
                                                           metric):
        """Probability-driven schedules replay identically at any worker
        count: same distances, same merged stats, same fault log."""
        a, b = fault_pair
        clean = PlanExecutor(fault_plan(a, b, metric)).execute()
        runs = []
        for n_workers in (1, 4):
            injector = FaultInjector(CHAOS_SPECS, seed=SEED)
            runs.append(PlanExecutor(fault_plan(a, b, metric),
                                     n_workers=n_workers,
                                     recovery=RecoveryPolicy(),
                                     fault_injector=injector).execute())
        serial, threaded = runs
        assert np.array_equal(clean.value, serial.value)
        assert np.array_equal(serial.value, threaded.value)
        assert serial.fault_log == threaded.fault_log
        assert serial.stats.as_dict() == threaded.stats.as_dict()
        assert serial.n_retries == threaded.n_retries
        assert serial.n_tile_splits == threaded.n_tile_splits
        assert serial.degraded_tiles == threaded.degraded_tiles

    def test_split_cascade_reaches_depth_two(self, fault_pair):
        a, b = fault_pair
        injector = FaultInjector([FaultSpec("oom", tiles=(7,),
                                            depths=(0, 1))], seed=SEED)
        report = PlanExecutor(fault_plan(a, b, "euclidean"),
                              recovery=RecoveryPolicy(),
                              fault_injector=injector).execute()
        depths = {e.depth for e in report.fault_log if e.action == "split"}
        assert depths == {0, 1}
        assert report.n_tile_splits == 3  # depth 0 + both depth-1 halves

    def test_slow_fault_charges_simulated_seconds_only(self, fault_pair):
        a, b = fault_pair
        clean = PlanExecutor(fault_plan(a, b, "cosine")).execute()
        injector = FaultInjector([FaultSpec("slow", tiles=(4,),
                                            seconds=0.5)], seed=SEED)
        slowed = PlanExecutor(fault_plan(a, b, "cosine"),
                              recovery=RecoveryPolicy(),
                              fault_injector=injector).execute()
        assert np.array_equal(clean.value, slowed.value)
        assert slowed.serial_seconds == pytest.approx(
            clean.serial_seconds + 0.5)
        assert [e.action for e in slowed.fault_log] == ["slowed"]


class TestUnabsorbableAndResume:
    def test_unabsorbable_raises_structured_error(self, fault_pair):
        a, b = fault_pair
        injector = FaultInjector(
            [FaultSpec("transient", tiles=(2,), attempts=tuple(range(10)))],
            seed=SEED)
        consumer = RecordingConsumer()
        with pytest.raises(ExecutionFaultError) as exc_info:
            PlanExecutor(fault_plan(a, b, "euclidean"),
                         recovery=RecoveryPolicy(max_retries=2),
                         fault_injector=injector).execute(consumer)
        err = exc_info.value
        assert err.watermark == 2          # tiles 0 and 1 were delivered
        assert consumer.delivered_watermark == 2
        assert isinstance(err.cause, TransientLaunchFault)
        assert [e.action for e in err.fault_log] == [
            "retried", "retried", "unabsorbed"]
        assert len(consumer.aborts) == 1

    def test_resume_from_watermark_completes_the_job(self, fault_pair):
        a, b = fault_pair
        clean = PlanExecutor(fault_plan(a, b, "euclidean")).execute()
        injector = FaultInjector(
            [FaultSpec("oom", tiles=(4,), depths=tuple(range(8)))],
            seed=SEED)
        consumer = RecordingConsumer()
        with pytest.raises(ExecutionFaultError) as exc_info:
            PlanExecutor(fault_plan(a, b, "euclidean"),
                         recovery=RecoveryPolicy(max_split_depth=2),
                         fault_injector=injector).execute(consumer)
        watermark = exc_info.value.watermark
        assert watermark == 4
        delivered_before = list(consumer.consumed)

        resumed = PlanExecutor(fault_plan(a, b, "euclidean"),
                               recovery=RecoveryPolicy()).execute(
            consumer, resume_from=watermark)
        assert np.array_equal(clean.value, resumed.value)
        assert resumed.resumed_from == watermark
        assert resumed.n_tiles == 9 - watermark
        # The delivered prefix was not recomputed or redelivered.
        assert consumer.consumed == delivered_before + list(range(4, 9))
        assert consumer.delivered_watermark == 9

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_injected_fault_without_recovery_is_structured(self, fault_pair,
                                                           n_workers):
        """No policy: the first injected fault aborts, but still surfaces
        as ExecutionFaultError (it belongs to a fault schedule)."""
        a, b = fault_pair
        injector = FaultInjector([FaultSpec("transient", tiles=(3,))],
                                 seed=SEED)
        consumer = RecordingConsumer()
        with pytest.raises(ExecutionFaultError) as exc_info:
            PlanExecutor(fault_plan(a, b, "euclidean"), n_workers=n_workers,
                         fault_injector=injector).execute(consumer)
        assert exc_info.value.watermark == 3
        assert len(consumer.aborts) == 1

    def test_threaded_abort_reports_the_serial_watermark_and_log(
            self, fault_pair):
        """An aborted 4-worker run delivers exactly the serial prefix:
        the tiles before the failed one, in order, with their absorbed
        faults, on every repetition."""
        a, b = fault_pair
        fatal = 5
        specs = (FaultSpec("transient", tiles=(1,)),
                 FaultSpec("oom", tiles=(2,)),
                 FaultSpec("slow", tiles=(3,), seconds=0.1),
                 FaultSpec("stuck", tiles=(fatal,),
                           attempts=tuple(range(16))))

        def run(n_workers):
            consumer = RecordingConsumer()
            with pytest.raises(ExecutionFaultError) as exc_info:
                PlanExecutor(fault_plan(a, b, "euclidean"),
                             n_workers=n_workers,
                             recovery=RecoveryPolicy(max_retries=2),
                             fault_injector=FaultInjector(specs, seed=SEED),
                             ).execute(consumer)
            assert consumer.consumed == list(range(fatal))
            return exc_info.value

        serial = run(1)
        assert serial.watermark == fatal
        assert {e.tile_index for e in serial.fault_log} == {1, 2, 3, fatal}
        for _ in range(10):
            threaded = run(4)
            assert threaded.watermark == serial.watermark
            assert threaded.fault_log == serial.fault_log

    def test_consumer_error_propagates_raw(self, fault_pair):
        """Non-fault failures keep their type (backward compatibility)."""
        a, b = fault_pair

        class Exploding(RecordingConsumer):
            def consume(self, tile, distances):
                if tile.index == 2:
                    raise RuntimeError("sink full")
                super().consume(tile, distances)

        consumer = Exploding()
        with pytest.raises(RuntimeError, match="sink full"):
            PlanExecutor(fault_plan(a, b, "euclidean")).execute(consumer)
        assert len(consumer.aborts) == 1

    def test_resume_from_validation(self, fault_pair):
        a, b = fault_pair
        plan = fault_plan(a, b, "euclidean")
        with pytest.raises(ValueError, match="resume_from"):
            PlanExecutor(plan).execute(DenseBlockConsumer(), resume_from=-1)
        with pytest.raises(ValueError, match="resume_from"):
            PlanExecutor(plan).execute(DenseBlockConsumer(), resume_from=99)


class TestDegradationLadder:
    def test_organic_dense_overflow_degrades_instead_of_failing(self, rng):
        """A dense row cache wider than shared memory is the paper's own
        capacity failure; the ladder absorbs it at runtime."""
        wide_cols = VOLTA_V100.smem_per_block_max_bytes // 4 + 1
        a = random_csr(rng, 8, wide_cols, 0.002)
        b = random_csr(rng, 6, wide_cols, 0.002)
        kernel = make_engine("hybrid_coo", VOLTA_V100, row_cache="dense")

        plan = build_pairwise_plan(a, b, "euclidean", engine=kernel)
        with pytest.raises(KernelLaunchError, match="dense row cache"):
            PlanExecutor(plan).execute()

        recovered = PlanExecutor(
            build_pairwise_plan(a, b, "euclidean", engine=kernel),
            recovery=RecoveryPolicy()).execute()
        reference = build_pairwise_plan(a, b, "euclidean", engine="host")
        assert np.array_equal(recovered.value,
                              PlanExecutor(reference).execute().value)
        assert recovered.degraded_tiles != ()
        assert any(e.action == "degraded" for e in recovered.fault_log)

    def test_ladder_walks_to_second_rung(self, fault_pair):
        """Capacity faults on attempts 0 and 1 push past hash to bloom."""
        a, b = fault_pair
        clean = PlanExecutor(fault_plan(a, b, "euclidean")).execute()
        injector = FaultInjector(
            [FaultSpec("capacity", tiles=(2,), attempts=(0, 1))], seed=SEED)
        report = PlanExecutor(fault_plan(a, b, "euclidean"),
                              recovery=RecoveryPolicy(),
                              fault_injector=injector).execute()
        assert np.array_equal(clean.value, report.value)
        rungs = [e.detail for e in report.fault_log
                 if e.action == "degraded"]
        assert rungs == ["-> hash", "-> bloom"]

    def test_exhausted_ladder_is_unabsorbable(self, fault_pair):
        a, b = fault_pair
        injector = FaultInjector(
            [FaultSpec("capacity", tiles=(2,), attempts=tuple(range(10)))],
            seed=SEED)
        with pytest.raises(ExecutionFaultError) as exc_info:
            PlanExecutor(fault_plan(a, b, "euclidean"),
                         recovery=RecoveryPolicy(),
                         fault_injector=injector).execute()
        actions = [e.action for e in exc_info.value.fault_log]
        assert actions == ["degraded", "degraded", "degraded", "unabsorbed"]


class TestNearestNeighborsWiring:
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_kneighbors_bit_identical_under_chaos(self, rng, n_workers):
        x = random_dense(rng, 24, 10)
        nn_clean = NearestNeighbors(n_neighbors=3, metric="manhattan",
                                    batch_rows=5).fit(x)
        d_clean, i_clean = nn_clean.kneighbors()

        nn = NearestNeighbors(
            n_neighbors=3, metric="manhattan", batch_rows=5,
            n_workers=n_workers, recovery=RecoveryPolicy(),
            fault_injector=FaultInjector(CHAOS_SPECS, seed=SEED)).fit(x)
        d, i = nn.kneighbors()
        assert np.array_equal(d_clean, d)
        assert np.array_equal(i_clean, i)
        rep = nn.last_report
        assert rep.fault_log == tuple(rep.fault_log)
        assert rep.n_retries >= 0 and rep.n_tile_splits >= 0

    def test_topk_consumer_resumes(self, fault_pair):
        """The streaming top-k consumer is also a checkpoint."""
        a, b = fault_pair
        plan = fault_plan(a, b, "euclidean")
        want = PlanExecutor(plan).execute(TopKConsumer(4)).value

        injector = FaultInjector(
            [FaultSpec("stuck", tiles=(6,), attempts=tuple(range(10)))],
            seed=SEED)
        consumer = TopKConsumer(4)
        with pytest.raises(ExecutionFaultError) as exc_info:
            PlanExecutor(fault_plan(a, b, "euclidean"),
                         recovery=RecoveryPolicy(max_retries=1),
                         fault_injector=injector).execute(consumer)
        resumed = PlanExecutor(fault_plan(a, b, "euclidean")).execute(
            consumer, resume_from=exc_info.value.watermark)
        dist, idx = resumed.value
        assert np.array_equal(want[0], dist)
        assert np.array_equal(want[1], idx)


class TestPairwiseApiWiring:
    def test_pairwise_distances_accepts_recovery(self, fault_pair):
        from repro.core.pairwise import pairwise_distances

        a, b = fault_pair
        clean = pairwise_distances(a, b, "cosine",
                                   memory_budget_bytes=FAULT_BUDGET)
        res = pairwise_distances(
            a, b, "cosine", memory_budget_bytes=FAULT_BUDGET,
            recovery=RecoveryPolicy(),
            fault_injector=FaultInjector(ABSORBABLE_SPECS, seed=SEED),
            return_result=True)
        assert np.array_equal(clean, res.distances)
        assert res.report.n_faults > 0
