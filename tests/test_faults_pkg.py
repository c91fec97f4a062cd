"""Unit tests for :mod:`repro.faults` and its satellite fixes.

Covers the deterministic fault schedule (site matching, probability coins,
log ordering), the recovery policy's classification and degradation ladder,
the hash-table overflow pre-check, and ``stage_row_partitioned``'s §3.3.3
routing of over-degree rows.
"""

import numpy as np
import pytest

from repro.errors import (
    DeviceOOMError,
    ExecutionFaultError,
    HashCapacityError,
    InjectedFault,
    InjectedHashCapacityFault,
    KernelLaunchError,
    TileStuckError,
    TileWorkspaceOOM,
    TransientLaunchFault,
)
from repro.faults import (
    DEGRADE,
    RETRY,
    SPLIT,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSpec,
    RecoveryPolicy,
    kernel_checkpoint,
)
from repro.gpusim import executor as gpusim_executor
from repro.gpusim.specs import VOLTA_V100
from repro.kernels import BlockHashTable, make_engine
from repro.kernels.host import HostKernel
from repro.kernels.strategy import (
    RowCacheStrategy,
    max_entries_per_block,
    stage_row_partitioned,
)


class TestFaultSpec:
    def test_selectors_normalize(self):
        spec = FaultSpec("oom", tiles=3, attempts=[2, 0], depths=None)
        assert spec.kind is FaultKind.OOM
        assert spec.tiles == (3,)
        assert spec.attempts == (0, 2)
        assert spec.depths is None

    def test_default_site_is_first_attempt_depth_zero(self):
        spec = FaultSpec("transient")
        assert spec.matches(5, 0, 0, seed=0, spec_index=0)
        assert not spec.matches(5, 1, 0, seed=0, spec_index=0)
        assert not spec.matches(5, 0, 1, seed=0, spec_index=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("oom", probability=1.5)
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec("slow", seconds=-1.0)
        with pytest.raises(ValueError):
            FaultSpec("not-a-kind")

    def test_probability_coin_is_deterministic(self):
        spec = FaultSpec("transient", probability=0.5)
        first = [spec.matches(t, 0, 0, seed=11, spec_index=0)
                 for t in range(200)]
        second = [spec.matches(t, 0, 0, seed=11, spec_index=0)
                  for t in range(200)]
        assert first == second
        assert any(first) and not all(first)  # both outcomes occur
        other_seed = [spec.matches(t, 0, 0, seed=12, spec_index=0)
                      for t in range(200)]
        assert first != other_seed


class TestFaultInjector:
    def test_site_resolution_first_match_wins(self):
        injector = FaultInjector([FaultSpec("stuck", tiles=(1,)),
                                  FaultSpec("transient")], seed=0)
        site = injector.site_faults(1, 0, 0)
        assert site.launch_fault.kind is FaultKind.STUCK
        site = injector.site_faults(2, 0, 0)
        assert site.launch_fault.kind is FaultKind.TRANSIENT

    def test_slow_faults_accumulate(self):
        injector = FaultInjector([FaultSpec("slow", seconds=0.1),
                                  FaultSpec("slow", seconds=0.2)], seed=0)
        assert injector.site_faults(0, 0, 0).slow_seconds == pytest.approx(0.3)

    def test_checkpoint_is_noop_outside_scope(self):
        kernel_checkpoint(object())  # must not raise

    def test_tile_scope_arms_and_restores(self):
        injector = FaultInjector([FaultSpec("oom", tiles=(0,))], seed=0)
        with pytest.raises(TileWorkspaceOOM):
            with injector.tile_scope(0, 0, 0):
                kernel_checkpoint(object())
        # The thread's one fault hook was restored.
        kernel_checkpoint(object())
        assert getattr(gpusim_executor._FAULT_HOOK, "fn", None) is None

    def test_kernel_fault_is_one_shot_per_attempt(self):
        injector = FaultInjector([FaultSpec("capacity", tiles=(0,))], seed=0)
        with injector.tile_scope(0, 0, 0) as site:
            with pytest.raises(InjectedHashCapacityFault):
                kernel_checkpoint(object())
            kernel_checkpoint(object())  # second call: already consumed
            assert site.kernel_fault is None

    def test_log_is_sorted_and_resettable(self):
        injector = FaultInjector([FaultSpec("oom", tiles=(0, 3))], seed=0)
        for tile in (3, 0):
            with injector.tile_scope(tile, 0, 0):
                with pytest.raises(TileWorkspaceOOM):
                    kernel_checkpoint(object())
        assert [e.tile_index for e in injector.fault_log] == [0, 3]
        assert all(e.action == "injected" for e in injector.fault_log)
        injector.reset_log()
        assert injector.fault_log == ()


class TestRecoveryPolicy:
    def test_classification(self):
        policy = RecoveryPolicy()
        assert policy.classify(TransientLaunchFault("x")) == RETRY
        assert policy.classify(TileStuckError("x")) == RETRY
        assert policy.classify(TileWorkspaceOOM("x")) == SPLIT
        assert policy.classify(DeviceOOMError("x")) == SPLIT
        assert policy.classify(InjectedHashCapacityFault("x")) == DEGRADE
        assert policy.classify(HashCapacityError("x")) == DEGRADE
        assert policy.classify(KernelLaunchError("x")) == DEGRADE
        assert policy.classify(ValueError("x")) is None

    def test_backoff_is_exponential(self):
        policy = RecoveryPolicy(backoff_base_seconds=0.01, backoff_factor=3.0)
        assert policy.backoff_seconds(1) == pytest.approx(0.01)
        assert policy.backoff_seconds(2) == pytest.approx(0.03)
        assert policy.backoff_seconds(3) == pytest.approx(0.09)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_split_depth=-2)

    def test_ladder_clones_for_row_cache_kernel(self):
        policy = RecoveryPolicy()
        prototype = make_engine("hybrid_coo", VOLTA_V100, row_cache="dense")
        rungs = list(policy.degradation_clones(prototype))
        assert [r for r, _ in rungs] == ["hash", "bloom", "host"]
        assert rungs[0][1].row_cache is RowCacheStrategy.HASH
        assert rungs[1][1].row_cache is RowCacheStrategy.BLOOM
        assert isinstance(rungs[2][1], HostKernel)
        # The prototype itself is never mutated.
        assert prototype.row_cache is RowCacheStrategy.DENSE

    def test_ladder_skips_rungs_without_row_cache(self):
        policy = RecoveryPolicy()
        prototype = make_engine("naive_csr", VOLTA_V100)
        rungs = list(policy.degradation_clones(prototype))
        assert [r for r, _ in rungs] == ["host"]
        assert isinstance(rungs[0][1], HostKernel)


class TestInjectedErrorTypes:
    def test_faults_impersonate_real_errors(self):
        assert issubclass(TransientLaunchFault, KernelLaunchError)
        assert issubclass(TileStuckError, KernelLaunchError)
        assert issubclass(TileWorkspaceOOM, DeviceOOMError)
        assert issubclass(InjectedHashCapacityFault, HashCapacityError)
        for cls in (TransientLaunchFault, TileStuckError, TileWorkspaceOOM,
                    InjectedHashCapacityFault):
            assert issubclass(cls, InjectedFault)
        assert not issubclass(HashCapacityError, InjectedFault)

    def test_execution_fault_error_payload(self):
        event = FaultEvent(tile_index=1, attempt=0, depth=0,
                           kind=FaultKind.OOM, action="unabsorbed")
        cause = TileWorkspaceOOM("boom")
        err = ExecutionFaultError("failed", watermark=3,
                                  fault_log=[event], cause=cause)
        assert err.watermark == 3
        assert err.fault_log == (event,)
        assert err.cause is cause


class TestHashOverflowPrecheck:
    """Satellite: overflow is detected before any slot is written."""

    def test_overflow_leaves_table_unmodified(self):
        table = BlockHashTable(8)
        table.build(np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        keys_before = table.keys.copy()
        with pytest.raises(HashCapacityError, match="partition") as exc_info:
            table.build(np.arange(10, 20), np.ones(10))
        assert exc_info.value.degree == 10
        assert exc_info.value.capacity == 8
        assert np.array_equal(table.keys, keys_before)
        assert table.n_entries == 3

    def test_fits_accounts_for_existing_entries(self):
        table = BlockHashTable(4)
        assert table.fits(4)
        table.build(np.array([7]), np.array([1.0]))
        assert table.fits(3)
        assert not table.fits(4)


class TestStageRowPartitioned:
    """Satellite: over-degree rows route through §3.3.3 partitioning."""

    def test_small_row_stays_in_one_table(self):
        cols = np.arange(5)
        vals = np.arange(5, dtype=np.float64)
        tables, reports, plan = stage_row_partitioned(cols, vals, 32)
        assert len(tables) == 1
        assert plan.extra_blocks == 0
        values, found, _ = tables[0].lookup(cols)
        assert found.all()
        assert np.array_equal(values, vals)

    def test_over_degree_row_splits_across_tables(self):
        capacity = 16  # max entries per block: 8
        degree = 30
        cols = np.arange(degree)
        vals = np.linspace(1.0, 2.0, degree)
        tables, reports, plan = stage_row_partitioned(cols, vals, capacity)
        assert len(tables) == plan.n_blocks == 4  # ceil(30 / 8)
        assert plan.extra_blocks == 3
        assert int(plan.block_sizes.sum()) == degree
        assert all(t.load_factor <= 0.5 for t in tables)
        # Every nonzero is recoverable from exactly one block's table.
        recovered = {}
        for table in tables:
            values, found, _ = table.lookup(cols)
            for c in np.flatnonzero(found):
                assert c not in recovered
                recovered[int(c)] = values[c]
        assert sorted(recovered) == list(range(degree))
        assert np.allclose([recovered[i] for i in range(degree)], vals)

    def test_matches_device_budget_helper(self):
        cap = VOLTA_V100.hash_table_slots(8)
        degree = max_entries_per_block(VOLTA_V100) + 1
        rng = np.random.default_rng(0)
        cols = rng.choice(degree * 4, size=degree, replace=False)
        tables, _, plan = stage_row_partitioned(cols, np.ones(degree), cap)
        assert plan.n_blocks == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            stage_row_partitioned(np.arange(3), np.ones(2), 8)
        with pytest.raises(ValueError, match="capacity"):
            stage_row_partitioned(np.arange(3), np.ones(3), 0)
