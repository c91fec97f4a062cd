"""Mid-transfer link faults: retry, abort, watermark resume.

``CHAOS_SEED`` (env var, default 0) reseeds the whole module — the CI
chaos sweep runs it at several seeds and every assertion must hold at all
of them, because recovery is required to be *bit-transparent*: whatever
the schedule injects, absorbed runs return exactly the clean answer.
"""

import os

import numpy as np
import pytest

from repro.datasets.synthetic import make_skewed
from repro.dist import DistributedExecutor, build_distributed_plan
from repro.errors import ExecutionFaultError
from repro.faults import FaultInjector, FaultSpec, RecoveryPolicy
from repro.neighbors.brute_force import NearestNeighbors

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

K = 4


@pytest.fixture(scope="module")
def operands():
    a = make_skewed(22, 30, mean_degree=6, sigma=1.0, seed=31 + CHAOS_SEED)
    b = make_skewed(27, 30, mean_degree=6, sigma=1.0, seed=47 + CHAOS_SEED)
    return a, b


@pytest.fixture(scope="module")
def oracle(operands):
    a, b = operands
    nn = NearestNeighbors(n_neighbors=K, metric="euclidean")
    return nn.fit(b).kneighbors(a)


def _plan(operands, **kwargs):
    a, b = operands
    kwargs.setdefault("partition", "2d")
    kwargs.setdefault("n_devices", 4)
    return build_distributed_plan(a, b, "euclidean", k=K, **kwargs)


def test_injector_rejects_non_transient_specs():
    injector = FaultInjector((FaultSpec("oom", tiles=(0,)),),
                             seed=CHAOS_SEED)
    with pytest.raises(ValueError, match="'oom'"):
        injector.transfer_scope(0, 0)


def test_fires_at_is_pure():
    specs = (FaultSpec("transient", probability=0.5,
                       attempts=(0, 1)),)
    one = FaultInjector(specs, seed=CHAOS_SEED)
    two = FaultInjector(specs, seed=CHAOS_SEED)
    schedule = [(s, a) for s in range(20) for a in range(2)]

    def fires(injector, step, attempt):
        return injector.site_faults(step, attempt, 0).launch_fault is not None

    assert ([fires(one, s, a) for s, a in schedule]
            == [fires(two, s, a) for s, a in schedule])
    other = FaultInjector(specs, seed=CHAOS_SEED + 1)
    # a different seed is a different (deterministic) schedule
    assert isinstance(fires(other, 0, 0), bool)


def test_transient_fault_is_absorbed_bit_identically(operands, oracle):
    plan = _plan(operands)
    injector = FaultInjector(
        (FaultSpec("transient", tiles=(0, 2)),), seed=CHAOS_SEED)
    report = DistributedExecutor(
        plan, recovery=RecoveryPolicy(), link_faults=injector).execute()
    assert report.n_retries == 2
    assert report.backoff_seconds > 0.0
    assert [e.action for e in report.fault_log] == ["retried", "retried"]
    np.testing.assert_array_equal(report.value[0], oracle[0])
    np.testing.assert_array_equal(report.value[1], oracle[1])
    # retries cost backoff on the clock but never change the answer
    assert report.simulated_seconds >= plan.estimated_seconds


def test_chaos_schedule_stays_bit_transparent(operands, oracle):
    """Probabilistic faults at the module seed: whatever fires, an
    absorbed run returns the clean answer exactly."""
    plan = _plan(operands, n_devices=2, partition="1d_col")
    injector = FaultInjector(
        (FaultSpec("transient", probability=0.4),), seed=CHAOS_SEED)
    report = DistributedExecutor(
        plan, n_workers=2, recovery=RecoveryPolicy(),
        link_faults=injector).execute()
    np.testing.assert_array_equal(report.value[0], oracle[0])
    np.testing.assert_array_equal(report.value[1], oracle[1])
    assert all(e.action == "retried" for e in report.fault_log)


def test_unrecovered_fault_aborts_with_watermark(operands):
    plan = _plan(operands, n_devices=2, partition="1d_row")
    ex = DistributedExecutor(plan, recovery=RecoveryPolicy())
    # last comm step of the schedule fails on every attempt
    fatal_step = ex.n_steps - 1
    ex.link_faults = FaultInjector(
        (FaultSpec("transient", tiles=(fatal_step,),
                   attempts=tuple(range(16))),), seed=CHAOS_SEED)
    with pytest.raises(ExecutionFaultError) as err:
        ex.execute()
    assert err.value.watermark == fatal_step
    assert any(e.action == "unabsorbed" for e in err.value.fault_log)


def test_watermark_resume_completes_bit_identically(operands, oracle):
    plan = _plan(operands)
    ex = DistributedExecutor(plan, recovery=RecoveryPolicy())
    fatal_step = ex.n_steps - 1
    ex.link_faults = FaultInjector(
        (FaultSpec("transient", tiles=(fatal_step,),
                   attempts=tuple(range(16))),), seed=CHAOS_SEED)
    with pytest.raises(ExecutionFaultError) as err:
        ex.execute()
    # the link heals; resume from the recorded watermark, same executor
    ex.link_faults = None
    report = ex.execute(resume_from=err.value.watermark)
    assert report.resumed_from == err.value.watermark
    np.testing.assert_array_equal(report.value[0], oracle[0])
    np.testing.assert_array_equal(report.value[1], oracle[1])


def test_resume_requires_matching_watermark(operands):
    plan = _plan(operands, n_devices=2, partition="1d_row")
    ex = DistributedExecutor(plan)
    with pytest.raises(ValueError):
        ex.execute(resume_from=3)


def test_no_policy_means_first_fault_aborts(operands):
    plan = _plan(operands, n_devices=2, partition="1d_row")
    ex = DistributedExecutor(
        plan, link_faults=FaultInjector(
            (FaultSpec("transient", tiles=(0,)),), seed=CHAOS_SEED))
    with pytest.raises(ExecutionFaultError):
        ex.execute()
