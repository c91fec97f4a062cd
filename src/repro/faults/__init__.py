"""Fault injection and recovery for plan and distributed execution.

A production-scale service streaming millions of pairwise tiles through
(simulated) devices must survive the failures the paper's own design
anticipates: hash-table capacity overflow (§3.3.2), rows exceeding staging
budgets (§3.3.3), tile workspaces blowing the memory budget, and plain
flaky launches and links. This package provides:

- :class:`FaultSpec` / :class:`FaultInjector` — the one deterministic,
  seeded fault schedule, armed per tile or transfer attempt through the
  thread's one :func:`repro.gpusim.executor.fault_hook`, which
  :meth:`~repro.gpusim.executor.Launch.execute`,
  :func:`~repro.gpusim.interconnect.simulate_transfer` and every kernel's
  ``run`` consult, so any test or benchmark can replay an exact fault
  sequence; plan tiles, distributed transfers and compaction shard
  builds all raise its errors;
- :class:`RecoveryPolicy` — bounded retries with simulated backoff,
  adaptive tile splitting on OOM, and the §3.3 strategy degradation ladder
  (dense → hash → partitioned → bloom → host), consumed by
  :class:`repro.plan.PlanExecutor`;
- :class:`FaultEvent` — the structured fault log carried by
  :class:`~repro.plan.PlanExecutionReport` and
  :class:`~repro.errors.ExecutionFaultError`.
"""

from repro.errors import (
    ExecutionFaultError,
    HashCapacityError,
    InjectedFault,
    TileStuckError,
    TileWorkspaceOOM,
    TransientLaunchFault,
)
from repro.faults.injector import FaultInjector, kernel_checkpoint
from repro.faults.recovery import (
    DEFAULT_DEGRADATION_LADDER,
    DEGRADE,
    RETRY,
    SPLIT,
    RecoveryPolicy,
)
from repro.faults.spec import FaultEvent, FaultKind, FaultSpec, fatal_specs

__all__ = [
    "FaultSpec",
    "FaultKind",
    "FaultEvent",
    "fatal_specs",
    "FaultInjector",
    "kernel_checkpoint",
    "RecoveryPolicy",
    "DEFAULT_DEGRADATION_LADDER",
    "RETRY",
    "SPLIT",
    "DEGRADE",
    "ExecutionFaultError",
    "InjectedFault",
    "TransientLaunchFault",
    "TileStuckError",
    "TileWorkspaceOOM",
    "HashCapacityError",
]
