"""Public pairwise-distance API (the paper's Figure 2, bottom snippet).

    from repro import pairwise_distances
    dists = pairwise_distances(X, metric="cosine")

is now a thin wrapper over the execution-plan layer (:mod:`repro.plan`):
the call builds a :class:`~repro.plan.PairwisePlan` — operands prepared
once, row norms cached, the output block cut into memory-budgeted tiles —
and runs it through a :class:`~repro.plan.PlanExecutor` with a
:class:`~repro.plan.DenseBlockConsumer`. With the default budget small
inputs plan as a single tile, reproducing the old monolithic behaviour
bit-for-bit; large outputs tile automatically, and ``n_workers`` runs the
tiles on simulated concurrent streams. When the engine simulates the
device, the returned :class:`PairwiseResult` also carries the merged kernel
statistics and the simulated seconds, including the (embarrassingly
parallel, §3.4) norm and expansion kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.distances import DistanceMeasure
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryPolicy
from repro.gpusim.specs import DeviceSpec
from repro.gpusim.stats import KernelStats
from repro.kernels.base import PairwiseKernel
from repro.obs import resolve_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.plan.consumers import DenseBlockConsumer
from repro.plan.executor import PlanExecutionReport, PlanExecutor
from repro.plan.pairwise_plan import build_pairwise_plan, prepare_matrix

__all__ = ["pairwise_distances", "PairwiseResult", "prepare_matrix"]


@dataclass
class PairwiseResult:
    """Distances plus the simulated execution record."""

    distances: np.ndarray
    stats: KernelStats
    simulated_seconds: float
    engine: str
    measure: DistanceMeasure
    #: per-tile accounting of the executed plan (None only for legacy
    #: construction paths that bypass the executor)
    report: Optional[PlanExecutionReport] = None

    @property
    def shape(self):
        return self.distances.shape


def pairwise_distances(
    x,
    y=None,
    metric: str = "cosine",
    *,
    engine: Union[str, PairwiseKernel] = "hybrid_coo",
    device: Union[str, DeviceSpec, None] = None,
    return_result: bool = False,
    memory_budget_bytes: Optional[int] = None,
    n_workers: int = 1,
    recovery: Optional[RecoveryPolicy] = None,
    fault_injector: Optional[FaultInjector] = None,
    trace=None,
    metrics: Optional[MetricsRegistry] = None,
    **metric_params,
):
    """Pairwise distances between the rows of ``x`` and ``y``.

    Parameters
    ----------
    x, y:
        Sparse (our CSR/COO, scipy) or dense row matrices; ``y=None`` means
        ``y = x``.
    metric:
        Any catalogue or registered custom distance (aliases accepted);
        e.g. ``"cosine"``, ``"manhattan"``, ``"minkowski"`` (with ``p=``).
    engine:
        Execution strategy name (``hybrid_coo``, ``merge_path``,
        ``naive_csr``, ``expand_sort_contract``, ``csrgemm``, ``host``), a
        :class:`PairwiseKernel` instance, or ``"auto"`` — the
        :class:`~repro.plan.Autotuner` then picks engine × row-cache ×
        tile shape from exact cost-model dry runs over the operands'
        degree distributions. Unknown names raise a structured
        :class:`~repro.errors.EngineConfigError` listing the registry.
    device:
        Simulated device spec or name (``"volta"``, ``"ampere"``); defaults
        to Volta for named engines. For a kernel *instance* the spec is
        taken from the kernel; passing a conflicting ``device=`` raises
        :class:`~repro.errors.DeviceConfigError` instead of being silently
        ignored.
    return_result:
        When true, return the full :class:`PairwiseResult` (distances +
        kernel stats + simulated seconds + tile accounting) instead of just
        the array.
    memory_budget_bytes:
        Per-tile byte budget for the execution plan (dense tile block +
        kernel workspace). Defaults to a quarter of the device's global
        memory, which keeps small inputs monolithic.
    n_workers:
        Tile workers simulating concurrent streams. Results and merged
        stats are identical for any worker count; only the modeled makespan
        changes.
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy`: retry transient
        launch failures, split OOMing tiles, degrade the row-cache strategy
        on capacity overflows. Distances are bit-identical with or without
        recovery engaged; the returned report carries the fault accounting.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` replaying a seeded
        fault schedule into the execution (tests and chaos benches).
    trace:
        ``None`` (default, zero overhead), a :class:`~repro.obs.Tracer` to
        record spans into, or a path — the call then writes a Chrome
        ``trace_event`` JSON file there (open in ``chrome://tracing`` /
        Perfetto) when it finishes.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` accumulating counters,
        gauges, and histograms across calls (Prometheus-text / JSON
        exposition via the registry).
    metric_params:
        Extra distance parameters (e.g. ``p=1.5`` for Minkowski).
    """
    tracer, trace_path = resolve_trace(trace)
    plan = build_pairwise_plan(x, y, metric, engine=engine, device=device,
                               memory_budget_bytes=memory_budget_bytes,
                               tracer=tracer, **metric_params)
    report = PlanExecutor(plan, n_workers=n_workers, recovery=recovery,
                          fault_injector=fault_injector, tracer=tracer,
                          metrics=metrics).execute(DenseBlockConsumer())
    if trace_path is not None:
        write_chrome_trace(tracer, trace_path)
    out = PairwiseResult(distances=report.value, stats=report.stats,
                         simulated_seconds=report.simulated_seconds,
                         engine=getattr(plan.kernel, "name", "custom"),
                         measure=plan.measure, report=report)
    return out if return_result else out.distances
