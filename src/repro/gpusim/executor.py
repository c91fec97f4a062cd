"""Launch bookkeeping for simulated kernels.

An engine describes its work as a :class:`LaunchSchedule`: the
:class:`Launch`\\ es it would issue, each one counted work
(:class:`KernelStats`) plus a launch shape. The schedule is plain data, so
it has exactly two uses, and they can never drift apart:

- :meth:`LaunchSchedule.price` — side-effect-free pricing (the autotuner's
  and the plan estimator's dry runs);
- :meth:`LaunchSchedule.execute` — one :func:`simulate_launch` per launch,
  which adds the fault checkpoint, metrics and trace events on top of the
  same pricing, merges the per-launch stats and sums the seconds.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from repro.gpusim.cost_model import SimulatedTime, price_launch
from repro.gpusim.occupancy import Occupancy
from repro.gpusim.specs import DeviceSpec
from repro.gpusim.stats import KernelStats
from repro.obs.tracer import current_metrics, current_tracer

__all__ = ["Launch", "LaunchResult", "LaunchSchedule", "simulate_launch",
           "fault_hook", "fault_checkpoint"]

#: Thread-local fault hook. Fault injection (:mod:`repro.faults`) installs
#: a callback here for one tile or transfer attempt, and
#: :func:`fault_checkpoint` hands it each simulated operation of the
#: attempt: :func:`simulate_launch` and
#: :func:`~repro.gpusim.interconnect.simulate_transfer` before pricing, and
#: every kernel run on entry — the exact places a real ``cudaLaunchKernel``,
#: NCCL send or workspace allocation would fail. Thread-local on purpose:
#: concurrent workers each carry their own injection site and must never
#: observe a sibling's.
_FAULT_HOOK = threading.local()


@contextmanager
def fault_hook(fn):
    """Install ``fn(operation, **detail)`` as this thread's fault hook for
    the ``with`` block, restoring the previous one afterwards."""
    prev = getattr(_FAULT_HOOK, "fn", None)
    _FAULT_HOOK.fn = fn
    try:
        yield
    finally:
        _FAULT_HOOK.fn = prev


def fault_checkpoint(operation: str, **detail) -> None:
    """Give this thread's fault hook, if any, a shot at one simulated
    ``operation`` (``"launch"``, ``"transfer"`` or ``"kernel"``)."""
    hook = getattr(_FAULT_HOOK, "fn", None)
    if hook is not None:
        hook(operation, **detail)


@dataclass(frozen=True)
class LaunchResult:
    """Everything known about one simulated kernel launch."""

    stats: KernelStats
    occupancy: Occupancy
    time: SimulatedTime

    @property
    def seconds(self) -> float:
        return self.time.seconds


def simulate_launch(spec: DeviceSpec, stats: KernelStats, *,
                    grid_blocks: int, block_threads: int,
                    smem_per_block: int = 0,
                    regs_per_thread: int = 32) -> LaunchResult:
    """Validate a launch shape, stamp it onto ``stats``, and price it.

    Raises :class:`repro.errors.KernelLaunchError` when the block shape or
    shared-memory request can never be scheduled on ``spec`` — the same
    failure a real ``cudaLaunchKernel`` would report. An installed fault
    hook (see :func:`fault_hook`) may raise here too, impersonating a
    transient driver failure or a hung launch.
    """
    fault_checkpoint("launch")
    # Stamping + pricing live in the side-effect-free core shared with the
    # autotuner's dry runs, so estimates and launches can never drift.
    occupancy, time = price_launch(
        spec, stats, grid_blocks=grid_blocks, block_threads=block_threads,
        smem_per_block=smem_per_block, regs_per_thread=regs_per_thread)

    metrics = current_metrics()
    metrics.counter("kernel_launches_total").inc()
    metrics.histogram("launch_simulated_ms").observe(time.seconds * 1e3)
    metrics.histogram("occupancy_fraction").observe(time.occupancy_fraction)
    if time.compute_seconds >= time.memory_seconds:
        metrics.counter("launches_compute_bound_total").inc()
    else:
        metrics.counter("launches_memory_bound_total").inc()
    metrics.counter("launches_limited_total").inc(factor=time.limited)
    metrics.counter("launch_compute_seconds_total").inc(time.compute_seconds)
    metrics.counter("launch_memory_seconds_total").inc(time.memory_seconds)
    metrics.counter("launch_fixed_seconds_total").inc(time.fixed_seconds)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event(
            "gpusim.launch", "launch", time.seconds,
            grid_blocks=int(grid_blocks), block_threads=int(block_threads),
            smem_per_block=int(smem_per_block),
            occupancy=round(time.occupancy_fraction, 4), bound=time.bound,
            limited=time.limited,
            limiting_factor=occupancy.limiting_factor,
            compute_us=time.compute_seconds * 1e6,
            memory_us=time.memory_seconds * 1e6,
            fixed_us=time.fixed_seconds * 1e6)
    return LaunchResult(stats=stats, occupancy=occupancy, time=time)


@dataclass(frozen=True)
class Launch:
    """One kernel launch: counted work, launch shape, and how it is traced.

    ``span`` names the ``kernel``-category span that wraps the launch while
    tracing (``None``: the launch event lands on the enclosing span);
    ``steps`` are ``(name, args)`` child spans recorded inside it before
    the launch, and ``args`` annotate it afterwards. ``profile`` carries
    the engine's diagnostics (e.g. a pass or sweep profile).
    """

    stats: KernelStats
    grid_blocks: int
    block_threads: int
    smem_per_block: int = 0
    regs_per_thread: int = 32
    profile: object = None
    span: Optional[str] = None
    steps: Tuple[Tuple[str, Mapping], ...] = ()
    args: Mapping = field(default_factory=dict)

    def _shape(self) -> dict:
        return {"grid_blocks": self.grid_blocks,
                "block_threads": self.block_threads,
                "smem_per_block": self.smem_per_block,
                "regs_per_thread": self.regs_per_thread}

    def price(self, spec: DeviceSpec) -> SimulatedTime:
        """Simulated time of this launch, with no side effects."""
        return price_launch(spec, self.stats.copy(), **self._shape())[1]

    def execute(self, spec: DeviceSpec) -> LaunchResult:
        """:func:`simulate_launch` this launch, inside its span if traced."""
        tracer = current_tracer()
        if self.span is None or not tracer.enabled:
            return simulate_launch(spec, self.stats.copy(), **self._shape())
        with tracer.span(self.span, "kernel") as span:
            for name, args in self.steps:
                with tracer.span(name, "kernel") as step:
                    step.annotate(**args)
            result = simulate_launch(spec, self.stats.copy(), **self._shape())
            span.set_sim_seconds(result.seconds)
            span.annotate(**self.args)
        return result


@dataclass(frozen=True)
class LaunchSchedule:
    """Every launch one engine issues for one operand pair, in order.

    ``unpriced`` holds counters recorded after pricing that never add
    seconds (the dense output write, a library's internal launches).
    """

    launches: Tuple[Launch, ...] = ()
    unpriced: KernelStats = field(default_factory=KernelStats)

    @property
    def profiles(self) -> List[object]:
        return [launch.profile for launch in self.launches
                if launch.profile is not None]

    def price(self, spec: DeviceSpec) -> float:
        """Simulated seconds of :meth:`execute`, with no side effects."""
        seconds = 0.0
        for launch in self.launches:
            seconds += launch.price(spec).seconds
        return seconds

    def execute(self, spec: DeviceSpec) -> Tuple[KernelStats, float]:
        """Launch every kernel; returns the merged stats and the total
        seconds (equal to :meth:`price`)."""
        stats, seconds = KernelStats(), 0.0
        for launch in self.launches:
            result = launch.execute(spec)
            stats.merge(result.stats)
            seconds += result.seconds
        return stats.merge(self.unpriced), seconds
