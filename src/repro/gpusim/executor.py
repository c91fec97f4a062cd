"""Launch bookkeeping for simulated kernels.

An engine describes its work as a :class:`LaunchSchedule`: the
:class:`Launch`\\ es it would issue, each one counted work
(:class:`KernelStats`) plus a launch shape. The schedule is plain data, so
it has exactly two uses, and they can never drift apart:

- :meth:`LaunchSchedule.price` — side-effect-free pricing (the autotuner's
  and the plan estimator's dry runs);
- :meth:`LaunchSchedule.execute` — one :meth:`Launch.execute` per launch,
  which adds the fault checkpoint to the same pricing, merges the
  per-launch stats and sums the seconds.

Launching records nothing. :meth:`LaunchSchedule.execute` appends each
launch to the caller's *launch log*; the plan executor's observer
(:mod:`repro.obs.record`) turns the logs of the tiles it delivered into
kernel spans, ``gpusim.launch`` events and the launch metrics, in tile
order, when the plan completes or aborts.
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

__all__ = ["Launch", "LaunchResult", "LaunchSchedule", "fault_hook",
           "fault_checkpoint"]

#: Thread-local fault hook. Fault injection (:mod:`repro.faults`) installs
#: a callback here for one tile or transfer attempt, and
#: :func:`fault_checkpoint` hands it each simulated operation of the
#: attempt: :meth:`Launch.execute` and
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


@dataclass(frozen=True)
class Launch:
    """One kernel launch: counted work, launch shape, and how it is traced.

    ``span`` names the ``kernel``-category span that wraps the launch in
    the trace (``None``: the launch event lands on the enclosing span);
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
        """Launch: the fault checkpoint, then :meth:`price`'s pricing with
        the shape stamped onto a copy of the stats.

        Raises :class:`repro.errors.KernelLaunchError` when the block shape
        or shared-memory request can never be scheduled on ``spec`` — the
        same failure a real ``cudaLaunchKernel`` would report. An
        installed fault hook (see :func:`fault_hook`) may raise first,
        impersonating a transient driver failure or a hung launch.
        """
        fault_checkpoint("launch")
        stats = self.stats.copy()
        occupancy, time = price_launch(spec, stats, **self._shape())
        return LaunchResult(stats=stats, occupancy=occupancy, time=time)


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

    def execute(self, spec: DeviceSpec,
                log: list) -> Tuple[KernelStats, float]:
        """Launch every kernel; returns the merged stats and the total
        seconds (equal to :meth:`price`).

        Each launch goes into the launch ``log`` as ``(launch, result)``,
        or as ``(launch, type of the error)`` for the one a fault stopped.
        """
        stats, seconds = KernelStats(), 0.0
        for launch in self.launches:
            try:
                result = launch.execute(spec)
            except Exception as exc:
                log.append((launch, type(exc)))
                raise
            log.append((launch, result))
            stats.merge(result.stats)
            seconds += result.seconds
        return stats.merge(self.unpriced), seconds
