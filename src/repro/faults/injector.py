"""Deterministic, seeded fault injection for plan and distributed execution.

A :class:`FaultInjector` owns a schedule of :class:`FaultSpec` entries and
decides — as a pure function of ``(seed, spec, tile_index, attempt,
depth)`` — which faults fire at each execution attempt. The plan executor
wraps every tile attempt in :meth:`FaultInjector.tile_scope` and the
distributed executor every transfer attempt in
:meth:`FaultInjector.transfer_scope`; either installs the site's
checkpoint as this thread's :func:`repro.gpusim.executor.fault_hook`
(thread-local, so concurrent workers never see each other's sites), which

- :meth:`repro.gpusim.executor.Launch.execute` consults, raising
  ``transient`` / ``stuck`` faults exactly where a real
  ``cudaLaunchKernel`` would fail;
- :func:`repro.gpusim.interconnect.simulate_transfer` consults, raising
  :class:`~repro.errors.LinkTransientFault` where a real NCCL send would
  fail;
- :func:`kernel_checkpoint`, called by
  :meth:`repro.kernels.base.PairwiseKernel.run`, consults, raising ``oom``
  (workspace) and ``capacity`` (hash staging) faults at the point the
  corresponding real allocations happen.

Faults raised here subclass both the genuine error type (so recovery code
is exercised exactly as it would be by organic failures) and the
:class:`~repro.errors.InjectedFault` marker (so the executor can report
unabsorbed schedules as structured :class:`~repro.errors.ExecutionFaultError`).
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import (
    InjectedHashCapacityFault,
    LinkTransientFault,
    TileStuckError,
    TileWorkspaceOOM,
    TransientLaunchFault,
)
from repro.faults.spec import FaultEvent, FaultKind, FaultSpec
from repro.gpusim.executor import fault_checkpoint, fault_hook

__all__ = ["FaultInjector", "kernel_checkpoint"]

#: The injected error of each fault kind: the genuine error type it
#: impersonates and its message, formatted with the site's coordinates.
_ERRORS = {
    FaultKind.TRANSIENT: (
        TransientLaunchFault,
        "injected transient launch failure: tile {tile} attempt {attempt}"),
    FaultKind.STUCK: (
        TileStuckError,
        "injected stuck launch: tile {tile} attempt {attempt} exceeded the "
        "simulated watchdog"),
    FaultKind.OOM: (
        TileWorkspaceOOM,
        "injected workspace OOM: tile {tile} attempt {attempt} (depth "
        "{depth}) blew the simulated device budget"),
    FaultKind.CAPACITY: (
        InjectedHashCapacityFault,
        "injected hash-capacity overflow: tile {tile} attempt {attempt} "
        "staged row exceeds table capacity"),
}


@dataclass
class _SiteFaults:
    """Pre-resolved fault decisions for one (tile, attempt, depth) site."""

    tile_index: int
    attempt: int
    depth: int
    launch_fault: Optional[FaultSpec] = None   # transient | stuck
    kernel_fault: Optional[FaultSpec] = None   # oom | capacity
    slow_seconds: float = 0.0

    def error(self, kind: FaultKind) -> Exception:
        """The injected error a ``kind`` fault raises at this site."""
        exc_type, message = _ERRORS[kind]
        return exc_type(message.format(tile=self.tile_index,
                                       attempt=self.attempt,
                                       depth=self.depth))


class FaultInjector:
    """Replayable device-fault schedule for one or many executions.

    Parameters
    ----------
    specs:
        The :class:`FaultSpec` entries of the schedule (order matters only
        for precedence among same-site matches: first match wins).
    seed:
        Seed of the per-site probability coins. Two injectors with equal
        specs and seed produce identical fault sequences for the same plan,
        regardless of worker count — the replay guarantee every
        determinism test leans on.
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._log: List[FaultEvent] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def fault_log(self) -> Tuple[FaultEvent, ...]:
        """Injection events recorded so far (sorted for determinism)."""
        with self._lock:
            return tuple(sorted(
                self._log,
                key=lambda e: (e.tile_index, e.depth, e.attempt,
                               e.kind.value)))

    def record(self, event: FaultEvent) -> None:
        with self._lock:
            self._log.append(event)

    def reset_log(self) -> None:
        with self._lock:
            self._log.clear()

    # ------------------------------------------------------------------
    def _matching(self, kinds, tile_index: int, attempt: int,
                  depth: int) -> Optional[FaultSpec]:
        for i, spec in enumerate(self.specs):
            if spec.kind in kinds and spec.matches(
                    tile_index, attempt, depth,
                    seed=self.seed, spec_index=i):
                return spec
        return None

    def site_faults(self, tile_index: int, attempt: int,
                    depth: int) -> _SiteFaults:
        """Resolve every fault decision for one site up front."""
        site = _SiteFaults(tile_index=tile_index, attempt=attempt,
                           depth=depth)
        site.launch_fault = self._matching(
            (FaultKind.TRANSIENT, FaultKind.STUCK), tile_index, attempt,
            depth)
        site.kernel_fault = self._matching(
            (FaultKind.OOM, FaultKind.CAPACITY), tile_index, attempt, depth)
        for i, spec in enumerate(self.specs):
            if spec.kind is FaultKind.SLOW and spec.matches(
                    tile_index, attempt, depth,
                    seed=self.seed, spec_index=i):
                site.slow_seconds += spec.seconds
        return site

    # ------------------------------------------------------------------
    @contextmanager
    def tile_scope(self, tile_index: int, attempt: int, depth: int):
        """Arm this thread's fault hook for one tile execution attempt."""
        site = self.site_faults(tile_index, attempt, depth)
        with fault_hook(functools.partial(self._checkpoint, site)):
            yield site

    def transfer_scope(self, step_index: int, attempt: int):
        """Arm this thread's fault hook for one transfer attempt at one
        comm step: the site ``(step_index, attempt, 0)``, since transfers
        never split.

        Links fail only transiently (a transfer completes or is retried
        whole; there is nothing to split or degrade), so a schedule
        holding any other kind is refused with a ``ValueError``.
        """
        for spec in self.specs:
            if spec.kind is not FaultKind.TRANSIENT:
                raise ValueError(
                    f"link faults support only transient specs, got "
                    f"{spec.kind.value!r}")
        return self.tile_scope(step_index, attempt, 0)

    def _checkpoint(self, site: _SiteFaults, operation: str,
                    **detail) -> None:
        """The fault hook of one scope: fire the site's fault, if any.

        Each fault fires once per attempt: a launch or transfer fault on
        the attempt's first launch or transfer, a kernel fault on kernel
        entry.
        """
        if operation == "kernel":
            fault, site.kernel_fault = site.kernel_fault, None
            where = type(detail["kernel"]).__name__
        else:
            fault, site.launch_fault = site.launch_fault, None
            where = f"simulate_{operation}"
        if fault is None:
            return
        self.record(FaultEvent(tile_index=site.tile_index,
                               attempt=site.attempt, depth=site.depth,
                               kind=fault.kind, action="injected",
                               detail=where))
        if operation == "transfer":
            raise LinkTransientFault(
                f"injected link fault: comm step {site.tile_index} "
                f"({detail['src']}->{detail['dst']}, "
                f"{int(detail['nbytes'])} bytes), attempt {site.attempt}")
        raise site.error(fault.kind)


def kernel_checkpoint(kernel) -> None:
    """Give the thread's active injector (if any) a shot at this run.

    Called by :meth:`PairwiseKernel.run` on entry — the simulated moment
    the kernel's device workspace and shared-memory staging structures are
    allocated.
    """
    fault_checkpoint("kernel", kernel=kernel)
