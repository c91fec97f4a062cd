"""Recovery strategies for faulted tile executions.

The paper's §3.3 already contains an escape hatch for every capacity
failure its design can hit — dense staging falls back to the hash table,
over-degree rows partition across blocks, the bloom filter and finally the
host path absorb what remains. :class:`RecoveryPolicy` turns those escape
hatches into an explicit ladder the executor climbs *at runtime* instead of
failing the whole plan, following the distributed-SpGEMM practice of
re-dispatching failed partitions (see PAPERS.md, hybrid-communication
SpGEMM) and the design-principles guidance of preferring a cheaper strategy
over an abort:

- **transient / stuck** launches are retried with simulated exponential
  backoff (the backoff is charged to the tile's simulated seconds, never to
  wall time);
- **workspace OOM** splits the failing tile into sub-tiles along its longer
  axis and re-launches them (recursively, up to ``max_split_depth``) — the
  executor computes the tile's distances once, unsplit, after its launches
  settle, so they are bit-identical;
- **capacity** overflows degrade the row-cache strategy down the ladder
  dense → hash (with §3.3.3 degree-partitioned blocking built in) → bloom /
  binary-search → host reference kernel. Kernels without a row cache jump
  straight to the host rung. All rungs compute identical numerics; only the
  simulated schedule (and therefore the accounting) changes.

What the ladder cannot absorb — retries exhausted, a 1×1 tile OOMing, a
fault below the last rung — surfaces as
:class:`~repro.errors.ExecutionFaultError` with the fault log and a
resumable watermark.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import (
    DeviceOOMError,
    KernelLaunchError,
    TileStuckError,
    TransientLaunchFault,
)

__all__ = ["RecoveryPolicy", "RETRY", "SPLIT", "DEGRADE",
           "DEFAULT_DEGRADATION_LADDER"]

#: Recovery actions :meth:`RecoveryPolicy.classify` can choose.
RETRY = "retry"
SPLIT = "split"
DEGRADE = "degrade"

#: The §3.3 escape-hatch ladder, cheapest rung first. ``hash`` implies the
#: degree-partitioned blocking of §3.3.3 (``plan_partitions`` splits rows
#: that overflow a single table); ``host`` is the always-works reference.
DEFAULT_DEGRADATION_LADDER: Tuple[str, ...] = ("hash", "bloom", "host")


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a :class:`~repro.plan.PlanExecutor` absorbs device faults.

    Parameters
    ----------
    max_retries:
        Transient/stuck launch retries per tile attempt chain before the
        fault is declared unabsorbable.
    backoff_base_seconds, backoff_factor:
        Simulated exponential backoff: retry ``r`` (1-based) waits
        ``base * factor**(r - 1)`` simulated seconds, charged to the tile's
        seconds (and reported in ``PlanExecutionReport.backoff_seconds``).
    max_split_depth:
        How many times one planned tile may be halved on workspace OOM
        before the fault is unabsorbable (depth d yields up to ``2**d``
        sub-tiles).
    degradation_ladder:
        Row-cache strategies to fall back through on capacity faults, tried
        left to right; ``"host"`` means the exact host reference kernel.
        Rungs that don't apply to the running kernel (e.g. ``"hash"`` for a
        kernel without a row cache) are skipped.
    """

    max_retries: int = 3
    backoff_base_seconds: float = 0.002
    backoff_factor: float = 2.0
    max_split_depth: int = 4
    degradation_ladder: Tuple[str, ...] = DEFAULT_DEGRADATION_LADDER

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_split_depth < 0:
            raise ValueError("max_split_depth must be non-negative")
        object.__setattr__(self, "degradation_ladder",
                           tuple(self.degradation_ladder))

    # ------------------------------------------------------------------
    def backoff_seconds(self, retry_number: int) -> float:
        """Simulated wait before the ``retry_number``-th retry (1-based)."""
        return self.backoff_base_seconds * (
            self.backoff_factor ** max(0, retry_number - 1))

    def classify(self, exc: Exception) -> Optional[str]:
        """Map a tile failure to a recovery action (None = not recoverable).

        Transient faults retry; OOM splits; every other launch-shaped
        failure — injected capacity overflows but also *organic*
        :class:`KernelLaunchError`\\ s such as a dense row cache or an
        expand-sort-contract pair that cannot fit shared memory — walks the
        degradation ladder, which is exactly the paper's §3.3.2 response.
        """
        if isinstance(exc, (TransientLaunchFault, TileStuckError)):
            return RETRY
        if isinstance(exc, DeviceOOMError):
            return SPLIT
        if isinstance(exc, KernelLaunchError):
            return DEGRADE
        return None

    # ------------------------------------------------------------------
    def degraded_clone(self, prototype, rung: str):
        """A copy of the kernel configured for ``rung``, or None if
        inapplicable.

        The copy computes the same numerics as the prototype (every engine
        in this repo evaluates the block with the exact vectorized
        semiring), so degradation changes accounting, never distances.
        Engines hold configuration only, so a shallow copy is independent.
        """
        if rung == "host":
            from repro.kernels.host import HostKernel

            return HostKernel(prototype.spec)
        if not hasattr(prototype, "row_cache"):
            return None
        from repro.kernels.strategy import RowCacheStrategy

        kernel = copy.copy(prototype)
        kernel.row_cache = RowCacheStrategy(rung)
        return kernel

    def degradation_clones(self, prototype):
        """Yield ``(rung, kernel)`` pairs down the ladder, skipping rungs
        the prototype cannot express."""
        for rung in self.degradation_ladder:
            kernel = self.degraded_clone(prototype, rung)
            if kernel is not None:
                yield rung, kernel
