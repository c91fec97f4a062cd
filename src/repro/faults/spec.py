"""Declarative fault schedules: what fails, where, and when.

A :class:`FaultSpec` names one failure mode the simulated device can
exhibit — the modes the paper's own design anticipates — and the set of
injection *sites* it fires at. A site is the ``(tile_index, attempt,
depth)`` coordinate of one tile execution attempt, so a schedule is a pure
function of the plan: it never depends on thread scheduling, worker count,
or wall time, which is what lets a test replay the exact same fault
sequence under ``n_workers=1`` and ``n_workers=4`` and demand bit-identical
distances.

Fault kinds and the recovery each maps to (see
:class:`repro.faults.RecoveryPolicy`):

==========  ============================================  =================
kind        simulates                                     recovery
==========  ============================================  =================
transient   a failed ``cudaLaunchKernel`` (driver hiccup)  retry + backoff
stuck       a watchdog-killed hung launch                  retry + backoff
oom         tile output + workspace blowing device memory  split the tile
capacity    hash-table staging overflow (§3.3.2)           degrade strategy
slow        a straggler tile (no error, just late)         none (absorbed)
==========  ============================================  =================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["FaultKind", "FaultSpec", "FaultEvent", "fatal_specs"]


class FaultKind(str, enum.Enum):
    """The failure modes the injector can simulate."""

    TRANSIENT = "transient"
    STUCK = "stuck"
    OOM = "oom"
    CAPACITY = "capacity"
    SLOW = "slow"


def _as_index_set(value) -> Optional[Tuple[int, ...]]:
    """Normalize a tile/attempt/depth selector to a sorted tuple (None=any)."""
    if value is None:
        return None
    if isinstance(value, (int, np.integer)):
        return (int(value),)
    return tuple(sorted(int(v) for v in value))


@dataclass(frozen=True)
class FaultSpec:
    """One failure mode plus the deterministic set of sites it fires at.

    Parameters
    ----------
    kind:
        A :class:`FaultKind` (or its string value).
    tiles:
        Tile indices the fault may hit: an int, an iterable, or ``None``
        for every tile.
    attempts:
        Attempt numbers (0 = the first execution of a tile/sub-tile) the
        fault fires on. The default ``(0,)`` makes every fault recoverable:
        the retried / degraded / split re-execution runs at ``attempt >= 1``
        and passes. Including higher attempts forces repeated failures —
        e.g. ``attempts=(0, 1, 2, 3)`` defeats a ``max_retries=3`` policy.
    depths:
        Tile-split depths the fault applies at (0 = the planned tile, 1 =
        its halves, ...). ``oom`` faults at depth 0 and 1 force a two-level
        split cascade.
    probability:
        Per-site firing probability. Decided by a counter-based RNG keyed
        on ``(seed, spec, site)`` — deterministic, scheduling-independent.
    seconds:
        Extra simulated seconds a ``slow`` fault adds to the tile.
    """

    kind: FaultKind
    tiles: Optional[Tuple[int, ...]] = None
    attempts: Tuple[int, ...] = (0,)
    depths: Tuple[int, ...] = (0,)
    probability: float = 1.0
    seconds: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "kind", FaultKind(self.kind))
        object.__setattr__(self, "tiles", _as_index_set(self.tiles))
        object.__setattr__(self, "attempts", _as_index_set(self.attempts))
        object.__setattr__(self, "depths", _as_index_set(self.depths))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.seconds < 0.0:
            raise ValueError("seconds must be non-negative")

    # ------------------------------------------------------------------
    def matches(self, tile_index: int, attempt: int, depth: int,
                *, seed: int, spec_index: int) -> bool:
        """Whether this spec fires at the given site (pure function)."""
        if self.tiles is not None and tile_index not in self.tiles:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if self.depths is not None and depth not in self.depths:
            return False
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        coin = np.random.default_rng(
            [seed, spec_index, tile_index, attempt, depth]).random()
        return bool(coin < self.probability)


def fatal_specs(*, tiles=None) -> Tuple[FaultSpec, ...]:
    """A schedule that defeats any retry budget below 16 attempts.

    One ``stuck`` :class:`FaultSpec` firing at every attempt ``0..15``
    (all split depths) of the selected ``tiles`` — the canonical way for
    replication tests to kill a replica outright: the server's escalated
    :class:`~repro.faults.RecoveryPolicy` exhausts its ladder and the
    replica is marked unhealthy, triggering failover to a sibling.
    """
    return (FaultSpec(kind=FaultKind.STUCK, tiles=tiles,
                      attempts=tuple(range(16)),
                      depths=tuple(range(8))),)


@dataclass(frozen=True)
class FaultEvent:
    """One observed fault and how the executor responded to it.

    ``action`` is one of ``"injected"``, ``"retried"``, ``"degraded"``,
    ``"split"``, ``"slowed"``, or ``"unabsorbed"``; ``seconds`` carries the
    simulated cost the response added (backoff or straggler delay).
    """

    tile_index: int
    attempt: int
    depth: int
    kind: FaultKind
    action: str
    detail: str = ""
    seconds: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f", +{self.seconds:.3g}s" if self.seconds else ""
        return (f"FaultEvent(tile={self.tile_index}, attempt={self.attempt}, "
                f"depth={self.depth}, {self.kind.value} -> {self.action}"
                f"{extra})")
