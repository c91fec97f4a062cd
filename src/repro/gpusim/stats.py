"""Kernel execution statistics: the currency of the simulated device.

Every kernel in :mod:`repro.kernels` walks its real schedule (per block /
per warp, vectorized) and *counts* what the hardware would do: lane
arithmetic, shared-memory traffic and bank conflicts, coalesced vs
uncoalesced global transactions, atomics, divergent branches, hash-probe
serialization, and sort compare-exchanges. The cost model then converts a
:class:`KernelStats` into simulated time. Keeping the counters explicit —
rather than hiding them in a single "cycles" scalar — is what lets the
ablation benches show *why* one strategy beats another, mirroring the
paper's Section 3 narrative.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import Dict

__all__ = ["KernelStats"]


@dataclass
class KernelStats:
    """Additive counters for one (or several merged) kernel launches."""

    #: plain arithmetic lane-operations (adds, multiplies, compares)
    alu_ops: float = 0.0
    #: transcendental lane-operations (log, sqrt, pow) — slower units
    special_ops: float = 0.0
    #: shared-memory lane accesses (reads + writes)
    smem_accesses: float = 0.0
    #: extra serialized shared-memory cycles caused by bank conflicts
    bank_conflicts: float = 0.0
    #: 128-byte global-memory transactions (already coalescing-adjusted)
    gmem_transactions: float = 0.0
    #: raw global lane-loads that could not be coalesced (each is its own
    #: transaction; included in gmem_transactions, tracked for diagnostics)
    uncoalesced_loads: float = 0.0
    #: global atomic operations
    atomics: float = 0.0
    #: serialized divergent branches within warps
    divergent_branches: float = 0.0
    #: compare-exchange steps spent inside shared-memory sorts (Algorithm 1)
    sort_steps: float = 0.0
    #: linear-probing steps beyond the first slot (hash-table strategy)
    probe_steps: float = 0.0
    #: thread blocks launched
    blocks_launched: float = 0.0
    #: warps launched
    warps_launched: float = 0.0
    #: kernel launches performed
    kernel_launches: float = 0.0
    #: bytes of device workspace required beyond inputs/outputs
    workspace_bytes: float = 0.0
    #: bytes of per-block shared memory requested (max over launches)
    smem_bytes_per_block: float = 0.0

    # ------------------------------------------------------------------
    def merge(self, other: "KernelStats") -> "KernelStats":
        """Accumulate another launch's counters into this one.

        .. warning:: **In place.** ``self`` is mutated and returned (so calls
           chain); no new object is created. Callers that need the operands
           preserved must :meth:`copy` first —
           ``KernelStats().merge(a).merge(b)`` is the non-destructive form.
        """
        mine, theirs = self.__dict__, other.__dict__
        for name in _ADDITIVE:
            mine[name] += theirs[name]
        for name in _PEAK:
            mine[name] = max(mine[name], theirs[name])
        return self

    def copy(self) -> "KernelStats":
        """An independent copy (safe to :meth:`merge` into)."""
        return copy.copy(self)

    def scaled(self, factor: float) -> "KernelStats":
        """A copy with every additive counter multiplied by ``factor``.

        Used when a sampled subset of blocks stands in for the full grid.
        """
        out = self.copy()
        for name in _ADDITIVE:
            setattr(out, name, getattr(self, name) * factor)
        return out

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def coalescing_efficiency(self) -> float:
        """Fraction of global transactions that were coalesced."""
        if self.gmem_transactions <= 0:
            return 1.0
        return max(0.0, 1.0 - self.uncoalesced_loads / self.gmem_transactions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={v:.3g}" for k, v in self.as_dict().items()
                         if v)
        return f"KernelStats({body})"


#: counters that take the max over launches instead of summing
_PEAK = ("smem_bytes_per_block", "workspace_bytes")
_ADDITIVE = tuple(f.name for f in fields(KernelStats) if f.name not in _PEAK)
