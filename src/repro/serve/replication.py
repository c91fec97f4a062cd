"""Per-shard replica pools: load-balanced routing, health, and probes.

Every shard of a :class:`~repro.serve.ShardedIndex` can be resident on
``n_replicas`` sibling devices holding bit-identical prepared operands.
:class:`ReplicaRouter` owns the mutable serving-side state of those
replicas:

- **routing** — :meth:`pick` returns the shard's least-loaded live
  replica (minimum simulated ``free_ms``, ties broken by ``replica_id``),
  so batch fan-out spreads across siblings deterministically on the
  simulated clock;
- **health** — a replica that exhausts the server's escalated
  :class:`~repro.faults.RecoveryPolicy` is marked unhealthy via
  :meth:`mark_unhealthy` and excluded from routing; the batch fails over
  to a sibling *before* the PR-4 degrade-to-partial path, which now only
  triggers when every replica of a shard is dead;
- **re-admission** — an unhealthy replica becomes probe-eligible after
  ``probe_backoff_ms`` of simulated time; :meth:`run_probes` flips a
  seeded per-shard coin (``probe_success_rate``) per eligible replica, so
  the readmission sequence is a pure function of the configuration, never
  of wall time or thread scheduling.

The router holds no locks: each shard's pool is touched by exactly one
fan-out worker per batch, and batches are serialized by the
:class:`~repro.serve.Server` lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["ReplicaState", "ProbeOutcome", "ReplicaRouter"]


@dataclass
class ReplicaState:
    """One replica's mutable serving state on the simulated clock."""

    shard_id: int
    replica_id: int
    #: simulated ms at which the replica's device becomes free
    free_ms: float = 0.0
    healthy: bool = True
    #: earliest simulated ms a health probe may run (unhealthy only)
    probe_at_ms: Optional[float] = None
    #: times this replica exhausted its recovery ladder
    n_failures: int = 0
    #: times a health probe readmitted it
    n_readmissions: int = 0

    @property
    def key(self) -> Tuple[int, int]:
        return (self.shard_id, self.replica_id)


@dataclass(frozen=True)
class ProbeOutcome:
    """One health-probe decision (recorded for reconciliation)."""

    at_ms: float
    shard_id: int
    replica_id: int
    readmitted: bool


@dataclass
class ReplicaRouter:
    """Deterministic replica routing + health for one sharded index."""

    n_shards: int
    n_replicas: int
    #: simulated ms an unhealthy replica waits before its first probe
    #: (and between failed probes)
    probe_backoff_ms: float = 50.0
    #: per-probe success probability; 1.0 readmits on the first probe
    probe_success_rate: float = 1.0
    probe_seed: int = 0
    #: every probe ever run, in simulated-time order per shard
    probe_log: List[ProbeOutcome] = field(default_factory=list)

    def __post_init__(self):
        if self.n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if self.n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        if self.probe_backoff_ms <= 0:
            raise ValueError(
                f"probe_backoff_ms must be positive (a zero backoff would "
                f"re-admit a replica within the batch that killed it), got "
                f"{self.probe_backoff_ms!r}")
        if not 0.0 <= self.probe_success_rate <= 1.0:
            raise ValueError("probe_success_rate must be within [0, 1]")
        self._pools: List[List[ReplicaState]] = [
            [ReplicaState(shard_id=s, replica_id=r)
             for r in range(self.n_replicas)]
            for s in range(self.n_shards)
        ]
        # One RNG per shard keyed on (seed, shard): probe coins are
        # independent of which threads fan the shards out.
        self._rngs = [np.random.default_rng([int(self.probe_seed), s])
                      for s in range(self.n_shards)]

    # ------------------------------------------------------------------
    def pool(self, shard_id: int) -> Tuple[ReplicaState, ...]:
        return tuple(self._pools[shard_id])

    def replica(self, shard_id: int, replica_id: int) -> ReplicaState:
        return self._pools[shard_id][replica_id]

    @property
    def n_unhealthy(self) -> int:
        return sum(1 for pool in self._pools for r in pool if not r.healthy)

    # ------------------------------------------------------------------
    def run_probes(self, shard_id: int, now_ms: float,
                   ) -> List[ProbeOutcome]:
        """Probe every probe-eligible unhealthy replica of one shard.

        A successful probe readmits the replica (healthy, device free at
        ``now_ms``); a failed probe pushes ``probe_at_ms`` back by another
        backoff. Outcomes are appended to :attr:`probe_log` and returned.
        """
        outcomes: List[ProbeOutcome] = []
        for state in self._pools[shard_id]:
            if state.healthy or state.probe_at_ms is None:
                continue
            if now_ms < state.probe_at_ms:
                continue
            ok = (self.probe_success_rate >= 1.0
                  or bool(self._rngs[shard_id].random()
                          < self.probe_success_rate))
            outcome = ProbeOutcome(at_ms=float(now_ms), shard_id=shard_id,
                                   replica_id=state.replica_id,
                                   readmitted=ok)
            outcomes.append(outcome)
            self.probe_log.append(outcome)
            if ok:
                state.healthy = True
                state.probe_at_ms = None
                state.free_ms = max(state.free_ms, float(now_ms))
                state.n_readmissions += 1
            else:
                state.probe_at_ms = float(now_ms) + self.probe_backoff_ms
        return outcomes

    def pick(self, shard_id: int,
             now_ms: float) -> Optional[ReplicaState]:
        """The least-loaded live replica of a shard (None = all dead).

        Deterministic: minimum ``(free_ms, replica_id)`` over the healthy
        pool. Callers should :meth:`run_probes` first so a backed-off
        replica can rejoin the candidate set.
        """
        live = [r for r in self._pools[shard_id] if r.healthy]
        if not live:
            return None
        return min(live, key=lambda r: (r.free_ms, r.replica_id))

    def mark_unhealthy(self, state: ReplicaState, now_ms: float) -> None:
        """Take a replica out of rotation; probe-eligible after backoff."""
        state.healthy = False
        state.n_failures += 1
        state.probe_at_ms = float(now_ms) + self.probe_backoff_ms

    def occupy(self, state: ReplicaState, until_ms: float) -> None:
        """Charge a batch's completion to a replica's device."""
        state.free_ms = max(state.free_ms, float(until_ms))
