"""Declarative SLOs, error budgets, and burn-rate alerts over serve metrics.

The serving layer (:mod:`repro.serve`) records everything on a *simulated*
clock — latency histograms, deadline and partial-result counters — so SLO
evaluation here is fully deterministic: the same request stream produces
the same quantiles, the same burn rates, and the same alerts at the same
simulated instants, every run.

Model (standard SRE arithmetic):

- An :class:`SLObjective` declares either a **quantile** target ("p99 of
  ``serve_latency_ms`` ≤ 50 ms") or a **ratio** target ("deadline misses /
  requests ≤ 1%"). Each objective implies an *allowed bad fraction*:
  ``1 - q`` for a quantile objective (1% of requests may exceed the
  threshold at p99), the threshold itself for a ratio objective.
- :class:`SLOMonitor` snapshots each objective's cumulative ``(bad, total)``
  pair at every :meth:`~SLOMonitor.observe` tick of the caller-driven
  simulated clock. The **burn rate** over the trailing window is
  ``(Δbad / Δtotal) / allowed`` — burn 1.0 spends the error budget exactly
  at the sustainable rate, burn N spends it N× too fast. A tick whose burn
  exceeds the objective's ``burn_alert`` multiplier appends a structured
  :class:`SLOAlert`.
- Quantile objectives count "bad" by interpolating the cumulative buckets
  (:func:`~repro.obs.metrics.count_at_or_below`), so bad counts are
  fractional but *reconcile with the histogram*: bad + good = the
  ``serve_latency_ms`` count, exactly. Ratio objectives read the ``serve_*``
  counters directly, so their bad counts equal
  ``serve_deadline_missed_total`` / ``serve_partial_results_total`` to the
  integer (asserted in ``tests/obs/test_slo.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry, count_at_or_below

__all__ = ["SLObjective", "SLOStatus", "SLOAlert", "SLOMonitor",
           "default_serve_objectives", "priority_latency_objectives"]


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective over metrics in a registry.

    ``kind="quantile"``: the ``q``-quantile of histogram ``metric`` must
    stay at or below ``threshold`` (same unit as the histogram); the
    allowed bad fraction is ``1 - q``.

    ``kind="ratio"``: counter ``numerator`` divided by counter (or
    histogram count) ``denominator`` must stay at or below ``threshold``;
    the allowed bad fraction is ``threshold``.
    """

    name: str
    kind: str
    threshold: float
    metric: Optional[str] = None
    q: Optional[float] = None
    numerator: Optional[str] = None
    denominator: Optional[str] = None
    labels: Dict[str, str] = field(default_factory=dict)
    #: windowed burn-rate multiplier above which an alert fires
    burn_alert: float = 1.0
    description: str = ""

    def __post_init__(self):
        if self.kind == "quantile":
            if not self.metric or self.q is None:
                raise ValueError(
                    f"objective {self.name!r}: kind='quantile' needs "
                    f"metric= and q=")
            if not 0.0 < self.q < 1.0:
                raise ValueError(
                    f"objective {self.name!r}: q must be in (0, 1), got "
                    f"{self.q!r}")
        elif self.kind == "ratio":
            if not self.numerator or not self.denominator:
                raise ValueError(
                    f"objective {self.name!r}: kind='ratio' needs "
                    f"numerator= and denominator=")
            if not 0.0 < self.threshold < 1.0:
                raise ValueError(
                    f"objective {self.name!r}: ratio threshold must be in "
                    f"(0, 1), got {self.threshold!r}")
        else:
            raise ValueError(
                f"objective {self.name!r}: kind must be 'quantile' or "
                f"'ratio', got {self.kind!r}")
        if self.burn_alert <= 0:
            raise ValueError(
                f"objective {self.name!r}: burn_alert must be positive")

    @property
    def allowed_bad_fraction(self) -> float:
        return (1.0 - self.q) if self.kind == "quantile" else self.threshold

    # -- cumulative (bad, total) extraction ----------------------------
    def counts(self, metrics: MetricsRegistry) -> Tuple[float, float]:
        """Cumulative ``(bad, total)`` implied by the registry right now."""
        if self.kind == "quantile":
            hist = metrics.get(self.metric)
            if hist is None:
                return 0.0, 0.0
            if not isinstance(hist, Histogram):
                raise TypeError(
                    f"objective {self.name!r}: metric {self.metric!r} is a "
                    f"{hist.kind}, need a histogram")
            total = float(hist.count(**self.labels))
            good = count_at_or_below(hist.buckets,
                                     hist.cumulative_counts(**self.labels),
                                     total, self.threshold)
            return total - good, total
        num = metrics.get(self.numerator)
        den = metrics.get(self.denominator)
        bad = 0.0 if num is None else (
            float(num.count(**self.labels)) if isinstance(num, Histogram)
            else float(num.value(**self.labels)))
        total = 0.0 if den is None else (
            float(den.count(**self.labels)) if isinstance(den, Histogram)
            else float(den.value(**self.labels)))
        return bad, total

    def observed(self, metrics: MetricsRegistry) -> float:
        """The quantity the objective constrains, evaluated cumulatively:
        the interpolated quantile, or the bad/total ratio."""
        if self.kind == "quantile":
            hist = metrics.get(self.metric)
            if hist is None or not isinstance(hist, Histogram):
                return float("nan")
            return hist.quantile(self.q, **self.labels)
        bad, total = self.counts(metrics)
        return bad / total if total > 0 else 0.0


@dataclass(frozen=True)
class SLOStatus:
    """One objective's state at one :meth:`SLOMonitor.observe` tick."""

    objective: str
    at_ms: float
    #: the constrained quantity (quantile value, or bad ratio)
    observed: float
    threshold: float
    #: cumulative compliance: observed ≤ threshold
    ok: bool
    #: cumulative totals since the registry started
    bad: float
    total: float
    #: trailing-window deltas and the burn rate they imply
    window_bad: float
    window_total: float
    burn_rate: float
    #: fraction of the cumulative error budget still unspent (can go
    #: negative once the objective is blown)
    budget_remaining: float


@dataclass(frozen=True)
class SLOAlert:
    """A burn-rate violation at one simulated instant."""

    at_ms: float
    objective: str
    burn_rate: float
    burn_alert: float
    window_ms: float
    window_bad: float
    window_total: float
    message: str


class SLOMonitor:
    """Windowed SLO evaluation on a caller-driven simulated clock.

    The monitor owns no clock: the serving harness calls
    :meth:`observe(now_ms)` at the instants it cares about (after each
    drain, every simulated second, …) with non-decreasing timestamps.
    Construction takes the baseline snapshot, so the first window measures
    only traffic the monitor actually watched.
    """

    def __init__(self, metrics: MetricsRegistry,
                 objectives: Sequence[SLObjective], *,
                 window_ms: float = 1000.0, start_ms: float = 0.0):
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if not objectives:
            raise ValueError("need at least one objective")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.metrics = metrics
        self.objectives: Tuple[SLObjective, ...] = tuple(objectives)
        self.window_ms = float(window_ms)
        #: every alert ever fired, in simulated-time order
        self.alerts: List[SLOAlert] = []
        #: the statuses of the most recent observe tick
        self.last_statuses: Tuple[SLOStatus, ...] = ()
        self._last_ms = float(start_ms)
        # snapshots[i] = (at_ms, {objective.name: (bad, total)})
        self._snapshots: List[Tuple[float, Dict[str, Tuple[float, float]]]] \
            = [(float(start_ms), self._snapshot())]

    @property
    def last_ms(self) -> float:
        """Simulated timestamp of the most recent observe tick (the
        baseline ``start_ms`` before any tick). The clock is monotone:
        callers polling the monitor opportunistically — e.g. the
        :class:`~repro.serve.BackpressureController` at request arrival —
        must skip ticks earlier than this."""
        return self._last_ms

    def _snapshot(self) -> Dict[str, Tuple[float, float]]:
        return {o.name: o.counts(self.metrics) for o in self.objectives}

    def observe(self, now_ms: float) -> Tuple[SLOStatus, ...]:
        """Snapshot the registry at ``now_ms`` and evaluate every objective.

        Burn rates compare against the snapshot at the trailing edge of
        the window (the newest snapshot at or before ``now_ms -
        window_ms``, else the baseline). Alerts for objectives whose burn
        exceeds their ``burn_alert`` are appended to :attr:`alerts`.
        """
        now_ms = float(now_ms)
        if now_ms < self._last_ms:
            raise ValueError(
                f"observe({now_ms}) is before the last tick "
                f"({self._last_ms}); the simulated clock is monotone")
        self._last_ms = now_ms
        current = self._snapshot()

        edge = now_ms - self.window_ms
        baseline = self._snapshots[0][1]
        for at_ms, snap in self._snapshots:
            if at_ms <= edge:
                baseline = snap
            else:
                break
        self._snapshots.append((now_ms, current))

        statuses = []
        for obj in self.objectives:
            bad, total = current[obj.name]
            prev_bad, prev_total = baseline.get(obj.name, (0.0, 0.0))
            w_bad = max(0.0, bad - prev_bad)
            w_total = max(0.0, total - prev_total)
            allowed = obj.allowed_bad_fraction
            burn = (w_bad / w_total) / allowed if w_total > 0 else 0.0
            observed = obj.observed(self.metrics)
            ok = not observed > obj.threshold  # NaN (no data) counts as ok
            budget = (1.0 - (bad / total) / allowed) if total > 0 else 1.0
            status = SLOStatus(
                objective=obj.name, at_ms=now_ms, observed=observed,
                threshold=obj.threshold, ok=ok, bad=bad, total=total,
                window_bad=w_bad, window_total=w_total, burn_rate=burn,
                budget_remaining=budget)
            statuses.append(status)
            if burn > obj.burn_alert:
                self.alerts.append(SLOAlert(
                    at_ms=now_ms, objective=obj.name, burn_rate=burn,
                    burn_alert=obj.burn_alert, window_ms=self.window_ms,
                    window_bad=w_bad, window_total=w_total,
                    message=(
                        f"{obj.name}: burn {burn:.2f}x over the last "
                        f"{self.window_ms:g}ms ({w_bad:g} bad of "
                        f"{w_total:g}; allowed fraction {allowed:g})")))
        self.last_statuses = tuple(statuses)
        return self.last_statuses

    def render(self) -> str:
        """Plain-text status table for the latest tick."""
        lines = [f"{'objective':<24} {'observed':>10} {'threshold':>10} "
                 f"{'ok':>4} {'burn':>7} {'budget':>8}"]
        for s in self.last_statuses:
            lines.append(
                f"{s.objective:<24} {s.observed:>10.4f} "
                f"{s.threshold:>10.4f} {'yes' if s.ok else 'NO':>4} "
                f"{s.burn_rate:>7.2f} {s.budget_remaining:>7.1%}")
        if self.alerts:
            lines.append("")
            lines.append(f"{len(self.alerts)} alert(s):")
            lines.extend(f"  [{a.at_ms:>9.2f}ms] {a.message}"
                         for a in self.alerts)
        return "\n".join(lines)


def default_serve_objectives(*, p99_latency_ms: float = 50.0,
                             deadline_miss_rate: float = 0.01,
                             burn_alert: float = 1.0,
                             ) -> Tuple[SLObjective, ...]:
    """The standard objective set for a :class:`~repro.serve.Server`'s
    ``serve_*`` metric family (partial results: at most 1%)."""
    return (
        SLObjective(
            name="p99_latency_ms", kind="quantile",
            metric="serve_latency_ms", q=0.99, threshold=p99_latency_ms,
            burn_alert=burn_alert,
            description="99th-percentile simulated request latency"),
        SLObjective(
            name="deadline_miss_rate", kind="ratio",
            numerator="serve_deadline_missed_total",
            denominator="serve_requests_total",
            threshold=deadline_miss_rate, burn_alert=burn_alert,
            description="requests completed after their deadline"),
        SLObjective(
            name="partial_result_rate", kind="ratio",
            numerator="serve_partial_results_total",
            denominator="serve_requests_total",
            threshold=0.01, burn_alert=burn_alert,
            description="requests answered from a degraded shard set"),
    )


def priority_latency_objectives(
        thresholds_ms: Dict[int, float], *, q: float = 0.99,
        burn_alert: float = 1.0) -> Tuple[SLObjective, ...]:
    """Per-priority-class latency objectives over the labeled
    ``serve_priority_latency_ms`` histogram.

    ``thresholds_ms`` maps a priority class (lower = more important) to
    its ``q``-quantile latency ceiling in simulated ms, e.g.
    ``{0: 20.0, 1: 50.0}``. The :class:`~repro.serve.BackpressureController`
    watches the class-0 objective's burn rate to drive its shed ladder.
    """
    return tuple(
        SLObjective(
            name=f"p{q * 100:g}_latency_ms_priority_{prio}",
            kind="quantile", metric="serve_priority_latency_ms",
            q=q, threshold=float(threshold_ms),
            labels={"priority": str(int(prio))}, burn_alert=burn_alert,
            description=(f"{q:.0%}-ile simulated latency for priority-"
                         f"{prio} requests"))
        for prio, threshold_ms in sorted(thresholds_ms.items()))
