"""Seeded arrival-trace generators for serving benchmarks and tests.

Real k-NN serving traffic is not Poisson: inter-arrival gaps are
heavy-tailed (a few long silences between dense bursts) and the rate
swings diurnally. :func:`heavy_tailed_trace` models both on the simulated
clock — lognormal inter-arrival gaps (heavy right tail) modulated by a
sinusoidal "time-of-day" intensity, with a fixed priority mix and
per-class relative deadlines — as a pure function of its seed, so bench
cells and chaos tests replay the exact same burst structure every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["TraceRequest", "heavy_tailed_trace"]

#: priority classes and their shares of the requests: mostly sheddable
#: (class 2) traffic
_PRIORITIES = (0, 1, 2)
_PRIORITY_SHARES = (0.2, 0.3, 0.5)


@dataclass(frozen=True)
class TraceRequest:
    """One synthetic arrival: when, how big, how urgent."""

    arrival_ms: float
    n_rows: int
    priority: int
    #: absolute simulated deadline (None = best-effort)
    deadline_ms: Optional[float] = None


def heavy_tailed_trace(
        *, n_requests: int, seed: int,
        mean_gap_ms: float = 2.0, gap_sigma: float = 1.2,
        diurnal_period_ms: float = 400.0, diurnal_amplitude: float = 0.8,
        rows_choices: Tuple[int, ...] = (1, 2, 4, 8),
        deadline_ms_by_priority: Dict[int, float] = None,
        ) -> Tuple[TraceRequest, ...]:
    """A bursty, diurnally-modulated arrival trace (deterministic).

    Gaps are lognormal with median ``mean_gap_ms`` and shape
    ``gap_sigma`` (heavier tail as sigma grows), divided by a sinusoidal
    intensity ``1 + diurnal_amplitude * sin(2π t / diurnal_period_ms)``
    so "daytime" phases compress the gaps into bursts and "nighttime"
    phases stretch them out. Row counts are drawn uniformly from
    ``rows_choices``; priorities 0, 1 and 2 in shares 0.2, 0.3 and 0.5
    (mostly sheddable traffic); a class with an entry in
    ``deadline_ms_by_priority`` gets ``arrival + that relative deadline``,
    others run best-effort.
    """
    if n_requests <= 0:
        raise ValueError(f"n_requests must be positive, got {n_requests}")
    if mean_gap_ms <= 0:
        raise ValueError(f"mean_gap_ms must be positive, got {mean_gap_ms}")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError(
            f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}")
    if deadline_ms_by_priority is None:
        deadline_ms_by_priority = {}

    rng = np.random.default_rng([int(seed), n_requests])
    gaps = rng.lognormal(mean=np.log(mean_gap_ms), sigma=gap_sigma,
                         size=n_requests)
    rows = rng.choice(np.asarray(rows_choices, dtype=np.int64),
                      size=n_requests)
    prio = rng.choice(np.asarray(_PRIORITIES, dtype=np.int64),
                      size=n_requests, p=_PRIORITY_SHARES)

    trace = []
    now = 0.0
    for i in range(n_requests):
        intensity = 1.0 + diurnal_amplitude * np.sin(
            2.0 * np.pi * now / diurnal_period_ms)
        now += float(gaps[i]) / max(intensity, 1e-9)
        p = int(prio[i])
        rel = deadline_ms_by_priority.get(p)
        trace.append(TraceRequest(
            arrival_ms=round(now, 6), n_rows=int(rows[i]), priority=p,
            deadline_ms=(round(now + rel, 6) if rel is not None else None)))
    return tuple(trace)
