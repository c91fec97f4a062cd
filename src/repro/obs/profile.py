"""Performance analysis over a finished :class:`~repro.obs.Tracer`.

Where :mod:`repro.obs.chrome_trace` *draws* a trace, this module
*interprets* one: which chain of tiles sets the makespan, where each
category's simulated time actually goes, and which resource — compute
throughput, memory bandwidth, or occupancy-starved latency hiding — bounds
each kernel launch, broken down by the §3.3 row-cache strategy ladder
(dense / hash / bloom / degree-partitioned).

Everything here is **deterministic and worker-count independent**: span
iteration uses the same canonical ordering as
:meth:`~repro.obs.Tracer.span_tree`, per-span durations come from the cost
model (never host scheduling), and the one schedule-dependent recorded
time — the ``plan.execute`` root's makespan — is normalized to its
children's serial sum. Profiling the serial and the 4-worker execution of
one plan yields byte-identical flamegraphs, category tables, and roofline
reports (asserted in ``tests/obs/test_profile.py``); the schedule enters
only through :meth:`Profile.critical_path`, which folds the per-tile
simulated seconds through the executor's own :func:`round_robin_lanes` for
any requested worker count.

Outputs:

- :meth:`Profile.critical_path` — the lane whose simulated time equals
  ``PlanExecutionReport.simulated_seconds`` (exact float equality by
  construction: both are folded by :func:`round_robin_lanes`);
- :meth:`Profile.categories` — per-category self/total simulated time;
- :meth:`Profile.folded_stacks` — ``name;name;name weight`` lines
  (weight = self time in integer nanoseconds), loadable by speedscope,
  ``flamegraph.pl``, or inferno;
- :meth:`Profile.roofline` — per-launch bound-ness from the gpusim
  counters (``gpusim.launch`` events carry compute/memory/fixed split,
  occupancy, and the :attr:`~repro.gpusim.cost_model.SimulatedTime.limited`
  attribution), rolled up per row-cache strategy and per tile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.tracer import Span, Tracer

__all__ = ["Profile", "CategoryTime", "CriticalPath", "CriticalStep",
           "LaunchRecord", "StrategyRoofline", "TileAttribution",
           "RooflineReport", "write_folded", "span_critical_path",
           "round_robin_lanes"]

#: roofline attribution classes, in display order
LIMITED_CLASSES = ("compute", "memory", "occupancy")


def _canonical_children(span: Span) -> List[Span]:
    """Children in the same scheduling-independent order ``span_tree``
    uses."""
    return sorted(span.children,
                  key=lambda s: (s.name, s.args.get("tile", -1), s.category))


def _canonical_roots(tracer: Tracer) -> List[Span]:
    return sorted(tracer.roots,
                  key=lambda s: (s.name, s.args.get("tile", -1)))


def _duration(span: Span) -> float:
    """A span's simulated seconds, worker-count independent.

    A span's own cost-model charge wins when it covers its children
    (tile spans include backoff the child kernel spans never saw); spans
    without a charge span their children. The ``plan.execute`` root is the
    one span whose recorded time depends on the schedule (the N-worker
    makespan), so it is normalized to its children's serial sum — the
    profile reports where simulated work went, :meth:`Profile.critical_path`
    reports how long a given schedule takes.
    """
    child_sum = sum(_duration(c) for c in span.children)
    if span.sim_seconds is None or span.category == "plan":
        return child_sum
    return max(float(span.sim_seconds), child_sum)


def _self_seconds(span: Span) -> float:
    own = _duration(span)
    return max(0.0, own - sum(_duration(c) for c in span.children))


@dataclass(frozen=True)
class CategoryTime:
    """Aggregate simulated time of one span category."""

    category: str
    n_spans: int
    #: duration minus child durations, summed over the category's spans
    self_seconds: float
    #: full durations of the category's *topmost* spans (spans nested under
    #: a same-category ancestor are excluded, so kernel.pass1's nested
    #: strategy.select never double-counts into "kernel")
    total_seconds: float


@dataclass(frozen=True)
class CriticalStep:
    """One span on the critical path."""

    name: str
    tile: int
    seconds: float


@dataclass(frozen=True)
class CriticalPath:
    """The chain whose simulated time equals the N-worker makespan."""

    n_workers: int
    #: round-robin lane realizing the makespan (lowest index on ties)
    lane: int
    #: prologue + lane sum == ``PlanExecutionReport.simulated_seconds``
    sim_seconds: float
    #: serial prologue (norms etc.) charged before any lane starts
    prologue_seconds: float
    steps: Tuple[CriticalStep, ...]

    @property
    def tile_seconds(self) -> float:
        return self.sim_seconds - self.prologue_seconds

    def as_dict(self) -> dict:
        return {"n_workers": self.n_workers, "lane": self.lane,
                "sim_seconds": self.sim_seconds,
                "prologue_seconds": self.prologue_seconds,
                "steps": [{"name": s.name, "tile": s.tile,
                           "seconds": s.seconds} for s in self.steps]}


@dataclass(frozen=True)
class LaunchRecord:
    """One ``gpusim.launch`` event with its attribution context."""

    #: row-cache strategy bucket: dense | hash | bloom | degree_partitioned
    #: | epilogue | norms | other
    strategy: str
    #: planned tile index the launch ran under (-1 for prologue/root work)
    tile: int
    seconds: float
    compute_seconds: float
    memory_seconds: float
    fixed_seconds: float
    occupancy: float
    #: roofline class: compute | memory | occupancy
    limited: str
    #: occupancy calculator's residency limiter (warps/blocks/smem/registers)
    limiting_factor: str


def _rollup(records: List[LaunchRecord]):
    """Shared per-bucket accumulation for strategy and tile rollups."""
    seconds = sum(r.seconds for r in records)
    by_class = {c: sum(r.seconds for r in records if r.limited == c)
                for c in LIMITED_CLASSES}
    dominant = max(LIMITED_CLASSES, key=lambda c: (by_class[c], ))
    occ = (sum(r.occupancy * r.seconds for r in records) / seconds
           if seconds > 0 else 0.0)
    return seconds, by_class, dominant, occ


@dataclass(frozen=True)
class StrategyRoofline:
    """Bound-ness rollup of every launch under one row-cache strategy."""

    strategy: str
    n_launches: int
    seconds: float
    compute_seconds: float
    memory_seconds: float
    fixed_seconds: float
    #: simulated seconds per roofline class (compute/memory/occupancy)
    limited_seconds: Dict[str, float] = field(default_factory=dict)
    #: the class holding the most simulated time
    dominant: str = "compute"
    #: seconds-weighted mean occupancy fraction
    weighted_occupancy: float = 0.0

    def as_dict(self) -> dict:
        return {"strategy": self.strategy, "n_launches": self.n_launches,
                "seconds": self.seconds,
                "compute_seconds": self.compute_seconds,
                "memory_seconds": self.memory_seconds,
                "fixed_seconds": self.fixed_seconds,
                "limited_seconds": dict(self.limited_seconds),
                "dominant": self.dominant,
                "weighted_occupancy": self.weighted_occupancy}


@dataclass(frozen=True)
class TileAttribution:
    """Bound-ness attribution of one planned tile's launches."""

    tile: int
    name: str
    seconds: float
    n_launches: int
    limited_seconds: Dict[str, float] = field(default_factory=dict)
    dominant: str = "compute"
    weighted_occupancy: float = 0.0
    strategies: Tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {"tile": self.tile, "name": self.name,
                "seconds": self.seconds, "n_launches": self.n_launches,
                "limited_seconds": dict(self.limited_seconds),
                "dominant": self.dominant,
                "weighted_occupancy": self.weighted_occupancy,
                "strategies": list(self.strategies)}


@dataclass(frozen=True)
class RooflineReport:
    """Per-strategy and per-tile roofline attribution."""

    strategies: Tuple[StrategyRoofline, ...]
    tiles: Tuple[TileAttribution, ...]
    launches: Tuple[LaunchRecord, ...]

    def as_dict(self) -> dict:
        return {"strategies": [s.as_dict() for s in self.strategies],
                "tiles": [t.as_dict() for t in self.tiles]}

    def render(self) -> str:
        """Plain-text bound-ness table (strategy rows)."""
        lines = [f"{'strategy':<20} {'launches':>8} {'sim ms':>10} "
                 f"{'compute%':>9} {'memory%':>8} {'occ-lim%':>9} "
                 f"{'occ':>6} {'dominant':>10}"]
        for s in self.strategies:
            total = s.seconds or 1.0
            pct = {c: 100.0 * s.limited_seconds.get(c, 0.0) / total
                   for c in LIMITED_CLASSES}
            lines.append(
                f"{s.strategy:<20} {s.n_launches:>8d} "
                f"{s.seconds * 1e3:>10.4f} {pct['compute']:>8.1f}% "
                f"{pct['memory']:>7.1f}% {pct['occupancy']:>8.1f}% "
                f"{s.weighted_occupancy:>6.2f} {s.dominant:>10}")
        return "\n".join(lines)


def round_robin_lanes(tile_seconds: Sequence[float],
                      n_workers: int) -> List[float]:
    """Per-lane simulated seconds of the executor's N-worker schedule.

    Worker ``w`` runs tiles ``w, w + N, …`` back to back, so lane ``w``
    sums their seconds in tile order and the plan takes as long as its
    largest lane; one worker's lane is a plain ``sum``. The plan executor,
    its estimator and :func:`span_critical_path` all fold through this one
    function.
    """
    if n_workers == 1:
        return [float(sum(tile_seconds))]
    lanes = [0.0] * n_workers
    for i, s in enumerate(tile_seconds):
        lanes[i % n_workers] += s
    return lanes


def span_critical_path(plan_span: Span,
                       n_workers: Optional[int] = None) -> CriticalPath:
    """The round-robin lane setting one plan span's makespan.

    Works on any ``plan.execute``-shaped span (tile-category children
    plus a serial prologue), wherever it sits in a larger trace — the
    ops console uses this to recover a serve batch's per-shard critical
    path from the shard's nested plan span. The per-tile simulated seconds
    go through the executor's :func:`round_robin_lanes`, so
    ``sim_seconds`` equals ``PlanExecutionReport.simulated_seconds`` to
    the last bit for the matching worker count.
    """
    if n_workers is None:
        n_workers = int(plan_span.args.get("n_workers", 1) or 1)
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    tiles = sorted((c for c in plan_span.children if c.category == "tile"),
                   key=lambda s: int(s.args.get("tile", -1)))
    prologue = sum(_duration(c) for c in plan_span.children
                   if c.category != "tile")
    if not tiles:
        return CriticalPath(n_workers=n_workers, lane=0,
                            sim_seconds=prologue,
                            prologue_seconds=prologue, steps=())

    seconds = [float(s.sim_seconds or 0.0) for s in tiles]
    lane_time = round_robin_lanes(seconds, n_workers)
    lane = max(range(len(lane_time)), key=lambda w: (lane_time[w], -w))
    steps = tuple(
        CriticalStep(name=span.name,
                     tile=int(span.args.get("tile", -1)),
                     seconds=seconds[i])
        for i, span in enumerate(tiles) if i % n_workers == lane)
    return CriticalPath(n_workers=n_workers, lane=lane,
                        sim_seconds=prologue + lane_time[lane],
                        prologue_seconds=prologue, steps=steps)


class Profile:
    """Analysis view over a finished tracer's span forest."""

    def __init__(self, tracer: Tracer):
        if not tracer.enabled:
            raise ValueError(
                "cannot profile a NullTracer: pass trace=Tracer() to the "
                "run you want profiled")
        self.tracer = tracer
        self.roots = _canonical_roots(tracer)

    # -- plan anatomy --------------------------------------------------
    def _plan_root(self) -> Span:
        # A full run records two plan-category roots (plan.build, then
        # plan.execute); the execution root is the one with tile children.
        plan_roots = [r for r in self.roots if r.category == "plan"]
        for root in plan_roots:
            if any(c.category == "tile" for c in root.children):
                return root
        for root in plan_roots:
            if root.name == "plan.execute":
                return root
        if plan_roots:
            return plan_roots[-1]
        raise ValueError("tracer recorded no plan.execute root span")

    # -- critical path -------------------------------------------------
    def critical_path(self, n_workers: Optional[int] = None) -> CriticalPath:
        """The round-robin lane that sets the makespan for ``n_workers``.

        Folded from per-tile simulated seconds by the executor's
        :func:`round_robin_lanes`, so ``sim_seconds`` equals
        ``PlanExecutionReport.simulated_seconds`` to the last bit for the
        matching worker count — and the answer is the same no matter how
        many workers the *traced* run used. ``n_workers=None`` uses the
        traced run's count.
        """
        return span_critical_path(self._plan_root(), n_workers)

    # -- category aggregation ------------------------------------------
    def categories(self) -> Tuple[CategoryTime, ...]:
        """Per-category self/total simulated time, sorted by category."""
        n: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        total_s: Dict[str, float] = {}

        def walk(span: Span, ancestors: frozenset) -> None:
            cat = span.category or "span"
            n[cat] = n.get(cat, 0) + 1
            self_s[cat] = self_s.get(cat, 0.0) + _self_seconds(span)
            if cat not in ancestors:
                total_s[cat] = total_s.get(cat, 0.0) + _duration(span)
            nested = ancestors | {cat}
            for child in _canonical_children(span):
                walk(child, nested)

        for root in self.roots:
            walk(root, frozenset())
        return tuple(
            CategoryTime(category=cat, n_spans=n[cat],
                         self_seconds=self_s[cat],
                         total_seconds=total_s.get(cat, 0.0))
            for cat in sorted(n))

    # -- flamegraph export ---------------------------------------------
    def folded_stacks(self) -> str:
        """Folded-stack lines (``a;b;c weight``), speedscope and
        ``flamegraph.pl`` compatible.

        Weights are **self** simulated time in integer nanoseconds (every
        frame's total is then the sum of its subtree, as flamegraph tools
        expect); zero-weight frames are dropped; lines sort
        lexicographically, so output is byte-identical across worker
        counts.
        """
        weights: Dict[str, int] = {}

        def walk(span: Span, prefix: str) -> None:
            path = f"{prefix};{span.name}" if prefix else span.name
            ns = int(round(_self_seconds(span) * 1e9))
            if ns > 0:
                weights[path] = weights.get(path, 0) + ns
            for child in _canonical_children(span):
                walk(child, path)

        for root in self.roots:
            walk(root, "")
        return "\n".join(f"{path} {ns}"
                         for path, ns in sorted(weights.items()))

    # -- roofline attribution ------------------------------------------
    def _launch_records(self) -> List[LaunchRecord]:
        records: List[LaunchRecord] = []

        def bucket(span: Span) -> str:
            strategy = span.args.get("strategy")
            if strategy is not None:
                if int(span.args.get("n_partitioned_rows", 0) or 0) > 0:
                    return "degree_partitioned"
                return str(strategy)
            if span.category == "tile":
                return "epilogue"
            if span.category == "plan":
                return "norms"
            return "other"

        def walk(span: Span, tile: int) -> None:
            if span.category == "tile":
                tile = int(span.args.get("tile", -1))
            for ev in span.events:
                if ev.category != "launch" or ev.name != "gpusim.launch":
                    continue
                args = ev.args
                records.append(LaunchRecord(
                    strategy=bucket(span), tile=tile,
                    seconds=float(ev.seconds),
                    compute_seconds=float(args.get("compute_us", 0.0)) / 1e6,
                    memory_seconds=float(args.get("memory_us", 0.0)) / 1e6,
                    fixed_seconds=float(args.get("fixed_us", 0.0)) / 1e6,
                    occupancy=float(args.get("occupancy", 0.0)),
                    limited=str(args.get("limited",
                                         args.get("bound", "compute"))),
                    limiting_factor=str(args.get("limiting_factor", ""))))
            for child in _canonical_children(span):
                walk(child, tile)

        for root in self.roots:
            walk(root, -1)
        return records

    def roofline(self) -> RooflineReport:
        """Bound-ness attribution per row-cache strategy and per tile."""
        records = self._launch_records()

        by_strategy: Dict[str, List[LaunchRecord]] = {}
        for r in records:
            by_strategy.setdefault(r.strategy, []).append(r)
        strategies = []
        for name in sorted(by_strategy):
            group = by_strategy[name]
            seconds, by_class, dominant, occ = _rollup(group)
            strategies.append(StrategyRoofline(
                strategy=name, n_launches=len(group), seconds=seconds,
                compute_seconds=sum(r.compute_seconds for r in group),
                memory_seconds=sum(r.memory_seconds for r in group),
                fixed_seconds=sum(r.fixed_seconds for r in group),
                limited_seconds=by_class, dominant=dominant,
                weighted_occupancy=occ))

        tile_names = {int(s.args.get("tile", -1)): s.name
                      for root in self.roots
                      for s in _canonical_children(root)
                      if s.category == "tile"}
        by_tile: Dict[int, List[LaunchRecord]] = {}
        for r in records:
            if r.tile >= 0:
                by_tile.setdefault(r.tile, []).append(r)
        tiles = []
        for tile in sorted(by_tile):
            group = by_tile[tile]
            seconds, by_class, dominant, occ = _rollup(group)
            tiles.append(TileAttribution(
                tile=tile, name=tile_names.get(tile, f"tile[{tile}]"),
                seconds=seconds, n_launches=len(group),
                limited_seconds=by_class, dominant=dominant,
                weighted_occupancy=occ,
                strategies=tuple(sorted({r.strategy for r in group}))))

        return RooflineReport(strategies=tuple(strategies),
                              tiles=tuple(tiles), launches=tuple(records))

    # -- serialization -------------------------------------------------
    def as_dict(self, *, n_workers: Optional[int] = None) -> dict:
        """JSON-ready summary. ``n_workers`` parameterizes the critical
        path (default: the traced run's count — the one field that makes
        serial and N-worker summaries differ; pin it for cross-run
        comparison)."""
        root = self._plan_root()
        return {
            "critical_path": self.critical_path(n_workers).as_dict(),
            "categories": [
                {"category": c.category, "n_spans": c.n_spans,
                 "self_seconds": c.self_seconds,
                 "total_seconds": c.total_seconds}
                for c in self.categories()],
            "roofline": self.roofline().as_dict(),
            "n_tiles": int(root.args.get("n_tiles", 0) or 0),
        }

    def to_json(self, *, indent: Optional[int] = 2,
                n_workers: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(n_workers=n_workers), indent=indent,
                          sort_keys=True)

    def render(self) -> str:
        """Human-readable summary: critical path, categories, roofline."""
        cp = self.critical_path()
        lines = [
            f"critical path ({cp.n_workers} workers, lane {cp.lane}): "
            f"{cp.sim_seconds * 1e3:.4f} ms simulated "
            f"({cp.prologue_seconds * 1e3:.4f} ms prologue, "
            f"{len(cp.steps)} tiles)",
            "",
            f"{'category':<12} {'spans':>6} {'self ms':>10} {'total ms':>10}",
        ]
        for c in self.categories():
            lines.append(f"{c.category:<12} {c.n_spans:>6d} "
                         f"{c.self_seconds * 1e3:>10.4f} "
                         f"{c.total_seconds * 1e3:>10.4f}")
        lines += ["", self.roofline().render()]
        return "\n".join(lines)


def write_folded(tracer_or_profile: Union[Tracer, Profile],
                 path: Union[str, Path]) -> Path:
    """Write the folded-stack flamegraph to ``path``; returns the path.

    Feed the file to speedscope (drag and drop), ``flamegraph.pl``, or
    ``inferno-flamegraph``.
    """
    profile = (tracer_or_profile
               if isinstance(tracer_or_profile, Profile)
               else Profile(tracer_or_profile))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(profile.folded_stacks() + "\n")
    return path
