"""Tile scheduler: run a :class:`PairwisePlan` serially or on N workers.

Each tile is an independent job — launch the configured kernel's
schedule on the tile's operand bands, then evaluate the tile's distances
once, in row bands that pass through the measure's expansion (with the
plan's cached norms) or finalize into the consumer's per-tile sink — so
tiles parallelize freely. ``n_workers > 1`` runs them through :func:`fan_out`,
the one ordered thread fan-out (the serving and distributed layers use it
too), simulating concurrent streams / multi-GPU execution, while keeping
every observable output deterministic:

- tiles are delivered to the consumer in tile order, because
  :func:`fan_out` yields results in item order, and their facts (spans,
  launch metrics, fault events) are recorded from what was delivered,
  in tile order, when the execution completes or aborts;
- an engine's schedule is a pure function of the tile's operands, so one
  kernel instance serves every tile and worker;
- merged :class:`KernelStats` accumulate in tile order;
- simulated seconds use a round-robin makespan model (worker *w* runs tiles
  ``w, w + N, w + 2N, …``), a function of the plan alone, never of which
  thread won a race.

Row norms are priced exactly once per execution (§3.4's warp-per-row
reductions) — the plan cached their values, and the executor charges their
launch — instead of once per batch as the old hand-rolled k-NN loop did.

:func:`estimate_execution_seconds` is this executor with numerics turned
off: the same kernel schedules and epilogue/norms launches, priced instead
of launched, folded by the same makespan.

**Fault tolerance.** The executor optionally runs under a
:class:`~repro.faults.RecoveryPolicy` (and, in tests/benches, a
:class:`~repro.faults.FaultInjector`): transient launch failures retry with
simulated backoff, workspace OOMs adaptively split the failing tile into
sub-tiles whose launches are accounted in its place, and capacity faults
walk the §3.3 strategy degradation ladder down to the host reference
kernel. Recovery acts on launches only: a tile's distances are computed
once, from the planned tile's operands, after its schedule has settled,
so every recovery leaves them bit-identical (consumers still see exactly
the planned tiles, in order). What recovery cannot absorb aborts the
execution: tiles not yet started are cancelled, the consumer's
:meth:`~repro.plan.consumers.TileConsumer.abort` hook fires (partial state
is never mistaken for a result), and a structured
:class:`~repro.errors.ExecutionFaultError` carries the fault log plus a
resumable watermark — re-running with ``resume_from=err.watermark`` on the
same consumer finishes the job. The aborted run has delivered exactly the
tiles before the failed one, so the watermark, fault log and recorded facts
are the serial run's for any worker count.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.distances import EXPANDED
from repro.errors import (
    DeviceOOMError,
    ExecutionFaultError,
    InjectedFault,
    TileStuckError,
    TransientLaunchFault,
)
from repro.faults.injector import FaultInjector
from repro.faults.recovery import DEGRADE, RETRY, SPLIT, RecoveryPolicy
from repro.faults.spec import FaultEvent, FaultKind
from repro.gpusim.executor import Launch, LaunchSchedule
from repro.gpusim.memory import coalesced_transactions
from repro.gpusim.stats import KernelStats
from repro.gpusim.tiles import TileAccountant, TileLaunchRecord
from repro.kernels.functional import semiring_block
from repro.kernels.host import HostKernel
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import round_robin_lanes
from repro.obs.record import observer
from repro.obs.tracer import Tracer, get_default_tracer
from repro.plan.consumers import DenseBlockConsumer, TileConsumer
from repro.plan.pairwise_plan import PairwisePlan
from repro.plan.tiling import Tile

__all__ = ["PlanExecutor", "PlanExecutionReport",
           "estimate_execution_seconds", "fan_out"]


def fan_out(fn: Callable, items: Sequence, n_workers: int) -> Iterator:
    """Yield ``fn(item)`` for each of ``items``, in item order.

    A plain loop for one worker or one item; otherwise
    ``ThreadPoolExecutor.map`` on up to ``n_workers`` threads. When
    iteration stops early (``fn`` raised for an item, or the caller
    stopped), the calls not yet started are cancelled and those already
    running finish unread, so the caller has seen exactly the serial
    prefix.
    """
    if n_workers <= 1 or len(items) <= 1:
        for item in items:
            yield fn(item)
        return
    with ThreadPoolExecutor(max_workers=min(n_workers, len(items))) as pool:
        yield from pool.map(fn, items)


@dataclass
class PlanExecutionReport:
    """Everything one plan execution produced, numerics and accounting."""

    #: the consumer's final product (dense block, (dists, idx) pair, …)
    value: object
    #: kernel + norms + expansion stats, merged in tile order
    stats: KernelStats
    #: modeled wall time: norms prologue + the N-worker tile makespan
    simulated_seconds: float
    #: sum of all tile seconds (the single-stream / serial-equivalent time)
    serial_seconds: float
    n_tiles: int
    n_workers: int
    #: per-tile memory/time records (tile order)
    accountant: TileAccountant = field(repr=False,
                                       default_factory=TileAccountant)
    # ---- fault accounting (all zero / empty on a clean run) ------------
    #: transient/stuck launch retries performed across all tiles
    n_retries: int = 0
    #: adaptive tile splits performed (each turns one rect into two)
    n_tile_splits: int = 0
    #: indices of planned tiles that finished on a degraded strategy
    degraded_tiles: Tuple[int, ...] = ()
    #: simulated seconds spent in retry backoff (included in tile seconds)
    backoff_seconds: float = 0.0
    #: structured fault log, in tile order (see :class:`FaultEvent`)
    fault_log: Tuple[FaultEvent, ...] = ()
    #: tile index this execution resumed from (0 = full run)
    resumed_from: int = 0
    # ---- what the observer records ----------------------------------
    #: the delivered tiles' outcomes, payloads dropped (tile order)
    tiles: Tuple["_RectResult", ...] = field(default=(), repr=False)
    #: the plan's own launch log: the norms launch and its step
    launch_log: List[object] = field(default_factory=list, repr=False)

    @property
    def peak_resident_bytes(self) -> float:
        return self.accountant.peak_resident_bytes

    @property
    def peak_tile_bytes(self) -> float:
        return self.accountant.peak_tile_bytes

    @property
    def n_faults(self) -> int:
        """Fault events that required a recovery action (or slowed a tile)."""
        return len(self.fault_log)


@dataclass(frozen=True)
class _Rect:
    """A rectangular sub-region of one planned tile's output block."""

    a0: int
    a1: int
    b0: int
    b1: int
    depth: int = 0

    @property
    def rows_a(self) -> int:
        return self.a1 - self.a0

    @property
    def rows_b(self) -> int:
        return self.b1 - self.b0


@dataclass
class _RectResult:
    """One recovered rect's launch and recovery accounting (for a planned
    tile, also the tile, its lane, its launch log and its sink's
    payload)."""

    stats: KernelStats
    seconds: float
    events: List[FaultEvent] = field(default_factory=list)
    n_retries: int = 0
    n_splits: int = 0
    backoff_seconds: float = 0.0
    degraded: bool = False
    schedule: Optional[LaunchSchedule] = None
    tile: Optional[Tile] = None
    lane: int = 0
    #: every attempt's engine and launches, then each epilogue step, in
    #: execution order (see :func:`repro.obs.record._launch_log`)
    log: List[object] = field(default_factory=list)
    #: what the consumer's tile sink made of the tile's distances
    payload: object = None


class _TileFailure(Exception):
    """Internal: a tile failed beyond what the recovery policy absorbs.

    Carries the tile's lane and launch log so far, like an outcome."""

    lane = 0

    def __init__(self, tile: Tile, cause: Exception,
                 events: List[FaultEvent], log: List[object]):
        super().__init__(str(cause))
        self.tile = tile
        self.cause = cause
        self.events = events
        self.log = log


def _fault_kind(exc: Exception) -> FaultKind:
    """Log category of a tile failure (injected or organic)."""
    if isinstance(exc, TransientLaunchFault):
        return FaultKind.TRANSIENT
    if isinstance(exc, TileStuckError):
        return FaultKind.STUCK
    if isinstance(exc, DeviceOOMError):
        return FaultKind.OOM
    return FaultKind.CAPACITY


class PlanExecutor:
    """Runs a plan's tiles and folds them through a :class:`TileConsumer`.

    Parameters
    ----------
    plan:
        The :class:`PairwisePlan` to execute.
    n_workers:
        Concurrent tile workers (simulated streams). Observable outputs are
        identical for any worker count.
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy`. Without one, any
        tile failure aborts the execution (after cancelling the tiles not
        yet started and notifying the consumer).
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` whose schedule is
        replayed into this execution's kernel launches and runs.
    tracer:
        Optional :class:`~repro.obs.Tracer`. Defaults to the process-wide
        default (normally the zero-overhead ``NULL_TRACER``); when enabled,
        every execution records a ``plan.execute`` root span with one
        ``tile[i,j]`` child per tile, kernel/expansion spans nested under
        the tile, and fault events attached to the tile that absorbed them.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` receiving per-tile
        counters/histograms (``tiles_executed``, ``retries_total``,
        ``simulated_ms``, ``peak_workspace_bytes``, …) plus the engine and
        launch metrics of each delivered tile's launch log.
    """

    def __init__(self, plan: PairwisePlan, *, n_workers: int = 1,
                 recovery: Optional[RecoveryPolicy] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.plan = plan
        self.n_workers = int(n_workers)
        self.recovery = recovery
        self.fault_injector = fault_injector
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.metrics = metrics
        self._obs = observer(self.tracer, metrics)

    # ------------------------------------------------------------------
    def execute(self, consumer: Optional[TileConsumer] = None, *,
                resume_from: int = 0) -> PlanExecutionReport:
        """Run the plan's tiles (from ``resume_from`` on) through ``consumer``.

        ``resume_from`` is a delivered-tile watermark from a previous,
        aborted execution (``ExecutionFaultError.watermark`` or the
        consumer's ``delivered_watermark``): tiles below it are neither
        recomputed nor redelivered, and ``consumer.begin`` is *not* called
        again, so the consumer's folded prefix carries over.
        """
        plan = self.plan
        consumer = consumer if consumer is not None else DenseBlockConsumer()

        all_tiles = list(plan.grid.tiles())
        if not 0 <= resume_from <= len(all_tiles):
            raise ValueError(
                f"resume_from must be within [0, {len(all_tiles)}], got "
                f"{resume_from}")
        if resume_from == 0:
            consumer.begin(plan)
        consumer.delivered_watermark = resume_from
        tiles = all_tiles[resume_from:]

        stats = KernelStats()
        accountant = TileAccountant(n_workers=self.n_workers)
        tile_seconds: List[float] = [0.0] * len(tiles)
        last_schedule: Optional[LaunchSchedule] = None
        fault_log: List[FaultEvent] = []
        n_retries = 0
        n_splits = 0
        backoff = 0.0
        degraded_tiles: List[int] = []
        delivered: List[_RectResult] = []
        obs = self._obs

        root = self.tracer.span(
            "plan.execute", "plan",
            metric=plan.measure.name,
            engine=getattr(plan.kernel, "name", "custom"),
            n_tiles=len(tiles), n_workers=self.n_workers,
            resume_from=resume_from,
            shape=f"{plan.a.n_rows}x{plan.b.n_rows}x{plan.a.n_cols}")
        run_tile = functools.partial(self._run_tile, resume_from, consumer)
        with root:
            try:
                for outcome in fan_out(run_tile, tiles, self.n_workers):
                    tile = outcome.tile
                    stats.merge(outcome.stats)
                    tile_seconds[tile.index - resume_from] = outcome.seconds
                    accountant.record(TileLaunchRecord(
                        tile_index=tile.index, rows_a=tile.rows_a,
                        rows_b=tile.rows_b,
                        output_bytes=float(tile.output_bytes),
                        workspace_bytes=float(outcome.stats.workspace_bytes),
                        seconds=outcome.seconds))
                    if outcome.schedule is not None:
                        last_schedule = outcome.schedule
                    fault_log.extend(outcome.events)
                    n_retries += outcome.n_retries
                    n_splits += outcome.n_splits
                    backoff += outcome.backoff_seconds
                    if outcome.degraded:
                        degraded_tiles.append(tile.index)
                    payload, outcome.payload = outcome.payload, None
                    delivered.append(outcome)
                    consumer.consume(tile, payload)
                    consumer.delivered_watermark = tile.index + 1
            except Exception as exc:
                for outcome in delivered:
                    obs.record(outcome, root=root)
                if isinstance(exc, _TileFailure):
                    self._abort(consumer, exc, fault_log, root)
                consumer.abort(exc)  # consumer bugs: still notify
                raise

            norms_seconds = 0.0
            launch_log: List[object] = []
            if tiles and resume_from == 0 and plan.simulate \
                    and plan.measure.kind == EXPANDED:
                norms = _norms_launch(plan)
                if norms is not None:
                    launch = norms.execute(plan.spec)
                    launch_log.append((norms, launch))
                    stats.merge(launch.stats)
                    norms_seconds = launch.seconds
                launch_log.append(("norms.compute", "norms", norms_seconds,
                                   {"n_norm_kinds": len(plan.measure.norms)}))

        # Record the last tile's schedule on the plan's kernel (tile order,
        # whatever order workers finished in), so diagnostics like
        # ``kernel.last_profiles`` describe a deterministic tile.
        if last_schedule is not None:
            plan.kernel.last_schedule = last_schedule

        serial = norms_seconds + float(sum(tile_seconds))
        makespan = norms_seconds + max(round_robin_lanes(tile_seconds,
                                                         self.n_workers))
        report = PlanExecutionReport(
            value=consumer.result(), stats=stats, simulated_seconds=makespan,
            serial_seconds=serial, n_tiles=len(tiles),
            n_workers=self.n_workers, accountant=accountant,
            n_retries=n_retries, n_tile_splits=n_splits,
            degraded_tiles=tuple(degraded_tiles), backoff_seconds=backoff,
            fault_log=tuple(fault_log), resumed_from=resume_from,
            tiles=tuple(delivered), launch_log=launch_log)
        obs.record(report, span=root)
        return report

    # ------------------------------------------------------------------
    def _abort(self, consumer: TileConsumer, failure: _TileFailure,
               delivered_events: List[FaultEvent], root) -> None:
        """Notify the consumer, then surface the failure.

        Fault-schedule failures (injected faults, or organic ones the
        recovery policy engaged with) become a structured
        :class:`ExecutionFaultError` carrying the fault log and the
        consumer's delivered-tile watermark; anything else re-raises as-is.
        """
        consumer.abort(failure.cause)
        tile = failure.tile
        unabsorbed = FaultEvent(tile_index=tile.index, attempt=-1, depth=0,
                                kind=_fault_kind(failure.cause),
                                action="unabsorbed",
                                detail=str(failure.cause))
        self._obs.record(failure, root=root, unabsorbed=unabsorbed)
        events = [*delivered_events, *failure.events, unabsorbed]
        if isinstance(failure.cause, InjectedFault) or failure.events:
            raise ExecutionFaultError(
                f"tile {tile.index} failed beyond recovery: "
                f"{failure.cause} (delivered watermark "
                f"{consumer.delivered_watermark}; resume with "
                f"resume_from={consumer.delivered_watermark})",
                watermark=consumer.delivered_watermark,
                fault_log=tuple(events),
                cause=failure.cause) from failure.cause
        raise failure.cause

    # ------------------------------------------------------------------
    def _run_tile(self, lane_base: int, consumer: TileConsumer,
                  tile: Tile) -> _RectResult:
        """Run one planned tile: settle its launches under the recovery
        policy, then evaluate its distances into ``consumer``'s sink for
        it.

        The outcome (and a failure) carries the tile's lane and launch log,
        the outcome also its sink's payload: the tile is consumed, and its
        facts recorded, in tile order, whatever order the workers finished
        in.
        """
        lane = (tile.index - lane_base) % self.n_workers
        log: List[object] = []
        try:
            res = self._run_rect(
                tile, _Rect(tile.a0, tile.a1, tile.b0, tile.b1), log)
        except _TileFailure as failure:
            failure.lane = lane
            raise
        res.payload = self._distances(tile, consumer.tile_sink(tile))
        res.tile, res.lane, res.log = tile, lane, log
        return res

    def _distances(self, tile: Tile, sink) -> object:
        """Evaluate a planned tile's distances once, band by band, through
        the expansion or finalize step into ``sink``; its payload."""
        plan = self.plan
        measure = plan.measure
        k = plan.a.n_cols
        if measure.kind == EXPANDED:
            norms_b = plan.norms_slice_b(tile.b0, tile.b1)

            def band(r0, r1, rows):
                sink(r0, r1, measure.apply_expansion(
                    rows, plan.norms_slice_a(tile.a0 + r0, tile.a0 + r1),
                    norms_b, k))
        else:
            def band(r0, r1, rows):
                sink(r0, r1, measure.apply_finalize(rows, k))

        semiring_block(plan.a_band(tile.band_a), plan.b_band(tile.band_b),
                       measure.semiring, sink=band)
        return sink.payload()

    def _operand_slices(self, tile: Tile, rect: _Rect):
        """CSR slices for a rect; planned tiles reuse the cached bands."""
        plan = self.plan
        if rect.depth == 0:
            return plan.a_band(tile.band_a), plan.b_band(tile.band_b)
        return (plan.a.slice_rows(rect.a0, rect.a1),
                plan.b.slice_rows(rect.b0, rect.b1))

    def _run_rect(self, tile: Tile, rect: _Rect,
                  log: List[object]) -> _RectResult:
        """Launch one rect's schedule under the recovery policy, writing
        its attempts and epilogue to the tile's launch ``log``.

        The attempt loop retries transient faults (with simulated backoff),
        steps down the degradation ladder on capacity faults, and recurses
        into two half-rects on workspace OOM; anything left over raises
        :class:`_TileFailure` with the recovery events gathered so far. The
        rect's epilogue launch is priced here too; its numerics are not.
        """
        plan = self.plan
        policy = self.recovery
        injector = self.fault_injector
        a_t, b_t = self._operand_slices(tile, rect)

        events: List[FaultEvent] = []
        attempt = 0
        retries = 0
        backoff = 0.0
        degraded = False
        ladder: Optional[list] = None
        ladder_pos = 0
        kernel = plan.kernel

        while True:
            scope = (injector.tile_scope(tile.index, attempt, rect.depth)
                     if injector is not None else nullcontext())
            try:
                with scope as site:
                    result = kernel.run(a_t, b_t, plan.measure.semiring,
                                        log)
            except Exception as exc:  # noqa: BLE001 - classified below
                action = policy.classify(exc) if policy is not None else None
                kind = _fault_kind(exc)
                if action == RETRY and retries < policy.max_retries:
                    retries += 1
                    wait_s = policy.backoff_seconds(retries)
                    backoff += wait_s
                    events.append(FaultEvent(
                        tile_index=tile.index, attempt=attempt,
                        depth=rect.depth, kind=kind, action="retried",
                        detail=f"retry {retries}/{policy.max_retries}",
                        seconds=wait_s))
                    attempt += 1
                    continue
                if action == DEGRADE:
                    if ladder is None:
                        ladder = list(policy.degradation_clones(kernel))
                    if ladder_pos < len(ladder):
                        rung, next_kernel = ladder[ladder_pos]
                        ladder_pos += 1
                        degraded = True
                        events.append(FaultEvent(
                            tile_index=tile.index, attempt=attempt,
                            depth=rect.depth, kind=kind, action="degraded",
                            detail=f"-> {rung}"))
                        kernel = next_kernel
                        attempt += 1
                        continue
                if action == SPLIT and rect.depth < policy.max_split_depth \
                        and max(rect.rows_a, rect.rows_b) > 1:
                    events.append(FaultEvent(
                        tile_index=tile.index, attempt=attempt,
                        depth=rect.depth, kind=kind, action="split",
                        detail=f"{rect.rows_a}x{rect.rows_b} halved"))
                    return self._split_rect(tile, rect, log, events,
                                            retries, backoff, degraded)
                raise _TileFailure(tile, exc, events, log) from exc
            break

        stats = result.stats
        seconds = result.seconds
        # A degraded host rect prices nothing, matching HostKernel planning.
        simulate = plan.simulate and not isinstance(kernel, HostKernel)
        n_cells = rect.rows_a * rect.rows_b
        measure = plan.measure
        if simulate and _has_epilogue(measure):
            epilogue = _epilogue_launch(n_cells)
            launch = epilogue.execute(plan.spec)
            stats.merge(launch.stats)
            seconds += launch.seconds
            name = ("expansion.apply" if measure.kind == EXPANDED
                    else "finalize.apply")
            log.append((epilogue, launch))
            log.append((name, "epilogue", launch.seconds,
                        {"n_cells": n_cells}))

        if site is not None and site.slow_seconds > 0.0:
            seconds += site.slow_seconds
            events.append(FaultEvent(
                tile_index=tile.index, attempt=attempt, depth=rect.depth,
                kind=FaultKind.SLOW, action="slowed",
                seconds=site.slow_seconds))

        return _RectResult(stats=stats, seconds=seconds,
                           events=events, n_retries=retries,
                           backoff_seconds=backoff, degraded=degraded,
                           schedule=result.schedule)

    def _split_rect(self, tile: Tile, rect: _Rect, log: List[object],
                    events: List[FaultEvent], retries: int, backoff: float,
                    degraded: bool) -> _RectResult:
        """Halve an OOMing rect along its longer axis and merge the halves'
        accounting.

        The two half-rects re-enter :meth:`_run_rect` (so they carry their
        own retries/degradation/splits, recursively). Only launches are
        split: the tile's distances are evaluated whole afterwards.
        """
        if rect.rows_a >= rect.rows_b:
            mid = rect.a0 + rect.rows_a // 2
            children = [_Rect(rect.a0, mid, rect.b0, rect.b1, rect.depth + 1),
                        _Rect(mid, rect.a1, rect.b0, rect.b1, rect.depth + 1)]
        else:
            mid = rect.b0 + rect.rows_b // 2
            children = [_Rect(rect.a0, rect.a1, rect.b0, mid, rect.depth + 1),
                        _Rect(rect.a0, rect.a1, mid, rect.b1, rect.depth + 1)]

        parts = [self._run_rect(tile, child, log) for child in children]
        stats = KernelStats()
        seconds = 0.0
        for part in parts:
            stats.merge(part.stats)
            seconds += part.seconds
            events.extend(part.events)
        return _RectResult(
            stats=stats, seconds=seconds, events=events,
            n_retries=retries + sum(p.n_retries for p in parts),
            n_splits=1 + sum(p.n_splits for p in parts),
            backoff_seconds=backoff + sum(p.backoff_seconds for p in parts),
            degraded=degraded or any(p.degraded for p in parts),
            schedule=parts[-1].schedule)


def _has_epilogue(measure) -> bool:
    """Whether tiles pay the expansion/finalize epilogue launch."""
    return measure.kind == EXPANDED or measure.finalize is not None


def _epilogue_launch(n_elements: int) -> Launch:
    """The embarrassingly-parallel expansion/finalize kernel (§3.4)."""
    extra = KernelStats()
    extra.alu_ops += 6.0 * n_elements
    extra.special_ops += 1.0 * n_elements
    extra.gmem_transactions += 2 * coalesced_transactions(n_elements,
                                                          itemsize=4)
    return Launch(extra, grid_blocks=max(1, -(-n_elements // 256)),
                  block_threads=256)


def _norms_launch(plan: PairwisePlan) -> Optional[Launch]:
    """The warp-per-row norm reductions (§3.4), once per plan; None when
    the measure needs no norms."""
    n_kinds = len(plan.measure.norms)
    if plan.measure.kind != EXPANDED or n_kinds == 0:
        return None
    a, b = plan.a, plan.b
    extra = KernelStats()
    nnz = a.nnz + (0 if plan.b_is_a else b.nnz)
    rows = a.n_rows + (0 if plan.b_is_a else b.n_rows)
    extra.alu_ops += 2.0 * nnz * n_kinds
    extra.gmem_transactions += coalesced_transactions(nnz, itemsize=4) * n_kinds
    extra.gmem_transactions += coalesced_transactions(rows, itemsize=4) * n_kinds
    return Launch(extra, grid_blocks=max(1, rows), block_threads=32)


def estimate_execution_seconds(plan: PairwisePlan, *,
                               n_workers: int = 1) -> float:
    """Modeled wall time of executing ``plan`` on ``n_workers`` lanes.

    The executor with numerics turned off: every tile's kernel schedule
    and epilogue launch, and the norms launch, are the ones
    :meth:`PlanExecutor.execute` launches, priced without side effects and
    folded by the same makespan. For a clean run the result *is*
    :attr:`PlanExecutionReport.simulated_seconds` (fault backoff and
    degradation change the executed time, never this estimate); host
    plans price ``0.0``.
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    if not plan.simulate:
        return 0.0
    tile_seconds = []
    for tile in plan.grid.tiles():
        seconds = plan.kernel.estimate_seconds(
            plan.a_band(tile.band_a), plan.b_band(tile.band_b),
            plan.measure.semiring)
        if _has_epilogue(plan.measure):
            seconds += _epilogue_launch(
                tile.rows_a * tile.rows_b).price(plan.spec).seconds
        tile_seconds.append(seconds)
    total = max(round_robin_lanes(tile_seconds, int(n_workers)))
    norms = _norms_launch(plan)
    if tile_seconds and norms is not None:
        total += norms.price(plan.spec).seconds
    return total
