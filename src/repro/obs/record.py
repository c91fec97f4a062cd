"""One recording path: each observed fact, written to every sink once.

``Server``, ``MutableIndex``, ``PlanExecutor`` and ``DistributedExecutor``
each hold one :class:`Observer` over the tracer, metrics registry and
telemetry they were given, and record each fact with one call, e.g.
``self._obs.record(report, span=batch_span)``. :meth:`Observer.record`
dispatches on the fact's type through one table (:func:`_projections`,
DESIGN.md §16) whose entries project the fact onto the sinks — metric
updates, a span annotation or post-hoc span, a wide event — so every
metric name, help string, label set, fact span name and event attribute
lives here. With no sink attached ``record`` returns at once. Timing
scopes (``plan.execute``, ``shard[i]``, ...) stay spans the component
opens. Launches and transfers record nothing where they run: a planned
tile's outcome carries its *launch log* (:func:`_launch_log`), which the
plan executor's observer records with the tile, in tile order, when the
plan completes or aborts, so serial and N-worker runs record the same.
"""

from __future__ import annotations

import functools
from typing import Tuple

from repro.gpusim.executor import Launch, LaunchResult
from repro.obs.metrics import NULL_METRICS
from repro.obs.telemetry import deterministic_trace_id, trace_id_for_request
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, current_trace_context

__all__ = ["Observer", "NULL_OBSERVER", "observer", "LATENCY_BUCKETS_MS"]

#: Bucket bounds of the request latency histograms: a power-of-two ladder
#: fine enough in the ms range that interpolated quantiles stay within one
#: narrow bucket of the exact sample percentiles.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 2048.0, 4096.0, 8192.0)


class Observer:
    """The sinks one component records into, and the one way to record.

    ``tracer`` / ``metrics`` default to the no-op tracer and registry;
    ``telemetry`` stays ``None`` when absent.
    """

    __slots__ = ("tracer", "metrics", "telemetry", "active")

    def __init__(self, tracer=None, metrics=None, telemetry=None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.telemetry = telemetry
        self.active = (self.tracer.enabled or telemetry is not None
                       or self.metrics is not NULL_METRICS)

    def record(self, fact, **context) -> None:
        """Project one fact onto every attached sink (see the table)."""
        if self.active:
            _projections()[type(fact)](self, fact, **context)

    def emit(self, kind: str, **attrs) -> None:
        """One wide event, when a telemetry collector is attached."""
        if self.telemetry is not None:
            self.telemetry.emit(kind, **attrs)


def _inc(obs, name: str, help_text: str, amount=1, **labels) -> None:
    """Count ``amount`` on a counter; a zero amount records nothing."""
    if amount:
        obs.metrics.counter(name, help_text).inc(amount, **labels)


#: the shared observer of a component given no sink at all
NULL_OBSERVER = Observer()


def observer(tracer=None, metrics=None, telemetry=None) -> Observer:
    """A component's observer (:data:`NULL_OBSERVER` when it has no sink)."""
    if ((tracer is None or tracer is NULL_TRACER) and metrics is None
            and telemetry is None):
        return NULL_OBSERVER
    return Observer(tracer, metrics, telemetry)


# -- serving: repro.serve.server ---------------------------------------
def _submitted(obs, request):
    """ServeRequest: a submission, counted before any shed decision."""
    _inc(obs, "serve_requests_total", "query blocks submitted to the server")
    _inc(obs, "serve_priority_requests_total",
         "submissions by priority class", priority=str(request.priority))


def _refused(obs, report):
    """ShedReport: the shed ladder or the admission gate refused one."""
    labels = {"priority": str(report.priority), "reason": report.reason}
    if report.kind == "shed":
        _inc(obs, "serve_shed_total",
             "submissions refused by the backpressure shed ladder", **labels)
    else:
        _inc(obs, "serve_rejected_total",
             "submissions refused by the admission gate", **labels)
    trace_id = trace_id_for_request(report.submission_id)
    with obs.tracer.span(f"serve.{report.kind}", "serve",
                         trace_id=trace_id,
                         submission_id=report.submission_id,
                         priority=report.priority, n_rows=report.n_rows,
                         reason=report.reason) as span:
        if report.shed_level:
            span.annotate(shed_level=report.shed_level)
    obs.emit("shed", trace_id=trace_id, ts_ms=report.arrival_ms,
             request_id=report.submission_id, refusal=report.kind,
             reason=report.reason, priority=report.priority,
             n_rows=report.n_rows, shed_level=report.shed_level)


def _queued(obs, scheduler):
    """QueryScheduler: the forming batch after a submission or drain."""
    obs.metrics.gauge("serve_queue_depth",
                      "requests waiting in the forming batch").set(
                          scheduler.queue_depth)


def _replica_fault(obs, err, *, span):
    """ExecutionFaultError: a replica's plan stopped at a watermark."""
    span.event("shard.fault", "fault", watermark=err.watermark,
               error=(type(err.cause).__name__ if err.cause
                      else "ExecutionFaultError"))


def _replica_failed(obs, state, *, span, watermark):
    """ReplicaState: a replica exhausted its resumes and was marked
    unhealthy; the shard fails over from ``watermark``."""
    _inc(obs, "serve_replica_failures_total",
         "replicas marked unhealthy after exhausting their resume ladder")
    span.event("shard.failover", "fault", replica_id=state.replica_id,
               watermark=watermark)


def _shard(obs, report, *, span):
    """ShardReport: one shard's outcome within a batch."""
    _inc(obs, "serve_shard_resumes_total",
         "watermark resumes after unabsorbed faults", report.n_resumes)
    if report.failed:
        _inc(obs, "serve_shard_failures_total",
             "shards dropped with every replica dead")
        span.annotate(failed=True, n_resumes=report.n_resumes,
                      failed_replicas=list(report.failed_replicas))
        return
    _inc(obs, "serve_failovers_total",
         "shards completed on a sibling after replica failure",
         int(bool(report.failed_replicas)))
    span.set_sim_seconds(report.simulated_seconds)
    span.annotate(n_tiles=report.n_tiles, n_resumes=report.n_resumes,
                  replica_id=report.replica_id)


def _batch(obs, report, *, span):
    """BatchReport: an executed micro-batch; its tile/fault/failover
    events go out in shard order, so the stream ignores ``n_workers``."""
    m = obs.metrics
    _inc(obs, "serve_batches_total", "micro-batches executed",
         reason=report.close_reason)
    m.histogram("serve_batch_rows",
                "query rows per executed micro-batch").observe(report.n_rows)
    m.histogram("serve_batch_requests",
                "coalesced requests per micro-batch").observe(
                    len(report.request_ids))
    m.histogram("serve_service_ms", "simulated batch service time").observe(
        report.service_ms)
    _inc(obs, "serve_fault_events_total",
         "fault events observed across shard executions",
         report.n_fault_events)
    _inc(obs, "serve_partial_batches_total",
         "batches that lost at least one shard", int(report.partial))
    span.set_sim_seconds(max((r.simulated_seconds
                              for r in report.shard_reports
                              if not r.failed), default=0.0))
    span.annotate(failed_shards=list(report.failed_shards))
    if report.n_failovers:
        span.annotate(n_failovers=report.n_failovers)
    if obs.telemetry is None:
        return
    batch_trace = deterministic_trace_id("serve.batch", report.batch_id)
    members = [trace_id_for_request(i) for i in report.request_ids]
    for shard in report.shard_reports:
        at = {"trace_id": batch_trace, "ts_ms": report.start_ms,
              "batch_id": report.batch_id, "shard_id": shard.shard_id}
        for tile_index, seconds in shard.tile_seconds:
            obs.emit("tile", **at, tile=tile_index, sim_seconds=seconds,
                     member_trace_ids=list(members))
        for ev in shard.fault_log:
            obs.emit("fault", **at, tile=ev.tile_index,
                     fault_kind=ev.kind.value, action=ev.action,
                     attempt=ev.attempt, member_trace_ids=list(members))
        for replica_id in shard.failed_replicas:
            obs.emit("failover", **at, replica_id=replica_id,
                     member_trace_ids=list(members))


def _resolved(obs, report, *, request, failed, span):
    """RequestReport: a request resolved (or failed) with its batch."""
    m = obs.metrics
    exemplar = report.trace_id or None
    priority = str(report.priority)
    for name, help_text, value, labels in (
            ("serve_latency_ms",
             "simulated request latency (arrival to completion)",
             report.latency_ms, {}),
            ("serve_priority_latency_ms",
             "simulated request latency by priority class",
             report.latency_ms, {"priority": priority}),
            ("serve_queue_wait_ms", "simulated wait before the batch started",
             report.queue_wait_ms, {})):
        m.histogram(name, help_text, buckets=LATENCY_BUCKETS_MS).observe(
            value, exemplar=exemplar, **labels)
    _inc(obs, "serve_partial_results_total",
         "requests answered from a degraded shard set", int(report.partial))
    missed = int(report.deadline_missed)
    _inc(obs, "serve_deadline_missed_total",
         "requests completed after their deadline", missed)
    _inc(obs, "serve_priority_deadline_missed_total",
         "deadline misses by priority class", missed, priority=priority)
    _inc(obs, "serve_degraded_total",
         "admitted requests degraded to a smaller k", int(report.degraded),
         priority=priority)
    batch = report.batch
    if obs.telemetry is not None:
        # The shard whose modeled seconds set the batch's service time
        # (shard order breaks ties, deterministically).
        slowest = max((r for r in batch.shard_reports if not r.failed),
                      key=lambda r: r.simulated_seconds, default=None)
        obs.emit(
            "request", trace_id=report.trace_id, ts_ms=batch.completion_ms,
            request_id=report.request_id, batch_id=batch.batch_id,
            batch_trace_id=deterministic_trace_id("serve.batch",
                                                  batch.batch_id),
            priority=report.priority, n_rows=request.n_rows,
            k=request.n_neighbors, requested_k=report.requested_k,
            arrival_ms=float(report.arrival_ms),
            start_ms=float(batch.start_ms),
            completion_ms=float(batch.completion_ms),
            latency_ms=float(report.latency_ms),
            queue_wait_ms=float(report.queue_wait_ms),
            deadline_missed=bool(report.deadline_missed),
            degraded=bool(report.degraded), partial=bool(report.partial),
            failed=failed, n_faults=batch.n_fault_events,
            slowest_shard=slowest.shard_id if slowest is not None else -1)
    with obs.tracer.span("serve.request", "serve", parent=span,
                         trace_id=report.trace_id,
                         request_id=report.request_id,
                         n_rows=request.n_rows, k=request.n_neighbors,
                         priority=report.priority) as req_span:
        req_span.set_sim_seconds(report.latency_ms / 1e3)
        if report.deadline_missed:
            req_span.annotate(deadline_missed=True)
        if report.partial:
            req_span.annotate(partial=True)
        if report.degraded:
            req_span.annotate(degraded=True,
                              requested_k=report.requested_k)


# -- launches: repro.gpusim.executor, repro.kernels.base ----------------
def _launch(obs, launch, result, span) -> None:
    """One launch of a launch log, under ``span``: its kernel span when it
    names one (with its step spans; failed when ``result`` is the type of
    the fault that stopped it), and for a completed launch its
    ``gpusim.launch`` event and the launch metrics."""
    if launch.span is not None:
        kernel = obs.tracer.span(launch.span, "kernel", parent=span)
        with kernel:
            for name, args in launch.steps:
                with obs.tracer.span(name, "kernel", parent=kernel) as step:
                    step.annotate(**args)
        if not isinstance(result, LaunchResult):
            kernel.fail(result)
            return
        kernel.set_sim_seconds(result.seconds)
        kernel.annotate(**launch.args)
        span = kernel
    elif not isinstance(result, LaunchResult):
        return
    time = result.time
    m = obs.metrics
    m.counter("kernel_launches_total").inc()
    m.histogram("launch_simulated_ms").observe(time.seconds * 1e3)
    m.histogram("occupancy_fraction").observe(time.occupancy_fraction)
    if time.compute_seconds >= time.memory_seconds:
        m.counter("launches_compute_bound_total").inc()
    else:
        m.counter("launches_memory_bound_total").inc()
    m.counter("launches_limited_total").inc(factor=time.limited)
    m.counter("launch_compute_seconds_total").inc(time.compute_seconds)
    m.counter("launch_memory_seconds_total").inc(time.memory_seconds)
    m.counter("launch_fixed_seconds_total").inc(time.fixed_seconds)
    if obs.tracer.enabled:
        span.event("gpusim.launch", "launch", time.seconds,
                   grid_blocks=int(launch.grid_blocks),
                   block_threads=int(launch.block_threads),
                   smem_per_block=int(launch.smem_per_block),
                   occupancy=round(time.occupancy_fraction, 4),
                   bound=time.bound, limited=time.limited,
                   limiting_factor=result.occupancy.limiting_factor,
                   compute_us=time.compute_seconds * 1e6,
                   memory_us=time.memory_seconds * 1e6,
                   fixed_us=time.fixed_seconds * 1e6)
    # a hybrid (§3.3) pass: the load factor of every hash table it built
    load_factors = getattr(launch.profile, "load_factors", None)
    if load_factors is not None:
        histogram = m.histogram("hash_load_factor")
        for load_factor in load_factors:
            histogram.observe(load_factor)


def _launch_log(obs, log, span) -> None:
    """A launch log, recorded under ``span`` in the order it was written.

    Its entries: an engine's name for each attempt that passed kernel
    entry (:meth:`~repro.kernels.base.PairwiseKernel.run`); ``(launch,
    result)`` for each launch, ``result`` being the type of the fault
    that stopped it when it did
    (:meth:`~repro.gpusim.executor.LaunchSchedule.execute`);
    and ``(name, category, seconds, args)`` for the step a launch priced
    (an epilogue, the norms), recorded as a child span.
    """
    for entry in log:
        if isinstance(entry, str):
            obs.metrics.counter("engine_selected_total").inc(engine=entry)
        elif isinstance(entry[0], Launch):
            _launch(obs, *entry, span)
        else:
            name, category, seconds, args = entry
            with obs.tracer.span(name, category, parent=span) as step:
                step.set_sim_seconds(seconds)
                step.annotate(**args)


# -- plan execution: repro.plan.executor -------------------------------
def _tile_fault_event(span, ev) -> None:
    """One recovery action of a tile, as an event on its tile span."""
    span.event(ev.action, "fault", ev.seconds, kind=ev.kind.value,
               tile=ev.tile_index, attempt=ev.attempt, depth=ev.depth,
               detail=ev.detail)


def _tile_span(obs, fact, root):
    """A planned tile's span under ``root``: its launch log, then the
    recovery events of its fault log."""
    tile = fact.tile
    span = obs.tracer.span(
        f"tile[{tile.band_a},{tile.band_b}]", "tile", parent=root,
        tile=tile.index, lane=fact.lane, rows_a=tile.rows_a,
        rows_b=tile.rows_b)
    with span:
        _launch_log(obs, fact.log, span)
    for ev in fact.events:
        _tile_fault_event(span, ev)
    return span


def _tile(obs, outcome, *, root):
    """_RectResult of a tile the consumer received, recorded in tile
    order under the plan's ``root`` span."""
    m = obs.metrics
    _inc(obs, "tiles_executed", "tiles delivered to the consumer")
    m.histogram("simulated_ms", "per-tile simulated milliseconds").observe(
        outcome.seconds * 1e3)
    m.gauge("peak_workspace_bytes",
            "high watermark of per-tile kernel workspace").set_max(
                outcome.stats.workspace_bytes)
    for name, help_text, amount in (  # registered on every tile
            ("retries_total", "transient/stuck launch retries",
             outcome.n_retries),
            ("tile_splits_total", "adaptive OOM tile splits",
             outcome.n_splits),
            ("degraded_tiles_total",
             "tiles that finished on a degraded strategy",
             int(outcome.degraded)),
            ("fault_events_total", "recovery actions in the fault log",
             len(outcome.events)),
            ("backoff_seconds_total", "simulated retry backoff seconds",
             outcome.backoff_seconds)):
        counter = m.counter(name, help_text)
        if amount:
            counter.inc(amount)
    span = _tile_span(obs, outcome, root)
    span.set_sim_seconds(outcome.seconds)
    span.annotate(retries=outcome.n_retries, splits=outcome.n_splits,
                  degraded=outcome.degraded)


def _tile_failed(obs, failure, *, root, unabsorbed):
    """_TileFailure: a tile failed beyond recovery and aborts the plan."""
    _tile_span(obs, failure, root).fail(type(failure))
    root.event("unabsorbed", "fault", tile=unabsorbed.tile_index,
               kind=unabsorbed.kind.value, detail=unabsorbed.detail)


def _plan_executed(obs, report, *, span):
    """PlanExecutionReport: a plan execution completed. Its delivered
    tiles, then its own launch log (the norms), then the plan."""
    for outcome in report.tiles:
        _tile(obs, outcome, root=span)
    _launch_log(obs, report.launch_log, span)
    span.set_sim_seconds(report.simulated_seconds)
    m = obs.metrics
    _inc(obs, "plans_executed", "completed plan executions")
    m.gauge("plan_simulated_seconds",
            "modeled wall time of the last plan").set(
                report.simulated_seconds)
    m.gauge("peak_resident_bytes",
            "high watermark of resident tile memory").set_max(
                report.peak_resident_bytes)


# -- distributed execution: repro.dist.executor ------------------------
def _transferred(obs, transfer, *, span, step, phase, retries,
                 backoff_seconds, trace_id, ts_ms):
    """Transfer: one comm step completed (after any link retries)."""
    m = obs.metrics
    m.counter("comm_transfers_total").inc()
    m.counter("comm_bytes_total").inc(transfer.nbytes, tier=transfer.tier)
    m.counter("comm_seconds_total").inc(transfer.seconds)
    span.event("comm.transfer", "comm", transfer.seconds,
               nbytes=int(transfer.nbytes), src=int(transfer.src),
               dst=int(transfer.dst), tier=transfer.tier)
    span.set_sim_seconds(transfer.seconds)
    span.annotate(tier=transfer.tier, retries=retries,
                  backoff_seconds=backoff_seconds)
    obs.emit("transfer", trace_id=trace_id, ts_ms=ts_ms, step=step,
             phase=phase, src=transfer.src, dst=transfer.dst,
             nbytes=int(transfer.nbytes), tier=transfer.tier,
             retries=retries, backoff_seconds=backoff_seconds,
             sim_seconds=transfer.seconds)


def _fault(obs, event, *, site, span=NULL_SPAN, phase="", trace_id="",
           ts_ms=0.0):
    """FaultEvent at a comm step (``site="link"``) or a compaction's shard
    build retry (``site="compaction"``)."""
    if site == "compaction":
        _inc(obs, "compaction_retries_total",
             "shard-build retries absorbed during compaction")
        return
    step = event.tile_index
    if event.action == "unabsorbed":
        span.event("unabsorbed", "fault", kind=event.kind.value, step=step,
                   detail=event.detail)
    else:
        span.event(event.action, "fault", event.seconds,
                   kind=event.kind.value, step=step, attempt=event.attempt,
                   detail=event.detail)
    obs.emit("fault", trace_id=trace_id, ts_ms=ts_ms, step=step,
             phase=phase, fault_kind=event.kind.value, action=event.action,
             attempt=event.attempt, sim_seconds=event.seconds)


def _dist_executed(obs, report, *, span):
    """DistExecutionReport: a distributed execution completed."""
    span.set_sim_seconds(report.simulated_seconds)
    obs.metrics.gauge(
        "dist_simulated_seconds",
        "modeled wall time of the last distributed plan").set(
            report.simulated_seconds)


# -- the mutable index: repro.serve.mutable ----------------------------
def _index_state(obs, index, *, upserted=0, deleted=0, snapshot=None):
    """MutableIndex: its state changed (or a snapshot was written). The
    gauges read the index here: an unmetered write never computes them."""
    m = obs.metrics
    if m is NULL_METRICS:
        return
    _inc(obs, "mutable_upserts_total", "rows upserted into the memtable",
         upserted)
    _inc(obs, "mutable_deletes_total", "rows tombstoned in the memtable",
         deleted)
    _inc(obs, "mutable_snapshots_total", "rolling snapshots written",
         int(snapshot is not None))
    for name, help_text, value in (
            ("index_generation", "completed compactions of the mutable index",
             index.generation),
            ("mutable_delta_rows", "rows served from the delta levels",
             index.delta_rows),
            ("mutable_tombstones", "tombstones awaiting compaction",
             index.tombstone_count),
            ("mutable_live_rows", "rows visible to queries", index.n_rows)):
        m.gauge(name, help_text).set(value)


def _compaction_resumed(obs, pending):
    """_PendingCompaction: a faulted compaction resumed at its watermark."""
    _inc(obs, "compaction_resumes_total",
         "compactions resumed from a fault watermark")


def _compaction_faulted(obs, err, *, span, sim_seconds):
    """CompactionFaultError: a compaction aborted resumably."""
    _inc(obs, "compaction_faults_total",
         "compactions aborted on an unabsorbed fault")
    span.annotate(failed=True, watermark=err.watermark)
    span.set_sim_seconds(sim_seconds)


def _compacted(obs, report, *, span, sim_seconds, ordinal):
    """CompactionReport: a compaction completed (or was a no-op); the event
    takes the ambient trace id, else one minted from the ordinal."""
    if not report.noop:
        _inc(obs, "compaction_total", "completed compactions",
             reason=report.reason)
        obs.metrics.histogram(
            "compaction_seconds",
            "simulated seconds per completed compaction").observe(
                report.simulated_seconds)
        span.set_sim_seconds(sim_seconds)
        span.annotate(live_rows=report.live_rows,
                      absorbed_rows=report.absorbed_rows,
                      absorbed_tombstones=report.absorbed_tombstones)
    if obs.telemetry is None:
        return
    trace_id = (current_trace_context()
                or deterministic_trace_id("mutable.compact", ordinal,
                                          report.generation))
    obs.emit("compaction", trace_id=trace_id, ts_ms=report.completed_ms,
             **{name: getattr(report, name) for name in (
                 "generation", "reason", "n_shards", "placement",
                 "live_rows", "absorbed_rows", "absorbed_tombstones")},
             sim_seconds=report.simulated_seconds,
             n_retries=report.n_retries, resumed=report.resumed,
             noop=report.noop)


@functools.lru_cache(maxsize=None)
def _projections() -> dict:
    """The fact table: fact type -> projection onto the sinks (built on
    first use: the fact types live in layers that import this module)."""
    from repro.dist.executor import DistExecutionReport
    from repro.errors import CompactionFaultError, ExecutionFaultError
    from repro.faults.spec import FaultEvent
    from repro.gpusim.interconnect import Transfer
    from repro.plan.executor import PlanExecutionReport, _RectResult
    from repro.plan.executor import _TileFailure
    from repro.serve.mutable import CompactionReport, MutableIndex
    from repro.serve.mutable import _PendingCompaction
    from repro.serve.replication import ReplicaState
    from repro.serve.request import BatchReport, RequestReport, ShardReport
    from repro.serve.request import ServeRequest, ShedReport
    from repro.serve.scheduler import QueryScheduler

    return {
        ServeRequest: _submitted,
        ShedReport: _refused,
        QueryScheduler: _queued,
        ExecutionFaultError: _replica_fault,
        ReplicaState: _replica_failed,
        ShardReport: _shard,
        BatchReport: _batch,
        RequestReport: _resolved,
        _RectResult: _tile,
        _TileFailure: _tile_failed,
        PlanExecutionReport: _plan_executed,
        Transfer: _transferred,
        FaultEvent: _fault,
        DistExecutionReport: _dist_executed,
        MutableIndex: _index_state,
        _PendingCompaction: _compaction_resumed,
        CompactionFaultError: _compaction_faulted,
        CompactionReport: _compacted,
    }
