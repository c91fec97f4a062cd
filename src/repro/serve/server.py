"""The serving facade: admission → fan-out → merge → report.

``Server`` ties the layer together: :meth:`submit` hands a query block to
the :class:`~repro.serve.QueryScheduler` and returns a
:class:`~repro.serve.ServeFuture`; whenever the scheduler closes a
micro-batch the server executes it — one
:class:`~repro.plan.PairwisePlan` per shard (optionally on concurrent
fan-out threads), per-shard top-k remapped to global ids, cross-shard
merge through :class:`~repro.neighbors.topk.TopKAccumulator` — and
resolves every coalesced future with its rows and a
:class:`~repro.serve.RequestReport`.

Fault story, inside out: each replica runs under the executor's
:class:`~repro.faults.RecoveryPolicy`; if a fault still escapes as an
:class:`~repro.errors.ExecutionFaultError`, the server resumes the
replica from the error's watermark with an escalated retry budget, up to
``max_shard_resumes`` times. A replica that exhausts that ladder is
marked unhealthy in the :class:`~repro.serve.ReplicaRouter` and the shard
**fails over** to its least-loaded live sibling, resuming from the same
watermark on the same consumer — replicas hold bit-identical prepared
operands, so the delivered top-k is bit-identical to a fault-free run.
Only when *every* replica of a shard is dead does the batch degrade to a
``partial=True`` result (exactly the pre-replication behavior); only if
every shard fails do the futures raise
:class:`~repro.errors.ShardFailedError`. Unhealthy replicas re-enter
rotation through seeded health probes after a backoff.

Load story, outside in: an optional
:class:`~repro.serve.AdmissionController` bounds queue depth,
forming-batch age, and row rate (structured
:class:`~repro.errors.AdmissionRejected`, reason ``"queue_depth"`` /
``"batch_age"`` / ``"rate"``); an optional
:class:`~repro.serve.BackpressureController` walks its SLO-burn shed
ladder ahead of the gate, rejecting (``"shed:<rung>"``) or degrading
(smaller k) the lower priority classes. Every refusal lands in
:attr:`Server.shed_reports` and the ``serve_shed_total`` /
``serve_rejected_total`` counters, so
``serve_requests_total == resolved + shed + rejected`` to the integer.

Latency is modeled, not measured: arrival and dispatch stamps come from
the scheduler's simulated clock, service time is the slowest shard's
modeled kernel seconds, and a batch cannot start before its chosen
replicas finished their previous work — so queue depth, batching delay,
and p50/p99 spread all emerge deterministically from the configuration.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    AdmissionRejected,
    ExecutionFaultError,
    InvalidDeadlineError,
    ShardFailedError,
)
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryPolicy
from repro.obs import resolve_trace, write_chrome_trace
from repro.obs.record import LATENCY_BUCKETS_MS, observer
from repro.obs.telemetry import (
    Telemetry,
    deterministic_trace_id,
    trace_id_for_request,
)
from repro.obs.tracer import trace_context
from repro.plan.consumers import TopKConsumer
from repro.plan.executor import PlanExecutor, fan_out
from repro.plan.pairwise_plan import PreparedOperand, stack_operands
from repro.serve.admission import AdmissionController
from repro.serve.backpressure import BackpressureController
from repro.serve.replication import ReplicaRouter, ReplicaState
from repro.serve.request import (
    BatchReport,
    RequestReport,
    ServeFuture,
    ServeRequest,
    ServeResult,
    ShardReport,
    ShedReport,
)
from repro.serve.scheduler import MicroBatch, QueryScheduler
from repro.serve.sharding import ShardedIndex

__all__ = ["Server", "LATENCY_BUCKETS_MS"]


class Server:
    """Online k-NN serving over a :class:`~repro.serve.ShardedIndex`.

    Parameters
    ----------
    index:
        The fitted, sharded index to serve. Its ``n_replicas`` sizes the
        per-shard replica pools the server routes between.
    max_batch_rows, max_wait_ms:
        Micro-batch admission knobs (see
        :class:`~repro.serve.QueryScheduler`).
    n_workers:
        Fan-out threads per batch: how many shards execute concurrently.
        Results are bit-identical for any value.
    recovery:
        :class:`~repro.faults.RecoveryPolicy` applied inside every
        replica's executor (default: the standard policy).
    fault_injectors:
        Optional ``{(shard_id, replica_id): FaultInjector}`` —
        deterministic fault schedules replayed into individual replicas.
        A bare ``shard_id`` key targets replica 0 (the pre-replication
        form).
    max_shard_resumes:
        Watermark resumes the server attempts per replica per batch
        before marking the replica unhealthy and failing the shard over
        to a live sibling. With every sibling dead, the shard fails and
        the batch degrades to a partial result.
    admission:
        Optional :class:`~repro.serve.AdmissionController` gating
        :meth:`submit` (queue depth, forming-batch age, token-bucket row
        rate). Refusals raise :class:`~repro.errors.AdmissionRejected`.
    backpressure:
        Optional :class:`~repro.serve.BackpressureController`; its shed
        ladder runs *before* the admission gate and may also degrade an
        admitted request to a smaller k.
    probe_backoff_ms, probe_success_rate, probe_seed:
        Health-probe knobs for unhealthy replicas (see
        :class:`~repro.serve.ReplicaRouter`).
    trace:
        ``None`` | path | :class:`~repro.obs.Tracer` — records
        ``serve.batch`` → ``serve.request`` / ``shard[i]`` →
        ``plan.execute`` span trees; a path is written as a Chrome trace
        on :meth:`drain`.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` receiving the
        ``serve_*`` instrument family.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` collector.
        Every admitted request mints a deterministic trace id that
        annotates its span tree and stamps one wide event per request,
        tile, fault, failover, and shed decision — all emitted at
        deterministic points under the server lock, so the stream is
        identical for any ``n_workers``. Latency histograms carry the
        trace id as a per-bucket exemplar.
    """

    def __init__(self, index: ShardedIndex, *, max_batch_rows: int = 128,
                 max_wait_ms: float = 2.0, n_workers: int = 1,
                 recovery: Optional[RecoveryPolicy] = None,
                 fault_injectors: Optional[Dict] = None,
                 max_shard_resumes: int = 2,
                 admission: Optional[AdmissionController] = None,
                 backpressure: Optional[BackpressureController] = None,
                 probe_backoff_ms: float = 50.0,
                 probe_success_rate: float = 1.0, probe_seed: int = 0,
                 trace=None, metrics=None,
                 telemetry: Optional[Telemetry] = None):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if max_shard_resumes < 0:
            raise ValueError("max_shard_resumes must be non-negative")
        self.index = index
        self.scheduler = QueryScheduler(max_batch_rows=max_batch_rows,
                                        max_wait_ms=max_wait_ms)
        self.n_workers = int(n_workers)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.fault_injectors: Dict[Tuple[int, int], FaultInjector] = {}
        for key, injector in (fault_injectors or {}).items():
            if isinstance(key, tuple):
                self.fault_injectors[(int(key[0]), int(key[1]))] = injector
            else:
                self.fault_injectors[(int(key), 0)] = injector
        self.max_shard_resumes = int(max_shard_resumes)
        self.admission = admission
        self.backpressure = backpressure
        self.router = ReplicaRouter(
            n_shards=index.n_shards, n_replicas=index.n_replicas,
            probe_backoff_ms=probe_backoff_ms,
            probe_success_rate=probe_success_rate, probe_seed=probe_seed)
        tracer, self._trace_path = resolve_trace(trace)
        self._obs = observer(tracer, metrics, telemetry)
        self.tracer = self._obs.tracer
        self.metrics = self._obs.metrics
        self.telemetry = telemetry
        #: every executed batch / resolved request, in execution order
        self.batch_reports: List[BatchReport] = []
        self.request_reports: List[RequestReport] = []
        #: every refused submission (admission gate or shed ladder)
        self.shed_reports: List[ShedReport] = []
        self._lock = threading.RLock()
        self._pending: Dict[int, ServeFuture] = {}
        self._resolved: List[ServeFuture] = []
        self._next_request_id = 0
        self._now_ms = 0.0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, queries, n_neighbors: int = 5, *,
               arrival_ms: Optional[float] = None,
               deadline_ms: Optional[float] = None,
               priority: int = 0) -> ServeFuture:
        """Admit one query block; returns a future resolved at batch time.

        ``arrival_ms`` places the request on the simulated clock (must be
        non-decreasing across submissions; default: the current simulated
        time). ``deadline_ms`` is an absolute completion deadline —
        advisory once admitted (late results are still delivered, flagged
        ``deadline_missed``), but a deadline already past at arrival is
        rejected with :class:`~repro.errors.InvalidDeadlineError`.
        ``priority`` is the request's class, lower = more important; the
        shed ladder refuses or degrades higher-numbered classes first,
        raising :class:`~repro.errors.AdmissionRejected` for refusals.
        """
        if n_neighbors <= 0:
            raise ValueError(
                f"n_neighbors must be positive, got {n_neighbors!r}")
        if priority < 0:
            raise ValueError(
                f"priority must be non-negative (0 = top priority), got "
                f"{priority!r}")
        with self._lock:
            prepared = self.index.prepare_queries(queries)
            if prepared.n_rows == 0:
                raise ValueError("cannot serve an empty query block")
            if arrival_ms is None:
                arrival_ms = self._now_ms
            arrival_ms = float(arrival_ms)
            if arrival_ms < self._now_ms:
                raise ValueError(
                    f"arrival_ms={arrival_ms} is before the simulated "
                    f"clock ({self._now_ms}ms); time is monotone")
            if deadline_ms is not None and float(deadline_ms) <= arrival_ms:
                raise InvalidDeadlineError(
                    f"deadline_ms={float(deadline_ms)} is not after "
                    f"arrival_ms={arrival_ms}; the deadline was already "
                    f"past when the request arrived",
                    arrival_ms=arrival_ms, deadline_ms=float(deadline_ms))
            self._now_ms = arrival_ms
            self._next_request_id += 1
            request = ServeRequest(
                request_id=self._next_request_id, queries=prepared,
                n_neighbors=int(n_neighbors), n_rows=prepared.n_rows,
                arrival_ms=arrival_ms, deadline_ms=deadline_ms,
                priority=int(priority), requested_k=int(n_neighbors),
                trace_id=trace_id_for_request(self._next_request_id))
            self._obs.record(request)

            if self.backpressure is not None:
                self.backpressure.tick(arrival_ms)
                shed_reason = self.backpressure.decide(request)
                if shed_reason is not None:
                    self._refuse(request, kind="shed", reason=shed_reason,
                                 shed_level=self.backpressure.level)
            if self.admission is not None:
                gate_reason = self.admission.check(request, self.scheduler)
                if gate_reason is not None:
                    self._refuse(request, kind="rejected",
                                 reason=gate_reason)
            if self.backpressure is not None:
                clamped_k = self.backpressure.degraded_k(request)
                if clamped_k is not None:
                    request = replace(request, n_neighbors=clamped_k,
                                      degraded=True)

            future = ServeFuture(request)
            self._pending[request.request_id] = future
            self._run_batches(self.scheduler.offer(request))
        return future

    def _refuse(self, request: ServeRequest, *, kind: str, reason: str,
                shed_level: int = 0) -> None:
        """Record one refusal (ledger entry, then the fact) and raise."""
        report = ShedReport(
            submission_id=request.request_id,
            arrival_ms=request.arrival_ms, priority=request.priority,
            n_rows=request.n_rows, kind=kind, reason=reason,
            shed_level=shed_level)
        self.shed_reports.append(report)
        self._obs.record(report)
        raise AdmissionRejected(
            f"submission {request.request_id} (priority "
            f"{request.priority}, {request.n_rows} rows) refused at "
            f"{request.arrival_ms}ms: {reason}",
            reason=reason, priority=request.priority,
            arrival_ms=request.arrival_ms,
            queue_depth=self.scheduler.queue_depth)

    def drain(self, now_ms: Optional[float] = None) -> List[ServeResult]:
        """Flush and execute the forming batch; resolve all futures.

        Returns the results of every *successful* request resolved so far
        (admission order); rejected futures — all shards failed — keep
        their error and raise it from their own ``result()``. If the
        server was constructed with a trace *path*, the Chrome trace is
        (re)written here.
        """
        with self._lock:
            self._run_batches(self.scheduler.flush(now_ms))
            if self._trace_path is not None:
                write_chrome_trace(self.tracer, self._trace_path)
            return [f._result for f in self._resolved
                    if f._error is None]

    def console_snapshot(self, *, slo=None, prev=None,
                         top_k: int = 5) -> dict:
        """The fleet ops console's health snapshot (see
        :func:`repro.obs.console.fleet_snapshot`); call after
        :meth:`drain` for a settled view."""
        from repro.obs.console import fleet_snapshot
        with self._lock:
            return fleet_snapshot(self, slo=slo, prev=prev, top_k=top_k)

    @property
    def now_ms(self) -> float:
        """The server's simulated clock (last arrival seen)."""
        return self._now_ms

    @property
    def queue_depth(self) -> int:
        return self.scheduler.queue_depth

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def _run_batches(self, batches: List[MicroBatch]) -> None:
        """Execute the batches a submission or drain closed, then record
        the forming batch left behind."""
        for batch in batches:
            self._execute_batch(batch)
        self._obs.record(self.scheduler)

    def _execute_batch(self, batch: MicroBatch) -> None:
        """Fan a closed micro-batch across the shards and resolve futures."""
        queries = stack_operands([r.queries for r in batch.requests])
        k = min(batch.k_max, self.index.n_rows)

        # Batch-scoped spans and events carry the batch's own trace id
        # (coalesced requests share one execution) plus the member
        # request trace ids, so any member's chain stays walkable.
        batch_trace = deterministic_trace_id("serve.batch", batch.batch_id)
        span = self.tracer.span(
            "serve.batch", "serve", trace_id=batch_trace,
            member_trace_ids=",".join(r.trace_id for r in batch.requests),
            batch_id=batch.batch_id, n_requests=len(batch.requests),
            n_rows=batch.n_rows, close_reason=batch.close_reason)
        with span, trace_context(batch_trace):
            shard_reports, parts, replicas = self._fan_out(
                queries, k, batch.dispatch_ms, span)

            start_ms = max([batch.dispatch_ms]
                           + [r.free_ms for r in replicas])
            service_s = max(
                (r.simulated_seconds for r in shard_reports if not r.failed),
                default=0.0)
            completion_ms = start_ms + service_s * 1e3
            for state in replicas:
                self.router.occupy(state, completion_ms)

            report = BatchReport(
                batch_id=batch.batch_id,
                request_ids=tuple(r.request_id for r in batch.requests),
                n_rows=batch.n_rows, close_reason=batch.close_reason,
                dispatch_ms=batch.dispatch_ms, start_ms=start_ms,
                completion_ms=completion_ms,
                shard_reports=tuple(shard_reports))
            self.batch_reports.append(report)
            self._obs.record(report, span=span)

            if len(report.failed_shards) == self.index.n_shards:
                error = ShardFailedError(
                    f"all {self.index.n_shards} shards failed serving "
                    f"batch {batch.batch_id}",
                    failed_shards=report.failed_shards,
                    fault_log=tuple(e for r in shard_reports
                                    for e in r.fault_log))
                self._resolve_requests(batch, report, span,
                                       error=error)
            else:
                distances, indices = ShardedIndex.merge_shard_topk(
                    parts, queries.n_rows, k)
                self._resolve_requests(batch, report, span,
                                       distances=distances, indices=indices)
            # Completion-time burn rates feed the shed ladder for the
            # next arrivals (the controller tolerates ticks that lag the
            # monitor's clock).
            if self.backpressure is not None:
                self.backpressure.tick(completion_ms)

    def _fan_out(self, queries: PreparedOperand, k: int,
                 dispatch_ms: float, batch_span,
                 ) -> Tuple[List[ShardReport],
                            List[Tuple[np.ndarray, np.ndarray]],
                            List[ReplicaState]]:
        """Run every shard (possibly concurrently); collect reports,
        ``(distances, global_indices)`` for the surviving shards, and the
        replica each surviving shard ran on."""
        outcomes = list(fan_out(
            lambda i: self._run_shard(i, queries, k, dispatch_ms,
                                      batch_span),
            range(self.index.n_shards), self.n_workers))
        reports = [rep for rep, _, _ in outcomes]
        parts = [part for _, part, _ in outcomes if part is not None]
        replicas = [state for _, _, state in outcomes if state is not None]
        return reports, parts, replicas

    def _run_shard(self, shard_id: int, queries: PreparedOperand, k: int,
                   dispatch_ms: float, batch_span,
                   ) -> Tuple[ShardReport,
                              Optional[Tuple[np.ndarray, np.ndarray]],
                              Optional[ReplicaState]]:
        """One shard's plan across its replica pool.

        Each replica runs the escalating resume ladder: an unabsorbed
        fault resumes the plan from its watermark with a larger retry
        budget, up to ``max_shard_resumes`` times. A replica that exhausts
        the ladder is marked unhealthy and the *same consumer* resumes
        from the *same watermark* on the next live sibling — replicas are
        bit-identical, so the merged top-k cannot tell a failover
        happened. Returns a failed report only when the pool is empty.
        """
        shard = self.index.shards[shard_id]
        if shard.n_rows == 0:
            # A drained delta pseudo-shard (mutable index right after a
            # compaction): nothing to scan, contribute a width-0 part so
            # the merge and SLO accounting stay uniform.
            empty = (np.zeros((queries.n_rows, 0)),
                     np.zeros((queries.n_rows, 0), dtype=np.int64))
            return ShardReport(shard_id=shard_id, simulated_seconds=0.0,
                               n_tiles=0, replica_id=-1), empty, None
        span = self.tracer.span(f"shard[{shard_id}]", "serve",
                                parent=batch_span, shard_id=shard_id,
                                device=shard.device.name)
        with span:
            plan = self.index.shard_plan(shard_id, queries)
            consumer = TopKConsumer(self.index.shard_k(shard_id, k))
            fault_log: list = []
            failed_replicas: list = []
            total_resumes = 0
            resume_from = 0
            report = None
            while report is None:
                self.router.run_probes(shard_id, dispatch_ms)
                state = self.router.pick(shard_id, dispatch_ms)
                if state is None:
                    break
                injector = self.fault_injectors.get(
                    (shard_id, state.replica_id))
                for resumes in range(self.max_shard_resumes + 1):
                    # Escalate the retry budget on every resume: the
                    # executor gave up under the base policy, so replaying
                    # the same budget from the watermark could fail
                    # identically forever.
                    recovery = (self.recovery if resumes == 0 else
                                replace(self.recovery, max_retries=(
                                    self.recovery.max_retries + resumes)))
                    executor = PlanExecutor(
                        plan, recovery=recovery, fault_injector=injector,
                        tracer=self.tracer, metrics=self.metrics)
                    try:
                        report = executor.execute(consumer,
                                                  resume_from=resume_from)
                        break
                    except ExecutionFaultError as err:
                        fault_log.extend(err.fault_log)
                        resume_from = max(resume_from, err.watermark)
                        self._obs.record(err, span=span)
                total_resumes += resumes
                if report is None:
                    self.router.mark_unhealthy(state, dispatch_ms)
                    failed_replicas.append(state.replica_id)
                    self._obs.record(state, span=span,
                                     watermark=resume_from)
            if report is None:
                part = None
                shard_report = ShardReport(
                    shard_id=shard_id, simulated_seconds=0.0,
                    n_tiles=plan.n_tiles, n_resumes=total_resumes,
                    failed=True, fault_log=tuple(fault_log), replica_id=-1,
                    failed_replicas=tuple(failed_replicas))
            else:
                fault_log.extend(report.fault_log)
                distances, local_idx = report.value
                part = self.index.filter_shard_topk(
                    shard_id, distances, shard.global_ids[local_idx])
                shard_report = ShardReport(
                    shard_id=shard_id,
                    simulated_seconds=report.simulated_seconds,
                    n_tiles=report.n_tiles, n_retries=report.n_retries,
                    n_tile_splits=report.n_tile_splits,
                    n_resumes=total_resumes, fault_log=tuple(fault_log),
                    replica_id=state.replica_id,
                    failed_replicas=tuple(failed_replicas),
                    tile_seconds=tuple(
                        (r.tile_index, r.seconds) for r in sorted(
                            report.accountant.records,
                            key=lambda r: r.tile_index)))
            self._obs.record(shard_report, span=span)
        return shard_report, part, state

    # ------------------------------------------------------------------
    # resolution + accounting
    # ------------------------------------------------------------------
    def _resolve_requests(self, batch: MicroBatch, report: BatchReport,
                          batch_span, *, distances=None, indices=None,
                          error=None) -> None:
        row = 0
        for request in batch.requests:
            req_report = RequestReport(
                request_id=request.request_id,
                arrival_ms=request.arrival_ms,
                completion_ms=report.completion_ms,
                batch=report, deadline_ms=request.deadline_ms,
                priority=request.priority, degraded=request.degraded,
                requested_k=request.requested_k,
                trace_id=request.trace_id)
            self.request_reports.append(req_report)
            self._obs.record(req_report, request=request,
                             failed=error is not None, span=batch_span)

            future = self._pending.pop(request.request_id)
            if error is not None:
                future._reject(error)
            else:
                k_req = min(request.n_neighbors, self.index.n_rows)
                block = slice(row, row + request.n_rows)
                future._resolve(ServeResult(
                    distances=distances[block, :k_req],
                    indices=indices[block, :k_req],
                    report=req_report))
            self._resolved.append(future)
            row += request.n_rows
