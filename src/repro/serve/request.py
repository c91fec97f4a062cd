"""Request, report, and future types for the online serving layer.

All timestamps live on the serving layer's *simulated* clock
(milliseconds, monotone per :class:`~repro.serve.Server`): arrival times
are supplied by the caller (or auto-advanced), service times come from the
plan executor's modeled kernel seconds, and queueing delay emerges from
device occupancy. Nothing here reads the wall clock, so latency numbers
are exactly reproducible run to run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.faults.spec import FaultEvent

__all__ = ["ServeRequest", "ShardReport", "BatchReport", "RequestReport",
           "ServeResult", "ServeFuture", "ShedReport"]

@dataclass(frozen=True)
class ServeRequest:
    """One admitted k-NN query: a block of query rows + per-request knobs.

    ``arrival_ms`` is the request's position on the simulated clock;
    ``deadline_ms`` (optional, absolute) marks the completion time after
    which the response counts as late — results are still delivered, but
    the report flags ``deadline_missed`` and the
    ``serve_deadline_missed_total`` counter increments.

    ``priority`` is the request's class: **lower is more important**
    (0 = top priority). The scheduler orders coalesced batches
    earliest-deadline-first within priority, and the
    :class:`~repro.serve.BackpressureController` sheds or degrades the
    higher-numbered classes first. ``degraded=True`` means the shed
    ladder clamped ``n_neighbors`` below the caller's ``requested_k`` at
    admission.
    """

    request_id: int
    queries: object  # CSRMatrix | PreparedOperand | array-like
    n_neighbors: int
    n_rows: int
    arrival_ms: float
    deadline_ms: Optional[float] = None
    priority: int = 0
    degraded: bool = False
    requested_k: Optional[int] = None
    #: deterministic telemetry trace id minted at admission (seeded from
    #: the request id — see :func:`repro.obs.telemetry.trace_id_for_request`)
    trace_id: str = ""


@dataclass(frozen=True)
class ShedReport:
    """One submission the server refused: shed or rejected at admission.

    ``kind`` is ``"rejected"`` (admission gate: token bucket, queue
    depth, forming-batch age) or ``"shed"`` (SLO-driven backpressure
    ladder); ``reason`` the machine-readable label carried by the raised
    :class:`~repro.errors.AdmissionRejected`. Summing these against the
    resolved :class:`RequestReport` list reconciles the
    ``serve_requests_total`` counter exactly.
    """

    submission_id: int
    arrival_ms: float
    priority: int
    n_rows: int
    kind: str    # "shed" | "rejected"
    reason: str
    #: shed-ladder level at the decision instant (0 for gate rejections)
    shed_level: int = 0


@dataclass(frozen=True)
class ShardReport:
    """One shard's execution record within a batch."""

    shard_id: int
    #: modeled kernel time for this shard's plan, in simulated seconds
    simulated_seconds: float
    n_tiles: int
    #: executor retries + splits + degradations absorbed inside the plan
    n_retries: int = 0
    n_tile_splits: int = 0
    #: times the server resumed this shard from a watermark after an
    #: unabsorbed :class:`~repro.errors.ExecutionFaultError` (summed
    #: across every replica that worked on the batch)
    n_resumes: int = 0
    #: every replica of the shard is dead and the batch lost its rows
    failed: bool = False
    fault_log: Tuple[FaultEvent, ...] = ()
    #: replica that delivered the shard's result (-1 when ``failed``)
    replica_id: int = 0
    #: replicas marked unhealthy while serving this batch, in failure order
    failed_replicas: Tuple[int, ...] = ()
    #: per-tile ``(tile_index, simulated_seconds)`` of the delivering
    #: execution, in tile order — the telemetry layer's tile-event source
    tile_seconds: Tuple[Tuple[int, float], ...] = ()

    @property
    def n_failovers(self) -> int:
        """Mid-batch handoffs to a sibling replica."""
        return len(self.failed_replicas)

    @property
    def n_fault_events(self) -> int:
        return len(self.fault_log)


@dataclass(frozen=True)
class BatchReport:
    """One micro-batch: formation, fan-out, merge, and fault accounting.

    Fault numbers live here (once per batch) rather than on every request
    report, so summing over batches reconciles exactly against the
    ``serve_*`` metrics — requests in the same batch share one execution.
    """

    batch_id: int
    request_ids: Tuple[int, ...]
    n_rows: int
    #: why the scheduler closed the batch: "full" | "timeout" | "flush"
    close_reason: str
    #: simulated ms the batch was dispatched to the shards
    dispatch_ms: float
    #: dispatch plus any wait for the (simulated) devices to free up
    start_ms: float
    completion_ms: float
    shard_reports: Tuple[ShardReport, ...] = ()

    @property
    def n_shards(self) -> int:
        return len(self.shard_reports)

    @property
    def failed_shards(self) -> Tuple[int, ...]:
        return tuple(r.shard_id for r in self.shard_reports if r.failed)

    @property
    def partial(self) -> bool:
        return any(r.failed for r in self.shard_reports)

    @property
    def service_ms(self) -> float:
        return self.completion_ms - self.start_ms

    @property
    def n_fault_events(self) -> int:
        return sum(r.n_fault_events for r in self.shard_reports)

    @property
    def n_resumes(self) -> int:
        return sum(r.n_resumes for r in self.shard_reports)

    @property
    def n_failovers(self) -> int:
        return sum(r.n_failovers for r in self.shard_reports)


@dataclass(frozen=True)
class RequestReport:
    """Per-request accounting: queueing, latency, deadline, degradation.

    ``batch`` links to the shared :class:`BatchReport`; anything physical
    (shard times, fault log) is read through it so the numbers are never
    double-counted across coalesced requests.
    """

    request_id: int
    arrival_ms: float
    completion_ms: float
    batch: BatchReport
    deadline_ms: Optional[float] = None
    priority: int = 0
    #: the shed ladder clamped this request's k below ``requested_k``
    degraded: bool = False
    requested_k: Optional[int] = None
    #: the request's telemetry trace id (exemplar key for the latency
    #: histograms; "" when the request predates the telemetry layer)
    trace_id: str = ""

    @property
    def latency_ms(self) -> float:
        """Arrival to completion on the simulated clock."""
        return self.completion_ms - self.arrival_ms

    @property
    def queue_wait_ms(self) -> float:
        """Time spent forming the batch + waiting for a free device."""
        return self.batch.start_ms - self.arrival_ms

    @property
    def partial(self) -> bool:
        return self.batch.partial

    @property
    def deadline_missed(self) -> bool:
        return (self.deadline_ms is not None
                and self.completion_ms > self.deadline_ms)


@dataclass(frozen=True)
class ServeResult:
    """The answer to one request: neighbors + the request's report.

    ``partial=True`` means at least one shard failed beyond recovery and
    its rows are absent from the candidate pool — distances/indices are
    still the exact top-k over the surviving shards.
    """

    distances: np.ndarray
    indices: np.ndarray
    report: RequestReport

    @property
    def partial(self) -> bool:
        return self.report.partial


class ServeFuture:
    """A handle to an in-flight request; resolved when its batch executes.

    ``result()`` blocks (real time) until the scheduler has run the batch,
    then returns the :class:`ServeResult` or raises the stored error
    (e.g. :class:`~repro.errors.ShardFailedError` when *every* shard
    failed).
    """

    def __init__(self, request: ServeRequest):
        self.request = request
        self._event = threading.Event()
        self._result: Optional[ServeResult] = None
        self._error: Optional[BaseException] = None

    @property
    def request_id(self) -> int:
        return self.request.request_id

    def done(self) -> bool:
        return self._event.is_set()

    def _resolve(self, result: ServeResult) -> None:
        self._result = result
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} is still queued; call "
                f"Server.drain() (or submit more traffic) to dispatch it")
        if self._error is not None:
            raise self._error
        return self._result
