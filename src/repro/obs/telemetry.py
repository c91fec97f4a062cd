"""End-to-end request telemetry: trace ids, wide events, sampling.

This module is the correlation layer over the existing observability
pieces (tracer, metrics, profile, SLO monitor). Three ideas:

**Deterministic trace context.** Every admitted
:class:`~repro.serve.ServeRequest` mints a :func:`trace_id_for_request`
— a keyed BLAKE2b digest of the request id, no wall clock, no
randomness — so the same workload replays to byte-identical trace ids.
The id flows down the span tree (see
:func:`~repro.obs.tracer.trace_context`) and stamps every telemetry
event, which is what lets a histogram exemplar, a shed decision, or a
deadline miss be walked back to the exact request that caused it.

**Wide events.** One canonical, schema-versioned record per request,
tile, transfer, fault, failover, shed, and compaction
(:data:`EVENT_KINDS`), validated on emit and kept in memory in emission
order. All timestamps are *simulated* milliseconds; emission happens at
deterministic points (batch resolution under the server lock, the
distributed executor's serial comm loop), so serial and N-worker runs
produce identical streams — events never record worker-lane identity.

**Deterministic head+tail sampling.** :meth:`Telemetry.finalize`
replays a seeded head-sampling policy (keyed hash of the trace id, no
RNG state) plus tail rules that always retain faulted, degraded,
deadline-missed, and slowest-p99 traces. Decisions depend only on the
event stream, so they are byte-identical for serial vs N-worker
execution of the same workload.
"""

from __future__ import annotations

import hashlib
import math
import threading
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS

__all__ = [
    "SCHEMA_VERSION", "EVENT_KINDS", "EVENT_SCHEMA", "validate_event",
    "deterministic_trace_id", "trace_id_for_request", "derive_span_id",
    "SamplingPolicy", "SamplingDecision", "SamplingReport", "Telemetry",
]

#: version stamped into every record; bump on any breaking field change.
SCHEMA_VERSION = 1

#: the canonical wide-event kinds, one per operational fact.
EVENT_KINDS = ("request", "tile", "transfer", "fault", "failover",
               "shed", "compaction")

#: JSON-schema document every emitted record conforms to (validated by
#: :func:`validate_event`; the ``telemetry`` bench report re-validates
#: its full stream against it).
EVENT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro telemetry wide event",
    "type": "object",
    "required": ["schema", "kind", "trace_id", "span_id", "ts_ms",
                 "attrs"],
    "additionalProperties": False,
    "properties": {
        "schema": {"type": "integer", "enum": [SCHEMA_VERSION]},
        "kind": {"type": "string", "enum": list(EVENT_KINDS)},
        "trace_id": {"type": "string", "pattern": "^[0-9a-f]{16}$"},
        "span_id": {"type": "string", "pattern": "^[0-9a-f]{8}$"},
        "ts_ms": {"type": "number"},
        "attrs": {"type": "object"},
    },
}

_HEX16 = set("0123456789abcdef")


def validate_event(record: dict) -> None:
    """Check one record against :data:`EVENT_SCHEMA`; raises
    ``ValueError`` naming the first violated constraint.

    Hand-rolled for the schema's small subset of JSON Schema (required /
    enum / type / hex patterns) so validation needs no third-party
    dependency.
    """
    if not isinstance(record, dict):
        raise ValueError(f"event must be an object, got {type(record)}")
    required = EVENT_SCHEMA["required"]
    for field in required:
        if field not in record:
            raise ValueError(f"event missing required field {field!r}")
    extra = set(record) - set(EVENT_SCHEMA["properties"])
    if extra:
        raise ValueError(f"event has unknown fields {sorted(extra)}")
    if record["schema"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {record['schema']!r} "
            f"(expected {SCHEMA_VERSION})")
    if record["kind"] not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {record['kind']!r}")
    for field, width in (("trace_id", 16), ("span_id", 8)):
        value = record[field]
        if (not isinstance(value, str) or len(value) != width
                or not set(value) <= _HEX16):
            raise ValueError(
                f"{field} must be {width} lowercase hex chars, "
                f"got {value!r}")
    if not isinstance(record["ts_ms"], (int, float)) or isinstance(
            record["ts_ms"], bool):
        raise ValueError(f"ts_ms must be a number, got {record['ts_ms']!r}")
    if not isinstance(record["attrs"], dict):
        raise ValueError("attrs must be an object")


# ---------------------------------------------------------------------
# deterministic ids
# ---------------------------------------------------------------------
def deterministic_trace_id(*parts) -> str:
    """16-hex-char trace id from a BLAKE2b digest of ``parts``.

    Pure function of its inputs — no wall clock, no process state — so
    replaying a workload replays its trace ids.
    """
    payload = "\x1f".join(str(p) for p in parts).encode()
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def trace_id_for_request(request_id: int) -> str:
    """The trace id a :class:`~repro.serve.ServeRequest` mints at
    admission (seeded from the request id alone)."""
    return deterministic_trace_id("serve.request", int(request_id))


def derive_span_id(trace_id: str, *parts) -> str:
    """8-hex-char span id for a telemetry event, derived by hashing.

    Events never reuse the tracer's in-memory span ids: those are
    allocated in span-*creation* order, which races across worker
    threads. Hash-derived ids are a function of (trace, event identity)
    only, so serial and N-worker runs stamp identical ids.
    """
    payload = "\x1f".join([str(trace_id), *(str(p) for p in parts)])
    return hashlib.blake2b(payload.encode(), digest_size=4).hexdigest()


# ---------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------
class SamplingPolicy:
    """Head + tail sampling knobs.

    ``head_rate`` is the fraction of traces kept unconditionally, chosen
    by a seeded keyed hash of the trace id — deterministic, uniform, and
    independent of arrival or completion order. The tail rules are not
    knobs: faulted, degraded, deadline-missed, and slowest-p99 traces
    are always retained (:attr:`P99_QUANTILE` positions the slow-tail
    threshold).
    """

    __slots__ = ("head_rate", "seed")

    #: latency quantile at or above which a request is "slowest p99"
    P99_QUANTILE = 0.99

    def __init__(self, head_rate: float = 0.1, seed: int = 0):
        if not 0.0 <= head_rate <= 1.0:
            raise ValueError(f"head_rate must be in [0, 1], got {head_rate}")
        self.head_rate = float(head_rate)
        self.seed = int(seed)

    def head_keep(self, trace_id: str) -> bool:
        """Seeded head decision: hash the trace id into [0, 1) and keep
        below ``head_rate``. No RNG state — order-independent."""
        digest = hashlib.blake2b(f"{self.seed}\x1f{trace_id}".encode(),
                                 digest_size=8).digest()
        u = int.from_bytes(digest, "big") / float(1 << 64)
        return u < self.head_rate


class SamplingDecision:
    """One trace's keep/drop outcome and the rules that fired."""

    __slots__ = ("trace_id", "kept", "reasons")

    def __init__(self, trace_id: str, kept: bool,
                 reasons: Tuple[str, ...]):
        self.trace_id = trace_id
        self.kept = bool(kept)
        self.reasons = tuple(reasons)

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "kept": self.kept,
                "reasons": list(self.reasons)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "keep" if self.kept else "drop"
        return f"SamplingDecision({self.trace_id}, {verdict})"


class SamplingReport:
    """The full sampling pass: per-trace decisions in first-event order."""

    __slots__ = ("decisions", "p99_threshold_ms")

    def __init__(self, decisions: Tuple[SamplingDecision, ...],
                 p99_threshold_ms: Optional[float]):
        self.decisions = decisions
        self.p99_threshold_ms = p99_threshold_ms

    @property
    def kept_trace_ids(self) -> Tuple[str, ...]:
        return tuple(d.trace_id for d in self.decisions if d.kept)

    @property
    def n_kept(self) -> int:
        return sum(1 for d in self.decisions if d.kept)

    @property
    def n_dropped(self) -> int:
        return len(self.decisions) - self.n_kept

    def decision_for(self, trace_id: str) -> Optional[SamplingDecision]:
        for d in self.decisions:
            if d.trace_id == trace_id:
                return d
        return None

    def as_dict(self) -> dict:
        return {"p99_threshold_ms": self.p99_threshold_ms,
                "n_traces": len(self.decisions),
                "n_kept": self.n_kept, "n_dropped": self.n_dropped,
                "decisions": [d.as_dict() for d in self.decisions]}


# ---------------------------------------------------------------------
# the collector
# ---------------------------------------------------------------------
class Telemetry:
    """Collects wide events in emission order and samples traces.

    Thread-safe, but emission *order* is the caller's contract: the
    serve/dist layers emit only from deterministic single-threaded
    points (batch resolution under the server lock; the distributed
    executor's serial comm loop), which is what makes the stream — and
    therefore every sampling decision — identical across worker counts.

    ``metrics`` (optional) receives ``telemetry_events_total{kind=}``
    counters on emit and ``telemetry_sampled_traces{decision=}`` gauges
    at :meth:`finalize`.
    """

    def __init__(self, *, policy: Optional[SamplingPolicy] = None,
                 metrics=None):
        self.policy = policy if policy is not None else SamplingPolicy()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._lock = threading.Lock()
        self._events: List[dict] = []
        #: stored events per ``(trace_id, kind)``: the default span-id ordinal
        self._ordinals: Dict[Tuple[str, str], int] = {}
        self._report: Optional[SamplingReport] = None

    # -- emission ------------------------------------------------------
    def emit(self, kind: str, *, trace_id: str,
             span_id: Optional[str] = None, ts_ms: float = 0.0,
             **attrs) -> dict:
        """Record one wide event; returns the canonical record.

        ``span_id`` defaults to a hash of (trace, kind, per-trace
        ordinal) — see :func:`derive_span_id` for why tracer span ids
        are never reused here. The ordinal counts every stored event of
        that trace and kind, explicit span ids included.
        """
        with self._lock:
            key = (str(trace_id), str(kind))
            ordinal = self._ordinals.get(key, 0)
            if span_id is None:
                span_id = derive_span_id(trace_id, kind, ordinal)
            record = {"schema": SCHEMA_VERSION, "kind": kind,
                      "trace_id": str(trace_id), "span_id": span_id,
                      "ts_ms": float(ts_ms), "attrs": attrs}
            validate_event(record)
            self._ordinals[key] = ordinal + 1
            self._events.append(record)
            self._report = None  # new data invalidates cached sampling
        self.metrics.counter(
            "telemetry_events_total",
            "wide events emitted, by kind").inc(kind=kind)
        return record

    # -- inspection ----------------------------------------------------
    @property
    def events(self) -> List[dict]:
        """Every event emitted so far, in emission order."""
        with self._lock:
            return list(self._events)

    def events_for(self, trace_id: str) -> List[dict]:
        """One trace's event chain, including batch-scoped events
        (tiles, faults, …) whose ``attrs.member_trace_ids`` lists it."""
        with self._lock:
            return [r for r in self._events
                    if r["trace_id"] == trace_id
                    or trace_id in r["attrs"].get("member_trace_ids", ())]

    def counts_by_kind(self) -> Dict[str, int]:
        counts = {k: 0 for k in EVENT_KINDS}
        with self._lock:
            for r in self._events:
                counts[r["kind"]] += 1
        return {k: v for k, v in counts.items() if v}

    # -- sampling ------------------------------------------------------
    def finalize(self) -> SamplingReport:
        """Run (or return the cached) head+tail sampling pass.

        Decisions are a pure function of the event stream and the
        policy; re-finalizing after new events recomputes them (the p99
        threshold can shift as latencies accrue).
        """
        with self._lock:
            if self._report is not None:
                return self._report
            events = list(self._events)

        # Trace order: first event wins — emission order is already
        # canonical, so this is deterministic across worker counts.
        trace_order: List[str] = []
        by_trace: Dict[str, List[dict]] = {}
        for r in events:
            if r["trace_id"] not in by_trace:
                trace_order.append(r["trace_id"])
                by_trace[r["trace_id"]] = []
            by_trace[r["trace_id"]].append(r)

        latencies = sorted(
            r["attrs"]["latency_ms"] for r in events
            if r["kind"] == "request" and "latency_ms" in r["attrs"])
        threshold = None
        if latencies:
            # index of the q-quantile sample (ceil(q*n)-1): the value at
            # or above which a request counts as "slowest p99"
            idx = max(0, math.ceil(len(latencies)
                                   * self.policy.P99_QUANTILE) - 1)
            threshold = latencies[idx]

        decisions = []
        for trace_id in trace_order:
            reasons = []
            if self.policy.head_keep(trace_id):
                reasons.append("head")
            chain = by_trace[trace_id]
            if any(r["kind"] == "fault" for r in chain) or any(
                    r["attrs"].get("n_faults", 0) > 0 for r in chain):
                reasons.append("tail:faulted")
            if any(r["attrs"].get("degraded") for r in chain):
                reasons.append("tail:degraded")
            if any(r["attrs"].get("deadline_missed") for r in chain):
                reasons.append("tail:deadline_missed")
            if threshold is not None and any(
                    r["kind"] == "request"
                    and r["attrs"].get("latency_ms", float("-inf"))
                    >= threshold for r in chain):
                reasons.append("tail:slow_p99")
            decisions.append(SamplingDecision(trace_id, bool(reasons),
                                              tuple(reasons)))

        report = SamplingReport(tuple(decisions), threshold)
        with self._lock:
            if self._report is None and events == self._events:
                self._report = report
        self.metrics.gauge(
            "telemetry_sampled_traces",
            "traces retained/dropped by the last sampling pass").set(
                report.n_kept, decision="kept")
        self.metrics.gauge(
            "telemetry_sampled_traces", "").set(report.n_dropped,
                                                decision="dropped")
        return report

    def sampled_events(self) -> List[dict]:
        """The retained stream: every event whose trace (or any member
        trace) was kept by :meth:`finalize`."""
        kept = set(self.finalize().kept_trace_ids)
        with self._lock:
            return [r for r in self._events
                    if r["trace_id"] in kept
                    or any(t in kept for t in
                           r["attrs"].get("member_trace_ids", ()))]
