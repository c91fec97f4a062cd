"""Hierarchical tracing spans over the simulated execution stack.

A :class:`Tracer` records a tree of :class:`Span` objects — ``plan.build``
→ ``plan.execute`` → ``tile[i,j]`` → ``kernel.pass1/pass2`` →
``strategy.select`` / ``rowcache.stage`` — each carrying the simulated
seconds the cost model charged to it, plus structured :class:`SpanEvent`
annotations (fault injections, retries, degradations, kernel launches).

Design constraints, in order:

1. **Zero overhead when off.** The default :class:`NullTracer` is a
   singleton whose :meth:`~NullTracer.span` returns one shared no-op
   handle, so components open their spans unguarded and the disabled
   path keeps no allocation per tile (verified by
   ``tests/obs/test_tracer.py``).
2. **Deterministic trees.** Span parentage follows the per-thread span
   stack (a tile's kernel/expansion spans nest under the tile span on
   whichever worker thread ran it) with an explicit ``parent=`` escape for
   cross-thread attachment (tile spans under the main thread's
   ``plan.execute`` root). Sibling *completion* order may vary with worker
   scheduling, so :meth:`Tracer.span_tree` canonicalizes by sorting
   children — serial and N-worker executions of one plan yield identical
   trees.
3. **Simulated time, not wall time.** Spans record the cost model's
   seconds (``sim_seconds``); wall seconds are kept as a diagnostic arg
   only. The Chrome exporter (:mod:`repro.obs.chrome_trace`) lays the
   timeline out from simulated durations with the executor's deterministic
   round-robin lane model, so the trace is a property of the plan, never
   of host scheduling.

Kernels and the launch simulator reach the active tracer through
:func:`current_tracer` — the innermost open span's tracer on the calling
thread — so no kernel signature carries tracing arguments.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import List, Optional

from repro.obs.metrics import NULL_METRICS

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "current_metrics",
    "current_span",
    "push_metrics",
    "pop_metrics",
    "get_default_tracer",
    "set_default_tracer",
    "shielded_trace_context",
    "trace_context",
    "current_trace_context",
    "push_trace_context",
    "pop_trace_context",
]

_TLS = threading.local()


class SpanEvent:
    """One instant annotation on a span (fault, launch, note)."""

    __slots__ = ("name", "category", "seconds", "args")

    def __init__(self, name: str, category: str = "note",
                 seconds: float = 0.0, args: Optional[dict] = None):
        self.name = name
        self.category = category
        self.seconds = float(seconds)
        self.args = args or {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanEvent({self.name!r}, {self.category}, {self.args})"


class Span:
    """One traced region; a context manager that times itself on exit.

    ``sim_seconds`` is the simulated duration charged by whoever opened the
    span (None until :meth:`set_sim_seconds`); ``wall_seconds`` is the host
    time the region took, kept for diagnostics only.
    """

    __slots__ = ("tracer", "span_id", "name", "category", "parent",
                 "children", "args", "events", "sim_seconds", "wall_seconds",
                 "status", "finished", "_wall_start")

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 category: str, parent: Optional["Span"], args: dict):
        self.tracer = tracer
        self.span_id = span_id
        self.name = name
        self.category = category
        self.parent = parent
        self.children: List[Span] = []
        self.args = args
        self.events: List[SpanEvent] = []
        self.sim_seconds: Optional[float] = None
        self.wall_seconds: float = 0.0
        self.status = "ok"
        #: False while the span is open (or was never exited): exports mark
        #: such spans explicitly instead of reporting misleading durations
        self.finished = False
        self._wall_start = 0.0

    # -- context manager ----------------------------------------------
    def __enter__(self) -> "Span":
        self.tracer._open(self)
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_seconds = time.perf_counter() - self._wall_start
        if exc_type is not None:
            self.status = "error"
            self.args.setdefault("error", exc_type.__name__)
        self.finished = True
        self.tracer._close(self)

    # -- annotation API ------------------------------------------------
    def annotate(self, **args) -> "Span":
        self.args.update(args)
        return self

    def set_sim_seconds(self, seconds: float) -> "Span":
        self.sim_seconds = float(seconds)
        return self

    def add_sim_seconds(self, seconds: float) -> "Span":
        self.sim_seconds = (self.sim_seconds or 0.0) + float(seconds)
        return self

    def event(self, name: str, category: str = "note",
              seconds: float = 0.0, **args) -> SpanEvent:
        ev = SpanEvent(name, category, seconds, args)
        self.events.append(ev)
        return ev

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sim = f", sim={self.sim_seconds:.3g}s" if self.sim_seconds else ""
        return f"Span({self.name!r}, {self.category}{sim})"


class Tracer:
    """Collects spans into a forest; safe for concurrent tile workers."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self.spans: List[Span] = []
        self.roots: List[Span] = []
        self._next_id = 0

    # -- span construction --------------------------------------------
    def span(self, name: str, category: str = "", *,
             parent: Optional[Span] = None, **args) -> Span:
        """Create (but do not open) a span; use as a context manager.

        Parentage: explicit ``parent`` wins; otherwise the innermost open
        span on the calling thread; otherwise the span becomes a root.

        Trace context: unless the caller passed ``trace_id=`` explicitly,
        the span inherits this thread's active trace context (see
        :func:`trace_context`), falling back to the parent span's
        ``trace_id`` annotation — so a request's trace id flows down the
        whole span tree, including across the executor's explicitly
        parented worker-thread spans.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent is None:
            stack = getattr(_TLS, "spans", None)
            if stack:
                parent = stack[-1]
        if "trace_id" not in args:
            ctx = getattr(_TLS, "trace_ctx", None)
            if ctx:
                args["trace_id"] = ctx[-1]
            elif parent is not None and "trace_id" in parent.args:
                args["trace_id"] = parent.args["trace_id"]
        return Span(self, span_id, name, category, parent, args)

    def _open(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)
            else:
                self.roots.append(span)
        stack = getattr(_TLS, "spans", None)
        if stack is None:
            stack = _TLS.spans = []
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = getattr(_TLS, "spans", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)

    def event(self, name: str, category: str = "note",
              seconds: float = 0.0, **args) -> Optional[SpanEvent]:
        """Attach an instant event to the calling thread's open span
        (or to the last root when no span is open)."""
        stack = getattr(_TLS, "spans", None)
        target = stack[-1] if stack else (self.roots[-1] if self.roots
                                          else None)
        if target is None:
            return None
        return target.event(name, category, seconds, **args)

    # -- inspection ----------------------------------------------------
    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def spans_by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def events_by_category(self, category: str) -> List[SpanEvent]:
        return [e for s in self.spans for e in s.events
                if e.category == category]

    def fault_events(self) -> List[SpanEvent]:
        """All fault-category events, sorted deterministically."""
        events = self.events_by_category("fault")
        return sorted(events, key=lambda e: (e.args.get("tile", -1),
                                             e.args.get("depth", 0),
                                             e.args.get("attempt", 0),
                                             e.name))

    def span_tree(self) -> List[dict]:
        """Canonical nested representation, independent of worker count.

        Children are sorted by ``(name, tile index)`` because sibling
        completion order depends on scheduling; lane assignments and wall
        times are omitted for the same reason. A span still open at export
        time is marked ``"unfinished": True`` (finished spans carry no such
        key, so trees recorded entirely from closed spans are unchanged).
        """
        def node(span: Span) -> dict:
            children = sorted(
                span.children,
                key=lambda s: (s.name, s.args.get("tile", -1), s.category))
            entry = {
                "name": span.name,
                "category": span.category,
                "events": sorted((e.name, e.category) for e in span.events),
                "children": [node(c) for c in children],
            }
            if not span.finished:
                entry["unfinished"] = True
            return entry

        roots = sorted(self.roots,
                       key=lambda s: (s.name, s.args.get("tile", -1)))
        return [node(r) for r in roots]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(spans={len(self.spans)}, "
                f"roots={len(self.roots)})")


class _NullSpan:
    """Shared no-op span handle: every method returns self and allocates
    nothing. A single module-level instance serves every disabled call."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None

    def annotate(self, **args):
        return self

    def set_sim_seconds(self, seconds):
        return self

    def add_sim_seconds(self, seconds):
        return self

    def event(self, name, category="note", seconds=0.0, **args):
        return None


NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The zero-overhead default: records nothing, allocates nothing."""

    enabled = False

    def __init__(self):
        # No lock, no lists: this object must stay allocation-free in use.
        self.spans = ()
        self.roots = ()

    def span(self, name, category="", *, parent=None, **args):
        return NULL_SPAN

    def event(self, name, category="note", seconds=0.0, **args):
        return None

    def span_tree(self):
        return []


NULL_TRACER = NullTracer()

#: process-wide default used when no tracer is passed explicitly
#: (installed by ``python -m repro.bench --trace``).
_DEFAULT: Tracer = NULL_TRACER


def get_default_tracer() -> Tracer:
    return _DEFAULT


def set_default_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install (or, with None, clear) the process-wide default tracer.
    Returns the previous default so callers can restore it."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = tracer if tracer is not None else NULL_TRACER
    return previous


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, if any."""
    stack = getattr(_TLS, "spans", None)
    return stack[-1] if stack else None


def current_tracer() -> Tracer:
    """The tracer owning this thread's innermost open span (NULL if none).

    This is how kernels and the launch simulator find the active tracer
    without signature changes: the executor opens the tile span on the
    worker thread before calling into the kernel.
    """
    stack = getattr(_TLS, "spans", None)
    return stack[-1].tracer if stack else NULL_TRACER


@contextmanager
def shielded_trace_context():
    """Run a block with an empty span stack on this thread.

    Inside the block, :func:`current_tracer` / :func:`current_span` see
    nothing, so ambient instrumentation (kernel launches, transfers)
    records nowhere — exactly what a fresh worker thread sees. The
    distributed executor shields per-device compute with this so its trace
    tree is identical whether lanes run on the main thread or a pool.

    The **trace context** (:func:`current_trace_context`) deliberately
    survives the shield: shielding hides *span parentage*, not request
    identity, so spans opened inside still carry the request's
    ``trace_id`` annotation.
    """
    stack = getattr(_TLS, "spans", None)
    _TLS.spans = []
    try:
        yield
    finally:
        _TLS.spans = stack


def push_trace_context(trace_id: str) -> None:
    """Make ``trace_id`` this thread's active trace context (LIFO).

    Every span subsequently created on this thread (without an explicit
    ``trace_id=`` arg) is annotated with it; see :func:`trace_context`
    for the context-manager form.
    """
    stack = getattr(_TLS, "trace_ctx", None)
    if stack is None:
        stack = _TLS.trace_ctx = []
    stack.append(str(trace_id))


def pop_trace_context() -> None:
    stack = getattr(_TLS, "trace_ctx", None)
    if stack:
        stack.pop()


def current_trace_context() -> Optional[str]:
    """This thread's active trace id (None when no context is pushed)."""
    stack = getattr(_TLS, "trace_ctx", None)
    return stack[-1] if stack else None


@contextmanager
def trace_context(trace_id: str):
    """Annotate every span opened in this block with ``trace_id``.

    The context is thread-local: fan-out code re-enters it on each worker
    thread (explicitly parented spans also inherit the parent's
    ``trace_id``, so per-tile worker spans are covered either way). It
    survives :func:`shielded_trace_context`, carrying request identity
    into shielded per-device compute.
    """
    push_trace_context(trace_id)
    try:
        yield
    finally:
        pop_trace_context()


def push_metrics(registry) -> None:
    """Make ``registry`` this thread's active metrics sink (LIFO)."""
    stack = getattr(_TLS, "metrics", None)
    if stack is None:
        stack = _TLS.metrics = []
    stack.append(registry)


def pop_metrics() -> None:
    stack = getattr(_TLS, "metrics", None)
    if stack:
        stack.pop()


def current_metrics():
    """This thread's active metrics registry (the null registry if none)."""
    stack = getattr(_TLS, "metrics", None)
    return stack[-1] if stack else NULL_METRICS


def canonical_trees_equal(a: Tracer, b: Tracer) -> bool:
    """Whether two tracers recorded the same span tree (ignoring lanes,
    ordering, and wall times)."""
    return a.span_tree() == b.span_tree()
