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
   stack, with an explicit ``parent=`` for spans recorded after the fact
   (a tile's span and the kernel, epilogue and step spans under it, which
   the plan executor's observer records from the tile's launch log, in
   tile order, when the plan completes or aborts). :meth:`Tracer.span_tree`
   also sorts children, so serial and N-worker executions of one plan
   yield identical trees.
3. **Simulated time only.** Spans record the cost model's seconds
   (``sim_seconds``). The Chrome exporter (:mod:`repro.obs.chrome_trace`)
   lays the timeline out from simulated durations with the executor's
   deterministic round-robin lane model, so the trace is a property of the
   plan, never of host scheduling.

Nothing below the executors looks a tracer up: the simulated device and
the kernels only return what they did (:mod:`repro.gpusim.executor`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import List, Optional

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
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
    """One traced region; a context manager that opens and closes it.

    ``sim_seconds`` is the simulated duration charged by whoever opened the
    span (None until :meth:`set_sim_seconds`).
    """

    __slots__ = ("tracer", "span_id", "name", "category", "parent",
                 "children", "args", "events", "sim_seconds", "status",
                 "finished")

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
        self.status = "ok"
        #: False while the span is open (or was never exited): exports mark
        #: such spans explicitly instead of reporting misleading durations
        self.finished = False

    # -- context manager ----------------------------------------------
    def __enter__(self) -> "Span":
        self.tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.fail(exc_type)
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

    def fail(self, exc_type: type) -> "Span":
        """Mark the span failed by an ``exc_type`` error, as an exception
        leaving it does (for spans recorded after the fact)."""
        self.status = "error"
        self.args.setdefault("error", exc_type.__name__)
        return self

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

        Children are sorted by ``(name, tile index)``, and lane
        assignments, which depend on the worker count, are omitted. A span
        still open at export time is marked ``"unfinished": True``
        (finished spans carry no such key, so trees recorded entirely from
        closed spans are unchanged).
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

    def fail(self, exc_type):
        return self


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


@contextmanager
def shielded_trace_context():
    """Run a block with an empty span stack on this thread.

    A span opened inside without ``parent=`` becomes a root, exactly as on
    a fresh worker thread. The distributed executor shields per-device
    compute with this, so a device plan's ``plan.execute`` root never
    nests under ``dist.execute`` when both record into one tracer, and the
    trace tree is identical whether lanes run on the main thread or a pool.

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


def canonical_trees_equal(a: Tracer, b: Tracer) -> bool:
    """Whether two tracers recorded the same span tree (ignoring lanes and
    sibling order)."""
    return a.span_tree() == b.span_tree()
