"""Tracer unit behaviour: nesting, parentage, canonical trees, and the
zero-overhead guarantee of the disabled path."""

import threading
import tracemalloc

from repro.core.pairwise import pairwise_distances
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
    canonical_trees_equal,
    get_default_tracer,
    set_default_tracer,
)
from tests.conftest import random_csr

OBS_FILES = ("tracer.py", "metrics.py", "chrome_trace.py")


def test_span_nesting_follows_thread_stack():
    tracer = Tracer()
    with tracer.span("outer", "plan") as outer:
        with tracer.span("inner", "kernel") as inner:
            assert inner.parent is outer
        with tracer.span("sibling", "kernel") as sibling:
            assert sibling.parent is outer  # inner was popped on exit
    with tracer.span("after", "plan") as after:
        assert after.parent is None  # the stack is empty again
    assert tracer.roots == [outer, after]
    assert outer.children == [inner, sibling]


def test_explicit_parent_wins_across_threads():
    tracer = Tracer()
    with tracer.span("root", "plan") as root:
        def worker():
            # No open span on this thread: without parent= this would
            # become a new root; with it, it attaches under `root`.
            with tracer.span("tile[0,0]", "tile", parent=root, tile=0):
                pass
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert [c.name for c in root.children] == ["tile[0,0]"]
    assert tracer.roots == [root]


def test_span_annotations_and_events():
    tracer = Tracer()
    with tracer.span("s", "tile", tile=3) as span:
        span.annotate(retries=1).set_sim_seconds(0.5).add_sim_seconds(0.25)
        span.event("retried", "fault", 0.1, kind="transient")
        span.event("note", "note")
    assert span.args["retries"] == 1
    assert span.sim_seconds == 0.75
    assert [e.name for e in span.events] == ["retried", "note"]
    assert tracer.fault_events()[0].args["kind"] == "transient"


def test_error_exit_marks_span():
    tracer = Tracer()
    try:
        with tracer.span("boom", "tile"):
            raise ValueError("x")
    except ValueError:
        pass
    (span,) = tracer.spans_named("boom")
    assert span.status == "error"
    assert span.args["error"] == "ValueError"
    # a span recorded after the fact is failed explicitly, the same way
    with tracer.span("later", "kernel") as later:
        pass
    assert later.fail(KeyError) is later
    assert (later.status, later.args["error"]) == ("error", "KeyError")
    assert NULL_SPAN.fail(KeyError) is NULL_SPAN


def test_span_tree_canonicalizes_sibling_order():
    a, b = Tracer(), Tracer()
    for tracer, order in ((a, (0, 1, 2)), (b, (2, 0, 1))):
        with tracer.span("plan.execute", "plan") as root:
            for i in order:
                with tracer.span(f"tile[{i},0]", "tile", parent=root,
                                 tile=i):
                    pass
    assert canonical_trees_equal(a, b)
    # ...but a genuinely different tree is detected
    c = Tracer()
    with c.span("plan.execute", "plan") as root:
        with c.span("tile[0,0]", "tile", parent=root, tile=0):
            pass
    assert not canonical_trees_equal(a, c)


def test_default_tracer_install_and_restore():
    tracer = Tracer()
    previous = set_default_tracer(tracer)
    try:
        assert get_default_tracer() is tracer
    finally:
        set_default_tracer(previous)
    assert get_default_tracer() is previous


def test_null_tracer_records_nothing():
    assert isinstance(NULL_TRACER, NullTracer)
    assert not NULL_TRACER.enabled
    span = NULL_TRACER.span("anything", "tile", tile=1)
    assert span is NULL_SPAN
    with span as s:
        assert s.annotate(x=1) is s
        assert s.set_sim_seconds(1.0) is s
        assert s.event("e") is None
    assert NULL_TRACER.span_tree() == []
    assert NULL_TRACER.spans == ()


def _obs_allocations(snapshot):
    """Bytes allocated (still live) from inside the obs modules."""
    total = 0
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        if filename.endswith(OBS_FILES) and "tests" not in filename:
            total += stat.size
    return total


def test_disabled_path_allocates_nothing_per_tile(rng):
    """The NullTracer/NullMetrics hot loop performs no per-tile
    allocations: obs-module allocations are identical for a 1-tile and a
    9-tile untraced execution (modulo one-time thread-local init, which is
    warmed up beforehand)."""
    a = random_csr(rng, 40, 30, 0.3)
    b = random_csr(rng, 25, 30, 0.25)

    def run(budget):
        pairwise_distances(a, b, metric="euclidean",
                           memory_budget_bytes=budget)

    # Warm up: import-time caches, etc.
    run(None)

    tracemalloc.start()
    try:
        run(None)  # single tile
        small = _obs_allocations(tracemalloc.take_snapshot())
        run(600)  # 3x3 tile grid under the small budget
        large = _obs_allocations(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert small == 0, f"obs allocated {small}B on an untraced 1-tile run"
    assert large == 0, f"obs allocated {large}B on an untraced 9-tile run"


# -- unfinished-span audit ---------------------------------------------------


def test_span_tree_marks_only_open_spans_unfinished():
    tracer = Tracer()
    with tracer.span("done", "plan"):
        pass
    leaked = tracer.span("leaked", "plan")
    leaked.__enter__()  # still open at export: a crashed/hung worker
    try:
        (done_node, open_node) = sorted(
            tracer.span_tree(), key=lambda n: n["name"])
        assert done_node["name"] == "done"
        assert "unfinished" not in done_node
        assert open_node["name"] == "leaked"
        assert open_node["unfinished"] is True
    finally:
        leaked.__exit__(None, None, None)
    # once closed, the mark disappears: trees of closed spans are stable
    assert all("unfinished" not in node for node in tracer.span_tree())


def test_span_tree_marks_nested_unfinished():
    tracer = Tracer()
    outer = tracer.span("outer", "plan")
    outer.__enter__()
    with tracer.span("inner", "kernel"):
        pass
    (root,) = tracer.span_tree()
    assert root["unfinished"] is True
    assert "unfinished" not in root["children"][0]
    outer.__exit__(None, None, None)


# -- trace-context propagation -----------------------------------------------


def test_trace_context_annotates_spans():
    from repro.obs.tracer import current_trace_context, trace_context

    tracer = Tracer()
    assert current_trace_context() is None
    with trace_context("aaaa0000bbbb1111"):
        assert current_trace_context() == "aaaa0000bbbb1111"
        with tracer.span("s", "plan") as span:
            assert span.args["trace_id"] == "aaaa0000bbbb1111"
        with trace_context("cccc2222dddd3333"):  # LIFO nesting
            assert current_trace_context() == "cccc2222dddd3333"
        assert current_trace_context() == "aaaa0000bbbb1111"
    assert current_trace_context() is None


def test_explicit_trace_id_beats_context_beats_parent():
    from repro.obs.tracer import trace_context

    tracer = Tracer()
    with trace_context("ctx"):
        with tracer.span("s", "plan", trace_id="explicit") as span:
            assert span.args["trace_id"] == "explicit"
            # context outranks the parent's explicit id
            with tracer.span("child", "kernel") as child:
                assert child.args["trace_id"] == "ctx"
    # no context: the parent's annotation flows down
    with tracer.span("p", "plan", trace_id="parent") as parent:
        with tracer.span("c", "kernel", parent=parent) as child:
            assert child.args["trace_id"] == "parent"


def test_trace_context_survives_shielding():
    from repro.obs.tracer import shielded_trace_context, trace_context

    tracer = Tracer()
    with trace_context("req-123"):
        with tracer.span("outer", "plan"):
            with shielded_trace_context():
                with tracer.span("inner", "kernel") as inner:
                    assert inner.parent is None
                    assert inner.args["trace_id"] == "req-123"


def test_trace_context_is_thread_local():
    from repro.obs.tracer import current_trace_context, trace_context

    seen = {}

    def worker():
        seen["ctx"] = current_trace_context()

    with trace_context("main-only"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["ctx"] is None
