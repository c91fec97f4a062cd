"""Export a :class:`~repro.obs.tracer.Tracer` as Chrome ``trace_event`` JSON.

The produced file loads directly in ``chrome://tracing`` and Perfetto.
Timeline semantics:

- **Timestamps are simulated microseconds** from the cost model, not host
  wall time — the trace visualizes where the modeled device time went.
- Tile spans are placed on **worker lanes** (one Perfetto track per
  simulated stream) using the executor's deterministic round-robin model:
  the tile with in-execution ordinal ``i`` runs on lane ``i % n_workers``,
  and each lane runs its tiles back to back. The timeline is therefore a
  function of the plan alone, never of which thread won a race.
- Non-tile children of a root (norms prologue, expansion epilogues hoisted
  to the root) are laid out sequentially *before* the tile lanes start,
  matching ``PlanExecutionReport.simulated_seconds = prologue + makespan``.
- Within a span, children are laid out sequentially from the parent's
  start; a span with no recorded simulated duration spans its children.
- Fault/retry/degradation events are instant events (``ph: "i"``) on the
  lane of the tile they hit; kernel-launch events likewise.

Multiple roots (several plans traced into one tracer, e.g. a bench sweep)
are laid out one after another.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.tracer import Span, Tracer

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: pid used for every event (one simulated device per trace).
_PID = 1

#: tid offset for per-device-pair comm lanes (sorts below worker lanes).
_COMM_TID_BASE = 1000

_EVENT_COLORS = {
    "fault": "terrible",
    "launch": "thread_state_runnable",
}


def _sim_us(seconds: Optional[float]) -> float:
    return (seconds or 0.0) * 1e6


def _span_duration_us(span: Span) -> float:
    """A span's simulated width: its own charge, else its children's."""
    if span.sim_seconds is not None:
        return _sim_us(span.sim_seconds)
    return sum(_span_duration_us(c) for c in span.children)


def _emit_span(span: Span, start_us: float, tid: int,
               events: List[dict]) -> float:
    """Recursively emit one span (sequential child layout); returns its
    duration in simulated microseconds."""
    dur = _span_duration_us(span)
    args = {k: _jsonable(v) for k, v in span.args.items()}
    if span.status != "ok":
        args["status"] = span.status
    if not span.finished:
        # Still open at export time: flag it and clamp the end to what the
        # export can actually see (its recorded charge or its children's
        # extent) instead of pretending the duration is final.
        args["unfinished"] = True
    events.append({"name": span.name, "cat": span.category or "span",
                   "ph": "X", "ts": start_us, "dur": dur,
                   "pid": _PID, "tid": tid, "args": args})
    cursor = start_us
    for child in span.children:
        cursor += _emit_span(child, cursor, tid, events)
    for i, ev in enumerate(span.events):
        entry = {"name": ev.name, "cat": ev.category, "ph": "i",
                 "ts": start_us + min(float(i), max(dur - 1.0, 0.0)),
                 "pid": _PID, "tid": tid, "s": "t",
                 "args": {k: _jsonable(v) for k, v in ev.args.items()}}
        if ev.seconds:
            entry["args"]["sim_seconds"] = ev.seconds
        color = _EVENT_COLORS.get(ev.category)
        if color:
            entry["cname"] = color
        events.append(entry)
    return dur


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _comm_lane(span: Span, link_lanes: Dict[tuple, int],
               lanes_seen: Dict[int, str]) -> int:
    """The Perfetto track for a comm span's device pair (first-seen
    order, tids offset to sort below the worker lanes)."""
    key = (span.args.get("src"), span.args.get("dst"))
    if key not in link_lanes:
        tid = _COMM_TID_BASE + len(link_lanes)
        link_lanes[key] = tid
        lanes_seen[tid] = f"link {key[0]}->{key[1]}"
    return link_lanes[key]


def _layout_root(root: Span, t0_us: float, events: List[dict],
                 lanes_seen: Dict[int, str],
                 link_lanes: Dict[tuple, int]) -> float:
    """Lay out one root span; returns the timeline cursor after it."""
    n_workers = int(root.args.get("n_workers", 1) or 1)
    tiles = [c for c in root.children if c.category == "tile"]
    comm = [c for c in root.children if c.category == "comm"]
    prologue = [c for c in root.children
                if c.category not in ("tile", "comm")]

    # Prologue (norms etc.) runs serially before any lane starts.
    cursor = t0_us
    for span in prologue:
        cursor += _emit_span(span, cursor, 0, events)

    # Pre-compute comm (operand allgathers) on link lanes, one Perfetto
    # track per device pair, back to back within a lane.
    pre_comm = [s for s in comm if s.name.startswith("comm.allgather")]
    post_comm = [s for s in comm if not s.name.startswith("comm.allgather")]
    link_cursor: Dict[int, float] = {}
    for span in pre_comm:
        lane = _comm_lane(span, link_lanes, lanes_seen)
        start = link_cursor.get(lane, cursor)
        link_cursor[lane] = start + _emit_span(span, start, lane, events)
    tiles_t0 = max([cursor, *link_cursor.values()])

    # Deterministic lanes: ordinal i -> lane i % n_workers, back to back.
    tiles = sorted(tiles, key=lambda s: s.args.get("tile", s.span_id))
    lane_cursor = [tiles_t0] * max(1, n_workers)
    for ordinal, span in enumerate(tiles):
        lane = int(span.args.get("lane", ordinal % max(1, n_workers)))
        lanes_seen.setdefault(lane, f"worker {lane}")
        lane_cursor[lane] += _emit_span(span, lane_cursor[lane], lane,
                                        events)

    # Post-compute comm (partial top-k reduce / result gather) resumes
    # once every compute lane has drained.
    compute_end = max([tiles_t0, *lane_cursor])
    link_cursor = {}
    for span in post_comm:
        lane = _comm_lane(span, link_lanes, lanes_seen)
        start = link_cursor.get(lane, compute_end)
        link_cursor[lane] = start + _emit_span(span, start, lane, events)

    # Root span wraps everything it contains.
    end = max([compute_end, *link_cursor.values()])
    root_args = {k: _jsonable(v) for k, v in root.args.items()}
    if root.status != "ok":
        root_args["status"] = root.status
    if not root.finished:
        root_args["unfinished"] = True
    events.append({"name": root.name, "cat": root.category or "span",
                   "ph": "X", "ts": t0_us, "dur": end - t0_us,
                   "pid": _PID, "tid": 0, "args": root_args})
    for i, ev in enumerate(root.events):
        entry = {"name": ev.name, "cat": ev.category, "ph": "i",
                 "ts": t0_us + float(i), "pid": _PID, "tid": 0, "s": "t",
                 "args": {k: _jsonable(v) for k, v in ev.args.items()}}
        color = _EVENT_COLORS.get(ev.category)
        if color:
            entry["cname"] = color
        events.append(entry)
    return end


def to_chrome_trace(tracer: Tracer) -> dict:
    """Convert a tracer's span forest into a Chrome trace-event document."""
    events: List[dict] = []
    lanes_seen: Dict[int, str] = {0: "worker 0"}
    link_lanes: Dict[tuple, int] = {}
    cursor = 0.0
    for root in tracer.roots:
        if root.category == "plan" or any(c.category == "tile"
                                          for c in root.children):
            cursor = _layout_root(root, cursor, events, lanes_seen,
                                  link_lanes)
        else:
            cursor += _emit_span(root, cursor, 0, events)

    meta: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro simulated device"},
    }]
    for lane, label in sorted(lanes_seen.items()):
        meta.append({"name": "thread_name", "ph": "M", "pid": _PID,
                     "tid": lane, "args": {"name": label}})
        meta.append({"name": "thread_sort_index", "ph": "M", "pid": _PID,
                     "tid": lane, "args": {"sort_index": lane}})

    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated device seconds (cost model)"},
    }


def write_chrome_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Serialize the trace to ``path``; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(tracer), indent=None,
                               separators=(",", ":")))
    return path
