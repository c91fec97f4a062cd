"""In-memory span recorder and the self-time accounting built on it.

A span is ``(name, layer, start_ns, end_ns, parent, thread)``: ``parent``
is the index of the enclosing open span on the same thread (``-1`` at top
level). Spans stay in memory while the workload runs and are written to
``trace_<workload>.json`` once it ends, so recording costs two
``perf_counter_ns`` calls and a list append per call.

Work the benchmark does *about* a call (counting tied rows, hashing an
input) is recorded as a span of the pseudo-layer :data:`ANALYSIS`. It is
subtracted from its parent like any child, so no layer pays for it, and
it is reported on its own as ``trace.analysis_s``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

__all__ = ["ANALYSIS", "Recorder", "layer_totals"]

#: pseudo-layer of the benchmark's own per-call analysis
ANALYSIS = "trace.analysis"

_NAME, _LAYER, _START, _END, _PARENT, _THREAD = range(6)


class Recorder:
    """Collects spans and the counters the per-call analyses accumulate."""

    def __init__(self):
        self.spans: List[list] = []
        #: analysis results: sums (``rows``, ``cells``, ...) and samples
        self.stats: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, list] = defaultdict(list)
        self.seen: set = set()
        #: spans are recorded only while the benchmark is inside a timed
        #: public call (set by the workload's clock)
        self.active = False
        self._stacks: Dict[int, List[int]] = defaultdict(list)

    def open(self, name: str, layer: str) -> int:
        thread = threading.get_ident()
        stack = self._stacks[thread]
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter_ns(), 0,
                           stack[-1] if stack else -1, thread])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter_ns()
        self._stacks[self.spans[index][_THREAD]].pop()

    def calls_by_name(self) -> Dict[str, int]:
        calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span[_LAYER] != ANALYSIS:
                calls[span[_NAME]] += 1
        return dict(calls)

    def write(self, path: Path, **header) -> None:
        """Write every span (and ``header``) as one JSON document."""
        doc = dict(header, fields=["name", "layer", "start_ns", "end_ns",
                                   "parent", "thread"],
                   spans=self.spans)
        path.write_text(json.dumps(doc))


def _union_ns(intervals: List[tuple]) -> int:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls", "self_s"}}``: self time is each span's duration
    minus the union of its children's intervals, summed per layer."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[_PARENT] >= 0:
            children[span[_PARENT]].append((span[_START], span[_END]))
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0})
    for index, span in enumerate(spans):
        own = span[_END] - span[_START] - _union_ns(children.get(index, []))
        entry = totals[span[_LAYER]]
        entry["calls"] += 1
        entry["self_s"] += own / 1e9
    return dict(totals)
