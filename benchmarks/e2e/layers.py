"""The layer table and the installer that wraps its entry points.

Each :class:`EntryPoint` names a layer (after its module), the public
function or method that enters it, and the workload whose mechanism it
is. :func:`install` wraps every entry point in a span recorder from the
outside, so the program under test is unchanged:

- a module-level function is rebound in *every* module of
  ``sys.modules`` that holds the same function object, because callers
  import it by name (``kernels/coo_spmv.py`` does
  ``from repro.kernels.functional import semiring_block``), so patching
  only the defining module would miss them;
- a method is replaced on the class that defines it (static methods stay
  static).

An entry point that no longer exists is skipped and listed as missing, so
a refactor of the program drops its layer numbers instead of breaking the
benchmark. The returned ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .trace import ANALYSIS, Recorder

__all__ = ["EntryPoint", "ENTRY_POINTS", "LAYERS", "ENGINE", "entry_points",
           "install"]

#: the engine every workload runs; its ``run`` is the kernels.engine layer
ENGINE = "hybrid_coo"


@dataclass(frozen=True)
class EntryPoint:
    layer: str
    module: str
    qualname: str
    #: the workload on which this entry point must record calls
    workload: str


def _entries(layer, module, workload, *qualnames):
    return tuple(EntryPoint(layer, module, q, workload) for q in qualnames)


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    *_entries("neighbors.topk", "repro.neighbors.topk", "knn-topk",
              "select_topk", "TopKAccumulator.update",
              "TopKAccumulator.finalize"),
    *_entries("neighbors.topk", "repro.neighbors.topk", "serve-stream",
              "TopKAccumulator.update_pairs"),
    *_entries("kernels.functional", "repro.kernels.functional", "knn-kernel",
              "semiring_block"),
    *_entries("gpusim.memory", "repro.gpusim.memory", "serve-stream",
              "bank_conflicts_for_offsets"),
    *_entries("gpusim.cost_model", "repro.gpusim.cost_model", "serve-stream",
              "price_launch"),
    *_entries("plan.pairwise_plan", "repro.plan.pairwise_plan",
              "serve-stream", "build_pairwise_plan", "prepare_operand"),
    *_entries("plan.executor", "repro.plan.executor", "serve-stream",
              "PlanExecutor.execute"),
    *_entries("serve.server", "repro.serve.server", "serve-stream",
              "Server.submit", "Server.drain"),
    *_entries("serve.scheduler", "repro.serve.scheduler", "serve-stream",
              "QueryScheduler.offer", "QueryScheduler.flush"),
    *_entries("serve.sharding", "repro.serve.sharding", "serve-stream",
              "ShardedIndex.prepare_queries",
              "ShardedIndex.merge_shard_topk"),
    *_entries("serve.mutable", "repro.serve.mutable", "mutate-mix",
              "MutableIndex.upsert", "MutableIndex.delete",
              "MutableIndex.compact", "MutableIndex.kneighbors",
              "MutableIndex.query_shard"),
)


def entry_points() -> Tuple[EntryPoint, ...]:
    """:data:`ENTRY_POINTS` plus ``run`` of the registered engine the
    workloads use, located through the public engine registry."""
    from repro.kernels import engine_info

    cls = engine_info(ENGINE).factory
    return ENTRY_POINTS + (EntryPoint("kernels.engine", cls.__module__,
                                      f"{cls.__name__}.run", "knn-kernel"),)


LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [e.layer for e in ENTRY_POINTS] + ["kernels.engine"]))


# ----------------------------------------------------------------------
# per-call analyses of the bound arguments and result (run after the
# call's span closes; timed as ANALYSIS)
# ----------------------------------------------------------------------
def _topk_rows(rec: Recorder, a: dict, result) -> None:
    """Rows selected, and rows whose k-th value ties an excluded entry."""
    keyed = np.asarray(a["distances"], dtype=np.float64)
    if not a["ascending"]:
        keyed = -keyed
    n_rows, n_cols = keyed.shape
    k = min(int(a["k"]), n_cols)
    rec.stats["neighbors.topk.rows"] += n_rows
    if 0 < k < n_cols and n_rows:
        kth = np.partition(keyed, k - 1, axis=1)[:, k - 1]
        tied = (keyed <= kth[:, None]).sum(axis=1) > k
        rec.stats["neighbors.topk.tied_rows"] += int(tied.sum())


def _cells(rec: Recorder, a: dict, result) -> None:
    rec.stats["kernels.functional.cells"] += a["a"].n_rows * a["b"].n_rows


def _repeat_input(rec: Recorder, a: dict, result) -> None:
    """Whether this ``(offsets, warp_size)`` input was seen before."""
    offsets = np.ascontiguousarray(a["offsets"], dtype=np.int64)
    key = (hashlib.blake2b(offsets.tobytes(), digest_size=16).digest(),
           int(a["warp_size"]))
    if key in rec.seen:
        rec.stats["gpusim.memory.repeat_calls"] += 1
    rec.seen.add(key)


def _tiles(rec: Recorder, a: dict, result) -> None:
    rec.stats["plan.executor.tiles"] += result.n_tiles


def _batch_rows(rec: Recorder, a: dict, result) -> None:
    rec.samples["serve.scheduler.batch_rows"].extend(
        b.n_rows for b in result)


def _delta_rows(rec: Recorder, a: dict, result) -> None:
    rec.samples["serve.mutable.delta_rows"].append(a["self"].delta_rows)


_ANALYSES = {
    "select_topk": _topk_rows,
    "semiring_block": _cells,
    "bank_conflicts_for_offsets": _repeat_input,
    "PlanExecutor.execute": _tiles,
    "QueryScheduler.offer": _batch_rows,
    "QueryScheduler.flush": _batch_rows,
    "MutableIndex.kneighbors": _delta_rows,
}


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _wrap(fn: Callable, entry: EntryPoint, rec: Recorder) -> Callable:
    analysis = _ANALYSES.get(entry.qualname)
    signature = inspect.signature(fn)
    name, layer = entry.qualname, entry.layer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if analysis is not None:
            span = rec.open(name, ANALYSIS)
            try:
                arguments = signature.bind(*args, **kwargs)
                arguments.apply_defaults()
                analysis(rec, arguments.arguments, result)
            finally:
                rec.close(span)
        return result

    return wrapper


def _rebind_everywhere(old, new) -> None:
    """Point every ``sys.modules`` alias of ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        for attr, value in list((namespace or {}).items()):
            if value is old:
                setattr(module, attr, new)


def install(rec: Recorder) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every entry point; returns ``(restore, missing qualnames)``."""
    methods: List[Tuple[object, str, object]] = []
    functions: List[Tuple[Callable, Callable]] = []
    missing: List[str] = []
    for entry in entry_points():
        try:
            owner = importlib.import_module(entry.module)
        except ImportError:
            missing.append(f"{entry.module}.{entry.qualname}")
            continue
        *cls_path, attr = entry.qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        raw: Optional[object] = (vars(owner).get(attr)
                                 if owner is not None else None)
        if raw is None:
            missing.append(f"{entry.module}.{entry.qualname}")
        elif cls_path:
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = _wrap(fn, entry, rec)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            methods.append((owner, attr, raw))
        else:
            wrapped = _wrap(raw, entry, rec)
            _rebind_everywhere(raw, wrapped)
            functions.append((raw, wrapped))

    def restore() -> None:
        for owner, attr, original in methods:
            setattr(owner, attr, original)
        for original, wrapped in functions:
            _rebind_everywhere(wrapped, original)

    return restore, missing
