"""The four workloads and the measurement procedure they share.

Every workload is built from ``--seed`` alone: the seed goes to
``load_dataset`` and to the generator of every query or op schedule.
Work is measured in *units*, each the same fixed amount of work (one
``kneighbors`` call, one request stream, one op schedule) so that every
unit of a run returns the same bits and the same simulated seconds. A run
measures a fixed number of units (:data:`UNITS`).

Host time is ``perf_counter`` around public calls only (:class:`Clock`);
oracle checks, digests and input preparation sit outside those calls.
Because every unit repeats the same ops, the end-to-end metrics take each
op's fastest repeat (:func:`_quietest`): on a shared machine the spread
between repeats of identical work is interference from other tenants, not
the program (README.md, "Calibration").
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import NearestNeighbors, pairwise_reference
from repro.datasets import load_dataset
from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.serve import MutableIndex, Server, ShardedIndex
from repro.testing import MutationOp, MutationOracle

from . import WORKLOADS, layers
from .trace import ANALYSIS, Recorder, layer_totals

__all__ = ["WORKLOADS", "E2E_UNITS", "LAYER_UNITS", "run",
           "knn_sample_failures"]

K = 10
SETUP_REPEATS = 11
#: timed units of an untraced run. The count is fixed, not set by the time
#: budget, so that two versions of the program take each op's fastest
#: repeat over the same number of repeats: a minimum over more samples
#: reads lower under the same noise. Sized to 15-18 s on the calibration
#: machine, well under the 30 s ``--seconds`` cap (README.md).
UNITS = {"knn-topk": 12, "knn-kernel": 15, "serve-stream": 3,
         "mutate-mix": 4}
SMOKE_UNITS = 2
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: end-to-end metrics (untraced runs) and their units
E2E_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _layer_units() -> Dict[str, str]:
    """Layer time is reported as a share of the traced wall: a layer a
    workload never enters then reads a ratio of 0, not a time of 0. The
    seconds themselves are in the result file's ``self_s``."""
    units = {}
    for layer in layers.LAYERS:
        units.update({f"{layer}.calls": "count",
                      f"{layer}.self_share": "ratio"})
    units.update({
        "neighbors.topk.rows": "count",
        "neighbors.topk.tied_row_share": "ratio",
        "kernels.functional.cells": "count",
        "kernels.functional.cells_per_s": "cells/s",
        "gpusim.memory.repeat_input_share": "ratio",
        "plan.executor.tiles": "count",
        "serve.scheduler.batch_rows_mean": "rows",
        "serve.mutable.delta_rows_mean": "rows",
        "serve.mutable.write_rows_per_s": "rows/s",
        "other.self_share": "ratio",
        "trace.wall_s": "s",
        "trace.analysis_s": "s",
        "trace.overhead_pct": "%",
        "obs.metrics_overhead_pct": "%",
        "obs.full_overhead_pct": "%",
    })
    return units


#: per-layer metrics (traced runs) and their units
LAYER_UNITS = _layer_units()


# ----------------------------------------------------------------------
# measurement primitives
# ----------------------------------------------------------------------
class Clock:
    """Times public calls. While a :class:`Recorder` is attached, layer
    spans are recorded only inside these calls."""

    def __init__(self, recorder: Optional[Recorder] = None):
        self.recorder = recorder

    def call(self, fn: Callable, *args, **kwargs):
        """``(result, start, end)`` of one call, in ``perf_counter`` s."""
        rec = self.recorder
        if rec is not None:
            rec.active = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if rec is not None:
                rec.active = False
        return result, start, end


@dataclass
class Unit:
    """One unit of work: host timings, per-op digests, simulated pins."""

    #: digest of each op's result, ``None`` where the op raised
    op_digests: List[Optional[str]] = field(default_factory=list)
    #: host latency of each query op (a call, a request, a read)
    latencies: List[float] = field(default_factory=list)
    #: host seconds of each timed call, reads and writes
    calls: List[float] = field(default_factory=list)
    #: rows the timed calls answered, upserted or deleted
    rows: int = 0
    write_rows: int = 0
    write_s: float = 0.0
    #: simulated-clock metrics, pinned (see :func:`_check_pin`)
    sim: Dict[str, float] = field(default_factory=dict)
    #: results the oracle checks (kept for the reference unit only)
    outputs: object = None

    @property
    def busy_s(self) -> float:
        """Host seconds inside every timed call."""
        return sum(self.calls)

    def pin(self) -> Dict[str, object]:
        digest = hashlib.sha256(
            "".join(d or "-" for d in self.op_digests).encode()).hexdigest()
        return dict(self.sim, digest=digest)


def _digest(distances: np.ndarray, indices: np.ndarray) -> str:
    h = hashlib.sha256(np.ascontiguousarray(distances).tobytes())
    h.update(np.ascontiguousarray(indices).tobytes())
    return h.hexdigest()


def _report_failure(what: str) -> None:
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc()


# ----------------------------------------------------------------------
# knn-topk / knn-kernel
# ----------------------------------------------------------------------
def knn_sample_failures(matrix, metric: str, distances: np.ndarray,
                        indices: np.ndarray, rows: np.ndarray,
                        k: int) -> int:
    """Sample rows whose returned neighbours disagree with the dense
    reference: the distances must be its ``k`` smallest and each returned
    id's reference distance must equal the returned one (robust to ties).

    Columns empty in every row contribute nothing to the metrics used
    here (manhattan, cosine), so they are dropped before densifying.
    """
    used = np.unique(matrix.indices)
    x = matrix.take_rows(rows).to_dense()[:, used]
    ref = np.hstack([
        pairwise_reference(x, matrix.slice_rows(lo, lo + 512).to_dense()
                           [:, used], metric)
        for lo in range(0, matrix.n_rows, 512)])
    bad = 0
    for j, r in enumerate(rows):
        want = np.sort(ref[j])[:k]
        ok = (np.allclose(distances[r], want, rtol=0, atol=1e-9)
              and np.allclose(ref[j][indices[r]], distances[r],
                              rtol=0, atol=1e-9))
        bad += not ok
    return bad


class KnnWorkload:
    """Full self-join ``kneighbors()``; one unit is one call."""

    def __init__(self, seed: int, *, dataset: str, scale: float,
                 metric: str, sample_rows: int):
        self.seed, self.dataset, self.scale = seed, dataset, scale
        self.metric, self.sample_rows = metric, sample_rows

    def setup(self):
        matrix = load_dataset(self.dataset, scale=self.scale,
                              seed=self.seed).matrix
        nn = NearestNeighbors(n_neighbors=K, metric=self.metric,
                              engine=layers.ENGINE, n_workers=1).fit(matrix)
        nn.prepared_operands()
        return matrix, nn

    def inputs(self, state):
        return None

    def warm_up(self, state, inputs) -> Unit:
        return self.unit(state, inputs, Clock(), "off")

    def unit(self, state, inputs, clock: Clock, arm: str) -> Unit:
        matrix, nn = state
        unit = Unit()
        try:
            (d, i), start, end = clock.call(nn.kneighbors)
        except Exception:
            _report_failure("kneighbors")
            unit.op_digests.append(None)
            return unit
        unit.op_digests.append(_digest(d, i))
        unit.latencies.append(end - start)
        unit.calls.append(end - start)
        unit.rows = matrix.n_rows
        unit.sim["sim_seconds"] = nn.last_report.simulated_seconds
        unit.outputs = (d, i)
        return unit

    def oracle(self, state, inputs, reference: Unit) -> set:
        matrix, _ = state
        rng = np.random.default_rng([self.seed, 1])
        rows = np.sort(rng.choice(matrix.n_rows, self.sample_rows,
                                  replace=False))
        d, i = reference.outputs
        return {0} if knn_sample_failures(matrix, self.metric, d, i, rows,
                                          K) else set()


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------
class ServeWorkload:
    """Open loop on the simulated clock: ``n_requests`` requests of 1, 2,
    4 or 8 rows arrive ``GAP_MS`` apart; one host thread submits them back
    to back. One unit is the whole stream on a fresh :class:`Server`."""

    SIZES = (1, 2, 4, 8)
    GAP_MS = 0.25

    def __init__(self, seed: int, *, scale: float, n_requests: int):
        self.seed, self.scale, self.n_requests = seed, scale, n_requests

    def setup(self):
        matrix = load_dataset("movielens", scale=self.scale,
                              seed=self.seed).matrix
        index = ShardedIndex.build(matrix, metric="cosine", n_shards=2,
                                   placement="degree_balanced",
                                   engine=layers.ENGINE)
        return matrix, index

    def inputs(self, state):
        matrix, _ = state
        rng = np.random.default_rng([self.seed, 2])
        sizes = rng.choice(self.SIZES, size=self.n_requests)
        starts = rng.integers(0, matrix.n_rows - max(self.SIZES) + 1,
                              size=self.n_requests)
        return [(int(s), int(n), matrix.slice_rows(int(s), int(s + n)))
                for s, n in zip(starts, sizes)]

    def warm_up(self, state, inputs) -> Unit:
        return self.unit(state, inputs[:64], Clock(), "off")

    @staticmethod
    def _observers(arm: str) -> dict:
        if arm == "metrics":
            return {"metrics": MetricsRegistry()}
        if arm == "full":
            registry = MetricsRegistry()
            return {"metrics": registry, "trace": Tracer(),
                    "telemetry": Telemetry(metrics=registry)}
        return {}

    def unit(self, state, inputs, clock: Clock, arm: str) -> Unit:
        _, index = state
        server = Server(index, max_batch_rows=32, max_wait_ms=2.0,
                        n_workers=1, **self._observers(arm))
        unit = Unit()
        futures: List[Optional[object]] = []
        submitted: Dict[int, float] = {}
        latencies: Dict[int, float] = {}

        def settle(end: float) -> None:
            for j in [j for j in submitted if futures[j].done()]:
                latencies[j] = end - submitted.pop(j)

        for j, (_, _, block) in enumerate(inputs):
            try:
                future, start, end = clock.call(
                    server.submit, block, K, arrival_ms=j * self.GAP_MS)
            except Exception:
                _report_failure(f"submit #{j}")
                futures.append(None)
                continue
            futures.append(future)
            submitted[j] = start
            unit.calls.append(end - start)
            settle(end)
        _, start, end = clock.call(server.drain)
        unit.calls.append(end - start)
        settle(end)

        outputs = []
        for j, future in enumerate(futures):
            result = None
            if future is not None:
                try:
                    result = future.result()
                except Exception:
                    _report_failure(f"request #{j}")
            if result is None:
                unit.op_digests.append(None)
                continue
            unit.op_digests.append(_digest(result.distances,
                                           result.indices))
            unit.latencies.append(latencies[j])
            unit.rows += inputs[j][1]
            outputs.append((inputs[j][0], result))
        unit.outputs = outputs

        reports = server.request_reports
        if reports:
            sim_lat = np.sort([r.latency_ms for r in reports])
            rank = int(np.ceil(0.99 * sim_lat.size)) - 1
            span_ms = (max(r.completion_ms for r in reports)
                       - min(r.arrival_ms for r in reports))
            n_rows = sum(b.n_rows for b in server.batch_reports)
            unit.sim["sim_latency_p99_ms"] = float(sim_lat[rank])
            unit.sim["sim_rows_per_s"] = n_rows / (span_ms / 1e3)
            unit.sim["queue_wait_sim_p50_ms"] = float(
                np.median([r.queue_wait_ms for r in reports]))
        return unit

    def oracle(self, state, inputs, reference: Unit) -> set:
        """One unsharded ``NearestNeighbors`` run over every row the
        stream queried; each resolved request must match it bitwise."""
        matrix, _ = state
        nn = NearestNeighbors(n_neighbors=K, metric="cosine",
                              n_workers=1).fit(matrix)
        want_d, want_i = nn.kneighbors(matrix)
        bad = set()
        for j, (start, result) in enumerate(reference.outputs):
            block = slice(start, start + result.distances.shape[0])
            if not (np.array_equal(result.distances, want_d[block])
                    and np.array_equal(result.indices, want_i[block])):
                bad.add(j)
        return bad


# ----------------------------------------------------------------------
# mutate-mix
# ----------------------------------------------------------------------
class MutateWorkload:
    """A seeded op schedule over a :class:`MutableIndex`: 30% upserts of 8
    rows, 15% deletes of 4 ids, 55% 8-row reads, ``compact()`` every
    ``compact_every`` ops. One unit replays it on a fresh index."""

    def __init__(self, seed: int, *, scale: float, base_rows: int,
                 n_ops: int, compact_every: int, check_every: int):
        self.seed, self.scale, self.base_rows = seed, scale, base_rows
        self.n_ops, self.compact_every = n_ops, compact_every
        self.check_every = check_every

    def setup(self):
        matrix = load_dataset("movielens", scale=self.scale,
                              seed=self.seed).matrix
        base = matrix.slice_rows(0, self.base_rows)
        return matrix, base, self._build(base)

    @staticmethod
    def _build(base) -> MutableIndex:
        return MutableIndex.build(base, metric="cosine", n_shards=2,
                                  engine=layers.ENGINE)

    def inputs(self, state):
        """``[(kind, ids, rows)]``; upserted rows come from the rows held
        out of the initial index, ids from every row id of the dataset,
        so upserts both overwrite and insert, and some deletes are
        blind. Every stretch between two compactions holds the exact mix,
        shuffled, so the memtable grows alike for every seed."""
        matrix, _, _ = state
        n_total = matrix.n_rows
        rng = np.random.default_rng([self.seed, 3])
        window = [kind for kind, share in (("upsert", 0.30),
                                           ("delete", 0.15),
                                           ("read", 0.55))
                  for _ in range(round(share * self.compact_every))]
        ops = []
        for kind in np.concatenate([
                rng.permutation(window)
                for _ in range(self.n_ops // self.compact_every)]):
            if kind == "upsert":
                ids = np.sort(rng.choice(n_total, 8, replace=False))
                src = rng.choice(np.arange(self.base_rows, n_total), 8,
                                 replace=False)
                ops.append((kind, ids, matrix.take_rows(src)))
            elif kind == "delete":
                ops.append((kind, np.sort(rng.choice(n_total, 4,
                                                     replace=False)), None))
            else:
                start = int(rng.integers(0, n_total - 8 + 1))
                ops.append((kind, None, matrix.slice_rows(start, start + 8)))
        return ops

    def warm_up(self, state, inputs) -> Unit:
        return self.unit(state, inputs[:40], Clock(), "off")

    def unit(self, state, inputs, clock: Clock, arm: str) -> Unit:
        _, base, _ = state
        index = self._build(base)
        unit = Unit()
        checks = []
        for j, (kind, ids, rows) in enumerate(inputs):
            try:
                if kind == "read":
                    (d, i), start, end = clock.call(index.kneighbors,
                                                    rows, K)
                    if len(unit.latencies) % self.check_every == 0:
                        checks.append((j, len(unit.op_digests), d, i))
                    unit.op_digests.append(_digest(d, i))
                    unit.latencies.append(end - start)
                    unit.rows += rows.n_rows
                else:
                    call = index.upsert if kind == "upsert" else index.delete
                    args = (ids, rows) if kind == "upsert" else (ids,)
                    _, start, end = clock.call(call, *args)
                    unit.op_digests.append(kind)
                    unit.rows += ids.size
                    unit.write_rows += ids.size
                    unit.write_s += end - start
                unit.calls.append(end - start)
            except Exception:
                _report_failure(f"{kind} #{j}")
                unit.op_digests.append(None)
            if (j + 1) % self.compact_every == 0:
                try:
                    _, start, end = clock.call(index.compact)
                except Exception:
                    _report_failure(f"compact after #{j}")
                    unit.op_digests.append(None)
                    continue
                unit.op_digests.append("compact")
                unit.write_s += end - start
                unit.calls.append(end - start)
        unit.outputs = checks
        return unit

    def oracle(self, state, inputs, reference: Unit) -> set:
        """Replays the schedule into :class:`MutationOracle`; every
        ``check_every``-th read must equal a fresh fit bitwise."""
        _, base, _ = state
        oracle = MutationOracle(base.n_cols)
        oracle.apply(MutationOp("upsert", tuple(range(base.n_rows)),
                                rows=base.to_dense()))
        bad = set()
        checks = iter(reference.outputs)
        check = next(checks, None)
        for j, (kind, ids, rows) in enumerate(inputs):
            if kind != "read":
                oracle.apply(MutationOp(
                    kind, tuple(int(g) for g in ids),
                    rows=None if rows is None else rows.to_dense()))
            elif check is not None and check[0] == j:
                _, op, d, i = check
                want_d, want_i = oracle.fresh_fit_kneighbors(
                    rows, K, metric="cosine")
                if not (np.array_equal(d, want_d)
                        and np.array_equal(i, want_i)):
                    bad.add(op)
                check = next(checks, None)
        return bad


# ----------------------------------------------------------------------
# workload table
# ----------------------------------------------------------------------
def _make(name: str, seed: int, smoke: bool):
    if name == "knn-topk":
        return KnnWorkload(seed, dataset="movielens",
                           scale=256 if smoke else 64, metric="manhattan",
                           sample_rows=8 if smoke else 32)
    if name == "knn-kernel":
        return KnnWorkload(seed, dataset="scrna",
                           scale=160 if smoke else 40, metric="cosine",
                           sample_rows=8 if smoke else 32)
    if name == "serve-stream":
        return ServeWorkload(seed, scale=256 if smoke else 64,
                             n_requests=200 if smoke else 2000)
    if name == "mutate-mix":
        if smoke:
            return MutateWorkload(seed, scale=256, base_rows=750, n_ops=120,
                                  compact_every=40, check_every=5)
        return MutateWorkload(seed, scale=64, base_rows=3000, n_ops=600,
                              compact_every=200, check_every=25)
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{WORKLOADS}")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _measure(wl, state, inputs, n_units: int, seconds: float, arm: str,
             clock: Clock) -> List[Unit]:
    """``n_units`` units; fewer, but at least one, only where the next
    would overrun ``seconds``, which a much slower program reaches. Only
    the first unit keeps its outputs for the oracle."""
    units = []
    begin = time.perf_counter()
    while len(units) < n_units:
        units.append(wl.unit(state, inputs, clock, arm))
        if len(units) > 1:
            units[-1].outputs = None
        elapsed = time.perf_counter() - begin
        if elapsed * (len(units) + 1) / len(units) > seconds:
            break
    return units


def _count_failures(units: List[Unit], reference: Unit, bad: set) -> int:
    """Ops that raised, differ bitwise from the reference unit's op at
    the same position, or sit where the oracle rejected the reference."""
    failed = 0
    for unit in units:
        for j, digest in enumerate(unit.op_digests):
            failed += (digest is None or j in bad
                       or j >= len(reference.op_digests)
                       or digest != reference.op_digests[j])
        if len(unit.op_digests) == len(reference.op_digests):
            failed += unit.sim != reference.sim
    return failed


def _per_unit_s(units: List[Unit], analysis_s: float = 0.0) -> float:
    return (sum(u.busy_s for u in units) - analysis_s) / len(units)


def _write_rows_per_s(units: List[Unit]) -> float:
    """Rows upserted and deleted ÷ host seconds in writes and compactions
    (median over units; 0 for workloads without writes)."""
    if not units[0].write_s:
        return 0.0
    return median(u.write_rows / u.write_s for u in units)


def _quietest(per_unit: List[List[float]]) -> np.ndarray:
    """Each op's fastest repeat across the units that ran every op."""
    n = max(len(samples) for samples in per_unit)
    return np.min([s for s in per_unit if len(s) == n], axis=0)


def _e2e_metrics(units: List[Unit], setup_s: List[float]) -> dict:
    latencies_ms = _quietest([u.latencies for u in units]) * 1e3
    return {
        "setup_s": median(setup_s),
        "rows_per_s": units[0].rows / _quietest(
            [u.calls for u in units]).sum(),
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p95_ms": float(np.percentile(latencies_ms, 95)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _layer_metrics(rec: Recorder, traced: List[Unit], plain: List[Unit],
                   arms: Dict[str, List[Unit]]) -> Tuple[dict, dict]:
    """The per-layer metrics, and each layer's self seconds."""
    totals = layer_totals(rec.spans)
    analysis_s = totals.get(ANALYSIS, {}).get("self_s", 0.0)
    wall = sum(u.busy_s for u in traced) - analysis_s
    self_s = {layer: totals.get(layer, {}).get("self_s", 0.0)
              for layer in layers.LAYERS}
    self_s["other"] = wall - sum(self_s.values())
    out = {}
    for layer in layers.LAYERS:
        out[f"{layer}.calls"] = totals.get(layer, {}).get("calls", 0)
        out[f"{layer}.self_share"] = self_s[layer] / wall
    stats, samples = rec.stats, rec.samples
    rows = stats["neighbors.topk.rows"]
    functional_s = self_s["kernels.functional"]
    memory_calls = out["gpusim.memory.calls"]
    out.update({
        "neighbors.topk.rows": rows,
        "neighbors.topk.tied_row_share":
            stats["neighbors.topk.tied_rows"] / rows if rows else 0.0,
        "kernels.functional.cells": stats["kernels.functional.cells"],
        "kernels.functional.cells_per_s":
            stats["kernels.functional.cells"] / functional_s
            if functional_s else 0.0,
        "gpusim.memory.repeat_input_share":
            stats["gpusim.memory.repeat_calls"] / memory_calls
            if memory_calls else 0.0,
        "plan.executor.tiles": stats["plan.executor.tiles"],
        "serve.scheduler.batch_rows_mean":
            float(np.mean(samples["serve.scheduler.batch_rows"]))
            if samples["serve.scheduler.batch_rows"] else 0.0,
        "serve.mutable.delta_rows_mean":
            float(np.mean(samples["serve.mutable.delta_rows"]))
            if samples["serve.mutable.delta_rows"] else 0.0,
        "serve.mutable.write_rows_per_s": _write_rows_per_s(plain),
        "other.self_share": self_s["other"] / wall,
        "trace.wall_s": wall,
        "trace.analysis_s": analysis_s,
        "trace.overhead_pct":
            (_per_unit_s(traced, analysis_s) / _per_unit_s(plain) - 1) * 100,
    })
    for arm in ("metrics", "full"):
        out[f"obs.{arm}_overhead_pct"] = (
            (_per_unit_s(arms[arm]) / _per_unit_s(plain) - 1) * 100
            if arm in arms else 0.0)
    return out, self_s


def _check_pin(name: str, seed: int, smoke: bool, pin: dict) -> bool:
    """Compare the reference unit's simulated clock and result digest
    with the committed pin for this workload, when one exists."""
    expected = json.loads(EXPECTED_PATH.read_text())
    want = expected["smoke" if smoke else "full"].get(name)
    if seed != expected["seed"] or want is None:
        return True
    if want != pin:
        print(f"{name}: simulated-clock pin mismatch\n  expected "
              f"{want}\n  observed {pin}", file=sys.stderr)
        return False
    return True


def run(name: str, *, seed: int = 0, seconds: float = 30.0,
        trace: bool = False, smoke: bool = False,
        out_dir: Optional[Path] = None) -> dict:
    """Run one workload; returns the result document (see README).
    ``seconds`` caps the measured time; it sets no unit count."""
    wl = _make(name, seed, smoke)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = wl.setup()
        setup_s.append(time.perf_counter() - start)
    inputs = wl.inputs(state)
    warm = wl.warm_up(state, inputs)

    arm_names = ["off"]
    if trace:
        arm_names += (["metrics", "full"] if name == "serve-stream"
                      else []) + ["traced"]
    n_units = max(1, (SMOKE_UNITS if smoke else UNITS[name])
                  // len(arm_names))
    budget = seconds / len(arm_names)
    begin = time.perf_counter()
    arms = {"off": _measure(wl, state, inputs, n_units, budget, "off",
                            Clock())}
    measured_s = time.perf_counter() - begin
    e2e = _e2e_metrics(arms["off"], setup_s)
    rec = Recorder()
    missing: List[str] = []
    for arm in arm_names[1:]:
        if arm == "traced":
            restore, missing = layers.install(rec)
            try:
                arms[arm] = _measure(wl, state, inputs, n_units, budget,
                                     "off", Clock(rec))
            finally:
                restore()
        else:
            arms[arm] = _measure(wl, state, inputs, n_units, budget, arm,
                                 Clock())

    reference = arms["off"][0]
    bad = wl.oracle(state, inputs, reference)
    units = [warm] + [u for arm in arm_names for u in arms[arm]]
    failed = _count_failures(units, reference, bad)
    pin = reference.pin()
    failed += not _check_pin(name, seed, smoke, pin)
    attempted = sum(len(u.op_digests) for u in units)

    self_s = None
    if trace:
        values, self_s = _layer_metrics(rec, arms["traced"], arms["off"],
                                        arms)
        units_of = LAYER_UNITS
    else:
        values, units_of = e2e, E2E_UNITS
    pooled_ms = np.array([x for u in arms["off"] for x in u.latencies]) * 1e3
    doc = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units_of[k]}
                    for k, v in values.items()},
        "diagnostics": {
            "units": {arm: len(u) for arm, u in arms.items()},
            "measured_s": measured_s,
            "latency_samples": int(pooled_ms.size),
            "pooled_latency_p50_ms": float(np.percentile(pooled_ms, 50)),
            "pooled_latency_p99_ms": float(np.percentile(pooled_ms, 99)),
            "write_rows_per_s": _write_rows_per_s(arms["off"]),
            "sim": reference.sim,
            "setup_s_samples": setup_s,
        },
        "pin": pin,
        "samples": {
            "latency_ms": pooled_ms.tolist(),
            "unit_rows_per_s": [u.rows / u.busy_s for u in arms["off"]],
        },
    }
    if trace:
        doc["diagnostics"]["self_s"] = self_s
        doc["entry_point_calls"] = rec.calls_by_name()
        doc["missing_entry_points"] = missing
        if out_dir is not None:
            rec.write(out_dir / f"trace_{name}.json", workload=name,
                      seed=seed, wall_s=sum(u.busy_s for u in
                                            arms["traced"]))
    return doc
