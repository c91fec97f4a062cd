"""Trace/metrics reconciliation against execution reports.

The acceptance bar for the observability layer:

- serial and 4-worker executions of one plan record **identical canonical
  span trees** (lanes and completion order are scheduling artifacts; the
  tree is a property of the plan);
- span counts reconcile **exactly** with :class:`PlanExecutionReport` —
  one tile span per tile, one fault event per fault-log entry, retry /
  split / degradation events matching the report's counters;
- a traced :meth:`kneighbors` under fault injection emits a valid Chrome
  trace whose tile/retry/degradation annotations match the
  :class:`KnnQueryReport`, while neighbor results stay bit-identical to a
  clean run;
- one recording path: a plan records its facts from what it delivered, so
  a 4-worker run writes the serial run's registry and span tree, faulted
  and aborted runs included, and a distributed run's registry is the same
  for any worker count.

``CHAOS_SEED`` (env var, default 0) seeds the fault schedules of the
serial-vs-4-worker tests; CI's chaos job sweeps it.
"""

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.pairwise import pairwise_distances
from repro.errors import ExecutionFaultError
from repro.faults import FaultInjector, FaultSpec, RecoveryPolicy
from repro.neighbors.brute_force import NearestNeighbors
from repro.obs import (
    MetricsRegistry,
    Tracer,
    canonical_trees_equal,
    to_chrome_trace,
)
from repro.plan import DenseBlockConsumer, PlanExecutor, build_pairwise_plan
from tests.conftest import random_csr, random_dense, seeded_rng

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Budget that cuts the (40, 25) pair into a 3x3 tile grid.
BUDGET = 600

#: One deterministic fault of each recoverable kind on distinct tiles.
FAULT_SPECS = (
    FaultSpec("transient", tiles=(0,)),
    FaultSpec("oom", tiles=(1,)),
    FaultSpec("capacity", tiles=(2,)),
    FaultSpec("slow", tiles=(3,), seconds=0.25),
)


@pytest.fixture
def pair(rng):
    return (random_csr(rng, 40, 30, 0.3), random_csr(rng, 25, 30, 0.25))


def _execute(pair, tracer, *, n_workers, metrics=None, injector=None,
             recovery=None):
    plan = build_pairwise_plan(*pair, "euclidean",
                               memory_budget_bytes=BUDGET, tracer=tracer)
    executor = PlanExecutor(plan, n_workers=n_workers, tracer=tracer,
                            metrics=metrics, recovery=recovery,
                            fault_injector=injector)
    return executor.execute(DenseBlockConsumer())


def _reconcile(tracer, report):
    """Exact span/event <-> report agreement (shared by the tests)."""
    tile_spans = tracer.spans_by_category("tile")
    assert len(tile_spans) == report.n_tiles
    faults = tracer.fault_events()
    assert len(faults) == len(report.fault_log)
    by_action = {}
    for ev in faults:
        by_action.setdefault(ev.name, []).append(ev)
    assert len(by_action.get("retried", ())) == report.n_retries
    assert len(by_action.get("split", ())) == report.n_tile_splits
    degraded = sorted({ev.args["tile"]
                       for ev in by_action.get("degraded", ())})
    assert tuple(degraded) == tuple(sorted(report.degraded_tiles))
    # every tile span carries the lane/tile args the exporter lays out by
    for span in tile_spans:
        assert 0 <= span.args["lane"] < report.n_workers
        assert span.sim_seconds is not None


def test_serial_and_threaded_trees_identical(pair):
    serial, threaded = Tracer(), Tracer()
    r1 = _execute(pair, serial, n_workers=1)
    r4 = _execute(pair, threaded, n_workers=4)
    assert canonical_trees_equal(serial, threaded)
    np.testing.assert_array_equal(r1.value, r4.value)
    assert r1.n_tiles == r4.n_tiles == 9


def test_clean_run_reconciles_with_report(pair):
    tracer = Tracer()
    report = _execute(pair, tracer, n_workers=2)
    _reconcile(tracer, report)
    assert report.n_faults == 0
    # structure: one plan.build + one plan.execute root; kernels nested
    assert [r.name for r in tracer.roots] == ["plan.build", "plan.execute"]
    passes = [s for s in tracer.spans_by_category("kernel")
              if s.name.startswith("kernel.pass")]
    assert len(passes) >= report.n_tiles  # >= one pass per tile
    assert all(s.parent.category == "tile" for s in passes)
    # strategy/rowcache decisions nest under their kernel pass
    nested = [s for s in tracer.spans_by_category("kernel")
              if s.name in ("strategy.select", "rowcache.stage")]
    assert nested
    assert all(s.parent.name.startswith("kernel.pass") for s in nested)
    # every strategy.select span names the engine that made the decision
    selects = [s for s in nested if s.name == "strategy.select"]
    assert selects
    assert all(s.args["engine"] == "hybrid_coo" for s in selects)


def test_faulted_run_reconciles_with_report(pair):
    tracer = Tracer()
    metrics = MetricsRegistry()
    report = _execute(pair, tracer, n_workers=2, metrics=metrics,
                      injector=FaultInjector(FAULT_SPECS, seed=0),
                      recovery=RecoveryPolicy())
    assert report.n_faults >= 4  # every spec fired
    _reconcile(tracer, report)

    # metrics agree with the same report
    assert metrics.counter("tiles_executed").value() == report.n_tiles
    # each successful kernel entry recorded its engine: one per executed
    # tile plus the re-runs behind every retry and degradation (split
    # attempts abort at the fault checkpoint before selection is recorded)
    assert (metrics.counter("engine_selected_total")
            .value(engine="hybrid_coo")
            == report.n_tiles + report.n_retries
            + len(report.degraded_tiles))
    assert metrics.counter("retries_total").value() == report.n_retries
    assert (metrics.counter("tile_splits_total").value()
            == report.n_tile_splits)
    assert (metrics.counter("degraded_tiles_total").value()
            == len(report.degraded_tiles))
    assert (metrics.counter("fault_events_total").value()
            == len(report.fault_log))
    assert metrics.counter("backoff_seconds_total").value() == pytest.approx(
        report.backoff_seconds)
    assert metrics.histogram("simulated_ms").count() == report.n_tiles
    assert metrics.counter("kernel_launches_total").value() > 0
    assert metrics.histogram("hash_load_factor").count() > 0
    assert metrics.gauge("plan_simulated_seconds").value() == pytest.approx(
        report.simulated_seconds)

    # faults are bit-transparent: same distances as an untraced clean run
    clean = pairwise_distances(*pair, metric="euclidean",
                               memory_budget_bytes=BUDGET)
    np.testing.assert_array_equal(report.value, clean)


def test_traced_kneighbors_under_faults_matches_knn_report(tmp_path, rng):
    x = random_dense(rng, 48, 24, density=0.4)
    trace_path = tmp_path / "knn.json"
    tracer = Tracer()
    metrics = MetricsRegistry()

    nn = NearestNeighbors(
        n_neighbors=3, metric="euclidean", batch_rows=16,
        memory_budget_bytes=BUDGET, n_workers=2,
        recovery=RecoveryPolicy(),
        fault_injector=FaultInjector(FAULT_SPECS, seed=0),
        trace=tracer, metrics=metrics)
    dist, idx = nn.fit(x).kneighbors(x)
    report = nn.last_report
    assert report.n_faults >= 4

    # span counts reconcile exactly with the KnnQueryReport
    assert len(tracer.spans_by_category("tile")) == report.n_batches
    faults = tracer.fault_events()
    assert len(faults) == len(report.fault_log)
    assert (sum(1 for e in faults if e.name == "retried")
            == report.n_retries)
    assert (sum(1 for e in faults if e.name == "split")
            == report.n_tile_splits)
    assert (tuple(sorted({e.args["tile"] for e in faults
                          if e.name == "degraded"}))
            == tuple(sorted(report.degraded_tiles)))
    assert metrics.counter("retries_total").value() == report.n_retries

    # the exported Chrome trace is valid JSON with matching annotations
    nn2_doc = to_chrome_trace(tracer)
    json.dumps(nn2_doc)
    instants = [e for e in nn2_doc["traceEvents"]
                if e["ph"] == "i" and e["cat"] == "fault"]
    assert len(instants) == report.n_faults
    tile_boxes = [e for e in nn2_doc["traceEvents"]
                  if e["ph"] == "X" and e["cat"] == "tile"]
    assert len(tile_boxes) == report.n_batches

    # the path-based API wrote the same document to disk
    nn_path = NearestNeighbors(
        n_neighbors=3, metric="euclidean", batch_rows=16,
        memory_budget_bytes=BUDGET, n_workers=2,
        recovery=RecoveryPolicy(),
        fault_injector=FaultInjector(FAULT_SPECS, seed=0),
        trace=trace_path)
    dist_p, idx_p = nn_path.fit(x).kneighbors(x)
    on_disk = json.loads(trace_path.read_text())
    assert {e["ph"] for e in on_disk["traceEvents"]} <= {"X", "i", "M"}
    assert (len([e for e in on_disk["traceEvents"]
                 if e["ph"] == "X" and e["cat"] == "tile"])
            == nn_path.last_report.n_batches)

    # recovery is bit-transparent to neighbors
    clean = NearestNeighbors(n_neighbors=3, metric="euclidean",
                             batch_rows=16, memory_budget_bytes=BUDGET)
    cd, ci = clean.fit(x).kneighbors(x)
    np.testing.assert_array_equal(dist, cd)
    np.testing.assert_array_equal(idx, ci)
    np.testing.assert_array_equal(dist_p, cd)
    np.testing.assert_array_equal(idx_p, ci)


def test_unabsorbed_fault_annotates_root(pair):
    from repro.errors import ExecutionFaultError

    tracer = Tracer()
    with pytest.raises(ExecutionFaultError) as err:
        _execute(pair, tracer, n_workers=1,
                 injector=FaultInjector(
                     (FaultSpec("oom", tiles=(4,), depths=(0, 1, 2, 3, 4)),),
                     seed=0),
                 recovery=RecoveryPolicy(max_split_depth=1))
    (root,) = tracer.spans_named("plan.execute")
    unabsorbed = [e for e in root.events if e.name == "unabsorbed"]
    assert len(unabsorbed) == 1
    assert unabsorbed[0].args["tile"] == 4
    assert err.value.watermark == 4


# ----------------------------------------------------------------------
# distributed execution: comm spans/metrics <-> DistExecutionReport
# ----------------------------------------------------------------------

def _dist_execute(tracer, metrics, *, n_workers=1, link_faults=None,
                  recovery=None):
    from repro.datasets.synthetic import make_skewed
    from repro.dist import DistributedExecutor, build_distributed_plan

    a = make_skewed(24, 30, mean_degree=6, sigma=1.0, seed=71)
    b = make_skewed(28, 30, mean_degree=6, sigma=1.0, seed=72)
    plan = build_distributed_plan(a, b, "euclidean", k=4, n_devices=4,
                                  partition="2d", interconnect="network")
    executor = DistributedExecutor(plan, n_workers=n_workers,
                                   tracer=tracer, metrics=metrics,
                                   link_faults=link_faults,
                                   recovery=recovery)
    return executor.execute()


def test_dist_clean_run_reconciles_exactly():
    tracer = Tracer()
    metrics = MetricsRegistry()
    report = _dist_execute(tracer, metrics, n_workers=2)

    comm_spans = tracer.spans_by_category("comm")
    assert len(comm_spans) == report.n_comm_steps
    # span byte annotations sum to the report total, to the integer
    assert (sum(s.args["nbytes"] for s in comm_spans)
            == report.comm_bytes_total)
    # every comm span carries the tier the pricer chose
    by_tier = {}
    for span in comm_spans:
        tier = span.args["tier"]
        by_tier[tier] = by_tier.get(tier, 0) + span.args["nbytes"]
    assert by_tier == report.bytes_by_tier

    # metrics: per-tier counter values sum back to the report
    for tier, nbytes in report.bytes_by_tier.items():
        assert (metrics.counter("comm_bytes_total").value(tier=tier)
                == nbytes)
    assert (metrics.counter("comm_transfers_total").value()
            == report.n_comm_steps)
    # comm_seconds accumulates in the same order with the same floats
    assert (metrics.counter("comm_seconds_total").value()
            == report.comm_seconds)
    assert (metrics.gauge("dist_simulated_seconds").value()
            == report.simulated_seconds)

    # one device span per grid cell, on the device's own lane
    device_spans = tracer.spans_by_category("tile")
    assert len(device_spans) == report.n_devices
    assert (sorted(s.args["lane"] for s in device_spans)
            == list(range(report.n_devices)))
    (root,) = tracer.spans_named("dist.execute")
    assert root.args["n_workers"] == report.n_devices
    assert root.sim_seconds == report.simulated_seconds


def test_dist_trace_is_identical_for_any_worker_count():
    from repro.obs import canonical_trees_equal

    serial, threaded = Tracer(), Tracer()
    r1 = _dist_execute(serial, None, n_workers=1)
    r4 = _dist_execute(threaded, None, n_workers=4)
    assert canonical_trees_equal(serial, threaded)
    np.testing.assert_array_equal(r1.value[0], r4.value[0])
    np.testing.assert_array_equal(r1.value[1], r4.value[1])
    assert r1.simulated_seconds == r4.simulated_seconds


def test_dist_faulted_run_reconciles_with_report():
    from repro.faults import RecoveryPolicy as Policy

    tracer = Tracer()
    metrics = MetricsRegistry()
    report = _dist_execute(
        tracer, metrics, n_workers=2,
        link_faults=FaultInjector(
            (FaultSpec("transient", tiles=(0, 3)),), seed=0),
        recovery=Policy())
    assert report.n_retries == 2
    faults = tracer.fault_events()
    assert len(faults) == len(report.fault_log)
    assert sum(1 for e in faults if e.name == "retried") == report.n_retries
    # retried transfers annotate their comm span
    retried = [s for s in tracer.spans_by_category("comm")
               if s.args.get("retries")]
    assert len(retried) == 2
    assert all(s.args["backoff_seconds"] > 0 for s in retried)

    # the exported Chrome trace places comm spans on link lanes
    doc = to_chrome_trace(tracer)
    json.dumps(doc)
    boxes = [e for e in doc["traceEvents"]
             if e["ph"] == "X" and e["cat"] == "comm"]
    assert len(boxes) == report.n_comm_steps
    assert all(e["tid"] >= 1000 for e in boxes)
    lane_names = {str(e["args"]["name"])
                  for e in doc["traceEvents"]
                  if e.get("name") == "thread_name"}
    assert any(name.startswith("link ") for name in lane_names)


# ----------------------------------------------------------------------
# one recording path: what a run records ignores the worker count
# ----------------------------------------------------------------------

#: 4-worker repeats per test: thread timing differs between them.
REPEATS = 20

#: The gauges that model the worker count by design.
WORKER_GAUGES = ("plan_simulated_seconds", "peak_resident_bytes")


class _ConsumerBug(Exception):
    pass


class _FailingConsumer(DenseBlockConsumer):
    """Raises when it is handed tile 5."""

    def consume(self, tile, payload):
        if tile.index == 5:
            raise _ConsumerBug
        super().consume(tile, payload)


def _recorded(n_workers, metric, budget, shape, consumer=None,
              **executor_kwargs):
    """One seeded plan's execution (an unabsorbed fault or a consumer
    error may end it); returns its registry less :data:`WORKER_GAUGES`,
    its span tree, tracer and registry."""
    rng = seeded_rng(0)
    m, n, k = shape
    a, b = random_csr(rng, m, k, 0.3), random_csr(rng, n, k, 0.3)
    tracer, metrics = Tracer(), MetricsRegistry()
    plan = build_pairwise_plan(a, b, metric, memory_budget_bytes=budget)
    executor = PlanExecutor(plan, n_workers=n_workers, tracer=tracer,
                            metrics=metrics, **executor_kwargs)
    try:
        executor.execute(consumer or DenseBlockConsumer())
    except (ExecutionFaultError, _ConsumerBug):
        pass
    registry = json.loads(metrics.to_json())
    for name in WORKER_GAUGES:
        registry.pop(name, None)
    return registry, tracer.span_tree(), tracer, metrics


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
def test_threaded_plan_records_what_the_serial_run_records(faulted):
    """A 13-tile plan at 4 workers writes the serial run's registry (less
    the worker-count gauges) and span tree on every repeat; the faulted
    schedule retries, splits two tiles and degrades one."""
    def run(n_workers):
        if not faulted:
            return _recorded(n_workers, "euclidean", 4000, (120, 90, 60))
        injector = FaultInjector((FaultSpec("transient", probability=0.3),
                                  FaultSpec("oom", tiles=(2, 7)),
                                  FaultSpec("capacity", tiles=(4,))),
                                 seed=CHAOS_SEED)
        return _recorded(n_workers, "manhattan", 4000, (120, 90, 60),
                         recovery=RecoveryPolicy(), fault_injector=injector)

    serial = run(1)
    metrics = serial[3]
    assert metrics.counter("tiles_executed").value() == 13
    if faulted:
        assert metrics.counter("retries_total").value() > 0
        assert metrics.counter("tile_splits_total").value() == 2
        assert metrics.counter("degraded_tiles_total").value() == 1
    for _ in range(REPEATS):
        registry, tree, _, _ = run(4)
        assert registry == serial[0]
        assert tree == serial[1]


@pytest.mark.parametrize("cause", ["fault", "consumer"])
def test_aborted_threaded_plan_records_only_the_delivered_prefix(cause):
    """A 9-tile plan stopped at tile 5 records tiles 0-4 and tile 5, at 4
    workers too, although workers were still running tiles past it: an
    unabsorbed OOM stops tile 5 before its launches, a consumer error
    after tile 5 reached the consumer."""
    def run(n_workers):
        if cause == "consumer":
            return _recorded(n_workers, "euclidean", BUDGET, (40, 25, 30),
                             consumer=_FailingConsumer())
        injector = FaultInjector((FaultSpec("oom", tiles=(5,)),),
                                 seed=CHAOS_SEED)
        return _recorded(n_workers, "euclidean", BUDGET, (40, 25, 30),
                         fault_injector=injector)

    launches = 10 if cause == "fault" else 12  # a kernel and an epilogue
    serial = run(1)
    assert len(serial[2].spans_by_category("tile")) == 6
    assert serial[3].counter("kernel_launches_total").value() == launches
    for _ in range(REPEATS):
        registry, tree, tracer, metrics = run(4)
        assert tree == serial[1]
        assert len(tracer.spans_by_category("tile")) == 6
        assert metrics.counter("kernel_launches_total").value() == launches
        assert registry == serial[0]


def test_dist_registry_is_identical_for_any_worker_count():
    """Device plans' facts go into the executor's registry in flat device
    order, so threaded lanes write the serial registry byte for byte."""
    def registry(n_workers):
        metrics = MetricsRegistry()
        _dist_execute(None, metrics, n_workers=n_workers)
        return metrics.to_json()

    serial = registry(1)
    assert json.loads(serial)["plans_executed"]["series"][0]["value"] == 4
    for _ in range(REPEATS):
        assert registry(4) == serial


def test_simulated_device_and_kernels_import_no_observability():
    """Launches and transfers return what they did and the observer
    records it: nothing under gpusim/ or kernels/ imports repro.obs."""
    src = Path(repro.__file__).parent
    offenders = []
    for package in ("gpusim", "kernels"):
        for path in sorted((src / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [("repro." if node.level else "")
                             + (node.module or "")]
                else:
                    continue
                offenders += [f"{package}/{path.name}: {name}"
                              for name in names
                              if name.split(".")[:2] == ["repro", "obs"]]
    assert offenders == []
