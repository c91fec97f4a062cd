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
  clean run.
"""

import json

import numpy as np
import pytest

from repro.core.pairwise import pairwise_distances
from repro.faults import FaultInjector, FaultSpec, RecoveryPolicy
from repro.neighbors.brute_force import NearestNeighbors
from repro.obs import (
    MetricsRegistry,
    Tracer,
    canonical_trees_equal,
    to_chrome_trace,
)
from repro.plan import DenseBlockConsumer, PlanExecutor, build_pairwise_plan
from tests.conftest import random_csr, random_dense

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
