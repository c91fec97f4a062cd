"""The golden-regression case catalogue, shared by regen and the test.

Each case pins one (engine / row-cache strategy, metric) combination on a
canonical seeded input pair and records, in ``fixtures/pairwise.json``:

- every distance **bit-exactly** (``float.hex`` round-trip);
- the merged :class:`~repro.gpusim.KernelStats` counters;
- the simulated seconds (makespan and serial).

``fixtures/mutable.json`` pins the delta-merge top-k of a mutation script,
and ``fixtures/observability.json`` everything the observability layer
records for three faulted runs (server, distributed, mutable index).

Regenerate after an intentional numerics/cost-model change with::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.pairwise import pairwise_distances
from repro.kernels import make_engine
from repro.testing import DEFAULT_SEED, random_csr, random_dense, seeded_rng

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "pairwise.json"
MUTABLE_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "mutable.json"

#: Tile budget that forces a multi-tile plan (same grid as tests/obs).
BUDGET = 600

#: (case name, engine factory kwargs, metric, metric params, positive data)
CASES = (
    ("hybrid_coo/euclidean", {"name": "hybrid_coo"}, "euclidean", {}, False),
    ("hybrid_coo/cosine", {"name": "hybrid_coo"}, "cosine", {}, False),
    ("hybrid_coo/manhattan", {"name": "hybrid_coo"}, "manhattan", {},
     False),
    ("hybrid_coo/minkowski_p3", {"name": "hybrid_coo"}, "minkowski",
     {"p": 3.0}, False),
    ("hybrid_coo/jaccard", {"name": "hybrid_coo"}, "jaccard", {}, False),
    ("hybrid_coo/kl_divergence", {"name": "hybrid_coo"}, "kl_divergence",
     {}, True),
    # row-cache strategy ablation: same metric, forced §3.3 strategies
    ("hybrid_coo[dense]/euclidean",
     {"name": "hybrid_coo", "row_cache": "dense"}, "euclidean", {}, False),
    ("hybrid_coo[hash]/euclidean",
     {"name": "hybrid_coo", "row_cache": "hash"}, "euclidean", {}, False),
    ("hybrid_coo[bloom]/euclidean",
     {"name": "hybrid_coo", "row_cache": "bloom"}, "euclidean", {}, False),
    # merge-path nonzero-splitting engine: one case per semiring class
    # (annihilating join, NAMM-plus join+side-sum, idempotent union sweeps)
    ("merge_path/cosine", {"name": "merge_path"}, "cosine", {}, False),
    ("merge_path/euclidean", {"name": "merge_path"}, "euclidean", {}, False),
    ("merge_path/manhattan", {"name": "merge_path"}, "manhattan", {}, False),
    ("merge_path/chebyshev", {"name": "merge_path"}, "chebyshev", {}, False),
    ("merge_path/jaccard", {"name": "merge_path"}, "jaccard", {}, False),
    ("merge_path/kl_divergence", {"name": "merge_path"}, "kl_divergence",
     {}, True),
    # baseline engines
    ("naive_csr/euclidean", {"name": "naive_csr"}, "euclidean", {}, False),
    ("expand_sort_contract/euclidean", {"name": "expand_sort_contract"},
     "euclidean", {}, False),
    ("csrgemm/euclidean", {"name": "csrgemm"}, "euclidean", {}, False),
    ("host/euclidean", {"name": "host"}, "euclidean", {}, False),
)


def canonical_pair(positive: bool):
    """The fixed input pair every golden case runs on."""
    rng = seeded_rng(DEFAULT_SEED)
    return (random_csr(rng, 40, 30, 0.3, positive=positive),
            random_csr(rng, 25, 30, 0.25, positive=positive))


def run_case(name, engine_kwargs, metric, params, positive):
    """Execute one case; returns the JSON-ready record."""
    kwargs = dict(engine_kwargs)
    engine = make_engine(kwargs.pop("name"), **kwargs)
    a, b = canonical_pair(positive)
    result = pairwise_distances(a, b, metric=metric, engine=engine,
                                memory_budget_bytes=BUDGET,
                                return_result=True, **params)
    return {
        "metric": metric,
        "params": params,
        "shape": list(result.distances.shape),
        "distances_hex": [v.hex() for v in result.distances.ravel()],
        "stats": result.stats.as_dict(),
        "simulated_seconds": result.simulated_seconds,
        "serial_seconds": result.report.serial_seconds,
        "n_tiles": result.report.n_tiles,
    }


#: Delta-merge golden cases: ``(case name, engine, metric, params)``.
#: Each replays the canonical mutation script through a MutableIndex and
#: pins the cross-generation (base + delta pseudo-shard) merged top-k.
MUTABLE_CASES = (
    ("mutable/hybrid_coo/euclidean", "hybrid_coo", "euclidean", {}),
    ("mutable/hybrid_coo/cosine", "hybrid_coo", "cosine", {}),
    ("mutable/merge_path/euclidean", "merge_path", "euclidean", {}),
    ("mutable/naive_csr/euclidean", "naive_csr", "euclidean", {}),
    ("mutable/host/euclidean", "host", "euclidean", {}),
)

#: k for the mutable golden queries.
MUTABLE_K = 7


def canonical_mutation_script():
    """A fixed corpus, query block, and mutation list shared by every
    mutable golden case. The script exercises overwrite, delete,
    tombstone-after-overwrite, and reinsert — so the recorded top-k
    crosses the base/delta generation boundary in every tricky way."""
    rng = seeded_rng(DEFAULT_SEED + 1)
    corpus = random_dense(rng, 40, 30, 0.3)
    queries = random_dense(rng, 25, 30, 0.25)
    block = random_dense(rng, 6, 30, 0.35)
    script = (
        ("upsert", (45, 46, 47), block[:3]),    # brand-new ids
        ("upsert", (3, 17), block[3:5]),        # overwrite base rows
        ("delete", (8, 21), None),              # tombstone base rows
        ("delete", (3,), None),                 # tombstone-after-overwrite
        ("upsert", (8,), block[5:6]),           # reinsert a deleted id
    )
    return corpus, queries, script


def run_mutable_case(name, engine, metric, params):
    """Replay the canonical script on a MutableIndex; JSON-ready record."""
    from repro.serve import MutableIndex

    corpus, queries, script = canonical_mutation_script()
    index = MutableIndex.build(corpus, metric=metric, metric_params=params,
                               n_shards=3, engine=engine,
                               compact_threshold_rows=10 ** 9)
    for kind, ids, rows in script:
        if kind == "upsert":
            index.upsert(np.asarray(ids, dtype=np.int64), rows)
        else:
            index.delete(np.asarray(ids, dtype=np.int64))
    distances, indices = index.kneighbors(queries, MUTABLE_K)
    return {
        "engine": engine,
        "metric": metric,
        "params": params,
        "live_rows": index.n_rows,
        "shape": list(distances.shape),
        "distances_hex": [v.hex() for v in distances.ravel()],
        "indices": [int(i) for i in indices.ravel()],
    }


# ----------------------------------------------------------------------
# observability: every recorded fact, pinned byte for byte
# ----------------------------------------------------------------------
OBS_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "observability.json"

#: Observability golden cases: each runs one component with a
#: MetricsRegistry, Tracer and Telemetry attached (``n_workers=1``).
OBS_CASES = ("obs/server", "obs/dist", "obs/mutable")

#: The server scenario: ``(arrival_ms, rows, priority, deadline slack)``;
#: a zero-row entry drains the forming batch at that time instead.
_SERVER_SCRIPT = (
    (0.00, 1, 0, 0.5), (0.00, 1, 1, 0.5), (0.00, 1, 2, 0.5),
    (0.00, 1, 0, 0.5),                      # queue-depth rejection
    (0.01, 0, 0, 0.0),
    (0.10, 2, 0, 0.001), (0.10, 1, 1, 0.001),  # deadline misses
    (0.11, 0, 0, 0.0),
    (0.30, 1, 2, 0.5), (0.31, 2, 1, 0.5),   # shed + degrade
    (0.32, 1, 0, 0.5), (0.33, 1, 2, 0.5),
    (0.60, 1, 1, 0.5), (0.61, 3, 0, 0.5),
    (2.50, 1, 2, 0.5), (2.51, 1, 1, 0.5),
)


def _obs_sinks():
    from repro.obs import MetricsRegistry, Telemetry, Tracer
    from repro.obs.telemetry import SamplingPolicy

    metrics = MetricsRegistry()
    telemetry = Telemetry(policy=SamplingPolicy(head_rate=0.3, seed=1),
                          metrics=metrics)
    return Tracer(), metrics, telemetry


def _run_obs_server(tracer, metrics, telemetry):
    """2 shards x 2 replicas behind admission and the shed ladder; shard 0
    replica 0 needs a retry and a watermark resume per batch, shard 1
    replica 0 never survives and fails over to its sibling."""
    from repro.errors import AdmissionRejected
    from repro.faults import (
        FaultInjector,
        FaultKind,
        FaultSpec,
        RecoveryPolicy,
        fatal_specs,
    )
    from repro.obs.slo import SLObjective, SLOMonitor
    from repro.serve import (
        AdmissionController,
        BackpressureController,
        Server,
        ShardedIndex,
    )
    from repro.testing import skewed_csr

    corpus = skewed_csr(60, 24, seed=DEFAULT_SEED, scale=6, floor=1, cap=20)
    rng = seeded_rng(DEFAULT_SEED + 2)
    index = ShardedIndex.build(corpus, metric="euclidean", n_shards=2,
                               n_replicas=2)
    monitor = SLOMonitor(metrics, (SLObjective(
        name="miss", kind="ratio", numerator="serve_deadline_missed_total",
        denominator="serve_requests_total", threshold=0.1),),
        window_ms=1.0)
    injectors = {
        (0, 0): FaultInjector([FaultSpec(FaultKind.TRANSIENT, tiles=(0,),
                                         attempts=(0, 1))], seed=1),
        (1, 0): FaultInjector(fatal_specs(), seed=2),
    }
    server = Server(index, max_batch_rows=4, max_wait_ms=0.05, n_workers=1,
                    recovery=RecoveryPolicy(max_retries=1),
                    fault_injectors=injectors, max_shard_resumes=1,
                    admission=AdmissionController(max_queue_depth=3),
                    backpressure=BackpressureController(
                        monitor, poll_interval_ms=0.0),
                    trace=tracer, metrics=metrics, telemetry=telemetry)
    for arrival, rows, priority, slack in _SERVER_SCRIPT:
        if rows == 0:
            server.drain(now_ms=arrival)
            continue
        queries = random_csr(rng, rows, corpus.n_cols, 0.3)
        try:
            server.submit(queries, 4, arrival_ms=arrival,
                          deadline_ms=arrival + slack, priority=priority)
        except AdmissionRejected:
            pass
    server.drain()


def _run_obs_dist(tracer, metrics, telemetry):
    """A 2-D grid whose first transfer retries once and whose last one
    aborts; the same executor then resumes from the watermark."""
    from repro.datasets.synthetic import make_skewed
    from repro.dist import DistributedExecutor, build_distributed_plan
    from repro.errors import ExecutionFaultError
    from repro.faults import FaultInjector, FaultSpec, RecoveryPolicy

    a = make_skewed(24, 30, mean_degree=6, sigma=1.0, seed=71)
    b = make_skewed(28, 30, mean_degree=6, sigma=1.0, seed=72)
    plan = build_distributed_plan(a, b, "euclidean", k=4, n_devices=4,
                                  partition="2d", interconnect="network")
    executor = DistributedExecutor(plan, n_workers=1,
                                   recovery=RecoveryPolicy(),
                                   tracer=tracer, metrics=metrics,
                                   telemetry=telemetry)
    fatal_step = executor.n_steps - 1
    executor.link_faults = FaultInjector(
        (FaultSpec("transient", tiles=(0,), attempts=(0,)),
         FaultSpec("transient", tiles=(fatal_step,),
                   attempts=tuple(range(16)))), seed=0)
    try:
        executor.execute()
    except ExecutionFaultError as err:
        watermark = err.watermark
    else:  # pragma: no cover - the schedule always aborts
        raise AssertionError("the link-fault schedule did not abort")
    executor.link_faults = None
    executor.execute(resume_from=watermark)


def _run_obs_mutable(tracer, metrics, telemetry):
    """Upserts and deletes, a compaction that faults and is resumed, then
    a no-op compaction."""
    from repro.errors import CompactionFaultError
    from repro.faults import FaultInjector, fatal_specs
    from repro.serve import MutableIndex

    corpus, _, script = canonical_mutation_script()
    index = MutableIndex.build(corpus, metric="euclidean", n_shards=3,
                               compact_threshold_rows=10 ** 9,
                               tracer=tracer, metrics=metrics,
                               telemetry=telemetry)
    for kind, ids, rows in script:
        if kind == "upsert":
            index.upsert(np.asarray(ids, dtype=np.int64), rows)
        else:
            index.delete(np.asarray(ids, dtype=np.int64))
    try:
        index.compact(now_ms=1.0, fault_injector=FaultInjector(
            fatal_specs(tiles=(1,)), seed=5))
    except CompactionFaultError:
        pass
    index.compact(now_ms=2.0)
    index.compact(now_ms=3.0)


_OBS_RUNNERS = {
    "obs/server": _run_obs_server,
    "obs/dist": _run_obs_dist,
    "obs/mutable": _run_obs_mutable,
}


def _plain(value):
    """JSON-ready copy of a span/event argument (numpy scalars unwrapped,
    tuples as lists)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _span_node(span) -> dict:
    """One span in the canonical order of ``Tracer.span_tree`` with its
    simulated seconds, args and events (wall time left out)."""
    children = sorted(span.children, key=lambda s: (
        s.name, s.args.get("tile", -1), s.category))
    node = {
        "name": span.name,
        "category": span.category,
        "status": span.status,
        "sim_seconds": span.sim_seconds,
        "args": _plain(span.args),
        "events": [{"name": e.name, "category": e.category,
                    "seconds": e.seconds, "args": _plain(e.args)}
                   for e in span.events],
        "children": [_span_node(c) for c in children],
    }
    if not span.finished:
        node["unfinished"] = True
    return node


def run_obs_case(name: str) -> dict:
    """Run one observability case; returns the JSON-ready record."""
    tracer, metrics, telemetry = _obs_sinks()
    _OBS_RUNNERS[name](tracer, metrics, telemetry)
    sampling = telemetry.finalize()
    exemplars = {}
    for metric_name in metrics.names():
        inst = metrics.get(metric_name)
        if inst.kind != "histogram":
            continue
        for entry in inst._json():
            if "exemplars" in entry:
                exemplars.setdefault(metric_name, []).append(
                    {"labels": entry["labels"],
                     "exemplars": entry["exemplars"]})
    roots = sorted(tracer.roots,
                   key=lambda s: (s.name, s.args.get("tile", -1)))
    return {
        "prometheus": metrics.to_prometheus_text().splitlines(),
        "metrics_json": metrics.to_json(),
        "events": [json.dumps(e, sort_keys=True) for e in telemetry.events],
        "sampling": json.dumps(sampling.as_dict(), sort_keys=True),
        "exemplars": exemplars,
        "span_tree": json.dumps(tracer.span_tree(), sort_keys=True),
        "spans": json.dumps([_span_node(r) for r in roots],
                            sort_keys=True),
    }
