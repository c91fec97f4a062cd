"""Experiment runner for the paper-reproduction benchmarks.

One cell of Table 3 = an end-to-end k-NN query (the paper §4.2: "Each
experiment trains the NearestNeighbors estimator on the entire dataset and
then queries the entire dataset, timing only the query") for one (dataset,
distance, engine) triple. The runner executes the cell, returning both the
**simulated device seconds** (the number the tables report — our stand-in
for the paper's wall clock on a V100) and the host wall seconds (reported
for transparency; it measures this Python process, not the modeled GPU).

Every cell is a dataclass that is its own ``BENCH_*`` payload entry
(:func:`cell_payload`), and every ``wall_seconds`` is set in one place,
:func:`_timed`, around the whole cell call (fit included).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import baseline_engine_for
from repro.baselines.cpu_bruteforce import CpuBruteForce
from repro.core.distances import make_distance
from repro.datasets.synthetic import SyntheticDataset, load_dataset, \
    make_skewed
from repro.faults import FaultInjector, FaultSpec, RecoveryPolicy
from repro.gpusim.specs import DeviceSpec, VOLTA_V100
from repro.gpusim.stats import KernelStats
from repro.kernels import make_engine
from repro.kernels.strategy import DENSE_ITEM_BYTES
from repro.neighbors.brute_force import NearestNeighbors
from repro.plan.consumers import DenseBlockConsumer
from repro.plan.executor import PlanExecutor
from repro.plan.pairwise_plan import build_pairwise_plan
from repro.plan.tiling import OUTPUT_ITEM_BYTES, WORKSPACE_ITEM_BYTES

__all__ = ["BenchCell", "PlanCell", "FaultCell", "ServeCell", "SLOCell",
           "BurstCell", "AblationCell", "MutateCell", "ScaleCell",
           "TelemetryCell",
           "run_knn_cell", "run_baseline_cell", "run_plan_cell",
           "run_fault_cell", "run_serve_cell", "run_slo_cell",
           "run_burst_cell", "run_ablation_cell", "run_mutate_cell",
           "run_scale_cell", "run_telemetry_cell",
           "ablation_fixed_configs", "cell_payload", "fit_and_query",
           "tile_budget", "BENCH_SCALES", "bench_dataset", "MINKOWSKI_P",
           "KNN_K", "CHAOS_SPECS"]

#: Scales used by every benchmark (documented in EXPERIMENTS.md); chosen so
#: the full Table-3 sweep completes in minutes on a laptop while preserving
#: each dataset's structural character.
BENCH_SCALES: Dict[str, float] = {
    "movielens": 64.0,
    "sec_edgar": 96.0,
    "scrna": 40.0,
    "nytimes": 64.0,
}

#: Paper Table 3 benchmarks Minkowski as distinct from Manhattan/Euclidean.
MINKOWSKI_P = 3.0

#: Neighborhood size of the end-to-end query.
KNN_K = 10

_DATASET_CACHE: Dict[str, SyntheticDataset] = {}


def bench_dataset(name: str) -> SyntheticDataset:
    """The benchmark-scale replica of a paper dataset (cached)."""
    if name not in _DATASET_CACHE:
        _DATASET_CACHE[name] = load_dataset(name, scale=BENCH_SCALES[name])
    return _DATASET_CACHE[name]


def cell_payload(cell, *drop: str) -> dict:
    """A cell's fields as its ``BENCH_*`` payload entry, minus ``drop``
    (the fields a report moves to the payload head or leaves out)."""
    return {k: v for k, v in asdict(cell).items() if k not in drop}


def _timed(run):
    """Set the returned cell's ``wall_seconds`` to the host seconds the
    whole call took."""
    @functools.wraps(run)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        cell = run(*args, **kwargs)
        cell.wall_seconds = time.perf_counter() - start
        return cell
    return timed


def _metric_kwargs(metric: str) -> dict:
    return {"p": MINKOWSKI_P} if metric == "minkowski" else {}


def tile_budget(matrix, n_tiles: int) -> int:
    """A device budget of ``1/n_tiles`` of the monolithic self-join
    footprint of ``matrix``, forcing at least that many tiles."""
    monolithic = (float(matrix.n_rows) * matrix.n_rows * OUTPUT_ITEM_BYTES
                  + float(matrix.nnz) * WORKSPACE_ITEM_BYTES)
    return max(1, int(monolithic // max(1, n_tiles)))


def fit_and_query(dataset: str, metric: str, engine, *,
                  spec: DeviceSpec = VOLTA_V100, n_neighbors: int = KNN_K,
                  **nn_kwargs):
    """Fit :class:`NearestNeighbors` on a bench dataset and query the whole
    dataset (the paper's §4.2 unit); returns ``(dist, idx, report)``."""
    nn = NearestNeighbors(n_neighbors=n_neighbors, metric=metric,
                          metric_params=_metric_kwargs(metric),
                          engine=engine, device=spec, **nn_kwargs)
    nn.fit(bench_dataset(dataset).matrix)
    dist, idx = nn.kneighbors()
    return dist, idx, nn.last_report


@dataclass
class BenchCell:
    """The outcome of one (dataset, metric, engine) benchmark cell."""

    dataset: str
    metric: str
    engine: str
    simulated_seconds: float
    wall_seconds: float = 0.0
    stats: KernelStats = field(repr=False, default_factory=KernelStats)

    @property
    def label(self) -> str:
        return f"{self.dataset}/{self.metric}/{self.engine}"


@_timed
def run_knn_cell(dataset: str, metric: str, engine: str, *,
                 spec: DeviceSpec = VOLTA_V100, n_neighbors: int = KNN_K,
                 batch_rows: int = 2048, row_cache: Optional[str] = None,
                 ) -> BenchCell:
    """Run one end-to-end k-NN query cell on a named engine."""
    kwargs = {}
    if row_cache is not None and engine == "hybrid_coo":
        kwargs["row_cache"] = row_cache
    _, _, rep = fit_and_query(dataset, metric,
                              make_engine(engine, spec, **kwargs), spec=spec,
                              n_neighbors=n_neighbors, batch_rows=batch_rows)
    return BenchCell(dataset=dataset, metric=metric, engine=engine,
                     simulated_seconds=rep.simulated_seconds, stats=rep.stats)


@_timed
def run_baseline_cell(dataset: str, metric: str, *,
                      spec: DeviceSpec = VOLTA_V100,
                      n_neighbors: int = KNN_K,
                      batch_rows: int = 2048) -> BenchCell:
    """Run the paper's baseline for the metric (csrgemm or naive CSR)."""
    measure = make_distance(metric, **_metric_kwargs(metric))
    kernel = baseline_engine_for(measure, spec)
    _, _, rep = fit_and_query(dataset, metric, kernel, spec=spec,
                              n_neighbors=n_neighbors, batch_rows=batch_rows)
    return BenchCell(dataset=dataset, metric=metric, engine=kernel.name,
                     simulated_seconds=rep.simulated_seconds, stats=rep.stats)


@dataclass
class PlanCell:
    """One tiled-vs-monolithic execution-plan comparison cell."""

    dataset: str
    metric: str
    mode: str
    n_tiles: int
    n_workers: int
    simulated_seconds: float
    peak_resident_bytes: float
    monolithic_bytes: float
    wall_seconds: float = 0.0

    @property
    def resident_fraction(self) -> float:
        """Peak device footprint relative to the untiled full block."""
        return self.peak_resident_bytes / max(self.monolithic_bytes, 1.0)


@_timed
def run_plan_cell(dataset: str, metric: str, *,
                  spec: DeviceSpec = VOLTA_V100, n_neighbors: int = KNN_K,
                  n_workers: int = 1,
                  n_tiles_target: Optional[int] = None) -> PlanCell:
    """Run one k-NN query through the execution-plan layer and record its
    memory accounting.

    ``n_tiles_target=None`` runs monolithically (one tile holding the full
    dense block); an integer sets the tile budget to ``1/n_tiles_target`` of
    the monolithic footprint, forcing at least that many tiles.
    """
    matrix = bench_dataset(dataset).matrix
    budget = None
    mode = "monolithic"
    if n_tiles_target is not None:
        budget = tile_budget(matrix, n_tiles_target)
        mode = f"tiled/{n_tiles_target}"
    _, _, rep = fit_and_query(dataset, metric, "hybrid_coo", spec=spec,
                              n_neighbors=n_neighbors,
                              batch_rows=max(1, matrix.n_rows),
                              n_workers=n_workers,
                              memory_budget_bytes=budget)
    return PlanCell(dataset=dataset, metric=metric, mode=mode,
                    n_tiles=rep.n_batches, n_workers=rep.n_workers,
                    simulated_seconds=rep.simulated_seconds,
                    peak_resident_bytes=rep.peak_resident_bytes,
                    monolithic_bytes=rep.monolithic_bytes)


#: The chaos schedule every fault bench/CI cell replays: each kind fires
#: per-tile with its own probability, decided by the seeded counter RNG.
CHAOS_SPECS = (
    FaultSpec("transient", probability=0.30),
    FaultSpec("stuck", probability=0.10),
    FaultSpec("oom", probability=0.20),
    FaultSpec("capacity", probability=0.15),
    FaultSpec("slow", probability=0.25, seconds=0.01),
)


@dataclass
class FaultCell:
    """One chaos cell: a faulty k-NN query checked against its clean twin."""

    dataset: str
    metric: str
    seed: int
    n_workers: int
    n_tiles: int
    #: fault events the recovery absorbed (injections + slowdowns)
    n_faults: int
    n_retries: int
    n_tile_splits: int
    n_degraded: int
    backoff_seconds: float
    #: faulty distances and indices bit-identical to the clean run
    identical: bool
    clean_seconds: float
    faulty_seconds: float


def run_fault_cell(dataset: str, metric: str, *, seed: int = 0,
                   n_workers: int = 1, n_tiles_target: int = 8,
                   spec: DeviceSpec = VOLTA_V100,
                   n_neighbors: int = KNN_K) -> FaultCell:
    """Run one k-NN query under an injected fault schedule and verify it.

    The same query runs twice — clean, then under :data:`CHAOS_SPECS` with
    the given seed and a default :class:`RecoveryPolicy` — and the cell
    records whether the recovered run reproduced the clean distances and
    indices bit for bit (the determinism claim the fault matrix checks).
    """
    matrix = bench_dataset(dataset).matrix

    def query(injector):
        return fit_and_query(
            dataset, metric, "hybrid_coo", spec=spec,
            n_neighbors=n_neighbors, batch_rows=max(1, matrix.n_rows),
            n_workers=n_workers,
            memory_budget_bytes=tile_budget(matrix, n_tiles_target),
            recovery=RecoveryPolicy() if injector is not None else None,
            fault_injector=injector)

    c_dist, c_idx, c_rep = query(None)
    f_dist, f_idx, f_rep = query(FaultInjector(CHAOS_SPECS, seed=seed))
    identical = (np.array_equal(c_dist, f_dist)
                 and np.array_equal(c_idx, f_idx))
    return FaultCell(dataset=dataset, metric=metric, seed=seed,
                     n_workers=n_workers, n_tiles=f_rep.n_batches,
                     n_faults=len(f_rep.fault_log),
                     n_retries=f_rep.n_retries,
                     n_tile_splits=f_rep.n_tile_splits,
                     n_degraded=len(f_rep.degraded_tiles),
                     backoff_seconds=sum(e.seconds for e in f_rep.fault_log
                                         if e.action == "retried"),
                     identical=identical,
                     clean_seconds=c_rep.simulated_seconds,
                     faulty_seconds=f_rep.simulated_seconds)


@dataclass
class AblationCell:
    """One degree-skew cell of the engine ablation: every fixed
    configuration vs ``engine="auto"``."""

    sigma: float
    regime: str
    metric: str
    n_rows: int
    n_cols: int
    nnz: int
    degree_cv: float
    #: config label -> simulated seconds, monolithic plan (default budget)
    fixed_seconds: Dict[str, float]
    #: engine/row-cache the autotuner chose
    auto_engine: str
    auto_row_cache: Optional[str]
    auto_seconds: float
    best_fixed_label: str
    best_fixed_seconds: float
    #: ``auto`` matched or beat the best fixed configuration
    auto_matches_best: bool
    auto_minus_best_seconds: float
    #: every configuration produced bit-identical distances
    identical: bool
    wall_seconds: float = 0.0


def ablation_fixed_configs(n_cols: int, spec: DeviceSpec = VOLTA_V100,
                           ) -> List[Tuple[str, str, dict]]:
    """(label, engine, kwargs) for every fixed config the device can run.

    Mirrors :meth:`~repro.plan.Autotuner.engine_candidates` exactly: the
    dense row cache is runnable iff one staged row fits shared memory, so
    ``auto``'s candidate set always covers this sweep and "auto ≥ best
    fixed" is a fair comparison, not a rigged one.
    """
    configs: List[Tuple[str, str, dict]] = []
    if n_cols * DENSE_ITEM_BYTES <= spec.smem_per_block_max_bytes:
        configs.append(("hybrid/dense", "hybrid_coo", {"row_cache": "dense"}))
    configs.append(("hybrid/hash", "hybrid_coo", {"row_cache": "hash"}))
    configs.append(("merge_path", "merge_path", {}))
    return configs


@_timed
def run_ablation_cell(metric: str, *, sigma: float, regime: str,
                      n_cols: int, mean_degree: float, n_rows: int = 96,
                      seed: int = 46,
                      spec: DeviceSpec = VOLTA_V100) -> AblationCell:
    """Run one skewed self-join through every fixed config and ``auto``.

    The operand is a :func:`~repro.datasets.synthetic.make_skewed` matrix
    (lognormal degrees with the given ``sigma``); every configuration runs
    the same monolithic pairwise plan, so the recorded simulated seconds
    are exactly the numbers the autotuner's dry runs priced — ``auto``
    matching the per-cell argmin is the claim this cell checks.
    """
    mat = make_skewed(n_rows=n_rows, n_cols=n_cols,
                      mean_degree=mean_degree, sigma=sigma, seed=seed)
    fixed: Dict[str, float] = {}
    reference = None
    identical = True
    for label, engine, kwargs in ablation_fixed_configs(n_cols, spec):
        kernel = make_engine(engine, spec, **kwargs)
        plan = build_pairwise_plan(mat, None, metric, engine=kernel,
                                   device=spec)
        report = PlanExecutor(plan).execute(DenseBlockConsumer())
        fixed[label] = report.simulated_seconds
        if reference is None:
            reference = report.value
        elif not np.array_equal(reference, report.value):
            identical = False

    plan = build_pairwise_plan(mat, None, metric, engine="auto", device=spec)
    report = PlanExecutor(plan).execute(DenseBlockConsumer())
    if reference is not None and not np.array_equal(reference, report.value):
        identical = False

    best_label, best_seconds = min(fixed.items(),
                                   key=lambda kv: (kv[1], kv[0]))
    auto_seconds = report.simulated_seconds
    tuning = plan.tuning
    return AblationCell(
        sigma=sigma, regime=regime, metric=metric, n_rows=mat.n_rows,
        n_cols=mat.n_cols, nnz=mat.nnz,
        degree_cv=float(tuning.probe_a.degree_cv),
        fixed_seconds=fixed,
        auto_engine=tuning.engine, auto_row_cache=tuning.row_cache,
        auto_seconds=auto_seconds,
        best_fixed_label=best_label, best_fixed_seconds=best_seconds,
        auto_matches_best=auto_seconds <= best_seconds + 1e-12,
        auto_minus_best_seconds=auto_seconds - best_seconds,
        identical=identical)


@dataclass
class ScaleCell:
    """One device-count x interconnect-tier cell of the distributed sweep.

    Every number is a pure function of the cost model: the auto
    partitioner's full candidate table (modeled seconds, exact comm
    bytes), the chosen shape, and one executed
    :class:`~repro.dist.DistributedExecutor` run whose simulated seconds
    must reproduce the modeled total with ``==`` on floats.
    """

    metric: str
    n_devices: int
    interconnect: str
    chosen_partition: str
    grid_rows: int
    grid_cols: int
    estimated_seconds: float
    compute_seconds_max: float
    comm_seconds: float
    comm_bytes_total: int
    #: exact per-phase byte totals of the chosen shape's schedule
    bytes_by_phase: Dict[str, int]
    #: the full auto-partition candidate table, canonical shape order
    candidates: List[dict]
    #: executed run's makespan; must equal ``estimated_seconds`` exactly
    simulated_seconds: float
    estimate_equals_executed: bool
    #: executed bytes per link tier (nvlink/pcie/network)
    bytes_by_tier: Dict[str, int]
    #: 2-D strictly cheaper than both 1-D shapes (None below 4 devices,
    #: where the most-square 2-D grid degenerates into a 1-D one)
    two_d_beats_one_d: Optional[bool]
    wall_seconds: float = 0.0


@_timed
def run_scale_cell(n_devices: int, interconnect: str, *,
                   metric: str = "cosine",
                   n_neighbors: int = KNN_K) -> ScaleCell:
    """Plan and execute one distributed cell on skewed operands.

    Builds the ``partition="auto"`` plan (which prices every shape that
    tiles the device count), then executes the chosen plan and checks the
    clean-run contract — executed simulated seconds equal the modeled
    total exactly. The headline column compares the 2-D candidate's
    modeled total against both 1-D shapes: strictly cheaper once p >= 4
    (each operand side pays (sqrt(p) - 1) transfers instead of (p - 1)).
    """
    from repro.dist import DistributedExecutor, build_distributed_plan

    a = make_skewed(120, 64, mean_degree=10, sigma=1.6, seed=33)
    b = make_skewed(144, 64, mean_degree=12, sigma=1.6, seed=34)
    plan = build_distributed_plan(a, b, metric, k=n_neighbors,
                                  n_devices=n_devices, partition="auto",
                                  interconnect=interconnect)
    report = DistributedExecutor(plan).execute()

    by_phase: Dict[str, int] = {}
    for step in plan.comm_steps:
        by_phase[step.phase] = by_phase.get(step.phase, 0) + step.nbytes
    by_shape = {c.partition: c.estimated_seconds
                for c in plan.choice.candidates}
    two_d = None
    if n_devices >= 4:
        two_d = (by_shape["2d"] < by_shape["1d_row"]
                 and by_shape["2d"] < by_shape["1d_col"])
    return ScaleCell(
        metric=metric, n_devices=n_devices, interconnect=interconnect,
        chosen_partition=plan.choice.partition,
        grid_rows=plan.partition.grid_rows,
        grid_cols=plan.partition.grid_cols,
        estimated_seconds=plan.estimated_seconds,
        compute_seconds_max=max(plan.compute_seconds),
        comm_seconds=plan.comm_seconds,
        comm_bytes_total=plan.comm_bytes,
        bytes_by_phase=dict(sorted(by_phase.items())),
        candidates=[c.as_dict() for c in plan.choice.candidates],
        simulated_seconds=report.simulated_seconds,
        estimate_equals_executed=(report.simulated_seconds
                                  == plan.estimated_seconds),
        bytes_by_tier=dict(sorted(report.bytes_by_tier.items())),
        two_d_beats_one_d=two_d)


@_timed
def run_cpu_cell(dataset: str, metric: str) -> BenchCell:
    """Modeled CPU seconds for the scikit-learn-style baseline (§4.2)."""
    matrix = bench_dataset(dataset).matrix
    seconds = CpuBruteForce().modeled_seconds(matrix, matrix, metric,
                                              **_metric_kwargs(metric))
    return BenchCell(dataset=dataset, metric=metric, engine="cpu-sklearn",
                     simulated_seconds=seconds)


def _serve_index(dataset: str, metric: str, n_shards: int,
                 placement: str = "degree_balanced"):
    """A :class:`~repro.serve.ShardedIndex` over a bench dataset."""
    from repro.serve import ShardedIndex

    return ShardedIndex.build(
        bench_dataset(dataset).matrix, metric=metric,
        metric_params=_metric_kwargs(metric), n_shards=n_shards,
        placement=placement)


def _request_block(dataset: str, cursor: int, n_rows: int):
    """``n_rows`` query rows of a bench dataset from row ``cursor``,
    wrapped so the slice stays inside the dataset."""
    matrix = bench_dataset(dataset).matrix
    lo = cursor % max(1, matrix.n_rows - n_rows)
    return matrix.slice_rows(lo, lo + n_rows)


@dataclass
class ServeCell:
    """One serving configuration driven by a synthetic request stream."""

    dataset: str
    metric: str
    n_shards: int
    placement: str
    max_batch_rows: int
    n_workers: int
    n_requests: int
    total_rows: int
    n_batches: int
    mean_batch_rows: float
    #: query rows served per simulated second (first arrival → last
    #: completion)
    throughput_rows_per_s: float
    #: interpolated quantiles from the ``serve_latency_ms`` histogram
    #: (:meth:`~repro.obs.metrics.Histogram.quantile`), accurate to within
    #: one latency bucket
    p50_latency_ms: float
    p99_latency_ms: float
    wall_seconds: float = 0.0
    #: per-request simulated latencies, admission order (exact samples the
    #: histogram quantiles approximate; kept in ``BENCH_serve.json`` for
    #: offline analysis, not gated on directly)
    latency_samples_ms: Tuple[float, ...] = ()
    deadline_missed: int = 0
    partial_results: int = 0


@_timed
def run_serve_cell(dataset: str, metric: str, *, n_shards: int = 2,
                   placement: str = "degree_balanced",
                   max_batch_rows: int = 32, max_wait_ms: float = 2.0,
                   n_workers: int = 1, n_requests: int = 48,
                   rows_per_request: int = 4,
                   arrival_gap_ms: float = 0.25,
                   n_neighbors: int = KNN_K) -> ServeCell:
    """Serve a synthetic open-loop request stream against one config.

    Requests are ``rows_per_request``-row slices of the dataset itself,
    arriving every ``arrival_gap_ms`` of simulated time; throughput comes
    from the server's deterministic latency model and latency percentiles
    from the ``serve_latency_ms`` histogram's interpolated
    :meth:`~repro.obs.metrics.Histogram.quantile`, so cells are exactly
    reproducible.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import Server

    index = _serve_index(dataset, metric, n_shards, placement)
    metrics = MetricsRegistry()
    server = Server(index, max_batch_rows=max_batch_rows,
                    max_wait_ms=max_wait_ms, n_workers=n_workers,
                    metrics=metrics)

    futures = [server.submit(
        _request_block(dataset, i * rows_per_request, rows_per_request),
        n_neighbors, arrival_ms=i * arrival_gap_ms)
        for i in range(n_requests)]
    server.drain()
    results = [f.result() for f in futures]

    latencies = tuple(float(r.report.latency_ms) for r in results)
    hist = metrics.histogram("serve_latency_ms")
    total_rows = sum(b.n_rows for b in server.batch_reports)
    span_ms = (max(b.completion_ms for b in server.batch_reports)
               - min(r.report.arrival_ms for r in results))
    throughput = total_rows / (span_ms / 1e3) if span_ms > 0 else 0.0
    return ServeCell(
        dataset=dataset, metric=metric, n_shards=n_shards,
        placement=placement, max_batch_rows=max_batch_rows,
        n_workers=n_workers, n_requests=n_requests, total_rows=total_rows,
        n_batches=len(server.batch_reports),
        mean_batch_rows=total_rows / len(server.batch_reports),
        throughput_rows_per_s=throughput,
        p50_latency_ms=hist.quantile(0.50),
        p99_latency_ms=hist.quantile(0.99),
        latency_samples_ms=latencies,
        deadline_missed=int(
            metrics.counter("serve_deadline_missed_total").value()),
        partial_results=int(
            metrics.counter("serve_partial_results_total").value()))


@dataclass
class SLOCell:
    """One SLO-monitored serve run: phased traffic + burn-rate evaluation."""

    dataset: str
    metric: str
    n_requests: int
    deadline_missed: int
    p50_latency_ms: float
    p99_latency_ms: float
    #: ``{objective, at_ms, observed, ok, burn_rate, budget_remaining}``
    #: for every monitor tick, in tick order
    statuses: List[dict] = field(default_factory=list)
    #: ``{objective, at_ms, burn_rate}`` for every burn-rate alert
    alerts: List[dict] = field(default_factory=list)
    report_text: str = ""
    wall_seconds: float = 0.0


@_timed
def run_slo_cell(dataset: str, metric: str, *, n_shards: int = 2,
                 max_batch_rows: int = 16, n_workers: int = 1,
                 phase_requests: int = 16, rows_per_request: int = 4,
                 p99_latency_ms: float = 16.0,
                 deadline_miss_rate: float = 0.05,
                 burn_alert: float = 2.0,
                 window_ms: float = 40.0,
                 n_neighbors: int = KNN_K) -> SLOCell:
    """Drive a three-phase request stream under an :class:`SLOMonitor`.

    Phase 1 is healthy (wide arrival gaps, loose deadlines), phase 2 is an
    overload burst (near-simultaneous arrivals, tight deadlines — the
    deadline-miss burn rate spikes and alerts fire), phase 3 recovers. The
    monitor ticks on the simulated clock after each phase's drain, so the
    alert sequence is deterministic run to run.
    """
    from repro.obs import SLOMonitor, default_serve_objectives
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import Server

    index = _serve_index(dataset, metric, n_shards)
    metrics = MetricsRegistry()
    server = Server(index, max_batch_rows=max_batch_rows,
                    max_wait_ms=2.0, n_workers=n_workers, metrics=metrics)
    monitor = SLOMonitor(
        metrics,
        default_serve_objectives(p99_latency_ms=p99_latency_ms,
                                 deadline_miss_rate=deadline_miss_rate,
                                 burn_alert=burn_alert),
        window_ms=window_ms)

    #: (arrival gap ms, deadline slack ms) per phase; the burst slack sits
    #: inside the batch turnaround time so most burst requests miss
    phases = [(2.0, 500.0), (0.05, 0.05), (2.0, 500.0)]
    arrival = 0.0
    tick_ms = 0.0
    futures = []
    statuses: List[dict] = []
    for gap_ms, slack_ms in phases:
        for _ in range(phase_requests):
            futures.append(server.submit(
                _request_block(dataset, len(futures) * rows_per_request,
                               rows_per_request),
                n_neighbors, arrival_ms=arrival,
                deadline_ms=arrival + slack_ms))
            arrival += gap_ms
        server.drain()
        tick_ms = max(tick_ms + 1.0,
                      max(b.completion_ms for b in server.batch_reports))
        statuses.extend(
            {f: getattr(s, f) for f in ("objective", "at_ms", "observed",
                                        "ok", "burn_rate",
                                        "budget_remaining")}
            for s in monitor.observe(tick_ms))
    for f in futures:
        f.result()

    hist = metrics.histogram("serve_latency_ms")
    return SLOCell(
        dataset=dataset, metric=metric, n_requests=len(futures),
        deadline_missed=int(
            metrics.counter("serve_deadline_missed_total").value()),
        p50_latency_ms=hist.quantile(0.50),
        p99_latency_ms=hist.quantile(0.99),
        statuses=statuses,
        alerts=[{f: getattr(a, f) for f in ("objective", "at_ms",
                                            "burn_rate")}
                for a in monitor.alerts],
        report_text=monitor.render())


@dataclass
class BurstCell:
    """One heavy-tailed (bursty/diurnal) serve run, with or without the
    SLO-driven shed ladder; the with/without pair is the bench's evidence
    that backpressure trades low-priority traffic for the top priority
    class's latency objective."""

    dataset: str
    metric: str
    backpressure: bool
    seed: int
    n_submissions: int
    resolved: int
    shed: int
    rejected: int
    degraded: int
    deadline_missed: int
    #: ``serve_requests_total == resolved + shed + rejected``, exactly
    reconciled: bool
    p50_latency_ms: float
    p99_latency_ms: float
    #: priority-0 p99 vs its SLObjective at the final monitor tick
    p0_p99_latency_ms: float
    p0_threshold_ms: float
    p0_ok: bool
    #: burn-rate alerts fired on the priority-0 latency objective
    p0_alerts: int
    #: burn-rate alerts on the overall-latency objective the shed ladder
    #: watches (fires in both arms; the p0 objective should not)
    driver_alerts: int
    #: highest shed-ladder rung reached (0 = never shed)
    peak_shed_level: int
    #: refusals by ``AdmissionRejected.reason``
    refusals_by_reason: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0


#: Histogram buckets for the burst cell's microsecond-scale latencies: the
#: modeled devices chew a 24-row batch in ~7.4 simulated us, so overload
#: (and the shed ladder protecting against it) lives well below
#: :data:`~repro.serve.server.LATENCY_BUCKETS_MS`'s 0.25 ms floor. The
#: cell pre-registers the latency histograms with this power-of-two ladder
#: (instruments are get-or-create, first registration wins the buckets) so
#: interpolated quantiles resolve the with/without-backpressure contrast.
BURST_BUCKETS_MS: Tuple[float, ...] = tuple(
    0.001 * 2 ** i for i in range(15))


#: the overall-latency objective that drives the shed ladder
DRIVER_OBJECTIVE = "p99_latency_ms"


def _replay_burst_trace(dataset: str, metric: str, *, backpressure: bool,
                        seed: int, n_requests: int, n_shards: int,
                        max_batch_rows: int, max_wait_ms: float,
                        p0_p99_ms: float, driver_p99_ms: float,
                        burn_alert: float, window_ms: float,
                        poll_interval_ms: float, mean_gap_ms: float,
                        deadline_slack_ms: float, n_neighbors: int,
                        **server_kwargs):
    """Serve one seeded heavy-tailed trace under an SLO monitor (see
    :func:`run_burst_cell`); ``server_kwargs`` attach extra sinks to the
    server. Returns ``(server, metrics, monitor, n_submissions,
    peak_shed_level)``."""
    from repro.obs import SLOMonitor, priority_latency_objectives
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLObjective
    from repro.serve import (
        AdmissionRejected,
        BackpressureController,
        Server,
        heavy_tailed_trace,
    )

    index = _serve_index(dataset, metric, n_shards)
    metrics = MetricsRegistry()
    for name in ("serve_latency_ms", "serve_priority_latency_ms",
                 "serve_queue_wait_ms"):
        metrics.histogram(name, buckets=BURST_BUCKETS_MS)
    monitor = SLOMonitor(
        metrics,
        (SLObjective(
            name=DRIVER_OBJECTIVE, kind="quantile",
            metric="serve_latency_ms", q=0.99, threshold=driver_p99_ms,
            burn_alert=burn_alert,
            description="overall p99 latency; drives the shed ladder"),)
        + priority_latency_objectives({0: p0_p99_ms},
                                      burn_alert=burn_alert),
        window_ms=window_ms)
    controller = (BackpressureController(monitor,
                                         objective=DRIVER_OBJECTIVE,
                                         poll_interval_ms=poll_interval_ms)
                  if backpressure else None)
    server = Server(index, max_batch_rows=max_batch_rows,
                    max_wait_ms=max_wait_ms, backpressure=controller,
                    metrics=metrics, **server_kwargs)

    trace = heavy_tailed_trace(
        n_requests=n_requests, seed=seed, mean_gap_ms=mean_gap_ms,
        gap_sigma=1.4, diurnal_period_ms=0.15, diurnal_amplitude=0.9,
        rows_choices=(1, 2, 4),
        deadline_ms_by_priority={p: deadline_slack_ms for p in (0, 1, 2)})
    peak_level = 0
    row_cursor = 0
    for t in trace:
        block = _request_block(dataset, row_cursor, t.n_rows)
        row_cursor += t.n_rows
        # The monitor also ticks at arrivals (monotone-guarded) so the
        # no-backpressure run records the same burn-rate history the
        # controller would have seen.
        if t.arrival_ms >= monitor.last_ms:
            monitor.observe(t.arrival_ms)
        try:
            server.submit(block, n_neighbors, arrival_ms=t.arrival_ms,
                          deadline_ms=t.deadline_ms, priority=t.priority)
        except AdmissionRejected:
            pass
        if controller is not None:
            peak_level = max(peak_level, controller.level)
    server.drain()
    final_ms = max((b.completion_ms for b in server.batch_reports),
                   default=monitor.last_ms)
    monitor.observe(max(final_ms, monitor.last_ms))
    return server, metrics, monitor, len(trace), peak_level


@_timed
def run_burst_cell(dataset: str = "movielens", metric: str = "cosine", *,
                   backpressure: bool, seed: int = 7,
                   n_requests: int = 160, n_shards: int = 2,
                   max_batch_rows: int = 24, max_wait_ms: float = 0.002,
                   p0_p99_ms: float = 0.08, driver_p99_ms: float = 0.015,
                   burn_alert: float = 1.5, window_ms: float = 0.05,
                   poll_interval_ms: float = 0.002,
                   mean_gap_ms: float = 0.0005,
                   deadline_slack_ms: float = 0.05,
                   n_neighbors: int = KNN_K) -> BurstCell:
    """Serve one seeded heavy-tailed arrival trace, optionally shedding.

    The trace (:func:`~repro.serve.heavy_tailed_trace`) is bursty and
    diurnally modulated, mostly low-priority, with sub-microsecond mean
    gaps: the burst phases outrun the modeled devices, so without
    backpressure the priority-0 latency objective (``p0_p99_ms``) burns
    its budget and alerts fire. With ``backpressure=True`` a
    :class:`~repro.serve.BackpressureController` walks the default shed
    ladder, driven by a *tighter* overall-latency objective
    (``driver_p99_ms``) — backlog shows up there first, across the whole
    traffic mix, so shedding engages before the priority-0 objective
    takes damage. The cell records both the traffic ledger
    (resolved/shed/rejected, reconciled to the integer) and the final
    verdict of each objective.
    """
    server, metrics, monitor, n_submissions, peak_level = \
        _replay_burst_trace(
            dataset, metric, backpressure=backpressure, seed=seed,
            n_requests=n_requests, n_shards=n_shards,
            max_batch_rows=max_batch_rows, max_wait_ms=max_wait_ms,
            p0_p99_ms=p0_p99_ms, driver_p99_ms=driver_p99_ms,
            burn_alert=burn_alert, window_ms=window_ms,
            poll_interval_ms=poll_interval_ms, mean_gap_ms=mean_gap_ms,
            deadline_slack_ms=deadline_slack_ms, n_neighbors=n_neighbors)

    requests_total = int(metrics.counter("serve_requests_total").value())
    resolved = len(server.request_reports)
    shed = sum(1 for r in server.shed_reports if r.kind == "shed")
    rejected = sum(1 for r in server.shed_reports if r.kind == "rejected")
    refusals: Dict[str, int] = {}
    for r in server.shed_reports:
        refusals[r.reason] = refusals.get(r.reason, 0) + 1
    p0_objective = "p99_latency_ms_priority_0"
    p0_status = next(s for s in monitor.last_statuses
                     if s.objective == p0_objective)
    hist = metrics.histogram("serve_latency_ms")
    prio_hist = metrics.histogram("serve_priority_latency_ms")
    return BurstCell(
        dataset=dataset, metric=metric, backpressure=backpressure,
        seed=seed, n_submissions=n_submissions, resolved=resolved,
        shed=shed, rejected=rejected,
        degraded=sum(1 for r in server.request_reports if r.degraded),
        deadline_missed=int(
            metrics.counter("serve_deadline_missed_total").value()),
        reconciled=(requests_total == resolved + shed + rejected
                    and n_submissions == requests_total),
        p50_latency_ms=hist.quantile(0.50),
        p99_latency_ms=hist.quantile(0.99),
        p0_p99_latency_ms=prio_hist.quantile(0.99, priority="0"),
        p0_threshold_ms=p0_p99_ms, p0_ok=p0_status.ok,
        p0_alerts=sum(1 for a in monitor.alerts
                      if a.objective == p0_objective),
        driver_alerts=sum(1 for a in monitor.alerts
                          if a.objective == DRIVER_OBJECTIVE),
        peak_shed_level=peak_level, refusals_by_reason=refusals)


@dataclass
class MutateCell:
    """One mutable-index lifecycle replay: mutations, faults, rebalance,
    snapshot round-trip — with every query checked against a fresh fit."""

    seed: int
    metric: str
    n_shards: int
    n_ops: int
    n_upserts: int
    n_deletes: int
    n_compactions: int
    live_rows_final: int
    generation_final: int
    #: every differential checkpoint was bit-identical to a fresh fit
    identity_ok: bool
    #: the forced mid-compaction fault aborted at the expected watermark
    #: and the resumed compaction completed
    resume_ok: bool
    #: restore(snapshot(index)) served bit-identical answers
    snapshot_roundtrip_ok: bool
    compaction_retries: int
    compaction_resumes: int
    fault_aborts: int
    compaction_sim_seconds: float
    imbalance_before_rebalance: float
    imbalance_after_rebalance: float
    query_checks: int
    wall_seconds: float = 0.0


@_timed
def run_mutate_cell(seed: int = 0, *, metric: str = "euclidean",
                    n_shards: int = 3, n_ops: int = 24,
                    n_neighbors: int = 6) -> MutateCell:
    """Replay a seeded mutation schedule and the full lifecycle ladder.

    Four phases, all on the simulated clock: (1) the random
    upsert/delete/compact schedule with a fresh-fit differential check
    after every op; (2) a forced mid-compaction fault
    (:func:`~repro.faults.spec.fatal_specs` on shard 1) with watermark
    resume; (3) a degree-drift rebalance; (4) a snapshot → restore
    round-trip. Every reported number is deterministic in ``seed``.
    """
    import tempfile

    from repro.errors import CompactionFaultError
    from repro.faults.spec import fatal_specs
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import MutableIndex
    from repro.testing import (
        MutationOp,
        MutationOracle,
        random_dense,
        random_mutation_schedule,
        seeded_rng,
    )

    n_cols = 16
    initial, ops = random_mutation_schedule(
        seed, n_ops=n_ops, n_cols=n_cols, id_pool=96, start_rows=48,
        density=0.3, protected_rows=n_shards + 1)
    oracle = MutationOracle(n_cols)
    oracle.apply(MutationOp("upsert", tuple(range(initial.shape[0])),
                            rows=initial))
    metrics = MetricsRegistry()
    index = MutableIndex.build(initial, metric=metric, n_shards=n_shards,
                               compact_threshold_rows=10 ** 9,
                               metrics=metrics)
    queries = random_dense(seeded_rng(seed + 31337), 6, n_cols, 0.4)

    identity_ok = True
    query_checks = 0

    def check() -> None:
        nonlocal identity_ok, query_checks
        got = index.kneighbors(queries, n_neighbors)
        want = oracle.fresh_fit_kneighbors(queries, n_neighbors,
                                           metric=metric)
        identity_ok = (identity_ok and np.array_equal(got[0], want[0])
                       and np.array_equal(got[1], want[1]))
        query_checks += 1

    n_upserts = n_deletes = 0
    for op in ops:
        if op.kind == "upsert":
            index.upsert(np.asarray(op.ids, dtype=np.int64), op.rows)
            n_upserts += len(op.ids)
        elif op.kind == "delete":
            index.delete(np.asarray(op.ids, dtype=np.int64))
            n_deletes += len(op.ids)
        elif op.kind == "compact":
            index.compact()
        oracle.apply(op)
        check()

    # Phase 2: forced mid-compaction fault + watermark resume.
    extra = random_dense(seeded_rng(seed + 7), 2, n_cols, 0.4)
    index.upsert([200, 201], extra)
    oracle.apply(MutationOp("upsert", (200, 201), rows=extra))
    resume_ok = False
    try:
        index.compact(fault_injector=FaultInjector(
            fatal_specs(tiles=1), seed=seed))
    except CompactionFaultError as exc:
        check()                             # serving survives the abort
        report = index.compact()            # resume from the watermark
        resume_ok = (exc.watermark == 1 and report.resumed
                     and report.resumed_from_watermark == 1)
    check()

    # Phase 3: hollow out early rows, then rebalance the degree drift.
    victims = [i for i in index.live_ids()[: index.n_rows // 3]
               if i > n_shards][: index.n_rows // 4]
    index.delete(np.asarray(victims, dtype=np.int64))
    oracle.apply(MutationOp("delete", tuple(int(v) for v in victims)))
    imbalance_before = index.imbalance()
    index.rebalance()
    imbalance_after = index.imbalance()
    check()

    # Phase 4: snapshot round-trip.
    with tempfile.TemporaryDirectory() as td:
        index.snapshot(td)
        restored = MutableIndex.restore(td)
        got = restored.kneighbors(queries, n_neighbors)
        want = oracle.fresh_fit_kneighbors(queries, n_neighbors,
                                           metric=metric)
        snapshot_roundtrip_ok = (np.array_equal(got[0], want[0])
                                 and np.array_equal(got[1], want[1]))

    sim_seconds = sum(r.simulated_seconds
                      for r in index.compaction_reports)
    return MutateCell(
        seed=seed, metric=metric, n_shards=n_shards, n_ops=len(ops),
        n_upserts=n_upserts, n_deletes=n_deletes,
        n_compactions=int(
            metrics.counter("compaction_total").value(reason="manual")
            + metrics.counter("compaction_total").value(reason="rebalance")),
        live_rows_final=index.n_rows,
        generation_final=index.generation,
        identity_ok=identity_ok, resume_ok=resume_ok,
        snapshot_roundtrip_ok=snapshot_roundtrip_ok,
        compaction_retries=int(
            metrics.counter("compaction_retries_total").value()),
        compaction_resumes=int(
            metrics.counter("compaction_resumes_total").value()),
        fault_aborts=int(
            metrics.counter("compaction_faults_total").value()),
        compaction_sim_seconds=sim_seconds,
        imbalance_before_rebalance=imbalance_before,
        imbalance_after_rebalance=imbalance_after,
        query_checks=query_checks)


@dataclass
class TelemetryCell:
    """One fully-instrumented burst-trace serve run: wide events, sampling,
    exemplars, and the serial-vs-parallel determinism contract.

    The cell drives the same heavy-tailed trace as :class:`BurstCell`
    through a traced :class:`~repro.serve.Server` wired to a
    :class:`~repro.obs.Telemetry` spine, then checks the telemetry
    acceptance bar end to end: every event validates against the JSON
    schema, event counts reconcile exactly against the serve reports,
    every deadline-missed trace survives tail sampling, every nonzero
    latency bucket's exemplar resolves to an event chain whose
    critical-path seconds reproduce the reported latency with ``==`` on
    floats, and a 4-worker rerun produces byte-identical events and
    sampling decisions."""

    dataset: str
    metric: str
    seed: int
    head_rate: float
    n_submissions: int
    resolved: int
    refused: int
    deadline_missed: int
    #: wide events by kind (request/tile/shed/... — gated exactly in CI)
    events_total: Dict[str, int] = field(default_factory=dict)
    events_total_all: int = 0
    #: sampling outcome (gated exactly in CI)
    sampled_total: int = 0
    dropped_total: int = 0
    n_traces: int = 0
    p99_threshold_ms: float = 0.0
    #: every emitted event passed :func:`~repro.obs.validate_event`
    schema_valid: bool = False
    #: per-kind event counts == serve-report totals, exactly
    reconciled: bool = False
    reconciliation: Dict[str, bool] = field(default_factory=dict)
    #: every deadline-missed request's trace id is in the kept set
    tail_covers_deadline_missed: bool = False
    #: nonzero latency buckets carrying an exemplar (== all of them)
    exemplar_buckets: int = 0
    exemplar_buckets_expected: int = 0
    #: every exemplar's critical path reproduces its latency with ==
    exemplar_chain_exact: bool = False
    #: serial vs 4-worker: same events, same keep/drop bytes
    events_identical: bool = False
    decisions_identical: bool = False
    #: transfer events from a small distributed run == its comm steps
    dist_transfers_reconciled: bool = False
    wall_seconds: float = 0.0
    #: artifacts for the bench report (not part of the gated payload)
    snapshot: dict = field(default_factory=dict)
    console_text: str = ""
    sampled_records: List[dict] = field(default_factory=list)


def _canonical_events(telemetry) -> List[str]:
    return sorted(json.dumps(e, sort_keys=True)
                  for e in telemetry.events)


def _canonical_decisions(telemetry) -> bytes:
    report = telemetry.finalize()
    return json.dumps(
        sorted((d.as_dict() for d in report.decisions),
               key=lambda d: d["trace_id"]),
        sort_keys=True).encode()


@_timed
def run_telemetry_cell(dataset: str = "movielens",
                       metric: str = "cosine", *, seed: int = 7,
                       n_requests: int = 160, n_shards: int = 2,
                       max_batch_rows: int = 24,
                       max_wait_ms: float = 0.002,
                       mean_gap_ms: float = 0.0005,
                       deadline_slack_ms: float = 0.02,
                       n_neighbors: int = KNN_K,
                       head_rate: float = 0.1,
                       driver_p99_ms: float = 0.015,
                       window_ms: float = 0.05,
                       poll_interval_ms: float = 0.002) -> TelemetryCell:
    """Run the telemetry acceptance cell (see :class:`TelemetryCell`)."""
    from repro.dist import DistributedExecutor, build_distributed_plan
    from repro.obs import SamplingPolicy, Telemetry, Tracer, validate_event
    from repro.obs.console import _critical_path_for, render_snapshot

    def arm(n_workers: int):
        telemetry = Telemetry(
            policy=SamplingPolicy(head_rate=head_rate, seed=seed))
        server, metrics, monitor, n_submissions, _ = _replay_burst_trace(
            dataset, metric, backpressure=True, seed=seed,
            n_requests=n_requests, n_shards=n_shards,
            max_batch_rows=max_batch_rows, max_wait_ms=max_wait_ms,
            p0_p99_ms=0.08, driver_p99_ms=driver_p99_ms, burn_alert=1.5,
            window_ms=window_ms, poll_interval_ms=poll_interval_ms,
            mean_gap_ms=mean_gap_ms, deadline_slack_ms=deadline_slack_ms,
            n_neighbors=n_neighbors, trace=Tracer(), telemetry=telemetry,
            n_workers=n_workers)
        return server, metrics, monitor, telemetry, n_submissions

    server, metrics, monitor, telemetry, n_submissions = arm(1)

    # -- schema: every event validates ---------------------------------
    schema_valid = True
    for event in telemetry.events:
        try:
            validate_event(event)
        except (TypeError, ValueError):
            schema_valid = False
            break

    # -- exact reconciliation vs the serve reports ---------------------
    counts = telemetry.counts_by_kind()
    shard_reports = [sr for b in server.batch_reports
                     for sr in b.shard_reports]
    reconciliation = {
        "request_events": (counts.get("request", 0)
                           == len(server.request_reports)),
        "shed_events": (counts.get("shed", 0)
                        == len(server.shed_reports)),
        "tile_events": (counts.get("tile", 0)
                        == sum(len(sr.tile_seconds)
                               for sr in shard_reports)),
        "fault_events": (counts.get("fault", 0)
                         == sum(sr.n_fault_events
                                for sr in shard_reports)),
        "failover_events": (counts.get("failover", 0)
                            == sum(sr.n_failovers
                                   for sr in shard_reports)),
    }

    # -- tail sampling covers every deadline miss ----------------------
    sampling = telemetry.finalize()
    kept = set(sampling.kept_trace_ids)
    missed = {r.trace_id for r in server.request_reports
              if r.deadline_missed}
    tail_covers = missed <= kept

    # -- exemplar chains: bucket -> trace -> event chain -> critical
    #    path reproducing the reported latency with == on floats --------
    hist = metrics.histogram("serve_latency_ms")
    exemplars = hist.exemplars()
    buckets = hist.buckets
    landed = set()
    for r in server.request_reports:
        i = 0
        while i < len(buckets) and r.latency_ms > buckets[i]:
            i += 1
        landed.add(i)
    requests_by_trace = {
        e["trace_id"]: e for e in telemetry.events
        if e["kind"] == "request"}
    chain_exact = bool(exemplars)
    for exemplar in exemplars.values():
        event = requests_by_trace.get(exemplar.trace_id)
        if event is None:
            chain_exact = False
            break
        attrs = event["attrs"]
        path = _critical_path_for(server, attrs["batch_id"],
                                  attrs["slowest_shard"])
        if path is None:
            chain_exact = False
            break
        exact = (attrs["start_ms"] + path["sim_seconds"] * 1e3
                 == attrs["completion_ms"]
                 and attrs["completion_ms"] - attrs["arrival_ms"]
                 == attrs["latency_ms"]
                 and exemplar.value == attrs["latency_ms"])
        if not exact:
            chain_exact = False
            break

    # -- serial vs 4-worker: same events, same keep/drop bytes ---------
    _, _, _, telemetry4, _ = arm(4)
    events_identical = (_canonical_events(telemetry)
                        == _canonical_events(telemetry4))
    decisions_identical = (_canonical_decisions(telemetry)
                           == _canonical_decisions(telemetry4))

    # -- transfer events from a small distributed run ------------------
    a = make_skewed(26, 34, mean_degree=6, sigma=1.0, seed=21)
    b = make_skewed(33, 34, mean_degree=7, sigma=1.1, seed=22)
    plan = build_distributed_plan(a, b, "cosine", k=5, n_devices=4,
                                  partition="2d")
    dist_telemetry = Telemetry()
    dist_report = DistributedExecutor(
        plan, telemetry=dist_telemetry).execute()
    dist_ok = (dist_telemetry.counts_by_kind().get("transfer", 0)
               == dist_report.n_comm_steps)

    snapshot = server.console_snapshot(slo=monitor, top_k=5)
    return TelemetryCell(
        dataset=dataset, metric=metric, seed=seed, head_rate=head_rate,
        n_submissions=n_submissions,
        resolved=len(server.request_reports),
        refused=len(server.shed_reports),
        deadline_missed=len(missed),
        events_total=dict(sorted(counts.items())),
        events_total_all=sum(counts.values()),
        sampled_total=sampling.n_kept,
        dropped_total=sampling.n_dropped,
        n_traces=len(sampling.decisions),
        p99_threshold_ms=(sampling.p99_threshold_ms
                          if sampling.p99_threshold_ms is not None
                          else 0.0),
        schema_valid=schema_valid,
        reconciled=all(reconciliation.values()),
        reconciliation=reconciliation,
        tail_covers_deadline_missed=tail_covers,
        exemplar_buckets=len(exemplars),
        exemplar_buckets_expected=len(landed),
        exemplar_chain_exact=chain_exact,
        events_identical=events_identical,
        decisions_identical=decisions_identical,
        dist_transfers_reconciled=dist_ok,
        snapshot=snapshot,
        console_text=render_snapshot(snapshot),
        sampled_records=[dict(e) for e in telemetry.sampled_events()])
