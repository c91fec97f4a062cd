"""Command-line entry point: regenerate paper reports without pytest.

    python -m repro.bench table2 fig1          # selected reports
    python -m repro.bench --all                # everything (minutes)
    python -m repro.bench --list
    python -m repro.bench compare              # gate results vs baselines

Each report is printed and saved under ``benchmarks/results/``; the
``compare`` subcommand (see :mod:`repro.bench.compare`) diffs the
machine-readable ``BENCH_*.json`` payloads against the committed
``benchmarks/baselines/`` and exits nonzero on regression.

The paper's tables (``table2``, ``fig1``, ``table3``, ``speedup``,
``plan``) are each one ``*_cells`` function and one ``render_*`` function
over its cells; the ``benchmarks/bench_*.py`` suites call the same pair
and assert the paper's claims on the cells.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.reporting import results_dir, save_json, save_report
from repro.bench.runner import (
    BenchCell,
    PlanCell,
    bench_dataset,
    cell_payload,
    fit_and_query,
    run_ablation_cell,
    run_baseline_cell,
    run_burst_cell,
    run_cpu_cell,
    run_fault_cell,
    run_knn_cell,
    run_mutate_cell,
    run_plan_cell,
    run_scale_cell,
    run_serve_cell,
    run_slo_cell,
    run_telemetry_cell,
    tile_budget,
)
from repro.bench.tables import bold_min, format_seconds, render_table
from repro.core.distances import DOT_PRODUCT_DISTANCES, NAMM_DISTANCES
from repro.datasets.synthetic import SyntheticDataset

DATASETS = ("movielens", "scrna", "nytimes", "sec_edgar")

#: the two distance families of Table 3 and §4.2, in display order
FAMILIES = (("dot", DOT_PRODUCT_DISTANCES), ("non-trivial", NAMM_DISTANCES))

#: §4.2's measured average GPU-over-CPU speedup per family
PAPER_SPEEDUP = {"dot": 28.78, "non-trivial": 29.17}

#: degree quantiles Figure 1 is read at, including the ones its claims
#: cite (88% of MovieLens rows, 98% of scRNA rows)
FIG1_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.88, 0.90, 0.95, 0.98, 0.99)


@dataclass
class Report:
    """A report function's product: the rendered table plus an optional
    machine-readable payload written as ``<json_name>.json``."""

    content: str
    json_name: Optional[str] = None
    json_payload: Optional[dict] = None


#: Registry of report name → producer; ``main`` dispatches every report
#: through this one table (print + save + optional JSON), so adding a
#: report is a ``@report("name")`` decorator, not another dispatch block.
REPORTS: Dict[str, Callable[[], Union[str, Report]]] = {}


def report(name: str):
    def register(fn: Callable[[], Union[str, Report]]):
        REPORTS[name] = fn
        return fn
    return register


def table2_cells() -> List[SyntheticDataset]:
    """The benchmark-scale replica of every dataset, in table order."""
    return [bench_dataset(name) for name in DATASETS]


def render_table2(datasets: Sequence[SyntheticDataset]) -> str:
    """Table 2: each replica beside the paper's full-scale dataset."""
    rows = []
    for ds in datasets:
        row, paper = ds.summary_row(), ds.paper
        rows.append([
            row["dataset"], f"{row['size'][0]}x{row['size'][1]}",
            f"{row['density']:.4%}", str(row["min_deg"]), str(row["max_deg"]),
            f"{paper.shape[0] // 1000}Kx{paper.shape[1] // 1000}K",
            f"{paper.density:.4%}", str(paper.min_degree),
            str(paper.max_degree), f"1/{ds.scale:g}"])
    return render_table(["dataset", "size", "density", "min", "max",
                         "paper size", "paper density", "p.min", "p.max",
                         "scale"], rows, title="Table 2 — datasets")


@report("table2")
def report_table2() -> str:
    return render_table2(table2_cells())


def fig1_cells() -> Dict[str, List[float]]:
    """Row degree at each of :data:`FIG1_QUANTILES`, per dataset."""
    from repro.datasets.degree import degree_percentile

    return {name: [degree_percentile(bench_dataset(name).matrix, q)
                   for q in FIG1_QUANTILES] for name in DATASETS}


def render_fig1(cells: Dict[str, List[float]]) -> str:
    """Figure 1 as one row of degree quantiles per dataset."""
    rows = [[name] + [f"{v:.0f}" for v in values]
            for name, values in cells.items()]
    return render_table(
        ["dataset"] + [f"p{int(q * 100)}" for q in FIG1_QUANTILES], rows,
        title="Figure 1 — degree quantiles")


@report("fig1")
def report_fig1() -> str:
    return render_fig1(fig1_cells())


def table3_cells(metrics: Sequence[str],
                 ) -> Dict[Tuple[str, str], Tuple[BenchCell, BenchCell]]:
    """``(baseline, ours)`` per ``(metric, dataset)``: the paper's baseline
    engine (csrgemm or naive CSR, §4.1) against the hybrid kernel with the
    hash row cache."""
    cells = {}
    for metric in metrics:
        for ds in DATASETS:
            cells[(metric, ds)] = (
                run_baseline_cell(ds, metric),
                run_knn_cell(ds, metric, "hybrid_coo", row_cache="hash"))
        print(f"  ... {metric} done", file=sys.stderr)
    return cells


def render_table3(
        cells: Dict[Tuple[str, str], Tuple[BenchCell, BenchCell]]) -> str:
    """Table 3: baseline vs ours per cell, the faster one starred."""
    headers = ["group", "distance"]
    for ds in DATASETS:
        headers += [f"{ds} base", f"{ds} RAFT"]
    rows = []
    for group, metrics in FAMILIES:
        for metric in metrics:
            row = [group, metric]
            for ds in DATASETS:
                pair = [cell.simulated_seconds for cell in cells[(metric, ds)]]
                row += bold_min(pair, [format_seconds(v) for v in pair])
            rows.append(row)
    return render_table(headers, rows,
                        title="Table 3 — end-to-end kNN (simulated V100)")


@report("table3")
def report_table3() -> str:
    return render_table3(table3_cells(DOT_PRODUCT_DISTANCES + NAMM_DISTANCES))


def speedup_cells() -> Dict[str, List[Tuple[str, str, float]]]:
    """``(metric, dataset, speedup)`` per family: modeled CPU seconds over
    the hybrid kernel's simulated seconds, for every §4.2 cell."""
    cells = {}
    for group, metrics in FAMILIES:
        cells[group] = []
        for metric in metrics:
            for ds in DATASETS:
                gpu = run_knn_cell(ds, metric, "hybrid_coo",
                                   row_cache="hash")
                cpu = run_cpu_cell(ds, metric)
                cells[group].append(
                    (metric, ds,
                     cpu.simulated_seconds / gpu.simulated_seconds))
    return cells


def render_speedup(cells: Dict[str, List[Tuple[str, str, float]]]) -> str:
    """§4.2: each family's mean speedup beside the paper's, then every
    cell."""
    rows = []
    for group, _ in FAMILIES:
        speeds = [s for _, _, s in cells[group]]
        rows.append([group, f"{sum(speeds) / len(speeds):.2f}x",
                     f"{PAPER_SPEEDUP[group]:.2f}x"])
    content = render_table(["family", "measured avg speedup", "paper"],
                           rows, title="§4.2 — GPU speedup vs CPU")
    per_cell = [[metric, ds, f"{s:.1f}x"] for group, _ in FAMILIES
                for metric, ds, s in cells[group]]
    return content + "\n\n" + render_table(
        ["distance", "dataset", "GPU speedup vs CPU"], per_cell,
        title="§4.2 — per-cell GPU speedup vs CPU")


@report("speedup")
def report_speedup() -> str:
    return render_speedup(speedup_cells())


def plan_cells(dataset: str, metric: str) -> List[PlanCell]:
    """One k-NN query run monolithically, on a 4-tile budget, and on the
    same budget with 4 workers."""
    return [run_plan_cell(dataset, metric),
            run_plan_cell(dataset, metric, n_tiles_target=4),
            run_plan_cell(dataset, metric, n_tiles_target=4, n_workers=4)]


def render_plan(cells: Sequence[PlanCell]) -> str:
    """One row per plan cell: tiles, workers, peak residency, time."""
    def fmt_bytes(b: float) -> str:
        return (f"{b / 2**20:.1f} MiB" if b >= 2**20
                else f"{b / 2**10:.1f} KiB")

    rows = [[cell.dataset, cell.metric, cell.mode, str(cell.n_tiles),
             str(cell.n_workers), fmt_bytes(cell.peak_resident_bytes),
             f"{cell.resident_fraction:.0%}",
             format_seconds(cell.simulated_seconds)] for cell in cells]
    return render_table(
        ["dataset", "metric", "mode", "tiles", "workers", "peak resident",
         "vs full block", "sim seconds"], rows,
        title="Execution plans — tiled vs monolithic (simulated V100)")


@report("plan")
def report_plan() -> str:
    """Tiled vs monolithic execution plans: memory and modeled time."""
    cells = []
    for ds in DATASETS:
        for metric in ("cosine", "manhattan"):
            cells += plan_cells(ds, metric)
        print(f"  ... {ds} done", file=sys.stderr)
    return render_plan(cells)


@report("faults")
def report_faults() -> str:
    """Chaos matrix: faulty executions must reproduce clean runs bit-for-bit.

    Every cell runs one k-NN query twice — clean, then under the seeded
    chaos schedule with recovery engaged — and checks the recovered
    distances and indices against the clean twin. ``CHAOS_SEED`` narrows
    the sweep to the one seed a CI chaos job runs.
    """
    import os

    seeds = ([int(os.environ["CHAOS_SEED"])] if "CHAOS_SEED" in os.environ
             else [0, 1, 2])
    rows = []
    for metric in ("cosine", "jaccard"):
        for seed in seeds:
            for n_workers in (1, 4):
                cell = run_fault_cell("movielens", metric, seed=seed,
                                      n_workers=n_workers)
                rows.append([
                    "movielens", metric, str(seed), str(n_workers),
                    str(cell.n_tiles), str(cell.n_faults),
                    str(cell.n_retries), str(cell.n_tile_splits),
                    str(cell.n_degraded),
                    format_seconds(cell.faulty_seconds),
                    "BIT-IDENTICAL" if cell.identical else "DIVERGED",
                ])
        print(f"  ... {metric} done", file=sys.stderr)
    return render_table(
        ["dataset", "metric", "seed", "workers", "tiles", "faults",
         "retries", "splits", "degraded", "sim seconds", "vs clean"], rows,
        title="Fault matrix — recovered runs vs clean runs")


@report("serve")
def report_serve() -> Report:
    """Serving-layer profile: throughput/latency vs batch size and shards.

    Drives an open-loop simulated request stream through
    :class:`~repro.serve.Server` for each (micro-batch size, shard count)
    cell, then the heavy-tailed burst trace with and without the
    SLO-driven shed ladder; alongside the tables, everything is written
    to ``BENCH_serve.json`` for the baseline gate.
    """
    cells = []
    rows = []
    for max_batch_rows in (8, 32, 128):
        for n_shards in (1, 2, 4):
            cell = run_serve_cell(
                "movielens", "cosine", n_shards=n_shards,
                max_batch_rows=max_batch_rows, n_workers=2)
            cells.append(cell)
            rows.append([
                str(max_batch_rows), str(n_shards), str(cell.n_batches),
                f"{cell.mean_batch_rows:.1f}",
                f"{cell.throughput_rows_per_s:,.0f}",
                f"{cell.p50_latency_ms:.3f}", f"{cell.p99_latency_ms:.3f}",
            ])
        print(f"  ... batch={max_batch_rows} done", file=sys.stderr)
    content = render_table(
        ["batch rows", "shards", "batches", "rows/batch",
         "rows/s (sim)", "p50 ms", "p99 ms"], rows,
        title="Serving — movielens/cosine, open-loop stream "
              "(simulated time)")

    burst_cells = [run_burst_cell(backpressure=bp) for bp in (False, True)]
    burst_rows = [[
        "on" if c.backpressure else "off", str(c.n_submissions),
        str(c.resolved), str(c.shed), str(c.rejected),
        str(c.deadline_missed), f"{c.p0_p99_latency_ms:.4f}",
        f"{c.p0_threshold_ms:.4f}", "yes" if c.p0_ok else "NO",
        str(c.p0_alerts), str(c.peak_shed_level),
        "yes" if c.reconciled else "NO",
    ] for c in burst_cells]
    content += "\n\n" + render_table(
        ["shedding", "submitted", "resolved", "shed", "rejected",
         "missed", "p0 p99 ms", "p0 SLO ms", "p0 ok", "p0 alerts",
         "peak rung", "reconciled"], burst_rows,
        title="Serving under load — heavy-tailed burst trace, shed "
              "ladder off vs on (simulated time)")
    print("  ... burst trace done", file=sys.stderr)
    payload = {
        "dataset": "movielens",
        "metric": "cosine",
        "cells": [cell_payload(c, "dataset", "metric") for c in cells],
        "burst": [cell_payload(c, "dataset", "metric", "wall_seconds")
                  for c in burst_cells],
    }
    return Report(content, json_name="BENCH_serve", json_payload=payload)


@report("profile")
def report_profile() -> Report:
    """Performance profile of a traced k-NN query per row-cache strategy.

    Each strategy runs one end-to-end movielens/cosine query under a
    :class:`~repro.obs.Tracer`; the resulting :class:`~repro.obs.Profile`
    yields the critical path, the per-category time split, a roofline
    bound-ness table, and a folded-stack flamegraph
    (``profile_<strategy>.folded`` under the results directory — drag into
    speedscope or feed to ``flamegraph.pl``). The summary is written to
    ``BENCH_profile.json`` for the baseline gate.
    """
    from repro.gpusim.specs import VOLTA_V100
    from repro.kernels import make_engine
    from repro.obs import Profile, Tracer, write_folded

    matrix = bench_dataset("movielens").matrix
    sections = []
    payload = {"dataset": "movielens", "metric": "cosine",
               "strategies": {}}
    for row_cache in ("hash", "bloom"):
        tracer = Tracer()
        fit_and_query(
            "movielens", "cosine",
            make_engine("hybrid_coo", VOLTA_V100, row_cache=row_cache),
            batch_rows=max(1, matrix.n_rows),
            memory_budget_bytes=tile_budget(matrix, 8), trace=tracer)
        profile = Profile(tracer)
        folded = write_folded(
            profile, results_dir() / f"profile_{row_cache}.folded")
        cp = profile.critical_path(1)
        sections.append(
            f"== row_cache={row_cache} "
            f"(flamegraph: {folded.name}) ==\n{profile.render()}")
        payload["strategies"][row_cache] = profile.as_dict(n_workers=1)
        print(f"  ... {row_cache}: {cp.sim_seconds * 1e3:.3f} ms critical "
              f"path", file=sys.stderr)
    return Report("\n\n".join(sections), json_name="BENCH_profile",
                  json_payload=payload)


@report("slo")
def report_slo() -> Report:
    """SLO monitoring of a phased serve stream (healthy → burst → recover).

    Drives :func:`~repro.bench.runner.run_slo_cell` and renders every
    monitor tick's objective statuses plus the burn-rate alerts the
    overload phase fired, then the burst-trace backpressure comparison:
    with the shed ladder on, the priority-0 latency objective must hold
    (no burn alerts) while the open-loop run blows it. The payload lands
    in ``BENCH_slo.json``.
    """
    cell = run_slo_cell("movielens", "cosine")
    rows = [[s["objective"], f"{s['at_ms']:.1f}", f"{s['observed']:.3f}",
             "yes" if s["ok"] else "NO", f"{s['burn_rate']:.2f}",
             f"{s['budget_remaining']:.1%}"] for s in cell.statuses]
    content = render_table(
        ["objective", "tick ms", "observed", "ok", "burn", "budget left"],
        rows, title="SLO monitor — movielens/cosine, phased stream "
                    "(simulated time)")
    content += (f"\n\n{len(cell.alerts)} burn-rate alert(s); "
                f"{cell.deadline_missed}/{cell.n_requests} deadlines "
                f"missed; p99 {cell.p99_latency_ms:.3f} ms\n\n"
                + cell.report_text)

    burst_cells = [run_burst_cell(backpressure=bp) for bp in (False, True)]
    content += "\n\n" + render_table(
        ["shedding", "p0 p99 ms", "p0 SLO ms", "p0 ok", "p0 alerts",
         "driver alerts", "shed", "missed"],
        [["on" if c.backpressure else "off",
          f"{c.p0_p99_latency_ms:.4f}", f"{c.p0_threshold_ms:.4f}",
          "yes" if c.p0_ok else "NO", str(c.p0_alerts),
          str(c.driver_alerts), str(c.shed), str(c.deadline_missed)]
         for c in burst_cells],
        title="Priority-0 SLO under burst load — shed ladder off vs on")
    payload = {
        **cell_payload(cell, "report_text", "wall_seconds"),
        "burst": [cell_payload(c, "dataset", "metric", "wall_seconds")
                  for c in burst_cells],
    }
    return Report(content, json_name="BENCH_slo", json_payload=payload)


#: (regime, n_cols, mean_degree) — the two column regimes the ablation
#: sweeps: "narrow" fits the dense row cache in shared memory; "wide"
#: exceeds it (32768 × 4 B > 96 KiB), so the dense candidate is gated out
#: and hash staging competes with nonzero splitting on its own.
ABLATION_REGIMES = (("narrow", 512, 128.0), ("wide", 32768, 768.0))

#: lognormal degree-skew levels swept per regime
ABLATION_SIGMAS = (0.5, 1.5, 2.5, 3.5)

ABLATION_METRICS = ("cosine", "manhattan")


@report("ablation")
def report_ablation() -> Report:
    """Engine ablation over skewed degree distributions.

    Sweeps lognormal degree skew (``sigma``) × column regime × metric on a
    96-row self-join, running every fixed engine configuration the device
    can express (hybrid CSR+COO with dense/hash row caches, merge-path)
    plus ``engine="auto"``. The claim locked into ``BENCH_ablation.json``:
    on every cell ``auto`` matches or beats the best fixed configuration,
    and all configurations produce bit-identical distances.
    """
    cells = []
    rows = []
    for regime, n_cols, mean_degree in ABLATION_REGIMES:
        for metric in ABLATION_METRICS:
            for sigma in ABLATION_SIGMAS:
                cell = run_ablation_cell(
                    metric, sigma=sigma, regime=regime, n_cols=n_cols,
                    mean_degree=mean_degree)
                cells.append(cell)
                auto_label = cell.auto_engine + (
                    f"/{cell.auto_row_cache}" if cell.auto_row_cache else "")
                rows.append([
                    regime, metric, f"{sigma:.1f}", f"{cell.degree_cv:.2f}",
                    *[format_seconds(cell.fixed_seconds[label])
                      if label in cell.fixed_seconds else "-"
                      for label in ("hybrid/dense", "hybrid/hash",
                                    "merge_path")],
                    auto_label, format_seconds(cell.auto_seconds),
                    "yes" if cell.auto_matches_best else "NO",
                    "yes" if cell.identical else "DIVERGED",
                ])
            print(f"  ... {regime}/{metric} done", file=sys.stderr)
    content = render_table(
        ["regime", "metric", "sigma", "deg cv", "hybrid/dense",
         "hybrid/hash", "merge_path", "auto choice", "auto", "auto=best",
         "identical"], rows,
        title="Engine ablation — skewed self-joins, fixed configs vs auto "
              "(simulated V100)")
    payload = {
        "n_rows": 96,
        "regimes": [{"regime": r, "n_cols": c, "mean_degree": d}
                    for r, c, d in ABLATION_REGIMES],
        "cells": [cell_payload(c) for c in cells],
    }
    return Report(content, json_name="BENCH_ablation", json_payload=payload)


@report("mutate")
def report_mutate() -> Report:
    """Mutable-index lifecycle: mutations, faults, rebalance, snapshots.

    Replays seeded upsert/delete/compact schedules through
    :class:`~repro.serve.MutableIndex` with a fresh-fit differential check
    after every operation, then forces a mid-compaction fault (watermark
    resume), a degree-drift rebalance, and a snapshot round-trip. The
    contract locked into ``BENCH_mutate.json``: every check is
    bit-identical and every simulated count/second is deterministic.
    """
    cells = []
    rows = []
    for seed in (0, 1, 2):
        cell = run_mutate_cell(seed)
        cells.append(cell)
        rows.append([
            str(cell.seed), str(cell.n_ops),
            f"{cell.n_upserts}/{cell.n_deletes}",
            str(cell.n_compactions), str(cell.generation_final),
            str(cell.live_rows_final),
            f"{cell.compaction_sim_seconds:.4f}",
            f"{cell.imbalance_before_rebalance:.2f}"
            f"->{cell.imbalance_after_rebalance:.2f}",
            "yes" if cell.identity_ok else "NO",
            "yes" if cell.resume_ok else "NO",
            "yes" if cell.snapshot_roundtrip_ok else "NO",
        ])
        print(f"  ... seed={seed} done", file=sys.stderr)
    content = render_table(
        ["seed", "ops", "ups/dels", "compactions", "gen", "live rows",
         "compact sim s", "imbalance", "bit-identical", "fault resume",
         "snapshot"], rows,
        title="Mutable index — seeded lifecycle replays vs fresh-fit "
              "oracle (simulated time)")
    payload = {
        "metric": cells[0].metric,
        "n_shards": cells[0].n_shards,
        "cells": [cell_payload(c, "metric", "n_shards") for c in cells],
    }
    return Report(content, json_name="BENCH_mutate", json_payload=payload)


@report("telemetry")
def report_telemetry() -> Report:
    """End-to-end request telemetry under burst load (DESIGN.md §16).

    Runs :func:`~repro.bench.runner.run_telemetry_cell` — the
    heavy-tailed burst trace through a traced, telemetry-wired server —
    and locks the acceptance bar into ``BENCH_telemetry.json``: wide
    events validate against the schema and reconcile exactly against the
    serve reports, every deadline-missed trace survives tail sampling,
    every nonzero latency bucket's exemplar chain reproduces its latency
    with ``==`` on floats, and a 4-worker rerun emits byte-identical
    events and sampling decisions. Artifacts land next to the report:
    the rendered fleet console (text + JSON) and the retained
    (tail-sampled) trace events as JSONL.
    """
    import json

    cell = run_telemetry_cell()
    checks = [
        ("schema valid", cell.schema_valid),
        ("events reconciled", cell.reconciled),
        ("tail covers deadline misses", cell.tail_covers_deadline_missed),
        ("exemplar chains exact", cell.exemplar_chain_exact),
        ("exemplar buckets complete",
         cell.exemplar_buckets == cell.exemplar_buckets_expected),
        ("events identical serial vs 4 workers", cell.events_identical),
        ("sampling decisions byte-identical", cell.decisions_identical),
        ("dist transfers reconciled", cell.dist_transfers_reconciled),
    ]
    rows = [[name, "yes" if ok else "NO"] for name, ok in checks]
    content = render_table(
        ["telemetry invariant", "holds"], rows,
        title="Telemetry — burst trace, traced + sampled "
              "(simulated time)")
    content += (
        f"\n\n{cell.n_submissions} submitted -> {cell.resolved} resolved "
        f"/ {cell.refused} refused; {cell.deadline_missed} deadline "
        f"misses, all in the {cell.sampled_total}-trace tail sample "
        f"(of {cell.n_traces}); p99 threshold "
        f"{cell.p99_threshold_ms:.4f} ms\n\n" + cell.console_text)

    out = results_dir()
    (out / "telemetry_console.txt").write_text(cell.console_text + "\n")
    with open(out / "telemetry_console.json", "w") as fh:
        json.dump(cell.snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "telemetry_sampled.jsonl", "w") as fh:
        for record in cell.sampled_records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("  ... console + sampled-trace artifacts saved to "
          f"{out}", file=sys.stderr)

    return Report(content, json_name="BENCH_telemetry",
                  json_payload=cell_payload(cell, "snapshot", "console_text",
                                            "sampled_records"))


#: device counts x interconnect tiers the distributed sweep covers
SCALE_DEVICES = (2, 4, 8)
SCALE_TIERS = ("nvlink", "pcie", "network")


@report("scale")
def report_scale() -> Report:
    """Distributed scaling sweep: device count x interconnect tier.

    Every cell plans a skewed pairwise top-k job with
    ``partition="auto"``, records the full candidate table (modeled
    seconds plus exact comm bytes per shape), then executes the chosen
    plan and checks the clean-run contract — executed simulated seconds
    equal the modeled total with ``==`` on floats. The headline locked
    into ``BENCH_scale.json``: at 4+ devices the 2-D grid's modeled total
    is strictly below both 1-D shapes on every tier (each operand side
    pays (sqrt(p) - 1) transfers instead of (p - 1)).
    """
    cells = []
    rows = []
    for n_devices in SCALE_DEVICES:
        for tier in SCALE_TIERS:
            cell = run_scale_cell(n_devices, tier)
            cells.append(cell)
            rows.append([
                str(cell.n_devices), tier,
                f"{cell.chosen_partition} "
                f"({cell.grid_rows}x{cell.grid_cols})",
                format_seconds(cell.estimated_seconds),
                format_seconds(cell.comm_seconds),
                f"{cell.comm_bytes_total / 2**10:.1f} KiB",
                "yes" if cell.estimate_equals_executed else "NO",
                {True: "yes", False: "NO", None: "-"}[
                    cell.two_d_beats_one_d],
            ])
        print(f"  ... p={n_devices} done", file=sys.stderr)
    content = render_table(
        ["devices", "interconnect", "auto choice", "modeled total",
         "comm (serial)", "comm bytes", "est==exec", "2d<1d"], rows,
        title="Distributed scaling — skewed operands, auto partition "
              "(simulated devices)")
    headline = all(c.two_d_beats_one_d for c in cells if c.n_devices >= 4)
    content += ("\n\n2-D strictly beats both 1-D shapes at >=4 devices on "
                f"every tier: {'yes' if headline else 'NO'}")
    payload = {
        "metric": cells[0].metric,
        "k": 10,
        "devices": list(SCALE_DEVICES),
        "interconnects": list(SCALE_TIERS),
        "headline": {"two_d_beats_one_d_at_4plus": headline},
        "cells": [cell_payload(c, "metric") for c in cells],
    }
    return Report(content, json_name="BENCH_scale", json_payload=payload)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from repro.bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures "
                    "(or `compare` results against baselines).")
    parser.add_argument("reports", nargs="*", choices=[*REPORTS, []],
                        help="which reports to run")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--list", action="store_true",
                        help="list available reports")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record every plan/kernel execution and write "
                             "a Chrome trace-event JSON file here (open in "
                             "chrome://tracing or Perfetto)")
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(REPORTS))
        return 0
    names = list(REPORTS) if args.all else args.reports
    if not names:
        parser.error("nothing to run; pass report names or --all")

    tracer = None
    previous_default = None
    if args.trace is not None:
        from repro.obs import Tracer, set_default_tracer

        tracer = Tracer()
        previous_default = set_default_tracer(tracer)
    try:
        for name in names:
            start = time.perf_counter()
            produced = REPORTS[name]()
            elapsed = time.perf_counter() - start
            if isinstance(produced, str):
                produced = Report(produced)
            path = save_report(f"cli_{name}", produced.content)
            print(produced.content)
            print(f"[{name}: {elapsed:.1f}s, saved to {path}]")
            if produced.json_name is not None:
                json_path = save_json(produced.json_name,
                                      produced.json_payload)
                print(f"[{name}: JSON saved to {json_path}]")
            print()
    finally:
        if tracer is not None:
            from repro.obs import set_default_tracer, write_chrome_trace

            set_default_tracer(previous_default)
            trace_path = write_chrome_trace(tracer, args.trace)
            print(f"[trace: {len(tracer.spans)} spans written to "
                  f"{trace_path}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
