"""Benchmark harness regenerating every table and figure in the paper.

The pytest-benchmark suites under ``benchmarks/`` drive this package; see
DESIGN.md §4 for the experiment-to-module index and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.bench.reporting import results_dir, save_json, save_report
from repro.bench.runner import (
    BENCH_SCALES,
    KNN_K,
    MINKOWSKI_P,
    BenchCell,
    PlanCell,
    ServeCell,
    bench_dataset,
    run_baseline_cell,
    run_knn_cell,
    run_plan_cell,
    run_serve_cell,
)
from repro.bench.runner import run_cpu_cell
from repro.bench.tables import bold_min, format_seconds, render_table

__all__ = [
    "BenchCell",
    "PlanCell",
    "ServeCell",
    "bench_dataset",
    "run_knn_cell",
    "run_baseline_cell",
    "run_cpu_cell",
    "run_plan_cell",
    "run_serve_cell",
    "BENCH_SCALES",
    "KNN_K",
    "MINKOWSKI_P",
    "render_table",
    "format_seconds",
    "bold_min",
    "results_dir",
    "save_report",
    "save_json",
]
