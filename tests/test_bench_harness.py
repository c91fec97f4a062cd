"""Tests for the benchmark harness (tables, reporting, runner cells)."""

import pytest

from repro.bench.reporting import results_dir, save_report, session_reports
from repro.bench.runner import (
    BENCH_SCALES,
    BenchCell,
    bench_dataset,
    run_baseline_cell,
    run_knn_cell,
)
from repro.bench.tables import bold_min, format_seconds, render_table


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(["a", "bbbb"], [["x", "1"], ["long", "2"]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bbbb" in lines[2]
        assert len({len(line) for line in lines[3:]}) <= 2  # consistent widths

    @pytest.mark.parametrize("value,expect", [
        (0, "0"), (5e-7, "0.5us"), (0.0005, "500.0us"), (0.25, "250.00ms"),
        (3.2, "3.20s"),
    ])
    def test_format_seconds(self, value, expect):
        assert format_seconds(value) == expect

    def test_bold_min_marks_winner(self):
        out = bold_min([2.0, 1.0, 3.0], ["2", "1", "3"])
        assert out == ["2", "*1*", "3"]

    def test_bold_min_empty(self):
        assert bold_min([], []) == []


class TestReporting:
    def test_save_and_session_tracking(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        path = save_report("unit_test_report", "hello\nworld")
        assert path.read_text() == "hello\nworld\n"
        assert ("unit_test_report", path) in session_reports()

    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path / "sub"))
        assert results_dir() == tmp_path / "sub"
        assert (tmp_path / "sub").is_dir()


class TestRunner:
    def test_bench_dataset_cached(self):
        a = bench_dataset("movielens")
        b = bench_dataset("movielens")
        assert a is b
        assert a.scale == BENCH_SCALES["movielens"]

    def test_run_knn_cell_fields(self):
        cell = run_knn_cell("movielens", "cosine", "hybrid_coo",
                            row_cache="hash", n_neighbors=3)
        assert isinstance(cell, BenchCell)
        assert cell.simulated_seconds > 0
        assert cell.wall_seconds > 0
        assert cell.label == "movielens/cosine/hybrid_coo"

    def test_baseline_cell_selects_engine(self):
        dot = run_baseline_cell("movielens", "cosine", n_neighbors=3)
        assert dot.engine == "csrgemm"
        namm = run_baseline_cell("movielens", "manhattan", n_neighbors=3)
        assert namm.engine == "naive_csr"

    def test_minkowski_p_forwarded(self):
        cell = run_knn_cell("movielens", "minkowski", "hybrid_coo",
                            n_neighbors=3)
        assert cell.simulated_seconds > 0
