"""Tests for the python -m repro.bench CLI."""

import pytest

from repro.bench.__main__ import REPORTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in REPORTS:
            assert name in out

    def test_no_args_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_fast_reports_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        assert main(["table2", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 1" in out
        assert (tmp_path / "cli_table2.txt").exists()
        assert (tmp_path / "cli_fig1.txt").exists()
        # The paper-claim suites render through the same functions, so
        # the CLI tables carry their columns: table2's paper degree range
        # and scale, fig1's p10/p88/p98.
        table2 = (tmp_path / "cli_table2.txt").read_text().splitlines()[2]
        for column in ("paper density", "p.min", "p.max", "scale"):
            assert column in table2
        fig1 = (tmp_path / "cli_fig1.txt").read_text().splitlines()[2]
        assert fig1.split() == ["dataset", "p10", "p25", "p50", "p75",
                                "p88", "p90", "p95", "p98", "p99"]

    def test_unknown_report_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_regenerated_payloads_pass_the_gate(self, tmp_path, monkeypatch):
        """Four gated payloads, rebuilt from scratch, match the committed
        baselines (burst cells, telemetry cell, scale and mutate)."""
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        assert main(["scale", "mutate", "slo", "telemetry"]) == 0
        assert main(["compare", "BENCH_scale", "BENCH_mutate", "BENCH_slo",
                     "BENCH_telemetry"]) == 0
