"""Bench baseline regression gate (``python -m repro.bench compare``).

The CI contract, exercised end to end: seeded baselines self-compare
clean (exit 0), an injected above-threshold regression fails (exit 1),
improvements and skip-listed metrics never fail, and structural drift
always does.
"""

import copy
import json

import pytest

from repro.bench.compare import (
    DEFAULT_POLICIES,
    MetricPolicy,
    baselines_dir,
    compare_payloads,
    main,
    policy_for,
)

PAYLOAD = {
    "dataset": "movielens",
    "cells": [{
        "p99_latency_ms": 2.0,
        "throughput_rows_per_s": 16000.0,
        "n_requests": 48,
        "latency_samples_ms": [0.5, 1.0, 2.0],
        "wall_seconds": 1.23,
    }],
    "occupancy": 0.5,
}


def _mutated(**leaf_updates):
    payload = copy.deepcopy(PAYLOAD)
    payload["cells"][0].update(leaf_updates)
    return payload


class TestPolicies:
    def test_leaf_key_matching(self):
        assert policy_for("cells[0].p99_latency_ms").direction == "lower"
        assert policy_for("cells[0].throughput_rows_per_s").direction \
            == "higher"
        assert policy_for("cells[0].wall_seconds").direction == "skip"
        assert policy_for("cells[0].latency_samples_ms").direction == "skip"
        assert policy_for("occupancy").direction == "equal"
        assert policy_for("n_requests").direction == "equal"  # fallback

    def test_first_match_wins(self):
        # wall_seconds matches *wall_seconds* before *seconds*
        assert policy_for("wall_seconds", DEFAULT_POLICIES).direction \
            == "skip"


class TestComparePayloads:
    def test_identical_is_clean(self):
        assert compare_payloads(PAYLOAD, copy.deepcopy(PAYLOAD)) == []

    def test_latency_regression_fails(self):
        findings = compare_payloads(PAYLOAD, _mutated(p99_latency_ms=3.0))
        (f,) = findings
        assert f.kind == "regression" and f.fails
        assert f.path == "cells[0].p99_latency_ms"
        assert f.rel_change == pytest.approx(0.5)

    def test_latency_improvement_passes(self):
        (f,) = compare_payloads(PAYLOAD, _mutated(p99_latency_ms=1.0))
        assert f.kind == "improvement" and not f.fails

    def test_throughput_drop_fails(self):
        (f,) = compare_payloads(
            PAYLOAD, _mutated(throughput_rows_per_s=10000.0))
        assert f.kind == "regression"

    def test_drift_within_tolerance_is_clean(self):
        assert compare_payloads(PAYLOAD,
                                _mutated(p99_latency_ms=2.0 * 1.04)) == []

    def test_equal_policy_fails_both_directions(self):
        for n in (40, 60):
            (f,) = compare_payloads(PAYLOAD, _mutated(n_requests=n))
            assert f.kind == "regression"

    def test_skip_lists_and_wall_seconds_ignored(self):
        candidate = _mutated(wall_seconds=99.0,
                             latency_samples_ms=[9.0, 9.0, 9.0])
        assert compare_payloads(PAYLOAD, candidate) == []

    def test_missing_and_extra_keys_are_structural(self):
        candidate = copy.deepcopy(PAYLOAD)
        del candidate["cells"][0]["n_requests"]
        candidate["new_metric"] = 1.0
        kinds = {f.path: f.kind for f in compare_payloads(PAYLOAD, candidate)}
        assert kinds["cells[0].n_requests"] == "structural"
        assert kinds["new_metric"] == "structural"

    def test_list_length_change_is_structural(self):
        candidate = copy.deepcopy(PAYLOAD)
        candidate["cells"].append(candidate["cells"][0])
        (f,) = compare_payloads(PAYLOAD, candidate)
        assert f.kind == "structural" and f.path == "cells"

    def test_type_change_is_structural(self):
        (f,) = compare_payloads({"x": 1.0}, {"x": "1.0"})
        assert f.kind == "structural"

    def test_nan_equals_nan(self):
        nan = float("nan")
        assert compare_payloads({"x": nan}, {"x": nan}) == []

    def test_nan_on_one_side_is_a_regression(self):
        nan = float("nan")
        for base, cand in ((1.0, nan), (nan, 1.0)):
            (f,) = compare_payloads({"p99_latency_ms": base},
                                    {"p99_latency_ms": cand})
            assert f.kind == "regression" and f.fails
        assert compare_payloads({"wall_seconds": 1.0},
                                {"wall_seconds": nan}) == []

    def test_zero_baseline_no_noise(self):
        assert compare_payloads({"x_ms": 0.0}, {"x_ms": 1e-12}) == []
        (f,) = compare_payloads({"x_ms": 0.0}, {"x_ms": 1.0})
        assert f.kind == "regression"

    def test_custom_policies(self):
        policies = (("*", MetricPolicy("equal", rel_tol=0.5)),)
        assert compare_payloads(PAYLOAD, _mutated(p99_latency_ms=2.8),
                                policies=policies) == []


class TestCli:
    @pytest.fixture
    def dirs(self, tmp_path):
        base = tmp_path / "baselines"
        cand = tmp_path / "results"
        base.mkdir()
        cand.mkdir()
        (base / "BENCH_x.json").write_text(json.dumps(PAYLOAD))
        (cand / "BENCH_x.json").write_text(json.dumps(PAYLOAD))
        return base, cand

    def _run(self, base, cand, *extra):
        return main(["--baselines", str(base), "--results", str(cand),
                     *extra])

    def test_clean_exit_zero(self, dirs):
        assert self._run(*dirs) == 0

    def test_injected_regression_exit_one(self, dirs):
        base, cand = dirs
        (cand / "BENCH_x.json").write_text(
            json.dumps(_mutated(p99_latency_ms=3.0)))
        assert self._run(base, cand) == 1
        # a looser gate lets the same drift through
        assert self._run(base, cand, "--threshold", "0.6") == 0

    def test_missing_candidate_exit_two(self, dirs):
        base, cand = dirs
        (cand / "BENCH_x.json").unlink()
        assert self._run(base, cand) == 2

    def test_missing_baseline_dir_exit_two(self, tmp_path):
        cand = tmp_path / "results"
        cand.mkdir()
        assert self._run(tmp_path / "nowhere", cand) == 2

    def test_write_baselines_refreshes_contract(self, dirs):
        base, cand = dirs
        (cand / "BENCH_x.json").write_text(
            json.dumps(_mutated(p99_latency_ms=3.0)))
        assert self._run(base, cand) == 1
        assert self._run(base, cand, "--write-baselines") == 0
        assert self._run(base, cand) == 0

    def test_named_payload_selection(self, dirs):
        base, cand = dirs
        (base / "BENCH_other.json").write_text(json.dumps({"y": 1.0}))
        (cand / "BENCH_other.json").write_text(json.dumps({"y": 10.0}))
        assert self._run(base, cand, "BENCH_x") == 0
        assert self._run(base, cand, "BENCH_other.json") == 1
        assert self._run(base, cand) == 1  # default: every baseline

    def test_json_output(self, dirs, capsys):
        base, cand = dirs
        (cand / "BENCH_x.json").write_text(
            json.dumps(_mutated(p99_latency_ms=3.0)))
        assert self._run(base, cand, "--json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["BENCH_x"]["regressions"] == 1
        (finding,) = doc["BENCH_x"]["findings"]
        assert finding["path"] == "cells[0].p99_latency_ms"

    def test_bench_cli_dispatches_compare(self, dirs):
        from repro.bench.__main__ import main as bench_main

        base, cand = dirs
        assert bench_main(["compare", "--baselines", str(base),
                           "--results", str(cand)]) == 0

    def test_invalid_threshold_is_usage_error(self, dirs):
        with pytest.raises(SystemExit) as exc:
            self._run(*dirs, "--threshold", "-1")
        assert exc.value.code == 2


def test_seeded_baselines_self_compare_clean(capsys):
    """The committed benchmarks/baselines/ must pass their own gate —
    the exact invocation CI's bench-regression job runs."""
    base = baselines_dir()
    seeded = sorted(base.glob("BENCH_*.json"))
    assert seeded, f"no seeded baselines under {base}"
    assert main(["--baselines", str(base), "--results", str(base)]) == 0
    out = capsys.readouterr().out
    assert "0 regression(s)" in out
