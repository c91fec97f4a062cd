"""Smoke test of the end-to-end benchmark at ``--smoke`` sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest
benchmarks/e2e``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import WORKLOADS, layers, workloads
from benchmarks.e2e.trace import layer_totals

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """Result and trace files of one untraced and one traced run."""
    out = tmp_path_factory.mktemp("e2e")
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--smoke",
             "--trace", trace, "--out", str(out)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 0
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.fixture(scope="module")
def results(out_dir):
    """``{(workload, trace): result document}``."""
    return {
        (w, trace): json.loads((out_dir / f"{w}{suffix}.json").read_text())
        for w in WORKLOADS for trace, suffix in ((0, ""), (1, "_trace"))}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(results, trace,
                                                        section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for w in WORKLOADS:
        emitted = {k: v["unit"] for k, v in
                   results[w, trace]["metrics"].items()}
        assert emitted == declared, w


def test_no_op_fails(results):
    for w in WORKLOADS:
        for trace in (0, 1):
            doc = results[w, trace]
            assert doc["attempted"] > 0
            assert doc["failed"] == 0 and doc["correct"], (w, trace)


def test_every_entry_point_records_calls_on_its_mechanism_workload(results):
    for entry in layers.entry_points():
        calls = results[entry.workload, 1]["entry_point_calls"]
        assert calls.get(entry.qualname, 0) >= 1, entry
    for w in WORKLOADS:
        assert results[w, 1]["missing_entry_points"] == []


def test_self_time_sums_within_traced_wall(results, out_dir):
    for w in WORKLOADS:
        doc = json.loads((out_dir / f"trace_{w}.json").read_text())
        totals = layer_totals(doc["spans"])
        assert sum(t["self_s"] for t in totals.values()) <= doc["wall_s"]
        assert results[w, 1]["metrics"]["other.self_share"]["value"] >= 0


@pytest.mark.parametrize("perturb", ["one call by one ulp",
                                     "every call beyond tolerance"])
def test_a_perturbed_result_counts_as_a_failure(monkeypatch, perturb):
    """One ulp on the reference call breaks its bit-identity with the
    warm-up call; a shift on every call keeps them identical, and the
    dense-reference oracle must catch it instead. Seed 1 has no pin, so
    the pin check cannot stand in for either."""
    from repro.neighbors.brute_force import NearestNeighbors

    original = NearestNeighbors.kneighbors
    calls = []

    def kneighbors(self, *args, **kwargs):
        distances, indices = original(self, *args, **kwargs)
        calls.append(1)
        if perturb.startswith("every"):
            distances = distances + 1e-6
        elif len(calls) == 2:
            distances = np.nextafter(distances, np.inf)
        return distances, indices

    monkeypatch.setattr(NearestNeighbors, "kneighbors", kneighbors)
    doc = workloads.run("knn-kernel", seed=1, smoke=True)
    assert doc["failed"] >= 1 and not doc["correct"]
