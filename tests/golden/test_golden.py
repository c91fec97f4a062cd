"""Golden-regression suite: current behaviour vs committed fixtures.

Distances must match **bit-exactly** (the fault-tolerance layer's
bit-identity guarantees depend on the kernels being deterministic);
kernel-stat counters and simulated seconds must match to 1e-12 relative —
any drift is either a bug or an intentional change that must be
re-recorded via ``PYTHONPATH=src python tests/golden/regen.py``.
"""

import json

import numpy as np
import pytest

from tests.golden.cases import (
    CASES,
    FIXTURE_PATH,
    MUTABLE_CASES,
    MUTABLE_FIXTURE_PATH,
    OBS_CASES,
    OBS_FIXTURE_PATH,
    run_case,
    run_mutable_case,
    run_obs_case,
)

REGEN_HINT = ("golden mismatch — if this change is intentional, run "
              "`PYTHONPATH=src python tests/golden/regen.py` and commit "
              "the refreshed fixture")


@pytest.fixture(scope="module")
def fixtures():
    assert FIXTURE_PATH.exists(), (
        f"{FIXTURE_PATH} missing; generate it with "
        "`PYTHONPATH=src python tests/golden/regen.py`")
    return json.loads(FIXTURE_PATH.read_text())["cases"]


def test_fixture_covers_every_case(fixtures):
    assert sorted(fixtures) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize(("name", "engine_kwargs", "metric", "params",
                          "positive"), CASES, ids=[c[0] for c in CASES])
def test_golden(fixtures, name, engine_kwargs, metric, params, positive):
    want = fixtures[name]
    got = run_case(name, engine_kwargs, metric, params, positive)

    # distances: bit-exact
    want_d = np.array([float.fromhex(h) for h in want["distances_hex"]])
    got_d = np.array([float.fromhex(h) for h in got["distances_hex"]])
    assert got["shape"] == want["shape"], REGEN_HINT
    if not np.array_equal(got_d, want_d):
        bad = np.flatnonzero(got_d != want_d)
        i = bad[0]
        raise AssertionError(
            f"{name}: {bad.size}/{want_d.size} distances drifted; first at "
            f"flat index {i}: got {got_d[i]!r} want {want_d[i]!r} "
            f"(diff {got_d[i] - want_d[i]:g}). {REGEN_HINT}")

    # kernel-stat counters: 1e-12 relative
    drift = {k: (got["stats"][k], v) for k, v in want["stats"].items()
             if not np.isclose(got["stats"][k], v, rtol=1e-12, atol=0.0)}
    assert not drift, f"{name}: stats drifted {drift}. {REGEN_HINT}"

    for field in ("simulated_seconds", "serial_seconds"):
        assert got[field] == pytest.approx(want[field], rel=1e-12), (
            f"{name}: {field} {got[field]!r} != {want[field]!r}. "
            f"{REGEN_HINT}")
    assert got["n_tiles"] == want["n_tiles"], REGEN_HINT


@pytest.fixture(scope="module")
def mutable_fixtures():
    assert MUTABLE_FIXTURE_PATH.exists(), (
        f"{MUTABLE_FIXTURE_PATH} missing; generate it with "
        "`PYTHONPATH=src python tests/golden/regen.py`")
    return json.loads(MUTABLE_FIXTURE_PATH.read_text())["cases"]


def test_mutable_fixture_covers_every_case(mutable_fixtures):
    assert sorted(mutable_fixtures) == sorted(
        name for name, *_ in MUTABLE_CASES)


@pytest.mark.parametrize(("name", "engine", "metric", "params"),
                         MUTABLE_CASES, ids=[c[0] for c in MUTABLE_CASES])
def test_mutable_golden(mutable_fixtures, name, engine, metric, params):
    """The delta-merge (base + pseudo-shard) top-k, pinned per engine:
    distances bit-exact, neighbor ids exact."""
    want = mutable_fixtures[name]
    got = run_mutable_case(name, engine, metric, params)

    assert got["shape"] == want["shape"], REGEN_HINT
    assert got["live_rows"] == want["live_rows"], REGEN_HINT
    want_d = np.array([float.fromhex(h) for h in want["distances_hex"]])
    got_d = np.array([float.fromhex(h) for h in got["distances_hex"]])
    if not np.array_equal(got_d, want_d):
        bad = np.flatnonzero(got_d != want_d)
        i = bad[0]
        raise AssertionError(
            f"{name}: {bad.size}/{want_d.size} delta-merge distances "
            f"drifted; first at flat index {i}: got {got_d[i]!r} want "
            f"{want_d[i]!r}. {REGEN_HINT}")
    assert got["indices"] == want["indices"], (
        f"{name}: neighbor ids drifted. {REGEN_HINT}")


@pytest.fixture(scope="module")
def obs_fixtures():
    assert OBS_FIXTURE_PATH.exists(), (
        f"{OBS_FIXTURE_PATH} missing; generate it with "
        "`PYTHONPATH=src python tests/golden/regen.py`")
    return json.loads(OBS_FIXTURE_PATH.read_text())["cases"]


def test_obs_fixture_covers_every_case(obs_fixtures):
    assert sorted(obs_fixtures) == sorted(OBS_CASES)


@pytest.mark.parametrize("name", OBS_CASES)
def test_obs_golden(obs_fixtures, name):
    """Everything the observability layer records for a fixed run —
    Prometheus text, metrics JSON, wide events, sampling decisions,
    exemplars, and the span forest with simulated seconds and args —
    matches the fixture byte for byte."""
    want = obs_fixtures[name]
    got = run_obs_case(name)
    assert sorted(got) == sorted(want), REGEN_HINT
    for field in sorted(want):
        if got[field] == want[field]:
            continue
        if isinstance(want[field], list):
            first = next((i for i, (g, w) in enumerate(
                zip(got[field], want[field])) if g != w),
                min(len(got[field]), len(want[field])))
            got_at = got[field][first] if first < len(got[field]) else None
            want_at = (want[field][first] if first < len(want[field])
                       else None)
            raise AssertionError(
                f"{name}: {field} drifted at entry {first}: got "
                f"{got_at!r} want {want_at!r}. {REGEN_HINT}")
        raise AssertionError(f"{name}: {field} drifted. {REGEN_HINT}")
