"""Bench baseline regression gate: diff ``BENCH_*.json`` against baselines.

Every machine-readable bench payload (``BENCH_serve.json``,
``BENCH_profile.json``, ``BENCH_slo.json``, …) is a pure function of the
simulated cost model, so a committed copy under ``benchmarks/baselines/``
is an enforceable contract: CI re-runs the bench and

    python -m repro.bench compare

walks baseline and candidate JSON together, applying a per-metric
:class:`MetricPolicy` to every numeric leaf:

- ``lower``  — lower is better (latencies, simulated seconds): regression
  when the candidate exceeds baseline by more than ``rel_tol``;
- ``higher`` — higher is better (throughput): regression when the
  candidate falls short by more than ``rel_tol``;
- ``equal``  — drift in either direction beyond ``rel_tol`` is a
  regression (counts, occupancies, burn rates — the default);
- ``skip``   — ignored (host ``wall_seconds``, raw sample arrays).

A NaN on exactly one side is a regression under every policy but
``skip``; NaN on both sides is clean.

Structural drift (missing/extra keys, length changes, type changes) is
always a regression — a bench that silently stops reporting a metric must
not pass the gate. Exit codes: 0 clean, 1 regression, 2 usage error.
Improvements are reported but never fail; refresh the contract with
``--write-baselines`` after an intentional change.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.bench.reporting import results_dir

__all__ = ["MetricPolicy", "Finding", "DEFAULT_POLICIES", "policy_for",
           "compare_payloads", "compare_files", "baselines_dir", "main"]

_BASELINES_ENV = "REPRO_BENCH_BASELINES"

#: numeric noise floor: differences below this are never findings, so a
#: baseline of exactly 0.0 doesn't turn float dust into a regression
ABS_TOL = 1e-9


def baselines_dir() -> Path:
    """Committed baselines (override with ``REPRO_BENCH_BASELINES``)."""
    root = os.environ.get(_BASELINES_ENV)
    if root is None:
        root = Path(__file__).resolve().parents[3] / "benchmarks" \
            / "baselines"
    return Path(root)


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric's drift is judged."""

    #: "lower" | "higher" | "equal" | "skip"
    direction: str
    #: allowed relative drift before a finding becomes a regression
    rel_tol: float = 0.05


#: First glob (matched against the leaf key, then the full dotted path)
#: wins; the fallback is strict equality at 5%.
DEFAULT_POLICIES: Tuple[Tuple[str, MetricPolicy], ...] = (
    # host wall time measures this Python process, not the model — never gate
    ("*wall_seconds*", MetricPolicy("skip")),
    # raw per-request sample arrays are kept for debugging, gated via their
    # quantiles instead
    ("*samples*", MetricPolicy("skip")),
    # the serving traffic ledger is deterministic on the simulated clock:
    # shed/reject/degrade/deadline counts, alert counts, and submission
    # totals must match the baseline to the integer, not within 5%
    ("*shed*", MetricPolicy("equal", rel_tol=0.0)),
    ("*rejected*", MetricPolicy("equal", rel_tol=0.0)),
    ("*degraded*", MetricPolicy("equal", rel_tol=0.0)),
    ("*deadline_missed*", MetricPolicy("equal", rel_tol=0.0)),
    ("*_alerts", MetricPolicy("equal", rel_tol=0.0)),
    ("n_submissions", MetricPolicy("equal", rel_tol=0.0)),
    ("resolved", MetricPolicy("equal", rel_tol=0.0)),
    ("*refusals_by_reason*", MetricPolicy("equal", rel_tol=0.0)),
    # the telemetry spine is deterministic end to end: per-kind wide-event
    # counts and sampling keep/drop totals gate to the integer
    ("*events_total*", MetricPolicy("equal", rel_tol=0.0)),
    ("*sampled_total*", MetricPolicy("equal", rel_tol=0.0)),
    ("*dropped_total*", MetricPolicy("equal", rel_tol=0.0)),
    ("*n_traces*", MetricPolicy("equal", rel_tol=0.0)),
    # distributed comm accounting is analytic bytes on a priced schedule —
    # byte totals, priced transfer seconds, and step counts are exact
    # integers/pure floats, so they gate at zero tolerance (must precede
    # the generic *seconds* policy)
    ("*comm_bytes*", MetricPolicy("equal", rel_tol=0.0)),
    ("*comm_seconds*", MetricPolicy("equal", rel_tol=0.0)),
    ("*n_comm_steps*", MetricPolicy("equal", rel_tol=0.0)),
    ("*bytes_by_phase*", MetricPolicy("equal", rel_tol=0.0)),
    ("*bytes_by_tier*", MetricPolicy("equal", rel_tol=0.0)),
    ("*latency*", MetricPolicy("lower")),
    ("*_ms", MetricPolicy("lower")),
    ("*seconds*", MetricPolicy("lower")),
    ("*throughput*", MetricPolicy("higher")),
    ("*rows_per_s*", MetricPolicy("higher")),
    ("*occupancy*", MetricPolicy("equal", rel_tol=0.01)),
)

DEFAULT_POLICY = MetricPolicy("equal")


def policy_for(path: str, policies: Sequence[Tuple[str, MetricPolicy]]
               = DEFAULT_POLICIES) -> MetricPolicy:
    """The first policy whose glob matches the leaf key or dotted path."""
    leaf = path.rsplit(".", 1)[-1].split("[", 1)[0]
    for pattern, policy in policies:
        if fnmatch.fnmatch(leaf, pattern) or fnmatch.fnmatch(path, pattern):
            return policy
    return DEFAULT_POLICY


@dataclass(frozen=True)
class Finding:
    """One diff between baseline and candidate."""

    path: str
    #: "regression" | "improvement" | "structural"
    kind: str
    baseline: object
    candidate: object
    #: signed relative change vs baseline (NaN for structural findings)
    rel_change: float
    detail: str = ""

    @property
    def fails(self) -> bool:
        return self.kind in ("regression", "structural")

    def render(self) -> str:
        mark = {"regression": "FAIL", "structural": "FAIL",
                "improvement": "  ok"}[self.kind]
        if self.kind == "structural":
            return f"{mark} {self.path}: {self.detail}"
        return (f"{mark} {self.path}: {self.baseline!r} -> "
                f"{self.candidate!r} ({self.rel_change:+.1%}) "
                f"[{self.detail}]")


def _compare_numbers(path: str, base: float, cand: float,
                     policy: MetricPolicy, findings: List[Finding]) -> None:
    if policy.direction == "skip":
        return
    if math.isnan(base) or math.isnan(cand):
        if math.isnan(base) != math.isnan(cand):
            findings.append(Finding(path, "regression", base, cand,
                                    float("nan"), "NaN on one side"))
        return
    delta = cand - base
    if abs(delta) <= ABS_TOL:
        return
    rel = delta / max(abs(base), ABS_TOL)
    tol = policy.rel_tol
    detail = f"{policy.direction} tol {tol:.0%}"
    if policy.direction == "lower":
        if rel > tol:
            findings.append(Finding(path, "regression", base, cand, rel,
                                    detail))
        elif rel < -tol:
            findings.append(Finding(path, "improvement", base, cand, rel,
                                    detail))
    elif policy.direction == "higher":
        if rel < -tol:
            findings.append(Finding(path, "regression", base, cand, rel,
                                    detail))
        elif rel > tol:
            findings.append(Finding(path, "improvement", base, cand, rel,
                                    detail))
    else:  # equal
        if abs(rel) > tol:
            findings.append(Finding(path, "regression", base, cand, rel,
                                    detail))


def _walk(path: str, base, cand, policies, findings: List[Finding]) -> None:
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in sorted(set(base) | set(cand)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in cand:
                findings.append(Finding(sub, "structural", base.get(key),
                                        None, float("nan"),
                                        "missing from candidate"))
            elif key not in base:
                findings.append(Finding(sub, "structural", None,
                                        cand.get(key), float("nan"),
                                        "not present in baseline"))
            else:
                _walk(sub, base[key], cand[key], policies, findings)
        return
    if isinstance(base, list) and isinstance(cand, list):
        if len(base) != len(cand):
            findings.append(Finding(
                path, "structural", len(base), len(cand), float("nan"),
                f"length {len(base)} -> {len(cand)}"))
            return
        if policy_for(path, policies).direction == "skip":
            return
        for i, (b, c) in enumerate(zip(base, cand)):
            _walk(f"{path}[{i}]", b, c, policies, findings)
        return
    base_num = isinstance(base, (int, float)) and not isinstance(base, bool)
    cand_num = isinstance(cand, (int, float)) and not isinstance(cand, bool)
    if base_num and cand_num:
        _compare_numbers(path, float(base), float(cand),
                         policy_for(path, policies), findings)
        return
    if type(base) is not type(cand):
        findings.append(Finding(
            path, "structural", base, cand, float("nan"),
            f"type {type(base).__name__} -> {type(cand).__name__}"))
        return
    if base != cand and policy_for(path, policies).direction != "skip":
        findings.append(Finding(path, "structural", base, cand,
                                float("nan"), "value changed"))


def compare_payloads(baseline: dict, candidate: dict, *,
                     policies: Sequence[Tuple[str, MetricPolicy]]
                     = DEFAULT_POLICIES) -> List[Finding]:
    """All findings between two bench payloads (empty = within tolerance)."""
    findings: List[Finding] = []
    _walk("", baseline, candidate, policies, findings)
    return findings


def compare_files(baseline_path: Path, candidate_path: Path, *,
                  policies=DEFAULT_POLICIES) -> List[Finding]:
    baseline = json.loads(Path(baseline_path).read_text())
    candidate = json.loads(Path(candidate_path).read_text())
    return compare_payloads(baseline, candidate, policies=policies)


def _scaled(policies, threshold: Optional[float]):
    if threshold is None:
        return policies
    return tuple(
        (pattern, policy if policy.direction == "skip"
         else MetricPolicy(policy.direction, threshold))
        for pattern, policy in policies)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench compare",
        description="Diff BENCH_*.json results against committed baselines.")
    parser.add_argument("names", nargs="*",
                        help="bench payload names (e.g. BENCH_serve); "
                             "default: every BENCH_*.json in the baselines "
                             "directory")
    parser.add_argument("--baselines", metavar="DIR", default=None,
                        help="baseline directory (default: "
                             "benchmarks/baselines, or "
                             "$REPRO_BENCH_BASELINES)")
    parser.add_argument("--results", metavar="DIR", default=None,
                        help="candidate directory (default: "
                             "benchmarks/results, or $REPRO_BENCH_RESULTS)")
    parser.add_argument("--threshold", type=float, default=None,
                        metavar="REL",
                        help="override every policy's relative tolerance")
    parser.add_argument("--write-baselines", action="store_true",
                        help="copy the candidate results over the baselines "
                             "instead of comparing (refresh the contract)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON on stdout")
    args = parser.parse_args(argv)

    base_dir = Path(args.baselines) if args.baselines else baselines_dir()
    cand_dir = Path(args.results) if args.results else results_dir()
    if args.threshold is not None and args.threshold <= 0:
        parser.error("--threshold must be positive")
    policies = _scaled(DEFAULT_POLICIES, args.threshold)

    if args.names:
        names = [n[:-5] if n.endswith(".json") else n for n in args.names]
    else:
        names = sorted(p.stem for p in base_dir.glob("BENCH_*.json"))
        if not names and not args.write_baselines:
            print(f"error: no BENCH_*.json baselines under {base_dir}",
                  file=sys.stderr)
            return 2
        if args.write_baselines and not names:
            names = sorted(p.stem for p in cand_dir.glob("BENCH_*.json"))

    if args.write_baselines:
        base_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            src = cand_dir / f"{name}.json"
            if not src.exists():
                print(f"error: {src} not found; run "
                      f"`python -m repro.bench <report>` first",
                      file=sys.stderr)
                return 2
            shutil.copyfile(src, base_dir / f"{name}.json")
            print(f"baseline written: {base_dir / (name + '.json')}")
        return 0

    exit_code = 0
    report = {}
    for name in names:
        base_path = base_dir / f"{name}.json"
        cand_path = cand_dir / f"{name}.json"
        if not base_path.exists():
            print(f"error: baseline {base_path} not found", file=sys.stderr)
            return 2
        if not cand_path.exists():
            print(f"error: candidate {cand_path} not found; run "
                  f"`python -m repro.bench` for the matching report first",
                  file=sys.stderr)
            return 2
        findings = compare_files(base_path, cand_path, policies=policies)
        failures = [f for f in findings if f.fails]
        improvements = [f for f in findings if not f.fails]
        report[name] = {
            "regressions": len(failures),
            "improvements": len(improvements),
            "findings": [{
                "path": f.path, "kind": f.kind,
                "baseline": f.baseline, "candidate": f.candidate,
                "rel_change": (None if math.isnan(f.rel_change)
                               else f.rel_change),
                "detail": f.detail,
            } for f in findings],
        }
        if not args.as_json:
            verdict = "FAIL" if failures else "ok"
            print(f"[{verdict}] {name}: {len(failures)} regression(s), "
                  f"{len(improvements)} improvement(s)")
            for f in findings:
                print(f"  {f.render()}")
        if failures:
            exit_code = 1
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
