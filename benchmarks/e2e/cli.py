"""Command line: runs each workload in its own subprocess, one after
another, prints every metric with its unit, writes the result documents,
and ends with one JSON line (see README.md)."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: a workload subprocess is stopped after this many seconds
CHILD_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                description=__doc__)
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="cap on the measured seconds per workload; each "
                        "workload measures a fixed number of units")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1),
                   help="1: report per-layer metrics instead of end-to-end")
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for the smoke test")
    p.add_argument("--out", type=Path,
                   default=ROOT / "benchmarks" / "results" / "e2e",
                   help="directory for result and trace files")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _worker(args) -> int:
    """Runs one workload in this process; prints its result document as
    the last line of stdout."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from benchmarks.e2e.workloads import run

    args.out.mkdir(parents=True, exist_ok=True)
    doc = run(args.workload[0], seed=args.seed, seconds=args.seconds,
              trace=bool(args.trace), smoke=args.smoke, out_dir=args.out)
    print(json.dumps(doc))
    return 0


def _spawn(workload: str, args) -> dict:
    cmd = [sys.executable, "-m", "benchmarks.e2e", "--worker",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(args.out)] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def _print_table(doc: dict) -> None:
    print(f"== {doc['workload']} (seed {doc['seed']}, "
          f"{'traced' if doc['trace'] else 'untraced'}): "
          f"{doc['failed']} of {doc['attempted']} ops failed")
    for name, m in doc["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for name, value in doc["diagnostics"].items():
        print(f"  ({name}: {value})")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.worker:
        return _worker(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    docs = []
    for workload in args.workload or WORKLOADS:
        try:
            doc = _spawn(workload, args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        suffix = "_trace" if args.trace else ""
        (args.out / f"{workload}{suffix}.json").write_text(
            json.dumps(doc, indent=2))
        _print_table(doc)
        docs.append(doc)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}/{k}": v
                   for d in docs for k, v in d["metrics"].items()}
    correct = all(d["correct"] for d in docs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(d["attempted"] for d in docs),
                      "failed": sum(d["failed"] for d in docs),
                      "metrics": metrics}))
    return 0 if correct else 1
