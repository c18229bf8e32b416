#!/usr/bin/env python3
"""Benchmark of pgarc: the paper's workloads, end to end and layer by layer.

Run from the root of a checkout (the source is imported from ./src):

    python3 perfbench/run.py --workload findmin-q13 --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the workload runs untraced, pass after pass while the
next pass is expected to end within --seconds (at least one pass), and
the end-to-end metrics are medians per pass.  With
--trace 1 it runs once untraced and once traced, plus a traced
single-worker pass where the workload's own pass hides work in workers,
and the per-layer metrics come from the spans and from micro-measurements
on seeded inputs.  Every output is checked against the published values;
a mismatch is printed as CHECK FAILED and counted in "failed".

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when ./src/pgarc is missing.
--workload all runs every workload untraced and traced, each in a fresh
process, and prints them all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pgarc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, why: str) -> dict:
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def result_line(checks, metrics: dict) -> dict:
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_one(args) -> int:
    import workloads

    w = workloads.WORKLOADS[args.workload](workloads.PAPER)
    checks = workloads.Checks()
    if args.trace:
        metrics = workloads.traced(w, args.seed, checks)
    else:
        metrics = workloads.end_to_end(w, args.seed, args.seconds, checks)
    # after the measurement: the git call would count in the workers' peak RSS
    print("run record: " + json.dumps(run_record(args, w.why)), flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{w.name:14s} {name:48s} {value:>14.6g} {unit}")
    print(f"{w.name:14s} checks: {checks.attempted} attempted, {checks.failed} failed, "
          f"fail_share {checks.failed / checks.attempted:.4f}")
    print(json.dumps(result_line(checks, metrics)), flush=True)
    return 0 if checks.failed == 0 else 1


def run_all(args, names) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name} (trace {trace}) exited with {proc.returncode}", file=sys.stderr)
                return 2
            part = json.loads(lines[-1])
            total["correct"] &= part["correct"]
            total["attempted"] += part["attempted"]
            total["failed"] += part["failed"]
            for metric, entry in part["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


def main() -> int:
    if not (SRC / "pgarc" / "__init__.py").is_file():
        print(f"perfbench: no pgarc source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
