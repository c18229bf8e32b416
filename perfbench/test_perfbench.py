"""Smoke tests of the benchmark: schema of BENCHMARK.json and of a run's
result on tiny configs.  Run from the repository root:

    python -m pytest -q perfbench
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_seconds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_harness():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.per_layer_units(workloads.PAPER)


def test_golden_level_digest_matches_the_checkpoint():
    golden = ROOT / "checkpoints" / "q31_pgl_level6.txt"
    if not golden.exists():
        pytest.skip("checkpoint not in this checkout")
    assert hashlib.sha256(golden.read_bytes()).hexdigest() == workloads.PAPER.classify_top_sha256


def test_self_time_subtracts_direct_children():
    spans = [Span("a", 0.0, 10.0, None, None), Span("b", 1.0, 4.0, 0, None), Span("c", 2.0, 3.0, 1, None)]
    assert self_seconds(spans) == [7.0, 2.0, 1.0]


def _check_result(result, units):
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(name, trace):
    w = workloads.WORKLOADS[name](workloads.TINY)
    checks = workloads.Checks()
    if trace:
        metrics = workloads.traced(w, 3, checks)
        units = workloads.per_layer_units(workloads.TINY)
    else:
        metrics = workloads.end_to_end(w, 3, 0.0, checks)
        units = workloads.END_TO_END_UNITS
    _check_result(json.loads(json.dumps(run.result_line(checks, metrics))), units)
    if trace and name == "classify-q31":
        assert metrics["scheduler.jobs"][0] == workloads.TINY.classify_counts[-2]
        assert metrics["search.classify.level_s.n7"][0] > 0


def test_wrong_output_is_counted_as_failed():
    checks = workloads.Checks()
    checks.expect("right", 1, 1)
    checks.expect("wrong", 1, 2)
    assert (checks.attempted, checks.failed) == (2, 1)
    assert not run.result_line(checks, {})["correct"]


def test_fails_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
