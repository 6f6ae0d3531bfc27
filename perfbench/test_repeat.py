"""Repeatability of the benchmark's counts at a fixed seed.

The item list depends on the seed alone and every run executes all of it,
so outcomes, pass_share, the silent-wrong share and every per-layer
``.calls`` count must repeat exactly: run to run, and between the untraced
and the traced run.  Takes a few minutes; run with

    python3 -m pytest -q perfbench/test_repeat.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    assert record["result"] == result
    return record


def counts(record):
    metrics = record["all_metrics"]
    return {name: value for name, value in metrics.items()
            if name.endswith(".calls") or name == "check.silent_wrong_share"}


@pytest.mark.parametrize("workload", ["pipeline-high", "analysis-low", "cli-batch"])
def test_counts_repeat_across_runs_and_tracing(workload):
    plain = [bench(workload, 0) for _ in range(2)]
    traced = [bench(workload, 1) for _ in range(2)]
    for record in plain + traced:
        assert record["result"]["correct"]
        assert record["result"]["attempted"] >= 100
    outcome_lists = {record["outcome_list"] for record in plain + traced}
    assert len(outcome_lists) == 1
    shares = {(r["all_metrics"]["pass_share"], r["all_metrics"]["right_or_loud_share"])
              for r in plain}
    assert len(shares) == 1
    assert counts(traced[0]) == counts(traced[1])
    silent = traced[0]["outcomes"].get("silent", 0) / traced[0]["result"]["attempted"]
    assert traced[0]["all_metrics"]["check.silent_wrong_share"] == silent
    assert 1.0 - silent == plain[0]["all_metrics"]["right_or_loud_share"]


def test_missing_sources_fail_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-high", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
