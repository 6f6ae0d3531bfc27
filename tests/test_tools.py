import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def output_digest(monkeypatch):
    """tools/output_digest.py as a module; the thread variables it sets are restored after."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return load_tool("output_digest")


def test_compare_counts_the_differing_items(output_digest, capsys):
    theirs = [["a" * 64, "pass"], ["b" * 64, "silent"], ["c" * 64, "loud"]]
    assert output_digest.compare("analysis-low", [list(row) for row in theirs], theirs) == 0
    assert "0 of 3 items differ: none" in capsys.readouterr().out

    ours = [list(row) for row in theirs]
    ours[1] = ["d" * 64, "pass"]
    assert output_digest.compare("pipeline-high", ours, theirs) == 1
    out = capsys.readouterr().out
    assert "1 of 3 items differ: 1" in out
    assert "silent -> pass" in out and "items 1" in out

    assert output_digest.compare("cli-batch", ours[:2], theirs) == 3


LOWER = {"name": "item_ms.p50", "unit": "ms", "better": "lower"}
HIGHER = {"name": "items_per_s", "unit": "1/s", "better": "higher"}


def test_perf_pairs_counts_pairs_won_and_needs_more_than_the_quartile_spread():
    pairs = load_tool("perf_pairs")
    parent = [10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.3, 10.0, 10.1, 9.9]

    # nine pairs faster by 1 and one tie: the tie counts for neither side
    change = [p - 1.0 for p in parent[:9]] + [parent[9]]
    row = pairs.summarize(LOWER, parent, change)
    assert (row["wins"], row["pairs"], row["verdict"]) == (9, 10, "better")
    assert row["parent"] == pytest.approx((9.925, 10.0, 10.1))
    assert pairs.summarize(HIGHER, parent, change)["verdict"] == "worse"
    assert pairs.summarize(HIGHER, parent, change)["wins"] == 0

    # every pair tied
    row = pairs.summarize(LOWER, parent, list(parent))
    assert (row["wins"], row["verdict"]) == (0, "unresolved")

    # ten wins, but the medians differ by 0.15 against a spread of 0.175
    row = pairs.summarize(LOWER, parent, [p - 0.15 for p in parent])
    assert (row["wins"], row["verdict"]) == (10, "unresolved")
    row = pairs.summarize(LOWER, parent, [p - 0.2 for p in parent])
    assert (row["wins"], row["verdict"]) == (10, "better")

    # eight wins of ten by a wide margin are not enough
    row = pairs.summarize(HIGHER, parent, [p + 5.0 for p in parent[:8]] + parent[8:])
    assert (row["wins"], row["verdict"]) == (8, "unresolved")
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def _result(correct=True, p50=1.5, pass_share=1.0):
    return {"correct": correct, "metrics": {
        "item_ms.p50": {"value": p50, "unit": "ms"},
        "items_per_s": {"value": 1000.0 / p50, "unit": "1/s"},
        "pass_share": {"value": pass_share, "unit": "ratio"},
        "right_or_loud_share": {"value": 1.0, "unit": "ratio"}}}


def test_perf_pairs_flags_incorrect_runs_and_moved_shares():
    pairs = load_tool("perf_pairs")
    good = [_result(), _result()]
    assert pairs.problems(good, good) == []
    assert pairs.problems(good, [_result(), _result(correct=False)]) == [
        "change: correct is false in pairs [2]"]
    assert pairs.problems(good, [_result(pass_share=0.9)] * 2) == [
        "pass_share: parent [1.0], change [0.9]"]


@pytest.mark.parametrize("change_share, status", [(1.0, 0), (0.5, 1)])
def test_perf_pairs_alternates_the_first_side_and_sets_the_exit_status(
        tmp_path, monkeypatch, capsys, change_share, status):
    pairs = load_tool("perf_pairs")
    bench = {"run_seconds": 12, "end_to_end": [
        {**LOWER, "bound": 0.2}, {**HIGHER, "bound": 0.2},
        {"name": "pass_share", "unit": "ratio", "better": "higher", "bound": 0.15}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    order = []

    def run_once(root, workload, seed, seconds):
        order.append(root.name)
        assert (workload, seed, seconds) == ("analysis-low", 2, 12)
        if root.name == "parent":
            return _result(p50=1.6)
        return _result(p50=1.4, pass_share=change_share)

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "analysis-low", "--seed", "2", "--pairs", "3"]
    assert pairs.main(argv) == status
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert "item_ms.p50" in out and "better in 3/3  better" in out
    assert ("error: pass_share" in out) == bool(status)
