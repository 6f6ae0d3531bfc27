import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import random_construction_spec

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load_tool(name, folder=TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def output_digest(monkeypatch):
    """tools/output_digest.py as a module; the thread variables it sets are restored after."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return load_tool("output_digest")


def _library(digest, outcome, n=16, k=0, node_err=None, error=None):
    return {"digest": digest * 64, "outcome": outcome, "n": n, "k": k, "node_err": node_err,
            "error": error}


def _cli(digest, code, command, stderr=""):
    return {"digest": digest * 64, "exit": code, "command": command, "stderr": stderr}


def test_compare_counts_the_differing_items(output_digest, capsys):
    theirs = [_library("a", "pass"), _library("b", "silent"), _library("c", "loud")]
    assert output_digest.compare("analysis-low", [dict(e) for e in theirs], theirs) == 0
    assert "0 of 3 items differ: none" in capsys.readouterr().out

    ours = [dict(e) for e in theirs]
    ours[1] = _library("d", "pass")
    assert output_digest.compare("pipeline-high", ours, theirs) == 1
    out = capsys.readouterr().out
    assert "1 of 3 items differ: 1" in out
    assert "silent -> pass" in out and "items 1" in out

    assert output_digest.compare("cli-batch", ours[:2], theirs) == 3


def test_compare_prints_the_node_errors_at_each_flip(output_digest, capsys):
    theirs = [_library("a", "pass", 24, 12, 9.56e-7), _library("b", "silent", 16, 0, 2e-5),
              _library("c", "pass", 32, 16)]
    ours = [_library("d", "silent", 24, 12, 4.38e-6), _library("e", "silent", 16, 0, 3e-5),
            _library("f", "loud", 32, 16)]
    assert output_digest.compare("pipeline-high", ours, theirs) == 3
    out = capsys.readouterr().out
    assert "pass -> silent      1  items 0" in out
    assert "item 0 (24, 12): node error 9.56e-07 -> 4.38e-06" in out
    assert "item 2 (32, 16): node error - -> -" in out
    assert "item 1 " not in out    # no flip

    # a loud item shows the class of its error where it has no node error
    ours[2]["error"] = "ConstructionInconsistent"
    theirs[1] = _library("b", "silent", 16, 0, 1.38e-6)
    ours[1] = _library("e", "loud", 16, 0, error="OddCircleRootOrder")
    assert output_digest.compare("pipeline-high", ours, theirs) == 3
    out = capsys.readouterr().out
    assert "item 1 (16, 0): node error 1.38e-06 -> OddCircleRootOrder" in out
    assert "item 2 (32, 16): node error - -> ConstructionInconsistent" in out

    # the class is read off the run's error text; a set-up failure has none
    assert [output_digest._error_class(row) for row in (
        ("h", "loud", "ConstructionInconsistent: a royal node lies 1.229e-05 ..."),
        ("h", "crash", "KeyError: 'x'"), ("h", "loud", ""), ("h", "pass", "(1,2)"))] == \
        ["ConstructionInconsistent", "KeyError", None, None]

    # a flipped CLI input shows its command and its last standard error line
    theirs = [_cli("a", "0", "analyze"), _cli("b", "0", "verify")]
    ours = [_cli("c", "4", "analyze", "error: NonFiniteCoefficient: x"), _cli("d", "0", "verify")]
    assert output_digest.compare("cli-batch", ours, theirs) == 2
    out = capsys.readouterr().out
    assert 'item 0 analyze: "" -> "error: NonFiniteCoefficient: x"' in out
    assert "item 1 " not in out    # no flip


def test_cli_items_keep_the_command_and_the_last_stderr_line(output_digest):
    class Item:
        def __init__(self, index, argv):
            self.index, self.setup_error = index, None
            self.data = {"argv": argv, "stdin": "{}"}

    class Cli:
        @staticmethod
        def main(argv):
            if argv[0] == "verify":
                return 0
            sys.stderr.write("a warning\nerror: the last line\n")
            return 4

    class Workload:
        distinct = 2

    items = [Item(0, ["trace", "--samples", "8"]), Item(1, ["verify"]), Item(2, ["verify"])]
    rows = list(output_digest.cli_items(Workload(), items, Cli))
    assert [fields for _, fields in rows] == [
        {"exit": "4", "command": "trace", "stderr": "error: the last line"},
        {"exit": "0", "command": "verify", "stderr": ""}]
    assert [row[1] for row, _ in rows] == ["4", "0"]


def test_library_items_keep_each_items_own_node_error(output_digest):
    class Item:
        def __init__(self, index, err):
            self.index, self.n, self.k, self.kind = index, 16, 8, "construct"
            self.setup_error, self.data, self.err = None, {}, err

    class Workload:
        def run(self, item):
            if item.err is None:
                raise KeyError("raised")
            return item.err

        def check(self, item, output, maxima):
            maxima["construct.node_err.max"] = max(maxima["construct.node_err.max"], output)
            return "pass"

    items = [Item(0, 3e-7), Item(1, 1e-9), Item(2, None)]
    rows = list(output_digest.library_items(Workload(), items, KeyError))
    assert [fields for _, fields in rows] == [
        {"outcome": "pass", "n": 16, "k": 8, "node_err": 3e-7, "error": None},
        {"outcome": "pass", "n": 16, "k": 8, "node_err": 1e-9, "error": None},
        {"outcome": "loud", "n": 16, "k": 8, "node_err": None, "error": "KeyError"}]
    assert [row[1] for row, _ in rows] == ["pass", "pass", "loud"]


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


def test_benchmark_tracer_attaches_to_the_library_and_records_construct():
    # a traced benchmark run wraps every TARGETS binding, and factor's residual probe
    # calls TrigPolynomial.value; a refactor that breaks either fails every traced run
    tracer = load_tool("tracer", ROOT / "perfbench").Tracer()
    importlib.import_module("tetrainner.construct")
    module = sys.modules["tetrainner.construct"]  # tetrainner.construct is the function
    original = module.construct
    spec = random_construction_spec(np.random.default_rng(3), 4)
    tracer.install()
    try:
        tracer.recording = True
        module.construct(spec)
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert module.construct is original
    assert tracer.stats["construct.construct"].calls == 1
    assert tracer.stats["fejriesz.factor"].calls >= 1
    assert "fejriesz.factor.residual_max" in tracer.maxima
