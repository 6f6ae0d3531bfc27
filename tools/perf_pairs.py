"""Time two checkouts against each other with the benchmark, in alternating pairs.

    python3 tools/perf_pairs.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are checkouts of the repository.  Each pair runs
``perfbench/run.py --workload W --seed S --trace 0`` once in each checkout,
from its root, for the ``run_seconds`` of CHANGE's BENCHMARK.json.  Pair 1
runs PARENT first, pair 2 CHANGE first, and so on, so that a drift in host
speed falls on both sides alike.  Each run's result line goes to standard
error as it arrives.

Then one line per end-to-end metric of CHANGE's BENCHMARK.json gives the
parent's median [lower quartile - upper quartile], the change's, and in how
many pairs the change was better in the metric's ``better`` direction; a
tie counts for neither side.  Quartiles are ``statistics.quantiles`` with
the inclusive method.  The verdict is ``better`` when the change won at
least nine pairs in ten and its median is better by more than the parent's
quartile spread, ``worse`` when the same holds the other way round, and
``unresolved`` otherwise.

The exit status is 1 when any run reports ``correct: false`` or when
``pass_share`` or ``right_or_loud_share`` differ between the two sides, 2
when a run gives no result, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SHARES = ("pass_share", "right_or_loud_share")
WIN_SHARE = 0.9  # share of pairs the change must win for a verdict


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, statistics.median(values), high


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Quartiles of each side, pairs won, and the verdict of one metric.

    metric is a BENCHMARK.json end-to-end entry; parent[i] and change[i]
    are the values of pair i.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    before, after = quartiles(parent), quartiles(change)
    gain = sign * (after[1] - before[1])
    spread = before[2] - before[0]
    need = WIN_SHARE * len(parent)
    verdict = ("better" if wins >= need and gain > spread
               else "worse" if losses >= need and -gain > spread
               else "unresolved")
    return {"name": metric["name"], "unit": metric["unit"], "parent": before,
            "change": after, "wins": wins, "pairs": len(parent), "verdict": verdict}


def problems(parent: list[dict], change: list[dict]) -> list[str]:
    """Why the runs cannot be compared: an incorrect run, or outcome shares that differ."""
    found = []
    for side, runs in (("parent", parent), ("change", change)):
        wrong = [i + 1 for i, run in enumerate(runs) if not run["correct"]]
        if wrong:
            found.append(f"{side}: correct is false in pairs {wrong}")
    for name in SHARES:
        before = sorted({run["metrics"][name]["value"] for run in parent})
        after = sorted({run["metrics"][name]["value"] for run in change})
        if before != after:
            found.append(f"{name}: parent {before}, change {after}")
    return found


def format_row(row: dict) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"

    return (f"{row['name']:20s} parent {side(row['parent']):28s} change "
            f"{side(row['change']):28s} better in {row['wins']}/{row['pairs']}  "
            f"{row['verdict']}  ({row['unit']})")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result of one benchmark run in the checkout root, or None."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(f"{root}: exit {done.returncode}\n{done.stderr}")
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], args.workload, args.seed, bench["run_seconds"])
            if result is None:
                return 2
            runs[side].append(result)
            sys.stderr.write(f"pair {pair + 1} {side}: {json.dumps(result)}\n")
    print(f"{args.workload} seed={args.seed} pairs={args.pairs}")
    for metric in bench["end_to_end"]:
        values = {side: [run["metrics"][metric["name"]]["value"] for run in runs[side]]
                  for side in runs}
        print(format_row(summarize(metric, values["parent"], values["change"])))
    found = problems(runs["parent"], runs["change"])
    for line in found:
        print(f"error: {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
