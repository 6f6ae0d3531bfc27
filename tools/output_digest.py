"""Digest every output of the benchmark's item lists, to show two checkouts agree bit for bit.

    python3 tools/output_digest.py ROOT --seed N [--out FILE] [--compare OTHER.json]

ROOT is a checkout of the repository.  The item lists are the ones
``ROOT/perfbench/workloads.py`` builds for the seed, and the package is
imported from ``ROOT/src``; nothing is written under ROOT.  Every
pipeline-high and analysis-low item runs once, in one process, and every
distinct cli-batch input runs once through ``cli.main`` in-process, with
the workloads' warm-up off.

One SHA-256 per workload is printed.  It covers, item by item, the set-up
error or input payload, the outcome (pass, silent, loud or crash), every
returned coefficient, node, float and label at full precision, the type and
message of a raised error, and for the CLI the exit code, stdout and
stderr.  Coefficients are hashed by value, so a tuple and an array of the
same complex numbers digest alike.  The per-item digests go to FILE
(default ``output-digest-seed<N>.json`` in the working directory), each as
an object.  A library item's is ``{digest, outcome, n, k, node_err,
error}``: its outcome (pass, silent, loud or crash), its n and k, the node
error its check recorded (``construct.node_err.max`` of that item alone;
null when the check records none or did not run) and the class of the
error the library raised (null for a pass or silent item and for an item
whose set-up failed).  A CLI input's is ``{digest, exit, command,
stderr}``: its exit code, its command and the last line it wrote to
standard error ("" when none).

With ``--compare OTHER.json`` (a FILE of an earlier run, say of the parent
commit), each workload also prints the positions of the items whose digests
differ and a table of outcome flips, read as OTHER's outcome -> this run's,
with their count and positions (``silent -> pass  1  items 29``), then for
each flipped item its (n, k) and on both sides its node error, or else the
error class (``node error 1.38e-06 -> ConstructionInconsistent``); for a
flipped CLI input its command and on both sides its last standard error
line (``construct: "" -> "error: ..."``).  OTHER must come from this same
tool, as the two runs of one comparison do.
The exit status is 1 when any item of any workload differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import io
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

# one BLAS thread, as the benchmark runs; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

WORKLOADS = ("pipeline-high", "analysis-low", "cli-batch")


def canon(obj) -> str:
    """A text form of obj that is equal exactly when the values are bit-identical."""
    if isinstance(obj, (bool, np.bool_)):
        return "T" if obj else "F"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (complex, np.complexfloating)):
        return f"{complex(obj).real.hex()}{complex(obj).imag.hex()}j"
    if isinstance(obj, (str, type(None))):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, np.ndarray):
        return canon(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(canon(v) for v in obj) + ")"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canon(v) for v in obj)) + "}"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in obj.items()) + "}"
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__ + canon({f.name: getattr(obj, f.name)
                                           for f in dataclasses.fields(obj)})
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def library_items(wl, items, tetra_error):
    """((set-up, outcome, output), entry fields but the digest) per item of a
    library workload."""
    for item in items:
        head = canon([item.index, item.n, item.k, item.kind, item.setup_error,
                      item.data.get("json")])
        node_err = None
        if item.setup_error is not None:
            row = (head, "loud", "")
        else:
            try:
                output = wl.run(item)
            except tetra_error as exc:
                row = (head, "loud", _error(exc))
            except Exception as exc:  # recorded in the digest, as the benchmark counts it
                row = (head, "crash", _error(exc))
            else:
                maxima = defaultdict(float)   # this item's maxima alone
                row = (head, wl.check(item, output, maxima), canon(output))
                node_err = maxima.get("construct.node_err.max")
        yield row, {"outcome": row[1], "n": item.n, "k": item.k, "node_err": node_err,
                    "error": _error_class(row)}


def _error_class(row) -> str | None:
    """The class of the error a library item's run raised, read off its row."""
    outcome, output = row[1:]
    return output.partition(":")[0] if outcome in ("loud", "crash") and output else None


def cli_items(wl, items, cli):
    """((input, exit code, stdout and stderr), entry fields but the digest) per
    distinct cli-batch input."""
    for item in items[:wl.distinct]:
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = (io.StringIO(item.data["stdin"]),
                                             io.StringIO(), io.StringIO())
        try:
            code = cli.main(list(item.data["argv"]))
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        last_line = err.rstrip("\n").rpartition("\n")[2]
        yield (canon([item.index, item.setup_error, item.data["argv"], item.data["stdin"]]),
               str(code), canon([out, err])), {"exit": str(code), "command": item.data["argv"][0],
                                               "stderr": last_line}


def _node_error_change(theirs: dict, ours: dict) -> str:
    """'(n, k): node error OTHER's -> this run's' of one library item's entries;
    a side with no node error shows its error class."""
    def err(entry):
        if entry["node_err"] is not None:
            return f"{entry['node_err']:.3g}"
        return entry["error"] or "-"

    return f"({ours['n']}, {ours['k']}): node error {err(theirs)} -> {err(ours)}"


def _stderr_change(theirs: dict, ours: dict) -> str:
    """'COMMAND: OTHER's last stderr line -> this run's' of one CLI input's entries."""
    return f"{ours['command']}: {json.dumps(theirs['stderr'])} -> {json.dumps(ours['stderr'])}"


def compare(name: str, ours: list, theirs: list) -> int:
    """Print the items of one workload whose digests differ, and the outcome
    flips; return how many items differ (every item, when the counts differ)."""
    if len(ours) != len(theirs):
        print(f"{name:14s} {len(theirs)} items in the other file, {len(ours)} here")
        return max(len(ours), len(theirs))
    differ = [i for i, (a, b) in enumerate(zip(ours, theirs)) if a["digest"] != b["digest"]]
    print(f"{name:14s} {len(differ)} of {len(ours)} items differ:",
          " ".join(map(str, differ)) or "none")
    outcome, change = (("exit", _stderr_change) if name == "cli-batch"
                       else ("outcome", _node_error_change))
    flips = {}
    for i in differ:
        if theirs[i][outcome] != ours[i][outcome]:
            flips.setdefault(f"{theirs[i][outcome]} -> {ours[i][outcome]}", []).append(i)
    for key, items in sorted(flips.items()):
        print(f"  {key:16s} {len(items):4d}  items", " ".join(map(str, items)))
        for i in items:
            print(f"    item {i} {change(theirs[i], ours[i])}")
    if not flips:
        print("  no outcome flips")
    return len(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", type=Path, help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, default=None,
                        help="per-item digests (default output-digest-seed<N>.json)")
    parser.add_argument("--compare", type=Path, default=None, metavar="OTHER",
                        help="per-item file of another run to list differing items and flips")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import tetrainner
    if Path(tetrainner.__file__).resolve().parent != root / "src" / "tetrainner":
        sys.stderr.write(f"error: imported tetrainner from {tetrainner.__file__}\n")
        return 2
    import workloads
    from tetrainner import cli
    from tetrainner.errors import TetraError

    workloads._warm_up = lambda run, items: None
    per_item = {}
    for name in WORKLOADS:
        wl = workloads.make(name, root, env=None)
        items = wl.setup(args.seed)
        rows = (cli_items(wl, items, cli) if name == "cli-batch"
                else library_items(wl, items, TetraError))
        per_item[name] = [{"digest": hashlib.sha256("\n".join(row).encode()).hexdigest(),
                           **fields} for row, fields in rows]
        total = hashlib.sha256("".join(e["digest"] for e in per_item[name]).encode()).hexdigest()
        print(f"{name:14s} seed={args.seed} items={len(per_item[name]):4d} sha256={total}")
    out = args.out or Path(f"output-digest-seed{args.seed}.json")
    out.write_text(json.dumps(per_item, indent=1) + "\n", encoding="utf-8")
    if args.compare:
        other = json.loads(args.compare.read_text(encoding="utf-8"))
        differing = [compare(name, per_item[name], other[name]) for name in WORKLOADS]
        return int(any(differing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
