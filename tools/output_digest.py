"""Digest every output of the benchmark's item lists, to show two checkouts agree bit for bit.

    python3 tools/output_digest.py ROOT --seed N [--out FILE]

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
(default ``output-digest-seed<N>.json`` in the working directory), so two
files show which items differ.
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
    """(set-up, outcome, output) per item of a library workload."""
    maxima = {"construct.node_err.max": 0.0, "extremal.midpoint_err.max": 0.0}
    for item in items:
        head = canon([item.index, item.n, item.k, item.kind, item.setup_error,
                      item.data.get("json")])
        if item.setup_error is not None:
            yield head, "loud", ""
            continue
        try:
            output = wl.run(item)
        except tetra_error as exc:
            yield head, "loud", _error(exc)
            continue
        except Exception as exc:  # recorded in the digest, as the benchmark counts it
            yield head, "crash", _error(exc)
            continue
        yield head, wl.check(item, output, maxima), canon(output)


def cli_items(wl, items, cli):
    """(input, exit code, stdout and stderr) per distinct cli-batch input."""
    for item in items[:wl.distinct]:
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = (io.StringIO(item.data["stdin"]),
                                             io.StringIO(), io.StringIO())
        try:
            code = cli.main(list(item.data["argv"]))
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        yield canon([item.index, item.setup_error, item.data["argv"], item.data["stdin"]]), \
            str(code), canon([out, err])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", type=Path, help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, default=None,
                        help="per-item digests (default output-digest-seed<N>.json)")
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
        digests = [hashlib.sha256("\n".join(row).encode()).hexdigest() for row in rows]
        per_item[name] = digests
        total = hashlib.sha256("".join(digests).encode()).hexdigest()
        print(f"{name:14s} seed={args.seed} items={len(digests):4d} sha256={total}")
    out = args.out or Path(f"output-digest-seed{args.seed}.json")
    out.write_text(json.dumps(per_item, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
