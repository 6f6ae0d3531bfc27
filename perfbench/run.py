"""tetrainner benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pipeline-high --seed 1 --seconds 12 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  Every run executes the workload's whole seed-generated
item list (``--seconds`` sets how many whole passes are made over it, never
where a pass stops), one item at a time, and checks each item's output.
Times are scaled to a nominal host speed measured next to every item (see
speed.py); the record keeps the raw times too.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs the list untraced and then traced, and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is the JSON result; a fuller record with the run's context
goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("pipeline-high", "analysis-low", "cli-batch")
SETUP_REPEATS = 7   # fresh interpreters timed for setup_s; the median is reported
PROBE_REPEATS = 5   # interpreter and import probes of the cli layer


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads():
    """One BLAS thread, so LAPACK does not compete with the benchmark for the cores.

    Must run before numpy loads; subprocesses inherit it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def pin_one_cpu() -> int:
    """Keep the benchmark and its subprocesses on one CPU, the one the reference samples.

    The host's CPUs change speed independently, so a subprocess that ran on
    another CPU than the reference kernel would be scaled by the wrong speed.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def read_steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs from /proc/stat (None where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def context(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def timed_subprocess(cmd, env, ref):
    """Run to completion; return (scaled seconds, speed factor, completed process).

    The speed factor comes from the median of reference samples taken just
    before and just after.
    """
    samples = [ref.sample() for _ in range(speed.WINDOW)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    samples += [ref.sample() for _ in range(speed.WINDOW)]
    factor = speed.NOMINAL_S / statistics.median(samples)
    return elapsed * factor, factor, proc


def measure_setup(args, env, ref) -> float:
    """Median scaled wall time of fresh interpreters doing import, generation and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    return statistics.median(timed_subprocess(cmd, env, ref)[0] for _ in range(SETUP_REPEATS))


def probe_cli(env, ref) -> dict:
    """Bare interpreter start, ``import tetrainner`` and its numpy share, scaled."""
    py = sys.executable
    interp = statistics.median(timed_subprocess([py, "-c", "pass"], env, ref)[0]
                               for _ in range(PROBE_REPEATS))
    imported = statistics.median(timed_subprocess([py, "-c", "import tetrainner"], env, ref)[0]
                                 for _ in range(PROBE_REPEATS))
    numpy_ms = []
    for _ in range(PROBE_REPEATS):
        _, factor, proc = timed_subprocess([py, "-X", "importtime", "-c", "import tetrainner"],
                                           env, ref)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_ms.append(int(parts[1]) / 1e3 * factor)
    return {"cli.interp_ms": 1e3 * interp,
            "cli.import_ms": 1e3 * (imported - interp),
            "cli.import_numpy_ms": statistics.median(numpy_ms)}


class Pass:
    """Outcomes and wall times of the item list, run in order, ``passes`` times."""

    def __init__(self):
        self.outcomes = []
        self.seconds = []     # raw wall time of each item that ran
        self.reference = []   # speed reference taken just before it
        self.kinds = []
        self.maxima = defaultdict(float)
        self.first_crash = None
        self.not_built = 0   # items whose input could not be built during set-up

    def shares(self):
        counts = Counter(self.outcomes)
        total = len(self.outcomes)
        return counts, counts["pass"] / total, counts["silent"] / total

    def scaled_ms(self) -> list[float]:
        return [1e3 * t * f for t, f in zip(self.seconds, speed.local_factors(self.reference))]

    def median_ms_by_kind(self, kind) -> float:
        ms = [t for t, k in zip(self.scaled_ms(), self.kinds) if k == kind]
        return statistics.median(ms) if ms else 0.0


def run_passes(wl, items, passes, run, ref, tracer=None) -> Pass:
    from tetrainner.errors import TetraError
    result = Pass()
    for _ in range(passes):
        for item in items:
            if item.setup_error is not None:
                result.outcomes.append("loud")
                result.not_built += 1
                continue
            output = None
            result.reference.append(statistics.median(
                ref.sample() for _ in range(wl.reference_samples)))
            if tracer is not None:
                tracer.item = item.index
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                output = run(item)
                outcome = None
            except TetraError:
                outcome = "loud"
            except Exception:  # an untyped failure is counted, with its traceback kept
                outcome = "crash"
                result.first_crash = result.first_crash or traceback.format_exc()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            result.seconds.append(dt)
            result.kinds.append(item.kind)
            result.outcomes.append(outcome or wl.check(item, output, result.maxima))
    return result


def timing(ms, block: int) -> dict:
    # Blocks of whole rounds have the same mix of inputs; their median rate
    # ignores a burst of load from neighbours that slows one or two blocks.
    rates = [len(chunk) / (sum(chunk) / 1e3)
             for chunk in (ms[i:i + block] for i in range(0, len(ms), block))]
    return {
        "items_per_s": statistics.median(rates),
        "item_ms.p50": statistics.median(ms),
        "item_ms.p90": statistics.quantiles(ms, n=10)[8],
    }


def end_to_end(timed: Pass, setup_s: float, block: int) -> dict:
    _, pass_share, silent_share = timed.shares()
    return {
        "setup_s": setup_s,
        **timing(timed.scaled_ms(), block),
        "pass_share": pass_share,
        "right_or_loud_share": 1.0 - silent_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Pass, untraced: Pass, cli_pass: Pass | None,
              probes: dict) -> dict:
    from tracer import TARGETS
    items = len(traced.outcomes)
    # self times are summed over the run, so one run-wide speed factor scales them
    factor = speed.NOMINAL_S / statistics.median(traced.reference)
    out = {}
    for prefix in TARGETS:
        st = tracer.stats[prefix]
        out[prefix + ".calls"] = st.calls / items
        out[prefix + ".self_ms"] = 1e3 * st.self_s * factor / items
        out[prefix + ".fails"] = st.fails / items
    roots = tracer.stats["polycx.roots"]
    out["polycx.roots.degree_mean"] = roots.extra / roots.calls if roots.calls else 0.0
    out["polycx.eval.scalar_calls"] = tracer.stats["polycx.eval"].extra / items
    out["tetrafun.royal_solves_per_item"] = tracer.royal_solves() / items
    for name in ("fejriesz.factor.residual_max", "construct.royal_drift.max"):
        out[name] = tracer.maxima[name]
    for name in ("construct.node_err.max", "extremal.midpoint_err.max"):
        out[name] = traced.maxima[name]
    out.update(probes)
    for cmd in ("classify", "construct", "verify", "analyze", "trace", "perturb"):
        out[f"cli.{cmd}.ms"] = cli_pass.median_ms_by_kind(cmd) if cli_pass else 0.0
        out[f"cli.{cmd}.inproc_ms"] = untraced.median_ms_by_kind(cmd) if cli_pass else 0.0
    out["cli.nonzero_exits"] = (sum(o in ("loud", "crash") for o in cli_pass.outcomes)
                                - cli_pass.not_built if cli_pass else 0)
    _, _, silent_share = traced.shares()
    out["check.silent_wrong_share"] = silent_share
    extra_ms = sum(traced.scaled_ms()) - sum(untraced.scaled_ms())
    out["trace.overhead_ms"] = extra_ms / items
    out["trace.overhead_share"] = extra_ms / sum(untraced.scaled_ms())
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tetrainner" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tetrainner sources under {SRC}\n")
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        sys.stderr.write(f"error: {spec_file} is missing\n")
        return 2
    pin_blas_threads()
    cpu = pin_one_cpu()
    sys.path.insert(0, str(SRC))
    env = child_env()
    import tetrainner
    if Path(tetrainner.__file__).resolve().parent != SRC / "tetrainner":
        sys.stderr.write(f"error: imported tetrainner from {tetrainner.__file__}\n")
        return 2
    import workloads
    wl = workloads.make(args.workload, ROOT, env)
    items = wl.setup(args.seed)
    if args.setup_only:
        return 0

    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {"context": context(args), "cpu": cpu, "steal_ticks_before": read_steal_ticks()}
    passes = max(1, round(args.seconds / wl.pass_seconds))
    ref = speed.Reference()

    if args.trace:
        from tracer import Tracer
        timed = run_passes(wl, items, passes, wl.run, ref)
        untraced = (timed if wl.trace_run == wl.run
                    else run_passes(wl, items, passes, wl.trace_run, ref))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, items, passes, wl.trace_run, ref, tracer)
        finally:
            tracer.uninstall()
        probes = probe_cli(env, ref)
        cli_pass = timed if wl.trace_run != wl.run else None
        metrics = per_layer(tracer, traced, untraced, cli_pass, probes)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        consistent = timed.outcomes == traced.outcomes == untraced.outcomes
    else:
        timed = run_passes(wl, items, passes, wl.run, ref)
        metrics = end_to_end(timed, measure_setup(args, env, ref), wl.block_items)
        consistent = True

    counts, _, _ = timed.shares()
    attempted = len(timed.outcomes)
    # Library failures, loud or silent, are counted in `failed` and the share
    # metrics; `correct` is false only when the accounting itself is in doubt:
    # an untyped exception escaped, or outcomes differed between passes.
    per_pass = len(items)
    repeatable = all(timed.outcomes[i] == timed.outcomes[i % per_pass]
                     for i in range(attempted))
    correct = consistent and repeatable and counts["crash"] == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - counts["pass"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record.update({
        "steal_ticks_after": read_steal_ticks(),
        "passes": passes,
        "outcomes": dict(counts),
        "outcome_list": "".join(o[0].upper() for o in timed.outcomes),
        "first_crash": timed.first_crash,
        "setup_errors": [i.index for i in items if i.setup_error is not None],
        "all_metrics": metrics,
        "raw_timing": timing([1e3 * t for t in timed.seconds], wl.block_items),
        "reference_ms": {"median": 1e3 * statistics.median(timed.reference),
                         "min": 1e3 * min(timed.reference),
                         "max": 1e3 * max(timed.reference)},
        "result": result,
    })
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in result["metrics"].items():
        print(f"# {name:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"# {args.workload} seed={args.seed} passes={passes} outcomes={dict(counts)} "
          f"steal_ticks={record['steal_ticks_before']}->{record['steal_ticks_after']} "
          f"record={out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
