"""Command line front end.

Six commands: classify, construct, verify, analyze, trace, perturb.
Complex numbers travel as [re, im] pairs.  Each command maps the decoded
JSON object and the flags to its output, a CSV string or a JSON-ready object;
`main` alone reads, writes and maps errors to exit codes: 0 success, 2 parse
or IO error, 3 precondition violation, 4 numerical failure.  Parsing needs
only the base layer (errors, polycx); each command imports the modules it
runs, so `classify` loads no function layer.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

import numpy as np

from . import polycx
from .errors import MalformedInput, NonFiniteCoefficient, TetraError
from .polycx import (circle_power, coeff_distance, decode_complex, decode_complex_list,
                     decode_real, encode_complex)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
INSIDE_DISC_TOL = 1e-7   # verify's membership tolerance at the ring samples


# verify's condition rows: validation_report code and printed label, in print order
_CONDITIONS = (
    ("DegreeBound", "degree bounds"),
    ("DVanishesInDisc", "denominator nonvanishing"),
    ("ModulusDomination", "modulus domination"),
    ("ReflectionMismatch", "reflection identity"),
)


def _load_payload(args) -> dict:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        # strict UTF-8 as for a file; the locale's text stdin may escape bad bytes instead
        raw = getattr(sys.stdin, "buffer", None)
        text = raw.read().decode("utf-8") if raw else sys.stdin.read()
    try:
        data = json.loads(text)
    except RecursionError:
        raise MalformedInput("JSON input is nested too deeply") from None
    if not isinstance(data, dict):
        raise MalformedInput("top level JSON value must be an object")
    return data


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def _analysis_block(x) -> dict:
    """Degree, type and royal nodes of a TetraRational."""
    from . import tetrafun

    deg, tk = tetrafun.degree(x), tetrafun.type_nk(x)
    if tk.royal_variety_flag:
        return {"degree": deg, "type": "royal-variety", "royal_nodes": []}
    return {"degree": deg, "type": [tk.n, tk.k],
            "royal_nodes": [{"location": encode_complex(nd.location),
                             "multiplicity": nd.multiplicity, "on_circle": nd.on_circle}
                            for nd in tetrafun.royal_nodes(x)]}


def cmd_classify(data, args):
    from . import boundary

    if {"x1", "x2", "x3"} <= set(data):
        pt = boundary.TetraPoint(*(decode_complex(data[key], key) for key in ("x1", "x2", "x3")))
        region = boundary.classify_tetra(pt, args.tol)
        defect = boundary.tetra_defect(pt)
    elif {"s", "p"} <= set(data):
        gp = boundary.GammaPoint(decode_complex(data["s"], "s"), decode_complex(data["p"], "p"))
        region = boundary.classify_gamma(gp, args.tol)
        defect = boundary.gamma_defect(gp)
    else:
        raise MalformedInput("expected fields x1/x2/x3 or s/p")
    if not math.isfinite(defect):
        raise NonFiniteCoefficient(f"membership defect {defect} is not finite")
    if args.format == "csv":
        return f"region,defect\n{region.value},{float(defect):.12g}"
    return {"region": region.value, "defect": float(defect)}


def cmd_construct(data, args):
    from . import tetrafun
    from .construct import ConstructionSpec, construct

    for key in ("alpha1", "alpha2", "sigma", "t_plus", "t"):
        if key not in data:
            raise MalformedInput(f"missing field {key!r}")
    spec = ConstructionSpec(
        alpha1=decode_complex_list(data["alpha1"], "alpha1"),
        alpha2=decode_complex_list(data["alpha2"], "alpha2"),
        sigma=decode_complex_list(data["sigma"], "sigma"),
        t_plus=decode_real(data["t_plus"], "t_plus"),
        t=decode_complex(data["t"], "t"),
        omega=decode_complex(data.get("omega", 1.0), "omega"),
    )
    x = construct(spec)
    return {"function": tetrafun.to_json_dict(x), "analysis": _analysis_block(x)}


def cmd_verify(data, args):
    from . import boundary, tetrafun

    checks, x = tetrafun._validated(*tetrafun.decode_function_fields(data))
    by_code = {c.code: c for c in checks}
    conditions = [{"condition": label, "passed": by_code[code].passed,
                   "detail": by_code[code].detail} for code, label in _CONDITIONS]
    report = {"valid": x is not None, "conditions": conditions}
    if x is not None:
        # validation's function: x/f where a common circle factor f was divided out,
        # else the given parts, d and e1 as validation sampled them (e2 too, unless it
        # was e1's exact mirror)
        e1, e2, d, n = x.e1, x.e2, x.d, x.n
        dv, e1v, e2v = d.abs_on_circle, e1.abs_on_circle, e2.abs_on_circle
        royal = tetrafun.royal_polynomial(x)
        shifted = circle_power(-n) * royal.on_circle
        sym_dev = coeff_distance(royal, royal.reflect(2 * n))
        inside_ok = all(boundary.classify_tetra(pt, INSIDE_DISC_TOL)
                        is not boundary.TetraRegion.OUTSIDE
                        for pt in tetrafun._points(*x._on_rings))
        # on the circle x1 - conj(x2) x3 = (e1 - lam^n conj(e2)) / d
        defect = np.abs(e1.on_circle - circle_power(n) * e2.on_circle.conj())
        report["invariants"] = {
            "modulus_equality_max_dev": float(np.max(np.abs(e1v - e2v))),
            "royal_balance_max_dev": float(np.max(np.abs(shifted - (dv ** 2 - e1v ** 2)))),
            "royal_symmetry_dev": float(sym_dev),
            "royal_min_on_circle": float(np.min(np.real(shifted))),
            "disc_image_in_closure": bool(inside_ok),
            "degree": tetrafun.degree(x),
            "circle_defect_max": float(np.max(defect / dv)),
            "winding_number": tetrafun.winding_number(x),
        }
    return report


def cmd_analyze(data, args):
    from . import tetrafun

    return _analysis_block(tetrafun.from_json_dict(data))


def cmd_trace(data, args):
    from . import tetrafun

    x = tetrafun.from_json_dict(data)
    trace = tetrafun.circle_trace(x, args.samples)
    thetas = (2.0 * np.pi * np.arange(args.samples) / args.samples).tolist()
    if args.format == "json":
        return [{"theta": theta, "x1": encode_complex(pt.x1), "x2": encode_complex(pt.x2),
                 "x3": encode_complex(pt.x3), "defect": defect}
                for theta, (_, pt, defect) in zip(thetas, trace)]
    rows = ["theta,x1_re,x1_im,x2_re,x2_im,x3_re,x3_im,defect"]
    for theta, (_, pt, defect) in zip(thetas, trace):
        parts = [theta] + [v for z in (pt.x1, pt.x2, pt.x3) for v in (z.real, z.imag)]
        rows.append(",".join(f"{v:.12g}" for v in parts) + f",{defect:.6g}")
    return "\n".join(rows)


def cmd_perturb(data, args):
    from . import extremal, tetrafun

    x = tetrafun.from_json_dict(data)
    result = extremal.perturb_nonextreme(x)
    err = max(
        coeff_distance((result.x_plus.e1 + result.x_minus.e1).scale(0.5), x.e1),
        coeff_distance((result.x_plus.e2 + result.x_minus.e2).scale(0.5), x.e2),
    )
    payload = {
        "method": result.method.value,
        "t": float(result.t_used),
        "x_plus": tetrafun.to_json_dict(result.x_plus),
        "x_minus": tetrafun.to_json_dict(result.x_minus),
        "midpoint_max_coeff_error": float(err),
    }
    if result.note:
        payload["note"] = result.note
    return payload


# add_argument spec of each tuning flag; every command also takes input and --out
_FLAGS = {
    "--tol": dict(type=float, default=polycx.DEFAULT_MEMBERSHIP_TOL,
                  help="membership tolerance"),
    "--samples": dict(type=int, default=polycx.TRACE_SAMPLES),
    "--format": dict(choices=("json", "csv")),
}

# command: handler, the tuning flags it reads, its --format default
_COMMANDS = {
    "classify": (cmd_classify, ("--tol", "--format"), "json"),
    "construct": (cmd_construct, (), None),
    "verify": (cmd_verify, (), None),
    "analyze": (cmd_analyze, (), None),
    "trace": (cmd_trace, ("--samples", "--format"), "csv"),
    "perturb": (cmd_perturb, (), None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrainner",
        description="Construct, validate and analyze rational tetra-inner functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags, fmt) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", help="input JSON file; stdin when omitted")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=None)
        p.set_defaults(handler=handler, format=fmt)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    tol = getattr(args, "tol", 1.0)
    if tol <= 0:
        return _fail("tolerances must be positive", EXIT_PRECONDITION)
    if not math.isfinite(tol):
        return _fail("tolerances must be finite", EXIT_PRECONDITION)
    try:
        data = _load_payload(args)
        # a non-finite result raises a typed error, so numpy's warnings would only add noise
        with np.errstate(all="ignore"):
            output = args.handler(data, args)
        text = output if isinstance(output, str) else json.dumps(output, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return EXIT_OK
    # UnicodeDecodeError is a ValueError, so it must be caught before the precondition clause
    except (MalformedInput, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    except TetraError as exc:
        return _fail(f"{type(exc).__name__}: {exc}", exc.cli_exit_code)
    except ValueError as exc:
        return _fail(str(exc), EXIT_PRECONDITION)


def main_entry():
    # the start-up heap (interpreter, numpy, base modules) lives until exit; frozen,
    # it is skipped by later collections, shutdown's full passes among them
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk behind output still buffered
        code = _fail(str(exc), EXIT_PARSE)
        # as the Python docs advise for SIGPIPE, so that shutdown's flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
