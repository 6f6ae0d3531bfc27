import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tetrainner import errors
from tetrainner.cli import EXIT_NUMERICAL, EXIT_PARSE, EXIT_PRECONDITION, _build_parser, main

SQ2 = np.sqrt(2.0)

WORKED_SPEC = {
    "alpha1": [],
    "alpha2": [[0.5, 0.0]],
    "sigma": [[0.0, 0.0]],
    "t_plus": 1.75,
    "t": [SQ2, 0.0],
    "omega": [1.0, 0.0],
}

ROYAL_VARIETY_FUNCTION = {
    "n": 1,
    "E1": [[1.0, 0.0]],
    "E2": [[0.0, 0.0], [1.0, 0.0]],
    "D": [[1.0, 0.0]],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_classify_interior_point(tmp_path, capsys):
    path = _write(tmp_path, "pt.json", {"x1": [0, 0], "x2": [0, 0], "x3": [0, 0]})
    code, out = _run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["region"] == "Interior"


def test_classify_distinguished_point(tmp_path, capsys):
    path = _write(tmp_path, "pt.json", {"x1": [0, 1], "x2": [1, 0], "x3": [0, 1]})
    code, out = _run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["region"] == "DistinguishedBoundary"


def test_classify_gamma_point(tmp_path, capsys):
    path = _write(tmp_path, "pt.json", {"s": [2, 0], "p": [1, 0]})
    code, out = _run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["region"] == "GammaDistinguished"


def test_classify_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = _run(capsys, ["classify", str(path)])
    assert code == 2


def test_construct_worked_example(tmp_path, capsys):
    path = _write(tmp_path, "spec.json", WORKED_SPEC)
    code, out = _run(capsys, ["construct", path])
    assert code == 0
    payload = json.loads(out)
    d = payload["function"]["D"]
    assert abs(d[0][0] - 2.0) < 1e-8 and abs(d[1][0] + 0.5) < 1e-8
    assert payload["analysis"]["degree"] == 1
    assert payload["analysis"]["type"] == [1, 0]


def test_construct_degenerate_constant(tmp_path, capsys):
    path = _write(tmp_path, "spec.json",
                  {"alpha1": [], "alpha2": [], "sigma": [], "t_plus": 1.0, "t": [1, 0]})
    code, out = _run(capsys, ["construct", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["analysis"]["degree"] == 0
    assert payload["analysis"]["type"] == [0, 0]
    assert payload["analysis"]["royal_nodes"] == []


def test_construct_collision_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "spec.json",
                  {"alpha1": [[1.0, 0.0]], "alpha2": [], "sigma": [[1.0, 0.0]],
                   "t_plus": 1.0, "t": [1, 0]})
    code, _ = _run(capsys, ["construct", path])
    assert code == 3


@pytest.mark.parametrize("scale, exit_code", [
    ({"t_plus": 1e-13}, EXIT_NUMERICAL),        # the function lies on the royal variety
    ({"t": [1e-15, 0.0]}, EXIT_PRECONDITION),   # e1 trims to zero
])
def test_construct_tiny_scales_fail_loudly(tmp_path, capsys, scale, exit_code):
    spec = {"alpha1": [[0.3, 0.0]], "alpha2": [], "sigma": [[0.5, 0.0]],
            "t_plus": 1.0, "t": [1.0, 0.0], **scale}
    code, out = _run(capsys, ["construct", _write(tmp_path, "spec.json", spec)])
    assert code == exit_code and out == ""


def test_verify_worked_function(tmp_path, capsys):
    spec_path = _write(tmp_path, "spec.json", WORKED_SPEC)
    code, out = _run(capsys, ["construct", spec_path])
    func = json.loads(out)["function"]
    func_path = _write(tmp_path, "func.json", func)
    code, out = _run(capsys, ["verify", func_path])
    assert code == 0
    report = json.loads(out)
    assert report["valid"]
    assert len(report["conditions"]) == 4
    assert all(c["passed"] for c in report["conditions"])
    assert report["invariants"]["winding_number"] == 1


def test_verify_invalid_function_reports(tmp_path, capsys):
    path = _write(tmp_path, "bad.json",
                  {"n": 1, "E1": [[3.0, 0.0]], "E2": [[0.0, 0.0], [1.0, 0.0]],
                   "D": [[1.0, 0.0]]})
    code, out = _run(capsys, ["verify", path])
    assert code == 0
    report = json.loads(out)
    assert not report["valid"]


def test_analyze_royal_variety(tmp_path, capsys):
    path = _write(tmp_path, "func.json", ROYAL_VARIETY_FUNCTION)
    code, out = _run(capsys, ["analyze", path])
    assert code == 0
    assert json.loads(out)["type"] == "royal-variety"


def test_n_above_circle_samples_fails_the_degree_bound(tmp_path, capsys):
    path = _write(tmp_path, "func.json", dict(ROYAL_VARIETY_FUNCTION, n=10 ** 6))
    assert main(["analyze", path]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("error: ValidationError: DegreeBound: ")
    code, out = _run(capsys, ["verify", path])
    report = json.loads(out)
    assert code == 0 and not report["valid"]
    assert report["conditions"][0]["condition"] == "degree bounds"
    assert not report["conditions"][0]["passed"]


def test_trace_row_count_and_defect(tmp_path, capsys):
    path = _write(tmp_path, "func.json", ROYAL_VARIETY_FUNCTION)
    code, out = _run(capsys, ["trace", path, "--samples", "256"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,x1_re,x1_im,x2_re,x2_im,x3_re,x3_im,defect"
    assert len(lines) == 257
    assert max(float(row.split(",")[-1]) for row in lines[1:]) < 1e-10


def test_perturb_scaling_route(tmp_path, capsys):
    spec_path = _write(tmp_path, "spec.json", WORKED_SPEC)
    _, out = _run(capsys, ["construct", spec_path])
    func_path = _write(tmp_path, "func.json", json.loads(out)["function"])
    code, out = _run(capsys, ["perturb", func_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "EpsilonScaling"
    assert payload["t"] > 0
    assert payload["midpoint_max_coeff_error"] < 1e-12


def test_reads_stdin_when_no_file(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"x1": [0, 0], "x2": [0, 0], "x3": [0, 0]})))
    code, out = _run(capsys, ["classify"])
    assert code == 0
    assert json.loads(out)["region"] == "Interior"


def test_output_file_flag(tmp_path, capsys):
    in_path = _write(tmp_path, "pt.json", {"x1": [0, 0], "x2": [0, 0], "x3": [0, 0]})
    out_path = tmp_path / "result.json"
    code, out = _run(capsys, ["classify", in_path, "--out", str(out_path)])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["region"] == "Interior"


def test_deterministic_output(tmp_path, capsys):
    path = _write(tmp_path, "spec.json", WORKED_SPEC)
    _, first = _run(capsys, ["construct", path])
    _, second = _run(capsys, ["construct", path])
    assert first == second


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_classify_csv_format(tmp_path, capsys):
    path = _write(tmp_path, "pt.json", {"x1": [0, 0], "x2": [0, 0], "x3": [0, 0]})
    code, out = _run(capsys, ["classify", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "region,defect"
    assert lines[1].startswith("Interior,")


def test_trace_json_format(tmp_path, capsys):
    path = _write(tmp_path, "func.json", ROYAL_VARIETY_FUNCTION)
    code, out = _run(capsys, ["trace", path, "--samples", "16", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    assert rows[0]["theta"] == 0.0


def test_csv_rejected_for_nested_commands(tmp_path, capsys):
    path = _write(tmp_path, "func.json", ROYAL_VARIETY_FUNCTION)
    code, _ = _run(capsys, ["analyze", path, "--format", "csv"])
    assert code == 2


def test_trace_pole_exits_4(tmp_path, capsys):
    # lenient function with a circle zero of D; the trace hits the pole
    func = {"n": 1, "E1": [], "E2": [], "D": [[-1.0, 0.0], [1.0, 0.0]]}
    path = _write(tmp_path, "func.json", func)
    code, _ = _run(capsys, ["trace", path, "--lenient", "--samples", "256"])
    assert code == 4


def test_verify_lenient_circle_zero_reports_null_defect(tmp_path, capsys):
    # the function of test_trace_pole_exits_4: verify reports the undefined
    # boundary trace instead of failing
    func = {"n": 1, "E1": [], "E2": [], "D": [[-1.0, 0.0], [1.0, 0.0]]}
    path = _write(tmp_path, "func.json", func)
    code, out = _run(capsys, ["verify", path, "--lenient"])
    assert code == 0
    assert '"circle_defect_max": null' in out
    assert json.loads(out)["valid"]


def test_verify_does_not_evaluate_pointwise(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("pointwise evaluation in verify")

    monkeypatch.setattr("tetrainner.tetrafun.eval_function", refuse)
    spec_path = _write(tmp_path, "spec.json", WORKED_SPEC)
    code, out = _run(capsys, ["construct", spec_path])
    func_path = _write(tmp_path, "func.json", json.loads(out)["function"])
    code, out = _run(capsys, ["verify", func_path])
    assert code == 0
    assert json.loads(out)["invariants"]["disc_image_in_closure"]


@pytest.mark.parametrize("spec", [
    WORKED_SPEC,
    {"alpha1": [[0.3, 0.0], [0.1, 0.4]], "alpha2": [[0.0, -0.2], [0.5, 0.0]],
     "sigma": [[np.cos(0.7), np.sin(0.7)], [np.cos(2.5), np.sin(2.5)], [0.2, 0.0],
               [0.0, -0.4]],
     "t_plus": 1.0, "t": [0.8, 0.0]},
], ids=["worked", "n4-k2"])
def test_verify_samples_each_polynomial_once(tmp_path, capsys, monkeypatch, spec):
    # d, e1 and e2 on the circle once for validation and the invariants, then
    # the royal polynomial and the reflection of d
    code, out = _run(capsys, ["construct", _write(tmp_path, "spec.json", spec)])
    assert code == 0
    func_path = _write(tmp_path, "func.json", json.loads(out)["function"])
    calls, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *args, **kw: calls.append(1) or ifft(*args, **kw))
    code, out = _run(capsys, ["verify", func_path])
    assert code == 0 and json.loads(out)["valid"]
    assert len(calls) == 5


def test_malformed_function_exits_2_naming_the_field(tmp_path, capsys):
    for payload, message in (
            ({}, "error: missing field 'n'\n"),
            (dict(ROYAL_VARIETY_FUNCTION, D=[[1.0, 0.0, 2.0]]),
             "error: field 'D' must be a number or an [re, im] pair\n"),
            (dict(ROYAL_VARIETY_FUNCTION, n=1.7), "error: field 'n' must be an integer\n"),
            (dict(ROYAL_VARIETY_FUNCTION, n=True), "error: field 'n' must be an integer\n"),
            (dict(ROYAL_VARIETY_FUNCTION, n="abc"), "error: field 'n' must be an integer\n")):
        path = _write(tmp_path, "func.json", payload)
        for command in ("verify", "analyze", "trace", "perturb"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == message


def test_negative_n_exits_2_naming_the_field(tmp_path, capsys):
    for d in ([[1.0, 0.0]], []):
        path = _write(tmp_path, "func.json", {"n": -2, "E1": [], "E2": [], "D": d})
        for command in ("verify", "analyze"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: field 'n' must be nonnegative\n"


def test_analyze_and_verify_solve_only_the_royal_polynomial(tmp_path, capsys, monkeypatch):
    # the disc check is a Schur-Cohn test and a strict function has degree n,
    # so analyze solves the royal polynomial (degree 2n) and verify nothing;
    # in lenient mode degree reads the roots of d
    spec = {"alpha1": [[0.3, 0.1]], "alpha2": [[-0.2, 0.4]], "sigma": [[0.5, 0.0], [0.0, 1.0]],
            "t_plus": 1.0, "t": [0.8, 0.0]}
    code, out = _run(capsys, ["construct", _write(tmp_path, "spec.json", spec)])
    assert code == 0
    func_path = _write(tmp_path, "func.json", json.loads(out)["function"])
    calls, solve = [], np.roots
    monkeypatch.setattr(np, "roots", lambda a: calls.append(len(a) - 1) or solve(a))
    for argv, degrees in ((["analyze"], [4]), (["verify"], []),
                          (["analyze", "--lenient"], [2, 4]), (["verify", "--lenient"], [2])):
        calls.clear()
        code, out = _run(capsys, argv + [func_path])
        assert code == 0 and calls == degrees, argv


def test_n_given_as_integral_float_reads_as_integer(tmp_path, capsys):
    outputs = []
    for n in (1, 1.0):
        path = _write(tmp_path, "func.json", dict(ROYAL_VARIETY_FUNCTION, n=n))
        outputs.append(_run(capsys, ["analyze", path]))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("key, value, message", [
    ("t_plus", "x", "field 't_plus' must be a real number"),
    ("t_plus", True, "field 't_plus' must be a real number"),
    ("sigma", 5, "field 'sigma' must be a list of [re, im] pairs"),
    ("alpha1", "ab", "field 'alpha1' must be a list of [re, im] pairs"),
    ("alpha2", [[0.5, 0.0, 1.0]], "field 'alpha2' must be a number or an [re, im] pair"),
])
def test_malformed_spec_exits_2_naming_the_field(tmp_path, capsys, key, value, message):
    path = _write(tmp_path, "spec.json", dict(WORKED_SPEC, **{key: value}))
    assert main(["construct", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# JSON numbers that are bools, NaN, infinite or beyond the float range
@pytest.mark.parametrize("command, payload, field", [
    ("classify", {"x1": True, "x2": [False, True], "x3": 0}, "x1"),
    ("classify", {"x1": float("nan"), "x2": 0, "x3": 0}, "x1"),
    ("classify", {"x1": 10 ** 400, "x2": 0, "x3": 0}, "x1"),
    ("classify", {"s": [0, float("-inf")], "p": 0}, "s"),
    ("construct", dict(WORKED_SPEC, t_plus=float("inf")), "t_plus"),
    ("construct", dict(WORKED_SPEC, sigma=[float("nan")]), "sigma"),
    ("verify", dict(ROYAL_VARIETY_FUNCTION, E1=[float("nan"), 1]), "E1"),
    ("analyze", dict(ROYAL_VARIETY_FUNCTION, D=[[1.0, 10 ** 400]]), "D"),
])
def test_non_finite_numbers_exit_2_naming_the_field(tmp_path, capsys, command, payload, field):
    path = _write(tmp_path, "payload.json", payload)
    assert main([command, path]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: field {field!r} must be")


# -- option surface: each command offers only the tuning flags it reads ---------

COMMAND_FLAGS = {
    "classify": {"--tol", "--format"},
    "construct": set(),
    "verify": {"--lenient"},
    "analyze": {"--lenient"},
    "trace": {"--lenient", "--samples", "--format"},
    "perturb": set(),
}
# a valid value for each tuning flag, or None for a switch
FLAG_VALUES = {"--tol": "1e-9", "--circle-tol": "1e-6", "--cluster-tol": "1e-7",
               "--samples": "256", "--seed": "7", "--format": "json",
               "--strict": None, "--lenient": None}


def _flags_in(text):
    return set(re.findall(r"--[a-z][a-z-]*", text)) - {"--help", "--out"}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_help_lists_exactly_the_commands_flags(capsys, command):
    assert main([command, "--help"]) == 0
    assert _flags_in(capsys.readouterr().out) == COMMAND_FLAGS[command]


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, kept in COMMAND_FLAGS.items()
    for flag in FLAG_VALUES if flag not in kept])
def test_unoffered_flag_exits_2(tmp_path, capsys, command, flag):
    path = _write(tmp_path, "func.json", ROYAL_VARIETY_FUNCTION)
    value = FLAG_VALUES[flag]
    assert main([command, path, flag] + ([value] if value else [])) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err


@pytest.mark.parametrize("argv, code, err", [
    (["classify", "--circle-tol", "-1"], EXIT_PARSE, None),
    (["classify", "--tol", "0"], EXIT_PRECONDITION, "error: tolerances must be positive\n"),
    (["classify", "--tol", "nan"], EXIT_PRECONDITION, "error: tolerances must be finite\n"),
    (["classify", "--tol", "inf"], EXIT_PRECONDITION, "error: tolerances must be finite\n"),
    (["trace", "--samples", "8"], EXIT_PRECONDITION, "error: samples must be at least 16\n"),
    (["trace", "--samples", "15"], EXIT_PRECONDITION, "error: samples must be at least 16\n"),
])
def test_range_checks_apply_to_offered_flags(tmp_path, capsys, argv, code, err):
    path = _write(tmp_path, "func.json", ROYAL_VARIETY_FUNCTION)
    assert main(argv[:1] + [path] + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err if err else "unrecognized arguments" in captured.err


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | flags |\n| --- | --- |\n")[1].split("\n\n")[0]
    rows = [line.strip("| ").split(" | ") for line in table.splitlines()]
    documented = {command: (_flags_in(flags), (re.findall(r"default (\w+)", flags) or [None])[0])
                  for command, flags in rows}
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {command: (_flags_in(" ".join(s for a in p._actions for s in a.option_strings)),
                        p.get_default("format"))
              for command, p in sub.choices.items()}
    assert documented == parsed


def test_every_error_has_a_cli_exit_code():
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.TetraError)]
    assert errors.MalformedInput in classes
    for cls in classes:
        assert cls.cli_exit_code in (EXIT_PARSE, EXIT_PRECONDITION, EXIT_NUMERICAL), cls
