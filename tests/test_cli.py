import argparse
import errno
import gc
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tetrainner
from helpers import NAN_EIGENVALUE_D, SCHUR_COHN_OVERFLOW_D, count_solves, random_construction_spec
from tetrainner import cli, errors
from tetrainner.cli import (EXIT_NUMERICAL, EXIT_PARSE, EXIT_PRECONDITION, _build_parser, main,
                            main_entry)
from tetrainner.polycx import CIRCLE_TOL

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


def _fresh_env():
    """Environment of a fresh interpreter that imports this package, stdout buffered."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(tetrainner.__file__).parents[1])}


@pytest.fixture
def freeze_calls(monkeypatch):
    """gc.freeze as a recorder, so that main_entry leaves the test process's heap alone."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
    return calls


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
    ({"t_plus": 1e-13}, EXIT_NUMERICAL),        # the royal polynomial drifts from the target
    ({"t_plus": 1e-15}, EXIT_NUMERICAL),
    ({"t": [1e-15, 0.0]}, 0),                   # a tiny e1 is kept: its nodes match sigma
])
def test_construct_tiny_scales_are_right_or_loud(tmp_path, capsys, scale, exit_code):
    spec = {"alpha1": [[0.3, 0.0]], "alpha2": [], "sigma": [[0.5, 0.0]],
            "t_plus": 1.0, "t": [1.0, 0.0], **scale}
    code, out = _run(capsys, ["construct", _write(tmp_path, "spec.json", spec)])
    assert code == exit_code and (out == "") == (code != 0)
    if code == 0:
        result = json.loads(out)
        (node,) = result["analysis"]["royal_nodes"]
        assert abs(complex(*node["location"]) - 0.5) <= CIRCLE_TOL
        code, out = _run(capsys, ["verify", _write(tmp_path, "func.json", result["function"])])
        assert code == 0 and json.loads(out)["valid"]


def test_construct_with_royal_nodes_off_its_spec_exits_4(tmp_path, capsys):
    # n = 16, k = 8: one royal node of the constructed function lies 1.23e-5 off its sigma
    spec = random_construction_spec(np.random.default_rng(79), 16, k_circle=8)
    payload = {name: [[z.real, z.imag] for z in getattr(spec, name)]
               for name in ("alpha1", "alpha2", "sigma")}
    payload |= {"t_plus": spec.t_plus, "t": [spec.t.real, spec.t.imag],
                "omega": [spec.omega.real, spec.omega.imag]}
    code = main(["construct", _write(tmp_path, "spec.json", payload)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL and captured.out == ""
    assert captured.err == ("error: ConstructionInconsistent: a royal node lies 1.229e-05 "
                            "from its spec node, above CIRCLE_TOL\n")


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


def test_verify_imports_no_numpy_random(tmp_path, capsys):
    # the test process has numpy.random loaded already, so a fresh interpreter runs verify
    main(["construct", _write(tmp_path, "spec.json", WORKED_SPEC)])
    func_path = _write(tmp_path, "func.json", json.loads(capsys.readouterr().out)["function"])
    probe = ("import sys\n"
             "from tetrainner import cli\n"
             "code = cli.main(['verify', sys.argv[1]])\n"
             "print(code, 'numpy.random' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe, func_path], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    *report, last = done.stdout.splitlines()
    assert done.returncode == 0 and last == "0 False", done.stderr
    assert json.loads("\n".join(report))["invariants"]["disc_image_in_closure"] is True


# the package modules each command loads in a fresh interpreter, beyond
# tetrainner, its base layer (errors, polycx), cli and boundary
COMMAND_MODULES = {
    "classify": set(),
    "construct": {"construct", "fejriesz", "tetrafun"},
    "verify": {"tetrafun"},
    "analyze": {"tetrafun"},
    "trace": {"tetrafun"},
    "perturb": {"extremal", "tetrafun"},
}


def _command_input(tmp_path, capsys, command):
    """Input file of a command of COMMAND_MODULES: a point, WORKED_SPEC or its function."""
    if command == "classify":
        return _write(tmp_path, "pt.json", {"x1": 0.5, "x2": 0, "x3": 0})
    spec_path = _write(tmp_path, "spec.json", WORKED_SPEC)
    if command == "construct":
        return spec_path
    main(["construct", spec_path])
    return _write(tmp_path, "func.json", json.loads(capsys.readouterr().out)["function"])


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_imports_only_the_modules_it_runs(tmp_path, capsys, command):
    path = _command_input(tmp_path, capsys, command)
    probe = ("import sys\n"
             "from tetrainner import cli\n"
             "code = cli.main([sys.argv[1], sys.argv[2], '--out', sys.argv[3]])\n"
             "print(code, *sorted(m for m in sys.modules if m.startswith('tetrainner.')))\n")
    done = subprocess.run([sys.executable, "-c", probe, command, path, str(tmp_path / "out")],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    base = {"boundary", "cli", "errors", "polycx"}
    assert done.stdout.split() == ["0"] + [f"tetrainner.{m}" for m in
                                           sorted(base | COMMAND_MODULES[command])], done.stderr


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_handler_returns_what_main_prints(tmp_path, capsys, command):
    # handlers map the decoded input to a CSV string or an object; main alone writes
    path = _command_input(tmp_path, capsys, command)
    code, out = _run(capsys, [command, path])
    args = _build_parser().parse_args([command, path])
    output = args.handler(json.loads(Path(path).read_text(encoding="utf-8")), args)
    if not isinstance(output, str):
        output = json.dumps(output, indent=2, sort_keys=True)
    assert code == 0 and out == output + "\n"


def test_verify_invalid_function_reports(tmp_path, capsys):
    path = _write(tmp_path, "bad.json",
                  {"n": 1, "E1": [[3.0, 0.0]], "E2": [[0.0, 0.0], [1.0, 0.0]],
                   "D": [[1.0, 0.0]]})
    code, out = _run(capsys, ["verify", path])
    assert code == 0
    report = json.loads(out)
    assert not report["valid"]


def test_verify_reports_a_negative_modulus_margin(tmp_path, capsys):
    # x = (0.5, 0.5 lam, lam): the numerators stay 0.5 below |d| = 1
    path = _write(tmp_path, "half.json",
                  {"n": 1, "E1": [[0.5, 0.0]], "E2": [[0.0, 0.0], [0.5, 0.0]],
                   "D": [[1.0, 0.0]]})
    code, out = _run(capsys, ["verify", path])
    check = next(c for c in json.loads(out)["conditions"]
                 if c["condition"] == "modulus domination")
    assert code == 0 and check == {"condition": "modulus domination", "passed": True,
                                   "detail": "max(|e_i| - |d|) on the circle: -5.000e-01"}


def test_verify_rejects_a_small_triple_outside_the_tetrablock(tmp_path, capsys):
    # (1e-12, 1e-12, 1e-13) is x = (10, 10, 1): |e_i| exceeds |d| tenfold
    path = _write(tmp_path, "small.json",
                  {"n": 0, "E1": [[1e-12, 0.0]], "E2": [[1e-12, 0.0]], "D": [[1e-13, 0.0]]})
    code, out = _run(capsys, ["verify", path])
    report = json.loads(out)
    check = next(c for c in report["conditions"] if c["condition"] == "modulus domination")
    assert code == 0 and not report["valid"] and not check["passed"]


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


def test_perturb_notes_degenerate_zero_components(tmp_path, capsys):
    path = _write(tmp_path, "func.json", {"n": 1, "E1": [], "E2": [], "D": [[1.0, 0.0]]})
    code, out = _run(capsys, ["perturb", path])
    payload = json.loads(out)
    assert code == 0 and payload["method"] == "EpsilonScaling" and payload["t"] == 1.0
    assert payload["note"] == "DegenerateZeroComponents"


def test_module_entry_point_exits_with_the_command_code(tmp_path, capsys, monkeypatch,
                                                        freeze_calls):
    path = _write(tmp_path, "pt.json", {"s": [1, 0], "p": [0, 0]})
    monkeypatch.setattr(sys, "argv", ["tetrainner", "classify", path])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("tetrainner", run_name="__main__")
    assert exc.value.code == 0 and len(freeze_calls) == 1
    assert json.loads(capsys.readouterr().out)["region"] == "GammaBoundaryTop"


# running an imported module as __main__ re-executes it; the warning says so
@pytest.mark.filterwarnings("ignore:'tetrainner.cli' found in sys.modules:RuntimeWarning")
def test_cli_module_run_as_a_script_exits_with_the_command_code(capsys, monkeypatch,
                                                               freeze_calls):
    import io

    monkeypatch.setattr(sys, "argv", ["tetrainner.cli", "classify"])
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("tetrainner.cli", run_name="__main__")
    assert exc.value.code == EXIT_PARSE and len(freeze_calls) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_process_entry_freezes_the_heap_and_prints_what_main_prints(tmp_path, capsys,
                                                                    command):
    path = _command_input(tmp_path, capsys, command)
    code = main([command, path])
    out = capsys.readouterr().out.encode()
    probe = ("import gc, runpy, sys\n"
             "sys.argv = ['tetrainner', *sys.argv[1:]]\n"
             "try:\n"
             "    runpy.run_module('tetrainner', run_name='__main__')\n"
             "except SystemExit as exc:\n"
             "    sys.stderr.write(f'{exc.code} {gc.get_freeze_count() > 0}\\n')\n")
    done = subprocess.run([sys.executable, "-c", probe, command, path], env=_fresh_env(),
                          capture_output=True, timeout=120)
    assert done.stderr.decode() == f"{code} True\n"
    assert done.stdout == out


def test_main_called_from_python_freezes_nothing(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    code, _ = _run(capsys, ["classify", _command_input(tmp_path, capsys, "classify")])
    assert code == 0 and gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv, payload", [
    (["classify"], {"x1": 0.5, "x2": 0, "x3": 0}),                 # held in stdout's buffer
    (["trace", "--samples", "4096"], ROYAL_VARIETY_FUNCTION),       # fails inside main
], ids=["classify", "trace"])
def test_closed_stdout_pipe_exits_2_with_one_error_line(tmp_path, argv, payload):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "tetrainner", *argv,
                               _write(tmp_path, "in.json", payload)],
                              stdout=write_end, stderr=subprocess.PIPE, env=_fresh_env(),
                              timeout=120)
    finally:
        os.close(write_end)
    lines = done.stderr.decode().splitlines()
    assert done.returncode == EXIT_PARSE
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


class _UnflushableStdout:
    """A stdout whose buffered output can no longer be written, on its own descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self):
        return self.fd


def test_entry_reports_a_failed_final_flush_and_sends_stdout_to_devnull(tmp_path, capsys,
                                                                        monkeypatch,
                                                                        freeze_calls):
    path = _write(tmp_path, "pt.json", {"x1": 0.5, "x2": 0, "x3": 0})
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "argv", ["tetrainner", "classify", path])
    monkeypatch.setattr(sys, "stdout", _UnflushableStdout(fd))
    try:
        with pytest.raises(SystemExit) as exc:
            main_entry()
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert exc.value.code == EXIT_PARSE and len(freeze_calls) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] Broken pipe\n"


def test_reads_stdin_when_no_file(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"x1": [0, 0], "x2": [0, 0], "x3": [0, 0]})))
    code, out = _run(capsys, ["classify"])
    assert code == 0
    assert json.loads(out)["region"] == "Interior"


def test_deeply_nested_input_exits_2_with_one_error_line(capsys, monkeypatch):
    import io

    # json's decoder raises RecursionError past the interpreter's recursion limit
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 10_000))
    assert main(["analyze"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: JSON input is nested too deeply\n"


@pytest.mark.parametrize("raw", [b"\xff\xfe{}",
                                 b'{"x1": [0, 0], "x2": [0, 0], "x3": [0, 0], "note": "\xff"}'])
@pytest.mark.parametrize("errors", [None, "strict", "surrogateescape"])
def test_payload_that_is_not_utf8_exits_2(tmp_path, capsys, monkeypatch, raw, errors):
    import io

    if errors is None:      # a file argument
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        argv = ["classify", str(path)]
    else:                   # stdin, decoded as the locale says
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                                          errors=errors))
        argv = ["classify"]
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert captured.err.count("\n") == 1


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
    # the angles are the loop 2 pi j / samples bit for bit
    code, out = _run(capsys, ["trace", path, "--samples", "100", "--format", "json"])
    assert [row["theta"] for row in json.loads(out)] == [2.0 * np.pi * j / 100 for j in range(100)]


def test_csv_rejected_for_nested_commands(tmp_path, capsys):
    path = _write(tmp_path, "func.json", ROYAL_VARIETY_FUNCTION)
    code, _ = _run(capsys, ["analyze", path, "--format", "csv"])
    assert code == 2


def test_trace_circle_zero_exits_0(tmp_path, capsys):
    # (0, 0, lam - 1): validation divides out the common factor i (lam - 1),
    # which leaves the constant function (0, 0, -1)
    func = {"n": 1, "E1": [], "E2": [], "D": [[-1.0, 0.0], [1.0, 0.0]]}
    path = _write(tmp_path, "func.json", func)
    code, out = _run(capsys, ["trace", path, "--samples", "256"])
    assert code == 0
    rows = [[float(v) for v in row.split(",")] for row in out.splitlines()[1:]]
    assert len(rows) == 256
    for row in rows:
        assert row[1:5] == [0, 0, 0, 0] and row[7] == 0 and abs(complex(*row[5:7]) + 1) < 1e-15


def test_verify_circle_zero_reports_the_divided_function(tmp_path, capsys):
    # (0, 0, lam - 1) and (0, 0, 1 + lam): verify reads the constant function that
    # validation returned, so the boundary defect is defined
    for d in ([[-1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]):
        path = _write(tmp_path, "func.json", {"n": 1, "E1": [], "E2": [], "D": d})
        code, out = _run(capsys, ["verify", path])
        report = json.loads(out)
        assert code == 0 and report["valid"]
        invariants = report["invariants"]
        assert invariants["circle_defect_max"] == 0.0
        assert invariants["degree"] == invariants["winding_number"] == 0


@pytest.mark.parametrize("d", [5e-14, 1e-15])
def test_a_small_constant_d_is_no_pole(tmp_path, capsys, d):
    # (0, 0, d) at n = 0 is the constant (0, 0, 1): d is zero-free, however small,
    # and no coefficient is too small to keep
    path = _write(tmp_path, "func.json", {"n": 0, "E1": [], "E2": [], "D": [d]})
    code, out = _run(capsys, ["verify", path])
    assert code == 0 and json.loads(out)["valid"]
    code, out = _run(capsys, ["analyze", path])
    report = json.loads(out)
    assert code == 0 and report["degree"] == 0 and report["royal_nodes"] == []
    code, out = _run(capsys, ["trace", path])
    rows = [[float(v) for v in row.split(",")] for row in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 256
    assert all(row[1:8] == [0, 0, 0, 0, 1, 0, 0] for row in rows)


def test_verify_circle_defect_is_the_trace_defect_on_the_validation_grid(tmp_path, capsys):
    # e2 is e1's reflection plus a perturbation just inside AGREE_TOL, so the
    # defect stands well above rounding noise
    from tetrainner.construct import ConstructionSpec, construct
    from tetrainner.polycx import AGREE_TOL, CIRCLE_SAMPLES, Polynomial, unit_circle
    from tetrainner.tetrafun import TetraRational, _eval_grid, to_json_dict

    x = construct(ConstructionSpec(alpha1=(0.3, 0.1 + 0.4j), alpha2=(-0.2j, 0.5),
                                   sigma=(np.exp(0.7j), np.exp(2.5j), 0.2, -0.4j),
                                   t_plus=1.0, t=0.8))
    bound = AGREE_TOL * max(x.e1.max_coeff(), x.e2.max_coeff())
    bump = 0.9 * bound * np.exp(1j * np.arange(x.n + 1))
    e2 = x.e2 + Polynomial(bump)
    func = dict(to_json_dict(x), E2=[[c.real, c.imag] for c in e2.coeffs.tolist()])
    code, out = _run(capsys, ["verify", _write(tmp_path, "func.json", func)])
    report = json.loads(out)
    assert code == 0 and report["valid"]
    x1, x2, x3 = _eval_grid(TetraRational(x.e1, e2, x.d, x.n), unit_circle(CIRCLE_SAMPLES))
    expected = float(np.max(np.abs(x1 - x2.conjugate() * x3)))
    assert expected > 1e-10     # a hundred times the comparison tolerance
    assert abs(report["invariants"]["circle_defect_max"] - expected) <= 1e-12


def test_verify_circle_zero_counts_the_winding(tmp_path, capsys):
    # d = 1 - lam: its circle zero cancels against the reflection
    func = {"n": 1, "E1": [], "E2": [], "D": [[1.0, 0.0], [-1.0, 0.0]]}
    code, out = _run(capsys, ["verify", _write(tmp_path, "func.json", func)])
    invariants = json.loads(out)["invariants"]
    assert code == 0 and invariants["winding_number"] == invariants["degree"] == 0


def test_analyze_cancels_a_common_circle_factor(tmp_path, capsys):
    # (0, 0, 1 + lam) is the constant (0, 0, 1): the double root -1 of its
    # royal polynomial is the factor 1 + lam common to the three components
    func = {"n": 1, "E1": [], "E2": [], "D": [1, 1]}
    code, out = _run(capsys, ["analyze", _write(tmp_path, "func.json", func)])
    assert code == 0
    assert json.loads(out) == {"degree": 0, "type": [0, 0], "royal_nodes": []}


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
    # d and e1 on the circle once for validation and the invariants (e2, the
    # exact mirror of e1, is read as e1 there), e2 for the modulus-equality
    # invariant, and the royal polynomial
    code, out = _run(capsys, ["construct", _write(tmp_path, "spec.json", spec)])
    assert code == 0
    func_path = _write(tmp_path, "func.json", json.loads(out)["function"])
    calls, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *args, **kw: calls.append(1) or ifft(*args, **kw))
    code, out = _run(capsys, ["verify", func_path])
    assert code == 0 and json.loads(out)["valid"]
    assert len(calls) == 4


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
    # the disc check is a Schur-Cohn test and degree is n when d passes the
    # closed-disc one, so analyze solves the royal polynomial (degree 2n) and
    # verify nothing
    spec = {"alpha1": [[0.3, 0.1]], "alpha2": [[-0.2, 0.4]], "sigma": [[0.5, 0.0], [0.0, 1.0]],
            "t_plus": 1.0, "t": [0.8, 0.0]}
    code, out = _run(capsys, ["construct", _write(tmp_path, "spec.json", spec)])
    assert code == 0
    func_path = _write(tmp_path, "func.json", json.loads(out)["function"])
    calls = count_solves(monkeypatch)
    for argv, degrees in ((["analyze"], [4]), (["verify"], [])):
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


@pytest.mark.parametrize("command, payload, message", [
    ("classify", [0, 0, 0], "top level JSON value must be an object"),
    ("classify", {"x1": 0, "x2": 0, "p": 0}, "expected fields x1/x2/x3 or s/p"),
    ("construct", {k: v for k, v in WORKED_SPEC.items() if k != "t"}, "missing field 't'"),
])
def test_malformed_payload_shape_exits_2(tmp_path, capsys, command, payload, message):
    path = _write(tmp_path, "payload.json", payload)
    assert main([command, path]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_construct_above_the_degree_cap_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "spec.json", dict(WORKED_SPEC, sigma=[[0.0, 0.0]] * 4097))
    assert main(["construct", path]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: InvalidConstructionSpec: n = 4097 above "
                            "CIRCLE_SAMPLES = 4096\n")


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_construct_overflow_exits_4_naming_the_non_finite_coefficient(tmp_path, capsys):
    # |E1|^2 overflows; the check used to fail reporting a zero deviation
    path = _write(tmp_path, "spec.json", dict(WORKED_SPEC, t=1e300))
    assert main(["construct", path]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: NonFiniteCoefficient: TrigPolynomial coefficient "
                            "(inf+0j) is not finite\n")


@pytest.mark.filterwarnings("error")
def test_construct_overflow_writes_only_its_error_line(tmp_path, capsys):
    # numpy's RuntimeWarning for the overflow used to precede the error line
    path = _write(tmp_path, "spec.json", dict(WORKED_SPEC, t=[1e300, 0]))
    assert main(["construct", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: NonFiniteCoefficient: ") and err.count("\n") == 1


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


# finite coordinates whose defect overflows: abs() or ** raises, or the sum is infinite
@pytest.mark.parametrize("payload", [
    {"x1": [1e308, 1e308], "x2": [1e308, -1e308], "x3": [1e308, 1e308]},
    {"s": [1e308, 1e308], "p": [1e308, 1e308]},
    {"x1": [1e308, 0], "x2": [-1e308, 0], "x3": 0},
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_overflowing_defect_exits_4_with_one_error_line(tmp_path, capsys, payload, fmt):
    path = _write(tmp_path, "pt.json", payload)
    assert main(["classify", path, "--format", fmt]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NonFiniteCoefficient: ")
    assert captured.err.count("\n") == 1


# finite inputs whose moduli pass the largest float in the root layer: a
# coefficient, the monic normalization's parts, and its modulus
@pytest.mark.parametrize("payload", [
    {"n": 0, "E1": [], "E2": [], "D": [[1.5e308, 1.5e308]]},
    {"n": 2, "E1": [], "E2": [], "D": [1, 1e300, 1e-10]},
    {"n": 8, "E1": [], "E2": [], "D": NAN_EIGENVALUE_D},
])
@pytest.mark.parametrize("command", ["verify", "analyze", "trace", "perturb"])
def test_function_with_an_overflowing_modulus_exits_4_with_one_error_line(tmp_path, capsys,
                                                                          payload, command):
    assert main([command, _write(tmp_path, "func.json", payload)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NonFiniteCoefficient: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("spec", [
    dict(WORKED_SPEC, t=[1.5e308, 1.5e308]),
    # the node analysis solves a royal polynomial of end coefficients 3e-11 and
    # middle ones 1.2e300, whose monic normalization overflows
    {"alpha1": [[-0.5982229375882225, 0.08185841020140175]],
     "alpha2": [[-0.15586950056955345, 0.13904116901904226]],
     "sigma": [[5.3373859949389545e-301, 2.586178391343202e-301],
               [0.34046609134867156, 0.34197397977472427]],
     "t_plus": 1e300, "t": [1.5707046043724853e-05, 0]},
])
def test_construct_with_an_overflowing_modulus_exits_4_with_one_error_line(tmp_path, capsys,
                                                                           spec):
    assert main(["construct", _write(tmp_path, "spec.json", spec)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NonFiniteCoefficient: ")
    assert captured.err.count("\n") == 1


def test_d_whose_schur_cohn_coefficient_overflows_vanishes_in_the_disc(tmp_path, capsys):
    path = _write(tmp_path, "func.json", {"n": 2, "E1": [], "E2": [], "D": SCHUR_COHN_OVERFLOW_D})
    code, out = _run(capsys, ["verify", path])
    conditions = {c["condition"]: c for c in json.loads(out)["conditions"]}
    assert code == 0 and not json.loads(out)["valid"]
    assert not conditions["denominator nonvanishing"]["passed"]
    for command in ("analyze", "trace", "perturb"):
        assert main([command, path]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ValidationError: DVanishesInDisc")
        assert captured.err.count("\n") == 1


def test_a_handler_that_raises_type_error_is_not_a_parse_error(tmp_path, monkeypatch):
    # a TypeError or KeyError is a library fault: it escapes main rather than exit 2
    def handler(data, args):
        raise TypeError("a library fault")

    monkeypatch.setitem(cli._COMMANDS, "analyze", (handler, (), None))
    with pytest.raises(TypeError, match="a library fault"):
        main(["analyze", _write(tmp_path, "func.json", ROYAL_VARIETY_FUNCTION)])


# -- option surface: each command offers only the tuning flags it reads ---------

COMMAND_FLAGS = {
    "classify": {"--tol", "--format"},
    "construct": set(),
    "verify": set(),
    "analyze": set(),
    "trace": {"--samples", "--format"},
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
    (["trace", "--samples", "4097"], EXIT_PRECONDITION,
     "error: samples must be at most CIRCLE_SAMPLES = 4096\n"),
    (["trace", "--samples", "1000000000000"], EXIT_PRECONDITION,
     "error: samples must be at most CIRCLE_SAMPLES = 4096\n"),
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
