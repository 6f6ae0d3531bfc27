"""The three benchmark workloads: fixed, seed-generated item lists with output checks.

Every workload exposes the same interface:

* ``setup(seed)`` builds the item list from the seed alone and warms up;
* ``run(item)`` is the timed call into tetrainner;
* ``check(item, output, maxima)`` classifies a returned output as
  ``"pass"`` or ``"silent"`` (returned without error but wrong), and may
  record accuracy maxima;
* ``trace_run`` is what the traced run wraps (the in-process CLI for
  ``cli-batch``, ``run`` otherwise).

Library calls go through module attributes (``tetrafun.degree``, never a
name imported into this file), so the tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from tetrainner import boundary, extremal, polycx, tetrafun
from tetrainner.errors import TetraError

cli = importlib.import_module("tetrainner.cli")
cons = importlib.import_module("tetrainner.construct")

MATCH_TOL = 1e-6          # node and zero recovery, as the acceptance tests use
DEFECT_TOL = 1e-8         # distinguished-boundary defect of a circle trace
MIDPOINT_TOL = 1e-12      # midpoint error, relative to the largest coefficient
PSI_TOL = 1e-8            # psi_omega_check deviation
MEMBERSHIP_TOL = 1e-7     # region labels, as ``tetrainner verify`` uses
DISC_DIAMETER = 2.0       # match error charged for an unmatched point


@dataclass
class Item:
    index: int
    n: int
    k: int
    kind: str
    data: dict = field(default_factory=dict)
    setup_error: str | None = None


# -- input generation (mirrors the library's own test generators) --------------

def _disc_point(rng, radius):
    return complex(radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


def _circle_point(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


def _separated(rng, count, sep, existing, draw):
    placed = []
    for _ in range(50000):
        if len(placed) == count:
            return placed
        cand = draw(len(placed))
        if all(abs(cand - p) >= sep for p in existing + placed):
            placed.append(cand)
    raise RuntimeError("could not place separated points")


def random_spec(rng, n, k, sep=0.05):
    """n royal nodes (k of them on the circle) and n zeros, pairwise >= sep apart."""
    sigma = _separated(rng, n, sep, [],
                       lambda i: _circle_point(rng) if i < k else _disc_point(rng, 0.9))
    zeros = _separated(rng, n, sep, sigma, lambda i: _disc_point(rng, 0.9))
    k1 = int(rng.integers(0, n + 1))
    t_plus = float(0.5 + 1.5 * rng.random())
    t = complex((0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random()))
    omega = complex(np.exp(2j * np.pi * rng.random()))
    return cons.ConstructionSpec(alpha1=tuple(zeros[:k1]), alpha2=tuple(zeros[k1:]),
                                 sigma=tuple(sigma), t_plus=t_plus, t=t, omega=omega)


def match_error(expected, recovered) -> float:
    """Greedy one-to-one matching; max matched distance, DISC_DIAMETER if counts differ."""
    expected, recovered = list(expected), list(recovered)
    if len(expected) != len(recovered):
        return DISC_DIAMETER
    worst = 0.0
    for e in expected:
        best = min(range(len(recovered)), key=lambda i: abs(recovered[i] - e))
        worst = max(worst, abs(recovered[best] - e))
        recovered.pop(best)
    return worst


def node_locations(nodes):
    return [nd.location for nd in nodes for _ in range(nd.multiplicity)]


def validates(e1, e2, d, n) -> bool:
    return all(c.passed for c in tetrafun.validation_report(e1, e2, d, n))


def midpoint_error(x, x_plus, x_minus) -> float:
    scale = 1.0 + max(x.e1.max_coeff(), x.e2.max_coeff())
    return max(polycx.coeff_distance((x_plus.e1 + x_minus.e1).scale(0.5), x.e1),
               polycx.coeff_distance((x_plus.e2 + x_minus.e2).scale(0.5), x.e2),
               polycx.coeff_distance(x_plus.d, x.d),
               polycx.coeff_distance(x_minus.d, x.d)) / scale


def expected_method(n, k) -> str:
    if k == 0:
        return extremal.PerturbationMethod.EPSILON_SCALING.value
    return (extremal.PerturbationMethod.G_PERTURB_EVEN.value if n % 2 == 0
            else extremal.PerturbationMethod.G_PERTURB_ODD.value)


def _warm_up(run, items):
    for item in items:
        if item.setup_error is None:
            try:
                run(item)
            except TetraError:
                pass
            return


# -- pipeline-high ----------------------------------------------------------------

class PipelineHigh:
    """construct -> recover_data -> perturb_nonextreme at n in {16, 24, 32}."""

    name = "pipeline-high"
    # n = 24 is weighted three times so that the median item lies deep inside
    # one cost cluster; with equal weights it falls in the gap between n = 16
    # (plus the fast loud failures) and n = 24, and jumps from run to run.
    strata = [(n, k) for n in (16, 24, 24, 24, 32) for k in (0, n // 2)]
    rounds = 45
    block_items = 3 * len(strata)
    reference_samples = 1
    pass_seconds = 18.0

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1])
        items = []
        for _ in range(self.rounds):
            for n, k in self.strata:
                items.append(Item(len(items), n, k, "construct",
                                  {"spec": random_spec(rng, n, k)}))
        _warm_up(self.run, items)
        return items

    def run(self, item):
        x = cons.construct(item.data["spec"])
        rec = cons.recover_data(x)
        return x, rec, extremal.perturb_nonextreme(x)

    trace_run = run

    def check(self, item, output, maxima):
        spec = item.data["spec"]
        x, rec, pert = output
        node_err = match_error(spec.sigma, node_locations(rec.nodes))
        zero_err = max(match_error(spec.alpha1, rec.zeros1.expand()),
                       match_error(spec.alpha2, rec.zeros2.expand()))
        mid_err = midpoint_error(x, pert.x_plus, pert.x_minus)
        maxima["construct.node_err.max"] = max(maxima["construct.node_err.max"], node_err)
        maxima["extremal.midpoint_err.max"] = max(maxima["extremal.midpoint_err.max"], mid_err)
        ok = (node_err <= MATCH_TOL and zero_err <= MATCH_TOL
              and pert.method.value == expected_method(item.n, item.k)
              and all(validates(h.e1, h.e2, h.d, h.n) for h in (pert.x_plus, pert.x_minus))
              and mid_err <= MIDPOINT_TOL)
        return "pass" if ok else "silent"


# -- analysis-low -----------------------------------------------------------------

class AnalysisLow:
    """Read-only analysis of stored functions (JSON dicts) at n in {2, 4, 6, 8}."""

    name = "analysis-low"
    degrees = (2, 4, 6, 8)
    strata = [(n, k) for n in degrees for k in (0, n // 2)]
    rounds = 24
    superficial_per_round = 2
    trace_samples = 256
    interior_points = 32
    block_items = 8 * (len(strata) + superficial_per_round)
    reference_samples = 1
    pass_seconds = 3.0

    def setup(self, seed):
        rng = np.random.default_rng([seed, 2])
        items = []
        for r in range(self.rounds):
            for n, k in self.strata:
                items.append(self._constructed(rng, len(items), n, k))
            for j in range(self.superficial_per_round):
                m = self.degrees[(r * self.superficial_per_round + j) % len(self.degrees)]
                items.append(self._superficial(rng, len(items), m))
        _warm_up(self.run, items)
        return items

    def _interior(self, rng):
        return [_disc_point(rng, 0.9) for _ in range(self.interior_points)]

    def _constructed(self, rng, index, n, k):
        item = Item(index, n, k, "constructed", {"interior": self._interior(rng)})
        spec = random_spec(rng, n, k)
        item.data["sigma"] = spec.sigma
        try:
            item.data["json"] = tetrafun.to_json_dict(cons.construct(spec))
        except TetraError as exc:
            item.setup_error = f"{type(exc).__name__}: {exc}"
        return item

    def _superficial(self, rng, index, m):
        phase1, phase2 = np.exp(2j * np.pi * rng.random(2))
        w = 0.05 + 0.9 * rng.random()
        spec = tetrafun.SuperficialSpec(
            w * phase1, (1.0 - w) * phase2,
            tetrafun.BlaschkeSpec([_disc_point(rng, 0.8) for _ in range(m)],
                                  _circle_point(rng)))
        # every royal node of a superficial function is a double circle root
        item = Item(index, m, m, "superficial",
                    {"spec": spec, "interior": self._interior(rng)})
        try:
            item.data["json"] = tetrafun.to_json_dict(tetrafun.superficial_build(spec, m))
        except TetraError as exc:
            item.setup_error = f"{type(exc).__name__}: {exc}"
        return item

    def run(self, item):
        x = tetrafun.from_json_dict(item.data["json"])
        out = {
            "degree": tetrafun.degree(x),
            "winding": tetrafun.winding_number(x),
            "type": tetrafun.type_nk(x),
            "nodes": tetrafun.royal_nodes(x),
        }
        trace = tetrafun.circle_trace(x, self.trace_samples)
        out["defect"] = max(defect for _, _, defect in trace)
        out["trace_labels"] = {boundary.classify_tetra(pt, MEMBERSHIP_TOL) for _, pt, _ in trace}
        out["inner_labels"] = {
            boundary.classify_tetra(tetrafun.eval_function(x, lam), MEMBERSHIP_TOL)
            for lam in item.data["interior"]}
        if item.kind == "superficial":
            out["superficial"] = tetrafun.is_superficial(x)
            out["psi"] = tetrafun.psi_omega_check(x, item.data["spec"])
        return out

    trace_run = run

    def check(self, item, out, maxima):
        n, k = item.n, item.k
        tk = out["type"]
        ok = (out["degree"] == out["winding"] == n
              and (tk.n, tk.k, tk.royal_variety_flag) == (n, k, False)
              and sum(nd.multiplicity for nd in out["nodes"]) == n
              and out["defect"] <= DEFECT_TOL
              and out["trace_labels"] == {boundary.TetraRegion.DISTINGUISHED_BOUNDARY})
        if item.kind == "superficial":
            ok = (ok and out["superficial"] and out["psi"] <= PSI_TOL
                  and out["inner_labels"] == {boundary.TetraRegion.TOPOLOGICAL_BOUNDARY})
        else:
            ok = (ok and out["inner_labels"] == {boundary.TetraRegion.INTERIOR}
                  and match_error(item.data["sigma"], node_locations(out["nodes"])) <= MATCH_TOL)
        return "pass" if ok else "silent"


# -- cli-batch --------------------------------------------------------------------

def _pair(z):
    return [float(np.real(z)), float(np.imag(z))]


class CliBatch:
    """``python -m tetrainner <cmd>`` as sequential subprocesses, one client."""

    name = "cli-batch"
    commands = ("classify", "construct", "verify", "analyze", "trace", "perturb")
    distinct = 54      # each input runs twice: 108 items, so p90 has ten beyond it
    block_items = 3 * len(commands)
    # the first reference sample after a subprocess exits runs on cold caches
    reference_samples = 3
    trace_samples = 1024
    pass_seconds = 30.0
    exit_loud = (cli.EXIT_PARSE, cli.EXIT_PRECONDITION, cli.EXIT_NUMERICAL)

    def __init__(self, root, env):
        self.root = root
        self.env = env
        self.first_output = {}

    def setup(self, seed):
        rng = np.random.default_rng([seed, 3])
        inputs = []
        for j in range(self.distinct):
            cmd = self.commands[j % len(self.commands)]
            n = int(rng.integers(4, 17))
            k = 0 if (j // len(self.commands)) % 2 == 0 else n // 2
            item = Item(j, n, k, cmd, {"key": j})
            argv = [cmd] + (["--samples", str(self.trace_samples)] if cmd == "trace" else [])
            item.data["argv"] = argv
            if cmd == "classify":
                if j % 4 == 0:
                    pt, label = boundary.sample_interior(rng), boundary.TetraRegion.INTERIOR
                else:
                    pt = boundary.sample_distinguished(rng)
                    label = boundary.TetraRegion.DISTINGUISHED_BOUNDARY
                payload = {"x1": _pair(pt.x1), "x2": _pair(pt.x2), "x3": _pair(pt.x3)}
                item.data["label"] = label.value
            else:
                spec = random_spec(rng, n, k)
                item.data["sigma"] = spec.sigma
                if cmd == "construct":
                    payload = {"alpha1": [_pair(a) for a in spec.alpha1],
                               "alpha2": [_pair(a) for a in spec.alpha2],
                               "sigma": [_pair(s) for s in spec.sigma],
                               "t_plus": spec.t_plus, "t": _pair(spec.t),
                               "omega": _pair(spec.omega)}
                else:
                    try:
                        payload = tetrafun.to_json_dict(cons.construct(spec))
                    except TetraError as exc:
                        item.setup_error = f"{type(exc).__name__}: {exc}"
                        payload = {}
            item.data["stdin"] = json.dumps(payload)
            inputs.append(item)
        items = inputs + [Item(self.distinct + j, it.n, it.k, it.kind, it.data, it.setup_error)
                          for j, it in enumerate(inputs)]
        _warm_up(self.run, items)
        self.first_output.clear()
        return items

    def run(self, item):
        proc = subprocess.run([sys.executable, "-m", "tetrainner", *item.data["argv"]],
                              input=item.data["stdin"].encode(), capture_output=True,
                              cwd=self.root, env=self.env, timeout=120, check=False)
        return proc.returncode, proc.stdout

    def run_inprocess(self, item):
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = (io.StringIO(item.data["stdin"]),
                                             io.StringIO(), io.StringIO())
        try:
            code = cli.main(list(item.data["argv"]))
            text = sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, text.encode()

    trace_run = run_inprocess

    def check(self, item, output, maxima):
        code, stdout = output
        if code in self.exit_loud:
            return "loud"
        if code != cli.EXIT_OK:
            return "crash"
        key = item.data["key"]
        repeat_ok = self.first_output.setdefault(key, stdout) == stdout
        try:
            ok = getattr(self, "_check_" + item.kind)(item, stdout.decode())
        except (ValueError, KeyError, TypeError, IndexError, TetraError):
            ok = False  # unparsable or invalid output is a wrong answer
        return "pass" if ok and repeat_ok else "silent"

    def _nodes_ok(self, item, analysis):
        nodes = [complex(*nd["location"]) for nd in analysis["royal_nodes"]
                 for _ in range(nd["multiplicity"])]
        return (analysis["degree"] == item.n and analysis["type"] == [item.n, item.k]
                and match_error(item.data["sigma"], nodes) <= MATCH_TOL)

    def _check_classify(self, item, text):
        return json.loads(text)["region"] == item.data["label"]

    def _check_construct(self, item, text):
        out = json.loads(text)
        tetrafun.from_json_dict(out["function"])
        return self._nodes_ok(item, out["analysis"])

    def _check_analyze(self, item, text):
        return self._nodes_ok(item, json.loads(text))

    def _check_verify(self, item, text):
        out = json.loads(text)
        inv = out["invariants"]
        return (out["valid"] and all(c["passed"] for c in out["conditions"])
                and inv["degree"] == inv["winding_number"] == item.n
                and inv["circle_defect_max"] <= DEFECT_TOL and inv["disc_image_in_closure"])

    def _check_trace(self, item, text):
        rows = text.strip().split("\n")
        return (len(rows) == self.trace_samples + 1 and rows[0].startswith("theta,")
                and max(float(r.split(",")[7]) for r in rows[1:]) <= DEFECT_TOL)

    def _check_perturb(self, item, text):
        out = json.loads(text)
        x = tetrafun.from_json_dict(json.loads(item.data["stdin"]))
        halves = [tetrafun.from_json_dict(out[key]) for key in ("x_plus", "x_minus")]
        return (out["method"] == expected_method(item.n, item.k)
                and midpoint_error(x, *halves) <= MIDPOINT_TOL
                and out["midpoint_max_coeff_error"]
                <= MIDPOINT_TOL * (1.0 + max(x.e1.max_coeff(), x.e2.max_coeff())))


def make(name, root, env):
    if name == CliBatch.name:
        return CliBatch(root, env)
    return {PipelineHigh.name: PipelineHigh, AnalysisLow.name: AnalysisLow}[name]()
