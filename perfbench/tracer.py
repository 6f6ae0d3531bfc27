"""In-memory span tracer that wraps tetrainner's public functions from outside.

Each target function is replaced at every module attribute that binds it
(``tetrainner.polycx.roots`` is also bound as ``tetrainner.fejriesz.poly_roots``,
``tetrainner.tetrafun.poly_roots`` and so on), so calls between library
modules are seen too.  Self time is computed as a call's duration minus the
time its traced child calls cover, on the fly, from a stack of open frames.

Coarse calls are stored as spans (name, start, end, parent span, item id,
failed).  Hot pointwise calls (``Polynomial.eval``, ``Polynomial.reflect``,
``eval_function`` and ``classify_tetra`` run hundreds of times per item) are
counted and timed in aggregate only, so that tracing a run does not keep
millions of spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# metric prefix -> (module, attribute, stored as spans)
TARGETS = {
    "polycx.roots": ("tetrainner.polycx", "roots", True),
    "polycx.reflect": ("tetrainner.polycx", "Polynomial.reflect", False),
    "polycx.eval": ("tetrainner.polycx", "Polynomial.eval", False),
    "fejriesz.factor": ("tetrainner.fejriesz", "factor", True),
    "tetrafun.validate": ("tetrainner.tetrafun", "validate", True),
    "tetrafun.degree": ("tetrainner.tetrafun", "degree", True),
    "tetrafun.winding_number": ("tetrainner.tetrafun", "winding_number", True),
    "tetrafun.type_nk": ("tetrainner.tetrafun", "type_nk", True),
    "tetrafun.royal_nodes": ("tetrainner.tetrafun", "royal_nodes", True),
    "tetrafun.circle_trace": ("tetrainner.tetrafun", "circle_trace", True),
    "tetrafun.eval_function": ("tetrainner.tetrafun", "eval_function", False),
    "tetrafun.is_superficial": ("tetrainner.tetrafun", "is_superficial", True),
    "tetrafun.psi_omega_check": ("tetrainner.tetrafun", "psi_omega_check", True),
    "construct.construct": ("tetrainner.construct", "construct", True),
    "construct.recover_data": ("tetrainner.construct", "recover_data", True),
    "extremal.perturb_nonextreme": ("tetrainner.extremal", "perturb_nonextreme", True),
    "extremal.scale_nonextreme": ("tetrainner.extremal", "scale_nonextreme", True),
    "boundary.classify_tetra": ("tetrainner.boundary", "classify_tetra", False),
    "cli.main": ("tetrainner.cli", "main", True),
}

RESIDUAL_SAMPLES = 1024


class _Frame:
    __slots__ = ("span_id", "start", "child", "excluded")

    def __init__(self, span_id, start):
        self.span_id = span_id
        self.start = start
        self.child = 0.0
        self.excluded = 0.0


class Stat:
    __slots__ = ("calls", "self_s", "fails", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.fails = 0
        self.extra = 0.0


class Tracer:
    """Records calls of the TARGETS while ``recording`` is true."""

    def __init__(self):
        self.recording = False
        self.item = -1
        self.spans = []  # (id, name, start, end, parent id, item, failed)
        self.stats = defaultdict(Stat)
        self.maxima = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def paused(self):
        """Run accuracy probes outside every open span's measured time."""
        was, self.recording = self.recording, False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            for frame in self._stack:
                frame.excluded += dt
            self.recording = was

    def record_max(self, name: str, value: float):
        self.maxima[name] = max(self.maxima[name], float(value))

    def _wrap(self, name, fn, spanned, extra, after):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = None
            if spanned:
                span_id = self._next_id
                self._next_id += 1
            frame = _Frame(span_id, time.perf_counter())
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame.start - frame.excluded
                stats.calls += 1
                stats.self_s += dur - frame.child
                stats.fails += failed
                if extra is not None:
                    stats.extra += extra(args)
                if stack:
                    stack[-1].child += dur
                if spanned:
                    parent = next((f.span_id for f in reversed(stack)
                                   if f.span_id is not None), None)
                    self.spans.append((span_id, name, frame.start, end, parent,
                                       self.item, failed))
            if after is not None:
                with self.paused():
                    after(self, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every binding of every target in the loaded tetrainner modules."""
        modules = [m for key, m in sys.modules.items()
                   if key == "tetrainner" or key.startswith("tetrainner.")]
        for name, (modname, attr, spanned) in TARGETS.items():
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, spanned,
                                              EXTRA.get(name), AFTER.get(name)))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, spanned, EXTRA.get(name), AFTER.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def royal_solves(self) -> int:
        """roots calls made directly by royal_nodes, i.e. royal-polynomial solves."""
        names = {span[0]: span[1] for span in self.spans}
        return sum(1 for span in self.spans
                   if span[1] == "polycx.roots" and names.get(span[4]) == "tetrafun.royal_nodes")

    def write(self, path):
        rows = [list(span) for span in sorted(self.spans, key=lambda s: s[0])]
        aggregate = {name: {"calls": st.calls, "self_s": st.self_s, "fails": st.fails}
                     for name, st in self.stats.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "item", "failed"],
                       "spans": rows, "aggregate": aggregate}, fh)


def _factor_residual(tracer, args, d):
    p = args[0]
    from tetrainner.polycx import unit_circle
    grid = unit_circle(RESIDUAL_SAMPLES)
    pv = p.value(grid)
    tracer.record_max("fejriesz.factor.residual_max",
                      np.max(np.abs(np.abs(d.eval(grid)) ** 2 - pv)) / np.max(np.abs(pv)))


def _royal_drift(tracer, args, x):
    from tetrainner.construct import build_royal_target
    from tetrainner.polycx import coeff_distance
    from tetrainner.tetrafun import royal_polynomial
    spec = args[0]
    target = build_royal_target(spec.sigma, spec.t_plus)
    tracer.record_max("construct.royal_drift.max",
                      coeff_distance(royal_polynomial(x), target) / (1.0 + target.max_coeff()))


EXTRA = {
    "polycx.roots": lambda args: args[0].degree,
    "polycx.eval": lambda args: not isinstance(args[1], np.ndarray),
}
AFTER = {
    "fejriesz.factor": _factor_residual,
    "construct.construct": _royal_drift,
}
