"""Shared generators for randomized sweeps."""

import sys

import numpy as np
import pytest

from tetrainner.boundary import TetraPoint, sample_distinguished, sample_interior
from tetrainner.construct import ConstructionSpec
from tetrainner.polycx import Polynomial, product


def random_disc_point(rng, radius=0.95):
    return complex(radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


def random_circle_point(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


def separated_points(rng, count, sep, draw):
    """Rejection-sample `count` points pairwise at least `sep` apart."""
    pts = []
    attempts = 0
    while len(pts) < count:
        cand = draw(rng)
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("could not place separated points")
        if all(abs(cand - p) >= sep for p in pts):
            pts.append(cand)
    return pts


def random_construction_spec(rng, n, k_circle=0, sep=0.05):
    """Random valid input data: k_circle royal nodes on the circle, zeros interior."""
    placed = []
    attempts = 0
    while len(placed) < n:
        cand = (random_circle_point(rng) if len(placed) < k_circle
                else random_disc_point(rng, 0.9))
        attempts += 1
        if attempts > 50000:
            raise RuntimeError("could not place nodes")
        if all(abs(cand - p) >= sep for p in placed):
            placed.append(cand)
    sigma = list(placed)
    zeros = []
    attempts = 0
    while len(zeros) < n:
        cand = random_disc_point(rng, 0.9)
        attempts += 1
        if attempts > 50000:
            raise RuntimeError("could not place zeros")
        if all(abs(cand - p) >= sep for p in sigma + zeros):
            zeros.append(cand)
    k1 = int(rng.integers(0, n + 1))
    t_plus = float(0.5 + 1.5 * rng.random())
    t = complex((0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random()))
    omega = complex(np.exp(2j * np.pi * rng.random()))
    return ConstructionSpec(alpha1=tuple(zeros[:k1]), alpha2=tuple(zeros[k1:]),
                            sigma=tuple(sigma), t_plus=t_plus, t=t, omega=omega)


def random_outer_polynomial(rng, max_degree=8, min_mod=1.05, max_mod=3.0):
    """Outer polynomial with well separated roots, scaled to unit max coefficient."""
    deg = int(rng.integers(1, max_degree + 1))
    locs = separated_points(
        rng, deg, 0.05,
        lambda r: complex((min_mod + (max_mod - min_mod) * r.random())
                          * np.exp(2j * np.pi * r.random())))
    p = product([Polynomial((complex(np.exp(2j * np.pi * rng.random())),))]
                + [Polynomial((-r, 1)) for r in locs])
    return p.scale(1.0 / p.max_coeff())


def match_multiset(expected, recovered, tol):
    """Greedy one-to-one matching; returns the max matched distance."""
    expected = list(expected)
    recovered = list(recovered)
    assert len(expected) == len(recovered), (
        f"cardinality mismatch: {len(expected)} vs {len(recovered)}")
    worst = 0.0
    for e in expected:
        best = min(range(len(recovered)), key=lambda i: abs(recovered[i] - e))
        worst = max(worst, abs(recovered[best] - e))
        assert abs(recovered[best] - e) < tol, (
            f"no recovered point within {tol} of {e}")
        recovered.pop(best)
    return worst


def pairwise_product(first, factors):
    """Left-to-right product formed one pair at a time, each pair convolved and
    trimmed into a Polynomial: the reference for polycx.product."""
    out = first
    for f in factors:
        if out.is_zero or f.is_zero:
            return Polynomial()
        out = Polynomial(tuple(np.convolve(np.asarray(out.coeffs, dtype=complex),
                                           np.asarray(f.coeffs, dtype=complex))))
    return out


def coeff_bits(p: Polynomial) -> bytes:
    """Coefficients as raw bytes, for bit-for-bit comparison."""
    return np.asarray(p.coeffs, dtype=complex).tobytes()


def polynomial_close(p: Polynomial, q: Polynomial, tol: float) -> bool:
    m = max(len(p.coeffs), len(q.coeffs))
    return all(abs(p.coeff(j) - q.coeff(j)) <= tol for j in range(m))


def sample_closed(rng: np.random.Generator) -> TetraPoint:
    """Interior or distinguished-boundary point, with equal probability."""
    if rng.random() < 0.5:
        return sample_interior(rng)
    return sample_distinguished(rng)


def sample_fixed_x3_closed(rng: np.random.Generator, x3: complex) -> TetraPoint:
    """Random point of the closed tetrablock slice with prescribed x3."""
    m1 = rng.random()
    m2 = rng.random()
    if m1 + m2 > 1.0:
        m1, m2 = 1.0 - m1, 1.0 - m2
    b1 = m1 * np.exp(2j * np.pi * rng.random())
    b2 = m2 * np.exp(2j * np.pi * rng.random())
    return TetraPoint(b1 + np.conj(b2) * x3, b2 + np.conj(b1) * x3, x3)


def sample_fixed_x3_distinguished(rng: np.random.Generator, x3: complex) -> TetraPoint:
    """Random distinguished-boundary point with prescribed unimodular x3."""
    x2 = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    return TetraPoint(np.conj(x2) * x3, x2, x3)


def mp_circle_values(p, m, stride=1):
    """p at every stride-th m-th root of unity, Horner in mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        out = []
        for j in range(0, m, stride):
            w, acc = mpmath.expjpi(mpmath.mpf(2 * j) / m), mpmath.mpc(0)
            for c in reversed(p.coeffs):
                acc = acc * w + mpmath.mpc(c.real, c.imag)
            out.append(complex(acc))
    return np.array(out)


def count_ifft(monkeypatch):
    """A list that grows by one entry per np.fft.ifft call from now on."""
    calls, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *args, **kw: calls.append(1) or ifft(*args, **kw))
    return calls


def count_solves(monkeypatch):
    """The degree of every np.roots eigen-solve from now on."""
    solve, degrees = np.roots, []
    monkeypatch.setattr(np, "roots", lambda a: degrees.append(len(a) - 1) or solve(a))
    return degrees


def count_disc_tests(monkeypatch):
    """A list that grows by one entry per Schur-Cohn test from now on."""
    from tetrainner import polycx

    calls, test = [], polycx._schur_cohn
    monkeypatch.setattr(polycx, "_schur_cohn", lambda q: calls.append(1) or test(q))
    return calls


def count_python_calls(fn, *args):
    """The Python-level function calls (profile "call" events) made by fn(*args).

    Calls of C functions and slots (a builtin, a C __hash__) are not
    counted; fn itself counts once when it is a Python function.
    """
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(1) if event == "call" else None)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return len(calls)
