"""Shared generators for randomized sweeps."""

import functools
import sys

import numpy as np
import pytest

from tetrainner import polycx
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


def node_error(sigma, nodes) -> float:
    """Greedy one-to-one distance of royal nodes, counted with multiplicity,
    from the spec nodes sigma, in sigma's order; inf when the counts differ."""
    found = [nd.location for nd in nodes for _ in range(nd.multiplicity)]
    if len(found) != len(sigma):
        return float("inf")
    worst = 0.0
    for s in sigma:
        best = min(range(len(found)), key=lambda i: abs(found[i] - s))
        worst = max(worst, abs(found.pop(best) - s))
    return worst


def compose_blaschke(x, zeros):
    """(e1, e2, d, n m) of x composed with the Blaschke product B = num/den of the m zeros.

    num = prod (lam - a) and den = prod (1 - conj(a) lam) have leading constant
    1 (a unimodular constant c would rotate the reflection identity by c^n).
    Each of e1, e2 and d, of formal degree n, becomes sum_j c_j num^j den^(n - j):
    e(B) den^n, and reflecting d(B) den^n at index n m gives d~n(B) den^n.
    """
    num = product([Polynomial((-a, 1)) for a in zeros])
    den = product([Polynomial((1, -np.conj(a))) for a in zeros])

    def compose(p):
        total = Polynomial(())
        for j in range(x.n + 1):
            total = total + product([num] * j + [den] * (x.n - j)).scale(p.coeff(j))
        return total

    return compose(x.e1), compose(x.e2), compose(x.d), x.n * len(zeros)


def pairwise_product(first, factors):
    """Left-to-right product formed one pair at a time, each pair convolved
    into a Polynomial: chained *, which polycx.product equals bit for bit
    unless a partial product's top coefficient underflows to 0."""
    out = first
    for f in factors:
        if out.is_zero or f.is_zero:
            return Polynomial()
        out = Polynomial(tuple(np.convolve(np.asarray(out.coeffs, dtype=complex),
                                           np.asarray(f.coeffs, dtype=complex))))
    return out


def convolved_once(factors) -> Polynomial:
    """The coefficient lists factors convolved left to right with no trim
    between steps, trimmed once into a Polynomial: the reference for
    polycx.product and linear_product.  The zero polynomial convolves as (0,)."""
    return Polynomial(functools.reduce(np.convolve, [np.array(f if len(f) else (0,), dtype=complex)
                                                     for f in factors]))


def assert_exact_expansion(p: Polynomial, factors, rel: float = 1e-12):
    """Each coefficient p keeps is within rel (relative) of the product of the
    coefficient lists factors expanded in 300-bit mpmath, and each it dropped
    rounds to 0 there."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(300):
        exact = [mpmath.mpc(1)]
        for f in factors:
            f = [mpmath.mpc(c) for c in np.asarray(f, dtype=complex).tolist()]
            exact = [mpmath.fsum(exact[i] * f[j - i] for i in range(len(exact)) if 0 <= j - i < len(f))
                     for j in range(len(exact) + len(f) - 1)]
        assert len(p.coeffs) <= len(exact)
        for j, c in enumerate(exact):
            if j < len(p.coeffs):
                assert abs(p.coeff(j) - c) <= rel * abs(c), (j, p.coeff(j), complex(c))
            else:
                assert complex(c) == 0, (j, complex(c))


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
    """The degree of every companion eigen-solve from now on."""
    solve, degrees = polycx._companion_roots, []
    monkeypatch.setattr(polycx, "_companion_roots", lambda c: degrees.append(len(c) - 1) or solve(c))
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


# Denominators, as [re, im] pairs, whose finite coefficients reach moduli past
# the largest float in the root layer.  This one, at n = 8, has a monic
# normalization of finite parts and infinite modulus (LAPACK returned NaN
# eigenvalues for it):
NAN_EIGENVALUE_D = [
    [1.084199003538805e-300, -1.9846950697407997e-301],
    [-0.13402129728057094, -0.07799734797639567],
    [-7.006782571698392e-201, 2.8570544480458537e-201],
    [-4.217113823848949e+198, 2.0249043953063277e+199],
    [-1.76586344561926e-09, -1.9039390937118144e-09],
    [-2.9432131364870965e-14, 3.2777745974353724e-14],
    [1.1091776780748167e+300, 1.4843337887394463e+300],
    [2.8400329156012123e+199, 3.788200388948896e+199],
    [-8.814477298366143e-09, -1.216394716674983e-09],
]
# and this one, at n = 2, normalised to q(0) = 1 in the Schur-Cohn test, a top
# coefficient of finite parts and infinite modulus; its roots lie in the disc
SCHUR_COHN_OVERFLOW_D = [
    [-2.8215613936234185e-09, 3.584375910364057e-09],
    [-1.404258951302745e-300, -1.2176273266170255e-301],
    [-7.7260933806217e+299, 4.331483451147009e+299],
]


def complex_list(pairs) -> list:
    """[re, im] pairs as complex numbers."""
    return [complex(*pair) for pair in pairs]
