"""Fejer-Riesz spectral factorization on the unit circle.

A trigonometric polynomial p(lam) = c0 + sum_j (c_j lam^j + conj(c_j) lam^-j)
that is nonnegative on the circle equals |D(lam)|^2 there for an outer
polynomial D.  The factorization used here is the classical one:

  * form the ordinary polynomial P(lam) = lam^n p(lam) of degree <= 2n;
  * split its roots with polycx.circle_split, which pairs them as
    (r, 1/conj(r)) and returns the circle roots with their even order;
  * keep the roots outside the disc and each circle root at half its order;
  * rebuild D from the kept roots and fix the scalar by matching p at the
    circle point where it is largest, then normalize the phase so the
    first nonzero coefficient of D is real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNonnegativeOnCircle, NotTwoNSymmetric
from .polycx import (
    CIRCLE_SAMPLES,
    Polynomial,
    circle_split,
    from_roots,
    is_n_symmetric,
    roots as poly_roots,
    unit_circle,
)

NONNEG_GUARD = 1e-10


@dataclass(frozen=True)
class TrigPolynomial:
    """Hermitian Laurent coefficients c_0..c_n; real valued on the circle."""

    coeffs: tuple = (0j,)

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs) or (0j,)
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> complex:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0j

    def value(self, lam):
        """Real value at a unimodular point (scalar or ndarray)."""
        arr = np.asarray(lam, dtype=complex)
        acc = np.full(arr.shape, float(np.real(self.coeffs[0])))
        power = np.ones_like(arr)
        for c in self.coeffs[1:]:
            power = power * arr
            acc = acc + 2.0 * np.real(c * power)
        if arr.shape == ():
            return float(acc)
        return acc

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        m = max(len(self.coeffs), len(other.coeffs))
        return TrigPolynomial(tuple(self.coeff(j) + other.coeff(j) for j in range(m)))


def modulus_squared_on_circle(p: Polynomial) -> TrigPolynomial:
    """Trigonometric polynomial equal to |p(lam)|^2 on the circle.

    c_j = sum_k p_{k+j} conj(p_k).
    """
    if p.is_zero:
        return TrigPolynomial((0j,))
    cs = np.asarray(p.coeffs, dtype=complex)
    n = len(cs) - 1
    out = [complex(np.sum(cs[j:] * np.conj(cs[: len(cs) - j]))) for j in range(n + 1)]
    return TrigPolynomial(tuple(out))


def laurent_shift(r_poly: Polynomial, n: int) -> TrigPolynomial:
    """Laurent coefficients of lam^-n R(lam) for a 2n-symmetric R.

    The 2n-symmetry forces the shifted object to be real on the circle;
    asymmetric input is rejected.
    """
    if r_poly.is_zero:
        return TrigPolynomial(tuple(0j for _ in range(n + 1)))
    if r_poly.degree > 2 * n:
        raise NotTwoNSymmetric(f"degree {r_poly.degree} exceeds 2n = {2 * n}")
    if not is_n_symmetric(r_poly, 2 * n):
        raise NotTwoNSymmetric("polynomial is not 2n-symmetric within tolerance")
    return TrigPolynomial(tuple(r_poly.coeff(n + j) for j in range(n + 1)))


def is_outer(p: Polynomial) -> bool:
    """True iff no root of p has modulus below 1 - 1e-9."""
    if p.degree <= 0:
        return not p.is_zero
    return all(abs(loc) >= 1.0 - 1e-9 for loc, _ in poly_roots(p).entries)


def factor(p: TrigPolynomial) -> Polynomial:
    """Outer polynomial D with |D|^2 = p on the circle.

    Raises NotNonnegativeOnCircle when sampling finds p negative beyond
    the guard, and OddCircleRootOrder (from circle_split) when a circle
    root has odd order.
    """
    grid = unit_circle(CIRCLE_SAMPLES)
    vals = p.value(grid)
    top = float(np.max(np.abs(vals)))
    if top == 0.0:
        raise ValueError("cannot factor the identically zero trigonometric polynomial")
    if float(np.min(vals)) < -NONNEG_GUARD * (1.0 + top):
        raise NotNonnegativeOnCircle(
            f"min sampled value {float(np.min(vals)):.3e} below guard")

    n = p.order
    asc = ([np.conj(p.coeffs[n - k]) for k in range(n)]
           + [complex(np.real(p.coeffs[0]))]
           + [p.coeffs[j] for j in range(1, n + 1)])
    # ord_0(P) equals the vanishing order at infinity; strip matching ends.
    scale = max(abs(c) for c in asc)
    strip_tol = 5e-13 * scale
    while len(asc) > 1 and abs(asc[0]) <= strip_tol and abs(asc[-1]) <= strip_tol:
        asc = asc[1:-1]

    peak = int(np.argmax(vals))
    lam_star, p_star = grid[peak], float(vals[peak])

    # P is exact up to rounding, so no circle tolerance beyond rounding applies.
    _, circle, outside = circle_split(Polynomial(asc), circle_tol=0.0)
    selected = ([loc for loc, order in outside for _ in range(order)]
                + [loc for loc, order in circle for _ in range(order // 2)])
    shape = from_roots(selected)
    denom = abs(shape.eval(lam_star)) ** 2
    amp = np.sqrt(max(p_star, 0.0) / denom)
    d = shape.scale(amp)
    # every kept root has |r| >= 1, so the constant coefficient of a nonzero d is nonzero
    lead = d.coeffs[0] if d.coeffs else 1.0
    return d.scale(np.conj(lead) / abs(lead))
