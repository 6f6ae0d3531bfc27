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
    CoefficientArray,
    Polynomial,
    circle_split,
    from_roots,
    is_n_symmetric,
    modulus,
    unit_circle,
    zero_free_disc,
    zero_pad,
)

NONNEG_GUARD = 1e-10


@dataclass(frozen=True, eq=False, repr=False)
class TrigPolynomial(CoefficientArray):
    """Hermitian Laurent coefficients c_0..c_n; real valued on the circle."""

    coeffs: np.ndarray = (0j,)

    def __post_init__(self):
        cs = zero_pad(np.array(self.coeffs, dtype=complex), 1)
        cs.flags.writeable = False
        object.__setattr__(self, "coeffs", cs)

    def value(self, lam):
        """Real value at a unimodular point (scalar or ndarray)."""
        arr = np.asarray(lam, dtype=complex)
        acc = np.full(arr.shape, self.coeffs[0].real)
        power = np.ones_like(arr)
        for c in self.coeffs[1:].tolist():
            power = power * arr
            acc = acc + 2.0 * np.real(c * power)
        if arr.shape == ():
            return float(acc)
        return acc


def modulus_squared_on_circle(p: Polynomial) -> TrigPolynomial:
    """Trigonometric polynomial equal to |p(lam)|^2 on the circle.

    c_j = sum_k p_{k+j} conj(p_k).
    """
    cs = p.coeffs
    return TrigPolynomial([np.sum(cs[j:] * np.conj(cs[: len(cs) - j])) for j in range(len(cs))])


def laurent_shift(r_poly: Polynomial, n: int) -> TrigPolynomial:
    """Laurent coefficients of lam^-n R(lam) for a 2n-symmetric R.

    The 2n-symmetry forces the shifted object to be real on the circle;
    asymmetric input is rejected.
    """
    if r_poly.degree > 2 * n:
        raise NotTwoNSymmetric(f"degree {r_poly.degree} exceeds 2n = {2 * n}")
    if not is_n_symmetric(r_poly, 2 * n):
        raise NotTwoNSymmetric("polynomial is not 2n-symmetric within tolerance")
    return TrigPolynomial(zero_pad(r_poly.coeffs[n:], n + 1))


def is_outer(p: Polynomial) -> bool:
    """True iff p is nonzero and no root of p has modulus 1 - 1e-9 or below (Schur-Cohn test)."""
    return not p.is_zero and zero_free_disc(p, 1.0 - 1e-9)


def factor(p: TrigPolynomial) -> Polynomial:
    """Outer polynomial D with |D|^2 = p on the circle.

    Raises NotNonnegativeOnCircle when sampling finds p negative beyond
    the guard, OddCircleRootOrder (from circle_split) when a circle root
    has odd order, and ValueError when lam^n p trims to zero.
    """
    grid = unit_circle(CIRCLE_SAMPLES)
    vals = p.value(grid)
    if float(np.min(vals)) < -NONNEG_GUARD * (1.0 + float(np.max(np.abs(vals)))):
        raise NotNonnegativeOnCircle(
            f"min sampled value {float(np.min(vals)):.3e} below guard")

    c = p.coeffs
    asc = np.concatenate((np.conj(c[:0:-1]), [c[0].real], c[1:]))
    # ord_0(P) equals the vanishing order at infinity; strip matching ends.
    mag = modulus(asc)
    strip_tol = 5e-13 * mag.max()
    while len(asc) > 1 and mag[0] <= strip_tol and mag[-1] <= strip_tol:
        asc, mag = asc[1:-1], mag[1:-1]
    big_p = Polynomial(asc)
    if big_p.is_zero:
        raise ValueError("cannot factor: every coefficient is at most polycx.TRIM_TOL")

    peak = int(np.argmax(vals))
    lam_star, p_star = grid[peak], float(vals[peak])

    # P is exact up to rounding, so no circle tolerance beyond rounding applies.
    _, circle, outside = circle_split(big_p, circle_tol=0.0)
    selected = ([loc for loc, order in outside for _ in range(order)]
                + [loc for loc, order in circle for _ in range(order // 2)])
    shape = from_roots(selected)
    denom = abs(shape.eval(lam_star)) ** 2
    amp = np.sqrt(max(p_star, 0.0) / denom)
    d = shape.scale(amp)
    # every kept root has |r| >= 1, so the constant coefficient of a nonzero d is nonzero
    lead = d.coeff(0) or 1.0
    return d.scale(np.conj(lead) / abs(lead))
