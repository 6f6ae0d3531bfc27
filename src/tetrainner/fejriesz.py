"""Fejer-Riesz spectral factorization on the unit circle.

A trigonometric polynomial p(lam) = c0 + sum_j (c_j lam^j + conj(c_j) lam^-j)
that is nonnegative on the circle equals |D(lam)|^2 there for an outer
polynomial D of degree n.  `factor` samples p once on the CIRCLE_SAMPLES
grid by one FFT, strips a negligible top coefficient c_n, and then takes
one of two paths to D:

  * the cepstral (Kolmogorov) path, when every sample of p on the grid is
    positive, which is exactly when log p is defined there.  log D is the
    causal half of log p with the constant halved; exponentiating that on
    the grid and keeping the first n + 1 Fourier coefficients gives D up to
    aliasing.  Wilson's Newton iteration on
    F_j(D) = sum_q D_{q+j} conj(D_q) = c_j, j = 0..n, finishes it (Wilson
    1969; Sayed & Kailath 2001).  The result is kept when
    max |c - F(D)| <= NEWTON_TOL * max |c| and D is zero-free up to
    1 + CIRCLE_TOL (from a poor start Newton can reach a factor with a root
    reflected into the disc).  That is the question strict validation asks
    of d = conj(omega) D next, so a constructed d is tested once.  No roots
    are solved.
  * the root path, in every other case (a sample of p is zero or negative
    within the guard, Newton fell short, or D has a root in the closed
    disc up to CIRCLE_TOL): split
    the roots of P(lam) = lam^n p(lam) with polycx.circle_split, which
    pairs them as (r, 1/conj(r)) and returns the circle roots with their
    even order; keep the roots outside the disc and each circle root at
    half its order; rebuild D from them and fix its scale at the largest
    sample of p.  The same Newton steps then polish it.

Either way D_0 is real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNonnegativeOnCircle, NotTwoNSymmetric
from .polycx import (
    CIRCLE_SAMPLES,
    CIRCLE_TOL,
    CoefficientArray,
    Polynomial,
    circle_split,
    circle_values,
    from_roots,
    is_n_symmetric,
    modulus,
    unit_circle,
    zero_free_disc,
    zero_pad,
)

NONNEG_GUARD = 1e-10
NEWTON_TOL = 1e-13     # relative residual max |c - F(D)| the cepstral path must reach
NEWTON_STEPS = 6
END_STRIP_TOL = 5e-13  # relative: matching end coefficients stripped before factoring


@dataclass(frozen=True, eq=False, repr=False)
class TrigPolynomial(CoefficientArray):
    """Hermitian Laurent coefficients c_0..c_n; real valued on the circle."""

    coeffs: np.ndarray = (0j,)

    def __post_init__(self):
        self._set_coeffs(zero_pad(np.array(self.coeffs, dtype=complex), 1))

    def _half(self) -> np.ndarray:
        """h = (c0.real / 2, c1, ..., cn), so that the value on the circle is 2 Re h."""
        half = self.coeffs.copy()
        half[0] = 0.5 * half[0].real
        return half

    def value(self, lam):
        """Real value at a unimodular point (scalar or ndarray)."""
        return 2.0 * Polynomial(self._half()).eval(lam).real


def modulus_squared_on_circle(p: Polynomial) -> TrigPolynomial:
    """Trigonometric polynomial equal to |p(lam)|^2 on the circle.

    c_j = sum_k p_{k+j} conj(p_k).
    """
    return TrigPolynomial(_autocorrelation(zero_pad(p.coeffs, 1)))


def _autocorrelation(a: np.ndarray) -> np.ndarray:
    """sum_q a_{q+j} conj(a_q) for j = 0..len(a) - 1."""
    return np.correlate(a, a, "full")[len(a) - 1:]


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
    """True iff p is nonzero and zero-free up to 1 - CIRCLE_TOL, lenient validation's test."""
    return not p.is_zero and zero_free_disc(p, 1.0 - CIRCLE_TOL)


def factor(p: TrigPolynomial) -> Polynomial:
    """Outer polynomial D with |D|^2 = p on the circle.

    Raises NotNonnegativeOnCircle when sampling finds p negative beyond
    the guard, OddCircleRootOrder (from circle_split) when a circle root
    has odd order, and ValueError when lam^n p trims to zero.
    """
    vals = 2.0 * circle_values(p._half()).real
    low, high = float(vals.min()), float(vals.max())
    if low < -NONNEG_GUARD * (1.0 + max(high, -low)):
        raise NotNonnegativeOnCircle(f"min sampled value {low:.3e} below guard")

    c = p.coeffs
    asc = np.concatenate((np.conj(c[:0:-1]), [c[0].real], c[1:]))
    # ord_0(P) equals the vanishing order at infinity; strip matching ends.
    mag = modulus(asc)
    strip_tol = END_STRIP_TOL * mag.max()
    while len(asc) > 1 and mag[0] <= strip_tol and mag[-1] <= strip_tol:
        asc, mag = asc[1:-1], mag[1:-1]
    big_p = Polynomial(asc)
    if big_p.is_zero:
        raise ValueError("cannot factor: every coefficient is at most polycx.TRIM_TOL")
    target = asc[len(asc) // 2:]

    if low > 0.0:
        d, resid = _newton(_cepstral(vals, len(target)), target)
        d = Polynomial(d)
        # D = 0 leaves resid = max |c|, so a D past the residual test is nonzero
        if resid <= NEWTON_TOL * mag.max() and zero_free_disc(d, 1.0 + CIRCLE_TOL):
            return d
    return Polynomial(_newton(_from_roots(big_p, vals, len(target)), target)[0])


def _cepstral(vals: np.ndarray, m: int) -> np.ndarray:
    """First m coefficients of the outer factor of the positive samples vals.

    log D is the causal half of log p with the constant halved, so D is
    exp of it on the grid, transformed back; D_0 = exp(h_0) up to rounding.
    """
    h = np.fft.fft(np.log(vals), norm="forward")
    h[0] *= 0.5
    h[len(h) // 2:] = 0.0
    return zero_pad(np.fft.fft(np.exp(np.fft.ifft(h, norm="forward")), norm="forward")[:m], m)


def _from_roots(big_p: Polynomial, vals: np.ndarray, m: int) -> np.ndarray:
    """First m coefficients of the outer factor rebuilt from the roots of P = lam^n p.

    The scale matches p at its largest sample; the phase makes D_0 positive.
    """
    peak = int(np.argmax(vals))
    lam_star, p_star = unit_circle(CIRCLE_SAMPLES)[peak], float(vals[peak])
    # P is exact up to rounding, so no circle tolerance beyond rounding applies.
    _, circle, outside = circle_split(big_p, circle_tol=0.0)
    selected = ([loc for loc, order in outside for _ in range(order)]
                + [loc for loc, order in circle for _ in range(order // 2)])
    shape = from_roots(selected)
    denom = abs(shape.eval(lam_star)) ** 2
    d = shape.scale(np.sqrt(max(p_star, 0.0) / denom))
    # every kept root has |r| >= 1, so the constant coefficient of a nonzero d is nonzero
    lead = d.coeff(0) or 1.0
    return zero_pad(d.scale(np.conj(lead) / abs(lead)).coeffs[:m], m)


def _newton(d: np.ndarray, c: np.ndarray) -> tuple:
    """Wilson's Newton iteration for F_j(D) = sum_q D_{q+j} conj(D_q) = c_j, j = 0..n.

    The real Jacobian of F is T + H acting on Re dD and i (T - H) on Im dD,
    with the Toeplitz block T[j, k] = conj(D_{k-j}) and the Hankel block
    H[j, q] = D_{j+q} (zero outside 0..n).  Dropping the unknown Im dD_0 (the
    phase) and the equation Im r_0 (identically zero) leaves a square real
    system of size 2n + 1.  Steps are taken while max |r| falls, at most
    NEWTON_STEPS of them, not until max |r| first meets a tolerance.
    Returns D and its max |r| = max |c - F(D)|.
    """
    n = len(c) - 1
    d = d.copy()
    d[0] = d[0].real    # the phase is pinned here
    j = np.arange(n + 1)
    diff, total = j[None, :] - j[:, None], j[:, None] + j[None, :]
    resid = c - _autocorrelation(d)
    size = float(modulus(resid).max())
    jac = np.empty((2 * n + 1, 2 * n + 1))    # every step fills all four blocks
    for _ in range(NEWTON_STEPS):
        pad = np.concatenate((d, np.zeros(n + 1)))    # negative and large indices read 0
        toeplitz, hankel = np.conj(pad[diff]), pad[total]
        plus, minus = toeplitz + hankel, toeplitz - hankel
        jac[:n + 1, :n + 1], jac[:n + 1, n + 1:] = plus.real, -minus.imag[:, 1:]
        jac[n + 1:, :n + 1], jac[n + 1:, n + 1:] = plus.imag[1:], minus.real[1:, 1:]
        try:
            x = np.linalg.solve(jac, np.concatenate((resid.real, resid.imag[1:])))
        except np.linalg.LinAlgError:    # D = 0, from a negative constant within the guard
            break
        cand = d + x[:n + 1] + 1j * np.concatenate(([0.0], x[n + 1:]))
        cand_resid = c - _autocorrelation(cand)
        cand_size = float(modulus(cand_resid).max())
        if not cand_size < size:
            break
        d, resid, size = cand, cand_resid, cand_size
    return d, size
