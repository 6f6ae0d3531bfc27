"""Convex combinations and constructive non-extremality certificates.

Midpoint decompositions witness non-extremality in the class of rational
tetra-inner functions.  With k circle royal nodes out of n total:

  * k = 0: both components stay strictly inside the unit circle in modulus,
    so scaling them by 1 +- eps keeps the function in the class;
  * 1 <= k with 2k <= n: an n-symmetric polynomial g built from the circle
    nodes perturbs the numerators by +- t g while |e1 +- t g| <= |d| holds
    on the circle for small enough t.

The symmetric certificate goes the other way: e1 = e2 with 2k > n is
extreme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    CircleNodesPresent,
    ExtremalityNotDisproved,
    NumericalSupAtOne,
    ThirdComponentMismatch,
)
from .polycx import (AGREE_TOL, CIRCLE_SAMPLES, Polynomial, agree, from_roots, is_mirror,
                     linear_product, modulus, unit_circle)
from .tetrafun import (
    TetraRational,
    TypeNK,
    royal_nodes,
    royal_polynomial,
    type_nk,
    validate,
)

SAFETY = 0.9
MARGIN = 0.5
SUP_AT_ONE_TOL = 1e-12   # a sampled component sup this close to 1 is at 1


class PerturbationMethod(enum.Enum):
    EPSILON_SCALING = "EpsilonScaling"
    G_PERTURB_EVEN = "GPerturbEven"
    G_PERTURB_ODD = "GPerturbOdd"


@dataclass(frozen=True)
class PerturbationResult:
    x_plus: TetraRational
    x_minus: TetraRational
    t_used: float
    g: Polynomial
    method: PerturbationMethod
    note: str | None = None


def convex_combine(x: TetraRational, y: TetraRational, t: float) -> TetraRational:
    """t x + (1 - t) y for functions sharing the third component.

    The denominators must be real multiples of each other (same n); other
    third components obstruct convexity and are rejected.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t} is outside [0, 1]")
    if x.n != y.n:
        raise ThirdComponentMismatch(f"reflection indices differ: {x.n} vs {y.n}")
    if x.d.is_zero:
        raise ThirdComponentMismatch("denominator of x is zero")
    pivot = int(np.argmax(modulus(x.d.coeffs)))
    ratio = y.d.coeff(pivot) / x.d.coeff(pivot)
    if abs(ratio.imag) > AGREE_TOL * abs(ratio) or abs(ratio) == 0:
        raise ThirdComponentMismatch(f"denominators differ by non-real factor {ratio}")
    if not agree(y.d, x.d.scale(ratio)):
        raise ThirdComponentMismatch("denominators are not proportional")
    ratio = ratio.real
    e1 = x.e1.scale(t) + y.e1.scale((1.0 - t) / ratio)
    e2 = x.e2.scale(t) + y.e2.scale((1.0 - t) / ratio)
    return validate(e1, e2, x.d, x.n)


def scale_nonextreme(x: TetraRational) -> PerturbationResult:
    """Midpoint decomposition by scaling both numerators, for k = 0.

    eps = MARGIN * (1/s - 1) where s is the circle sup of max(|x1|, |x2|);
    with no circle royal nodes s < 1 and both scalings stay in the class.
    When e2 is_mirror of e1, |x2| = |x1| on the circle and s is read from x1.
    d has no circle zero: validation divided out any factor common to e1,
    e2 and d there (see tetrafun.validate).
    """
    tk = TypeNK.from_nodes(royal_nodes(x))
    if tk.k > 0:
        raise CircleNodesPresent(
            f"{tk.k} circle royal nodes force the component sup to 1")
    sup = max(float(np.max(e.abs_on_circle / x.d.abs_on_circle))
              for e in ((x.e1,) if is_mirror(x.e1, x.e2, x.n) else (x.e1, x.e2)))
    if sup == 0.0:
        return PerturbationResult(x, x, 1.0, Polynomial(),
                                  PerturbationMethod.EPSILON_SCALING,
                                  note="DegenerateZeroComponents")
    if sup >= 1.0 - SUP_AT_ONE_TOL:
        raise NumericalSupAtOne(f"sampled component sup {sup} is at 1")
    eps = MARGIN * (1.0 / sup - 1.0)
    x_plus = validate(x.e1.scale(1.0 + eps), x.e2.scale(1.0 + eps), x.d, x.n)
    x_minus = validate(x.e1.scale(1.0 - eps), x.e2.scale(1.0 - eps), x.d, x.n)
    return PerturbationResult(x_plus, x_minus, eps, Polynomial(),
                              PerturbationMethod.EPSILON_SCALING)


def _perturbation_polynomial(taus, n: int, k: int) -> Polynomial:
    """n-symmetric g vanishing to second order at every circle node.

    Returned as (g + g~n)/2 (deg g <= n for 2k <= n), which equals its own
    n-reflection exactly: the halves of a mirrored function are mirrors too.
    """
    squares = [(-tau, 1) for tau in taus for _ in range(2)]
    if n % 2 == 0:
        lead = complex(np.prod([np.conj(t) for t in taus]))
        g = linear_product(lead, [(0, 1)] * (n // 2 - k) + squares)
    else:
        omega_sq = -np.conj(taus[0]) * complex(np.prod([np.conj(t) ** 2 for t in taus]))
        omega = np.exp(0.5j * np.angle(omega_sq)) * np.sqrt(abs(omega_sq))
        g = linear_product(omega, [(0, 1)] * ((n - 1) // 2 - k) + [(-taus[0], 1)] + squares)
    return (g + g.reflect(n)).scale(0.5)


def _node_extremes(interior, taus) -> tuple[complex, float, float]:
    """The grid pivot lam0 of prod |lam - s|^2 over all nodes, that product
    there, and the least prod |lam - s|^2 over the interior nodes on the grid.

    The samples of the node polynomials only locate the two grid points; the
    products there are formed from the nodes, as accurate as the nodes.
    """
    grid = unit_circle(CIRCLE_SAMPLES)
    inner = from_roots(interior).abs_on_circle
    lam0 = grid[np.argmax(inner * from_roots(taus).abs_on_circle)]
    low = grid[np.argmin(inner)]
    return (lam0, float(np.prod(np.abs(lam0 - np.array(taus + interior)) ** 2)),
            float(np.prod(np.abs(low - np.array(interior)) ** 2)))


def perturb_nonextreme(x: TetraRational) -> PerturbationResult:
    """Midpoint decomposition for 1 <= k with 2k <= n.

    Builds the parity-matched n-symmetric g from the circle nodes, bounds t
    by the positive slack r M of |d|^2 - |e1|^2 away from the circle nodes,
    and returns the validated pair (e1 +- t g, e2 +- t g, d).  d has no
    circle zero: validation divided out any factor common to e1, e2 and d
    there (see tetrafun.validate), so g sits at index x.n.
    """
    nodes = royal_nodes(x)
    tk = TypeNK.from_nodes(nodes)
    if tk.k == 0:
        return scale_nonextreme(x)
    if 2 * tk.k > tk.n:
        raise ExtremalityNotDisproved(
            f"type ({tk.n}, {tk.k}) has 2k > n; no decomposition is produced")
    taus = [nd.location for nd in nodes if nd.on_circle for _ in range(nd.multiplicity)]
    interior = [nd.location for nd in nodes if not nd.on_circle for _ in range(nd.multiplicity)]
    n, k = tk.n, tk.k
    g = _perturbation_polynomial(taus, n, k)

    lam0, pivot, m_const = _node_extremes(interior, taus)
    r = float(np.real(lam0 ** (-x.n) * royal_polynomial(x).eval(lam0)) / pivot)
    e1_sup = float(np.max(x.e1.abs_on_circle))
    g_sup = float(np.max(g.abs_on_circle))
    divisor = 8.0 if n % 2 == 0 else 16.0
    if e1_sup == 0.0:
        t = SAFETY * np.sqrt(r * m_const / g_sup / (1.0 if n % 2 == 0 else 2.0))
    else:
        t = SAFETY * min(2.0 * e1_sup / g_sup, r * m_const / (divisor * e1_sup))
    tg = g.scale(t)
    x_plus = validate(x.e1 + tg, x.e2 + tg, x.d, x.n)
    x_minus = validate(x.e1 - tg, x.e2 - tg, x.d, x.n)
    method = (PerturbationMethod.G_PERTURB_EVEN if n % 2 == 0
              else PerturbationMethod.G_PERTURB_ODD)
    return PerturbationResult(x_plus, x_minus, t, g, method)


def certify_extreme_symmetric(x: TetraRational) -> bool:
    """True certifies extremality: e1 = e2 and 2k > n.

    False only means not certified by this criterion.
    """
    if not agree(x.e1, x.e2):
        return False
    tk = type_nk(x)
    return 2 * tk.k > tk.n

