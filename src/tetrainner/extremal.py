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
    NotSymmetric,
    NumericalSupAtOne,
    ThirdComponentMismatch,
)
from .polycx import (AGREE_TOL, CIRCLE_SAMPLES, Polynomial, agree, is_mirror, linear_product,
                     modulus, unit_circle)
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
    return validate(e1, e2, x.d, x.n, strict=x.strict and y.strict)


def _circle_sup(p: Polynomial) -> float:
    return float(np.max(np.abs(p.on_circle)))


def scale_nonextreme(x: TetraRational) -> PerturbationResult:
    """Midpoint decomposition by scaling both numerators, for k = 0.

    eps = MARGIN * (1/s - 1) where s is the circle sup of max(|x1|, |x2|);
    with no circle royal nodes s < 1 and both scalings stay in the class.
    When e2 is_mirror of e1, |x2| = |x1| on the circle and s is read from x1.
    """
    tk = TypeNK.from_nodes(royal_nodes(x))
    if tk.k > 0:
        raise CircleNodesPresent(
            f"{tk.k} circle royal nodes force the component sup to 1")
    dv = np.abs(x.d.on_circle)
    sup = max(float(np.max(np.abs(e.on_circle) / dv))
              for e in ((x.e1,) if is_mirror(x.e1, x.e2, x.n) else (x.e1, x.e2)))
    if sup == 0.0:
        return PerturbationResult(x, x, 1.0, Polynomial(),
                                  PerturbationMethod.EPSILON_SCALING,
                                  note="DegenerateZeroComponents")
    if sup >= 1.0 - 1e-12:
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


def _node_products(grid: np.ndarray, interior, taus) -> list[np.ndarray]:
    """prod |lam - s|^2 on the grid over the interior nodes, then over all nodes;
    each factor is (re lam - re s)^2 + (im lam - im s)^2, in real arithmetic."""
    re, im = grid.real.copy(), grid.imag.copy()   # contiguous parts: faster passes
    acc, products = np.ones(len(grid)), []
    for nodes in (interior, taus):
        for s in nodes:
            dx, dy = re - s.real, im - s.imag
            acc = acc * np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
        products.append(acc)
    return products


def perturb_nonextreme(x: TetraRational) -> PerturbationResult:
    """Midpoint decomposition for 1 <= k with 2k <= n.

    Builds the parity-matched n-symmetric g from the circle nodes, bounds t
    by the positive slack r M of |d|^2 - |e1|^2 away from the circle nodes,
    and returns the validated pair (e1 +- t g, e2 +- t g, d).
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

    grid = unit_circle(CIRCLE_SAMPLES)
    interior_product, node_products = _node_products(grid, interior, taus)
    pivot = int(np.argmax(node_products))
    lam0 = grid[pivot]
    r = float(np.real(lam0 ** (-n) * royal_polynomial(x).eval(lam0)) / node_products[pivot])
    m_const = float(np.min(interior_product))
    e1_sup = _circle_sup(x.e1)
    g_sup = _circle_sup(g)
    divisor = 8.0 if n % 2 == 0 else 16.0
    if e1_sup == 0.0:
        t = SAFETY * np.sqrt(r * m_const / max(g_sup, 1e-300) / (1.0 if n % 2 == 0 else 2.0))
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


def gamma_royal(x: TetraRational) -> Polynomial:
    """Royal polynomial of the symmetric embedding (2 x1, x3).

    Equals 4 (reflect(d, n) d - e1 e2); symmetric input required.
    """
    if not agree(x.e1, x.e2):
        raise NotSymmetric("components e1 and e2 differ beyond tolerance")
    return royal_polynomial(x).scale(4.0)
