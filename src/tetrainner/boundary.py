"""Pointwise geometry of the tetrablock and the symmetrized bidisc.

Membership of a point x = (x1, x2, x3) in the closed tetrablock is decided
by the inequality

    |x1 - conj(x2) x3| + |x2 - conj(x1) x3| <= 1 - |x3|^2,

with the extra condition |x1| <= 1 when |x3| = 1.  The distinguished
boundary is the part of the topological boundary with |x3| = 1; there
x1 = conj(x2) x3 and x2 = conj(x1) x3 hold.  The symmetrized bidisc uses
the analogous criteria on |s - conj(s) p| against 1 - |p|^2.

pi(A) = (a11, a22, det A) lies in the closed tetrablock exactly when mu of A
against diagonal perturbations is at most one; equivalently x lies there iff
|x1|^2 + |x2|^2 - |x3|^2 + 2|x1 x2 - x3| <= 1 and |x3| <= 1 (Abouhajar, White
& Young 2007, J. Geom. Anal. 17).  For two scalar blocks mu has a closed form,
as the D-scaled bound is exact (Doyle 1982, IEE Proc. D 129).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteCoefficient, PsiPole
from .polycx import DEFAULT_MEMBERSHIP_TOL

PSI_POLE_TOL = 1e-12
INTERIOR_MARGIN = 0.02  # sample_interior's distance from the boundary


class TetraPoint(NamedTuple):
    x1: complex
    x2: complex
    x3: complex

    def as_tuple(self):
        return tuple(self)


class GammaPoint(NamedTuple):
    s: complex
    p: complex


@dataclass(frozen=True)
class Matrix2:
    a11: complex
    a12: complex
    a21: complex
    a22: complex

    def det(self) -> complex:
        return self.a11 * self.a22 - self.a12 * self.a21


class TetraRegion(enum.Enum):
    INTERIOR = "Interior"
    TOPOLOGICAL_BOUNDARY = "TopologicalBoundary"
    DISTINGUISHED_BOUNDARY = "DistinguishedBoundary"
    OUTSIDE = "Outside"

    # members are singletons that compare by identity, so the identity hash
    # agrees with ==, and it runs in C where Enum's hashes the name in Python
    __hash__ = object.__hash__


class GammaRegion(enum.Enum):
    OPEN_G = "OpenG"
    GAMMA_BOUNDARY_TOP = "GammaBoundaryTop"
    GAMMA_DISTINGUISHED = "GammaDistinguished"
    OUTSIDE = "Outside"

    __hash__ = object.__hash__  # as TetraRegion's


def psi(z: complex, x: TetraPoint) -> complex:
    """The fractional map (x3 z - x1) / (x2 z - 1); pole when x2 z = 1.

    The coordinates may also be ndarrays of points; PsiPole names the first pole.
    """
    x2z = x.x2 * z
    pole = np.abs(x2z - 1) < PSI_POLE_TOL
    if np.any(pole):
        first = np.ravel(x2z)[np.argmax(pole)]
        raise PsiPole(f"x2*z = {first} is within {PSI_POLE_TOL:g} of 1")
    return (x.x3 * z - x.x1) / (x2z - 1)


def tetra_defect(x: TetraPoint) -> float:
    """Signed membership defect; nonpositive inside the closed tetrablock.

    The coordinates may also be ndarrays of points; the defect is then an array.
    """
    return _defect(x.x1, x.x2, x.x3, abs(x.x3))


def _defect(x1, x2, x3, a3):
    """tetra_defect of (x1, x2, x3), given a3 = |x3|."""
    return abs(x1 - x2.conjugate() * x3) + abs(x2 - x1.conjugate() * x3) - (1.0 - a3 ** 2)


def classify_tetra(x: TetraPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> TetraRegion:
    """Most specific region label for a point of C^3.

    Distinguished boundary before topological boundary before interior;
    the |x3| = 1 edge case additionally requires |x1| <= 1.
    """
    x1, x2, x3 = x.x1, x.x2, x.x3
    a3 = abs(x3)
    defect = _defect(x1, x2, x3, a3)
    if abs(a3 - 1.0) <= tol and defect <= tol and abs(x1) <= 1.0 + tol:
        return TetraRegion.DISTINGUISHED_BOUNDARY
    if defect < -tol:
        return TetraRegion.INTERIOR
    if abs(defect) <= tol and abs(x1) <= 1.0 + tol and abs(x2) <= 1.0 + tol:
        return TetraRegion.TOPOLOGICAL_BOUNDARY
    return TetraRegion.OUTSIDE


def gamma_defect(g: GammaPoint) -> float:
    return abs(g.s - g.s.conjugate() * g.p) - (1.0 - abs(g.p) ** 2)


def classify_gamma(g: GammaPoint, tol: float = DEFAULT_MEMBERSHIP_TOL) -> GammaRegion:
    """Most specific region label for a point of C^2."""
    defect = gamma_defect(g)
    s_ok = abs(g.s) <= 2.0 + tol
    if s_ok and abs(abs(g.p) - 1.0) <= tol and abs(g.s - g.s.conjugate() * g.p) <= tol:
        return GammaRegion.GAMMA_DISTINGUISHED
    if s_ok and abs(defect) <= tol:
        return GammaRegion.GAMMA_BOUNDARY_TOP
    if defect < -tol:
        return GammaRegion.OPEN_G
    return GammaRegion.OUTSIDE


def pi_map(a: Matrix2) -> TetraPoint:
    """(a11, a22, det A); sends the closed matrix unit ball onto the closed tetrablock."""
    return TetraPoint(a.a11, a.a22, a.det())


def mu_diag_le_one(a: Matrix2) -> bool:
    """Structured singular value test against diagonal perturbations.

    det(I - A diag(z, w)) = 1 - a11 z - a22 w + det(A) z w, so the value is
    at most one exactly when pi(A) lies in the closed tetrablock.  Decided
    on mu itself, to DEFAULT_MEMBERSHIP_TOL: the membership defect of pi(A)
    barely moves with mu where the balanced matrix has a double singular
    value.  Raises NonFiniteCoefficient for a NaN or infinite entry.
    """
    return mu_diag_value(a) <= 1.0 + DEFAULT_MEMBERSHIP_TOL


def mu_diag_value(a: Matrix2) -> float:
    """mu for diagonal perturbations, in closed form.

    The D-scaled bound is exact for two scalar blocks (Doyle 1982): mu is the
    largest singular value of [[a11, d a12], [a21/d, a22]] at d^2 = |a21/a12|,
    mu^2 = (S + sqrt(S^2 - 4|det A|^2))/2 with S = |a11|^2 + |a22|^2 + 2|q| and
    q = a12 a21.  So 1/mu is the least r with r^2 S - r^4 |det A|^2 = 1, where
    pi(rA) leaves the closed tetrablock by the criterion of Abouhajar, White &
    Young 2007, as a11 a22 - det A = q.  S^2/4 - |det A|^2 is formed as
    ((|a11|^2 - |a22|^2)/2)^2 + |q| |a22 + conj(a11) q/|q||^2, which does not
    cancel, on A over its largest real or imaginary part (mu is homogeneous).
    Raises NonFiniteCoefficient for a NaN or infinite entry.
    """
    entries = [complex(v) for v in (a.a11, a.a12, a.a21, a.a22)]
    if not np.isfinite(entries).all():
        raise NonFiniteCoefficient(f"Matrix2 entries {entries} are not all finite")
    m = max(max(abs(v.real), abs(v.imag)) for v in entries)
    if m == 0.0:
        return 0.0
    a11, a12, a21, a22 = (v / m for v in entries)
    q = a12 * a21
    aq = abs(q)
    p, s = abs(a11) ** 2, abs(a22) ** 2
    coupling = math.sqrt(aq) * abs(a22 + a11.conjugate() * q / aq) if aq else 0.0
    return m * math.sqrt((p + s) / 2 + aq + math.hypot((p - s) / 2, coupling))


def gamma_to_tetra(g: GammaPoint) -> TetraPoint:
    """(s/2, s/2, p); lands in the closed tetrablock iff (s, p) lies in Gamma."""
    return TetraPoint(g.s / 2, g.s / 2, g.p)


def tetra_to_gamma_sum(x: TetraPoint) -> GammaPoint:
    return GammaPoint(x.x1 + x.x2, x.x3)


def tetra_to_gamma_diff(x: TetraPoint) -> GammaPoint:
    return GammaPoint(1j * x.x1 - 1j * x.x2, x.x3)


# -- random points with guaranteed region, for property sweeps ---------------

def sample_interior(rng: np.random.Generator) -> TetraPoint:
    """Random point of the open tetrablock via the beta parametrization.

    x1 = b1 + conj(b2) x3 and x2 = b2 + conj(b1) x3 with |b1| + |b2| < 1 and
    |x3| < 1 always lies inside; INTERIOR_MARGIN keeps a positive distance
    from the boundary.
    """
    m1 = rng.random()
    m2 = rng.random()
    if m1 + m2 > 1.0:
        m1, m2 = 1.0 - m1, 1.0 - m2
    shrink = 1.0 - INTERIOR_MARGIN
    b1 = shrink * m1 * np.exp(2j * np.pi * rng.random())
    b2 = shrink * m2 * np.exp(2j * np.pi * rng.random())
    x3 = shrink * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    return TetraPoint(b1 + np.conj(b2) * x3, b2 + np.conj(b1) * x3, x3)


def sample_distinguished(rng: np.random.Generator) -> TetraPoint:
    """Random distinguished-boundary point: x1 = conj(x2) x3 with |x3| = 1."""
    x2 = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    x3 = np.exp(2j * np.pi * rng.random())
    return TetraPoint(np.conj(x2) * x3, x2, x3)
