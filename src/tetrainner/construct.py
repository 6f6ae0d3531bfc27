"""Construction of tetra-inner functions from zeros and royal nodes.

Pipeline: expand the target royal polynomial R = t_plus * prod Q_sigma with
Q_sigma(lam) = (lam - sigma)(1 - conj(sigma) lam), expand
E1 = t * prod (lam - alpha1_j) * prod (1 - conj(alpha2_j) lam), factor the
circle-nonnegative function lam^-n R + |E1|^2 into |D|^2 with D outer, and
assemble

    x = (E1/D, E1~n/D, D~n/D)

with the unimodular twist omega absorbed into the denominator (d is
conj(omega) D, so x3 picks up omega^2).  The reverse direction reads the
zeros of e1 and e2 in the closed disc and the royal nodes back off a
validated function; for a function that construct returned, by Newton's
method from the spec's nodes and zeros where that finds them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionInconsistent,
    DegenerateZeroComponent,
    InvalidConstructionSpec,
    NodeOutsideClosedDisc,
    NodeZeroCollision,
    ValidationError,
)
from .fejriesz import factor, laurent_shift, modulus_squared_on_circle
from .polycx import (CIRCLE_SAMPLES, CIRCLE_TOL, SPEC_TOL, Polynomial, RootMultiset,
                     coeff_distance, linear_product, reflected_roots, roots as poly_roots)
from .tetrafun import RoyalNode, TetraRational, royal_nodes, royal_polynomial, validate

ROYAL_DRIFT_TOL = 1e-8   # relative: a constructed royal polynomial against the built target


@dataclass(frozen=True)
class ConstructionSpec:
    """Input data: zero lists for x1 and x2, royal nodes, and the three parameters."""

    alpha1: tuple = ()
    alpha2: tuple = ()
    sigma: tuple = ()
    t_plus: float = 1.0
    t: complex = 1.0
    omega: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha1", tuple(complex(a) for a in self.alpha1))
        object.__setattr__(self, "alpha2", tuple(complex(a) for a in self.alpha2))
        object.__setattr__(self, "sigma", tuple(complex(s) for s in self.sigma))
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "omega", complex(self.omega))
        if self.n > CIRCLE_SAMPLES:
            raise InvalidConstructionSpec(f"n = {self.n} above CIRCLE_SAMPLES = {CIRCLE_SAMPLES}")
        # NaN fails every range check below, so it is named first
        for name in ("alpha1", "alpha2", "sigma", "t_plus", "t", "omega"):
            if np.isnan(getattr(self, name)).any():
                raise InvalidConstructionSpec(f"{name} is not a number")
        if len(self.alpha1) + len(self.alpha2) != len(self.sigma):
            raise InvalidConstructionSpec(
                f"zero count {len(self.alpha1)} + {len(self.alpha2)} "
                f"must equal node count {len(self.sigma)}")
        if not self.t_plus > 0:
            raise InvalidConstructionSpec(f"t_plus = {self.t_plus} must be positive")
        if self.t == 0:
            raise InvalidConstructionSpec("t must be nonzero")
        if abs(abs(self.omega) - 1.0) > SPEC_TOL:
            raise InvalidConstructionSpec(f"|omega| = {abs(self.omega)} is not 1")
        for name, pts in (("alpha1", self.alpha1), ("alpha2", self.alpha2),
                          ("sigma", self.sigma)):
            for z in pts:
                if abs(z) > 1.0 + SPEC_TOL:
                    raise NodeOutsideClosedDisc(f"{name} entry {z} lies outside the closed disc")
        circle_zeros = [a for a in self.alpha1 + self.alpha2
                        if abs(abs(a) - 1.0) <= CIRCLE_TOL]
        for a in circle_zeros:
            for s in self.sigma:
                if abs(a - s) <= CIRCLE_TOL:
                    raise NodeZeroCollision(
                        f"circle zero {a} collides with royal node {s}")

    @property
    def n(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class RecoveredData:
    zeros1: RootMultiset
    zeros2: RootMultiset
    nodes: tuple[RoyalNode, ...]


def build_royal_target(sigma, t_plus: float) -> Polynomial:
    """t_plus * prod (lam - sigma_j)(1 - conj(sigma_j) lam), expanded.

    The result is 2n-symmetric and lam^-n times it is nonnegative on the
    circle; InvalidConstructionSpec if it is zero (its product underflows).
    """
    if not t_plus > 0:
        raise InvalidConstructionSpec(f"t_plus = {t_plus} must be positive")
    pairs = []
    for s in sigma:
        s = complex(s)
        if abs(s) > 1.0 + SPEC_TOL:
            raise NodeOutsideClosedDisc(f"royal node {s} lies outside the closed disc")
        pairs += [(-s, 1), (1, -np.conj(s))]
    return _nonzero(linear_product(t_plus, pairs), "royal target")


def build_e1(alpha1, alpha2, t: complex) -> Polynomial:
    """t * prod (lam - alpha1_j) * prod (1 - conj(alpha2_j) lam), which must be nonzero."""
    return _nonzero(linear_product(complex(t), [(-complex(a), 1) for a in alpha1]
                                   + [(1, -np.conj(complex(a))) for a in alpha2]), "e1")


def _nonzero(p: Polynomial, name: str) -> Polynomial:
    if p.is_zero:
        raise InvalidConstructionSpec(f"{name} is zero")
    return p


def construct(spec: ConstructionSpec) -> TetraRational:
    """Run the full pipeline and self-check the output.

    The returned function's d is zero-free on the closed disc, so its degree
    is n, and its royal polynomial is within ROYAL_DRIFT_TOL (relative) of the
    built target; otherwise ConstructionInconsistent is raised.  Its royal
    nodes are matched to sigma when they are first read: royal_nodes raises it there.
    """
    n = spec.n
    target = build_royal_target(spec.sigma, spec.t_plus)
    e1 = build_e1(spec.alpha1, spec.alpha2, spec.t)
    trig = laurent_shift(target, n) + modulus_squared_on_circle(e1)
    d_outer = factor(trig)
    d = d_outer.scale(np.conj(spec.omega))
    e2 = e1.reflect(n)
    try:
        x = validate(e1, e2, d, n)
    except ValidationError as exc:
        raise ConstructionInconsistent(f"constructed triple failed validation: {exc}") from exc
    royal = royal_polynomial(x)
    drift = coeff_distance(royal, target)
    if drift > ROYAL_DRIFT_TOL * target.max_coeff():
        raise ConstructionInconsistent(
            f"royal polynomial drift {drift:.3e} exceeds tolerance")
    # the nodes and zeros are known: circle_split(royal) and roots(e1) start Newton from them
    object.__setattr__(royal, "_node_seeds", spec.sigma)
    object.__setattr__(e1, "_root_seeds",
                       spec.alpha1 + tuple(1 / np.conj(a) for a in spec.alpha2 if a))
    return x


def recover_data(x: TetraRational) -> RecoveredData:
    """Zeros of x1 and x2 in the closed disc plus the royal nodes.

    Only the roots of e1 are found (seeded or solved, see polycx.roots):
    validation makes e2 = e1~n within AGREE_TOL, so the zeros of x2 are the
    reflections of the zeros of x1.  A factor common to e1, e2 and d at
    circle zeros of d would add zeros; validation divides it out (see
    tetrafun.validate).  Identically zero components carry no finite
    zero list and are rejected; royal-variety functions have no node data,
    so royal_nodes raises.
    """
    if x.e1.is_zero or x.e2.is_zero:
        raise DegenerateZeroComponent(
            "a component of the function is identically zero; no zero list exists")
    zeros1, zeros2 = (
        RootMultiset(tuple(entry for entry in found.entries if abs(entry[0]) <= 1.0 + CIRCLE_TOL))
        for found in (poly_roots(x.e1), reflected_roots(x.e1, x.n)))
    return RecoveredData(zeros1, zeros2, royal_nodes(x))
