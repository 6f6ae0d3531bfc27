"""Rational tetra-inner functions.

A validated triple (e1, e2, d) of polynomials with reflection index n
represents the map

    x(lam) = (e1(lam)/d(lam), e2(lam)/d(lam), d~n(lam)/d(lam)),

where d~n is the n-reflection of d.  Validation enforces the degree
bounds, nonvanishing of d on the closed disc once a factor that e1, e2
and d share at circle zeros of d is divided out, the reflection identity
e1 = e2~n, and modulus domination of both numerators by d.

The royal polynomial reflect(d, n) * d - e1 * e2 vanishes exactly where
the function meets the variety {x1 x2 = x3}; its disc-closure zeros are
the royal nodes, counted with halved multiplicity on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import repeat

import numpy as np

from . import boundary
from .boundary import TetraPoint
from .errors import (
    ConstructionInconsistent,
    DenominatorVanishes,
    InvalidSuperficialSpec,
    MalformedInput,
    RoyalVarietyFunction,
    UndefinedOmegaOrK,
    ValidationError,
)
from .polycx import (
    CIRCLE_SAMPLES,
    CIRCLE_TOL,
    EPS,
    SPEC_TOL,
    TRACE_SAMPLES,
    Polynomial,
    _is_number,
    _newton_limits,
    agree,
    circle_split,
    coeff_distance,
    decode_complex_list,
    encode_complex,
    is_mirror,
    linear_product,
    modulus,
    roots_inside,
    unit_circle,
    zero_free_disc,
    zero_pad,
)

MODULUS_SLACK = 1e-9
RING_SAMPLES = 64              # points per ring of the superficial and Psi checks
SUPERFICIAL_TOL = 1e-10        # |tetra_defect| below this is on the topological boundary


@dataclass(frozen=True)
class TetraRational:
    e1: Polynomial
    e2: Polynomial
    d: Polynomial
    n: int

    @cached_property
    def d_reflected(self) -> Polynomial:
        return self.d.reflect(self.n)

    @cached_property
    def _royal(self) -> tuple[Polynomial, bool]:
        """reflect(d, n) * d - e1 * e2, and whether the two products agree (the
        royal variety).  The difference cancels (a royal node at 0 leaves rounding
        where its top coefficient is 0), so trailing coefficients R_j within the
        bound of forming them, (n + 2) eps (|d~n| * |d| + |e1| * |e2|)_j with *
        convolving moduli (Higham, Accuracy and Stability, ch. 3), are dropped."""
        dd, ee = self.d_reflected * self.d, self.e1 * self.e2
        royal = dd - ee
        k = len(royal.coeffs)
        # |d~n|, |d|, |e1|, |e2| padded to k: m[0][:k] @ m[1][k - 1::-1] is (|d~n| * |d|)_(k-1)
        m = [zero_pad(np.abs(p.coeffs), k) for p in (self.d_reflected, self.d, self.e1, self.e2)]
        while k and abs(royal.coeffs.item(k - 1)) <= (self.n + 2) * EPS * float(
                m[0][:k] @ m[1][k - 1::-1] + m[2][:k] @ m[3][k - 1::-1]):
            k -= 1
        return (royal if k == len(royal.coeffs) else Polynomial(royal.coeffs[:k])), agree(dd, ee)

    @cached_property
    def _on_rings(self) -> tuple:
        """(x1, x2, x3) on _rings(), read-only; a raised error is not kept."""
        values = _eval_grid(self, _rings())
        for v in values:
            v.flags.writeable = False
        return values

    @cached_property
    def _royal_nodes(self) -> tuple:
        """The royal_nodes result, checked against construct's spec; a raised error is not kept."""
        royal, on_variety = self._royal
        if on_variety:
            raise RoyalVarietyFunction("royal polynomial is identically zero")
        inside, circle = circle_split(royal)[:2]
        nodes = [RoyalNode(loc, order, order, False) for loc, order in inside]
        nodes += [RoyalNode(loc, order, order // 2, True) for loc, order in circle]
        nodes.sort(key=lambda nd: (round(nd.location.real, 12), round(nd.location.imag, 12)))
        if royal._node_seeds is not None:
            _match_spec(royal._node_seeds, [nd.location for nd in nodes
                                            for _ in range(nd.multiplicity)])
        return tuple(nodes)


def _match_spec(sigma, found) -> None:
    """Raise ConstructionInconsistent unless the nodes found match sigma one to one within
    CIRCLE_TOL: greedy in sigma's order, each taking the nearest unused node."""
    if len(found) != len(sigma):
        raise ConstructionInconsistent(
            f"{len(found)} royal nodes found for the spec's {len(sigma)}")
    if not sigma:
        return
    dist = modulus(np.subtract.outer(np.array(sigma), np.array(found)))
    pick = np.argmin(dist, axis=1)
    if len(set(pick.tolist())) < len(pick):
        # two spec nodes share a nearest node: each takes the nearest unused one in turn
        free = np.ones(len(found), dtype=bool)
        for i, row in enumerate(dist):
            pick[i] = np.flatnonzero(free)[np.argmin(row[free])]
            free[pick[i]] = False
    worst = float(dist[np.arange(len(pick)), pick].max())
    if worst > CIRCLE_TOL:
        raise ConstructionInconsistent(
            f"a royal node lies {worst:.3e} from its spec node, above CIRCLE_TOL")


@dataclass(frozen=True)
class RoyalNode:
    location: complex
    raw_order: int
    multiplicity: int
    on_circle: bool


@dataclass(frozen=True)
class TypeNK:
    n: int
    k: int
    royal_variety_flag: bool = False

    @classmethod
    def from_nodes(cls, nodes) -> "TypeNK":
        """Total and circle multiplicities of a royal_nodes result."""
        return cls(sum(nd.multiplicity for nd in nodes),
                   sum(nd.multiplicity for nd in nodes if nd.on_circle))


@dataclass(frozen=True)
class BlaschkeSpec:
    """Finite Blaschke product data: zeros inside the open disc, |constant| = 1."""

    zeros: tuple = ()
    unimodular_constant: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        c = complex(self.unimodular_constant)
        object.__setattr__(self, "unimodular_constant", c)
        # each check is written so that NaN fails it
        if not abs(abs(c) - 1.0) <= SPEC_TOL:
            raise InvalidSuperficialSpec(f"|unimodular_constant| = {abs(c)} is not 1")
        for z in self.zeros:
            if not abs(z) < 1.0 - SPEC_TOL:
                raise InvalidSuperficialSpec(f"Blaschke zero {z} not strictly inside the disc")


@dataclass(frozen=True)
class SuperficialSpec:
    """Boundary-valued family: beta weights with |beta1| + |beta2| = 1."""

    beta1: complex
    beta2: complex
    x3: BlaschkeSpec

    def __post_init__(self):
        if not abs(abs(self.beta1) + abs(self.beta2) - 1.0) <= SPEC_TOL:   # NaN fails it
            raise InvalidSuperficialSpec(
                f"|beta1| + |beta2| = {abs(self.beta1) + abs(self.beta2)} is not 1")


@dataclass(frozen=True)
class ConditionCheck:
    code: str
    passed: bool
    detail: str


def validation_report(e1: Polynomial, e2: Polynomial, d: Polynomial,
                      n: int) -> list[ConditionCheck]:
    """Per-condition report for the representation conditions; an e2 that is_mirror
    of e1 passes ReflectionMismatch with deviation 0, unreflected, and ModulusDomination
    reads it as e1 (|e2| = |e1| on the circle), unsampled.  A d with circle zeros
    passes DVanishesInDisc only where validate divides them out."""
    return _validated(e1, e2, d, n)[0]


def validate(e1: Polynomial, e2: Polynomial, d: Polynomial, n: int) -> TetraRational:
    """Return the validated function or raise ValidationError with every violated condition.

    d must be zero-free on the closed disc, and then (e1, e2, d) at index n is
    returned.  Where d's zeros in the closed disc all lie on the circle, the
    factor f that e1, e2 and d share there (see _circle_quotient) is divided
    out instead, which changes neither x nor its degree, and x/f at index
    n - deg f is returned.  So every function returned has a d zero-free on
    the closed disc.  A rational Gamma-inner (s, p) = (s_num/d, d~n/d) of ALY15
    embeds as (s/2, s/2, p): validate(s_num/2, s_num/2, d, n).
    """
    checks, x = _validated(e1, e2, d, n)
    if x is None:
        raise ValidationError([(c.code, c.detail) for c in checks if not c.passed])
    return x


def _validated(e1, e2, d, n) -> tuple[list[ConditionCheck], TetraRational | None]:
    """validation_report's checks and validate's function, None unless every check passed."""
    checks, parts = [], (e1, e2, d, n)

    # the circle grid cannot vouch for ModulusDomination above degree CIRCLE_SAMPLES
    capped = n <= CIRCLE_SAMPLES
    deg_ok = capped and all(p.degree <= n for p in (e1, e2, d))
    checks.append(ConditionCheck(
        "DegreeBound", deg_ok,
        f"deg(e1)={e1.degree}, deg(e2)={e2.degree}, deg(d)={d.degree}, bound n={n}"
        + ("" if capped else f", n above CIRCLE_SAMPLES = {CIRCLE_SAMPLES}")))

    if d.is_zero:
        checks.append(ConditionCheck("DVanishesInDisc", False, "d is identically zero"))
    elif d.degree > min(n, CIRCLE_SAMPLES):
        # a d this long would cost a companion solve of its own degree
        checks.append(ConditionCheck("DVanishesInDisc", False,
                                     "degree bound failed, disc test skipped"))
    else:
        found = roots_inside(d, 1.0 + CIRCLE_TOL)
        detail = f"roots of d inside the closed disc: {list(found) or 'none'}"
        if found:
            # zeros on the circle alone may be a factor e1, e2 and d share
            open_disc = roots_inside(d, 1.0 - CIRCLE_TOL)
            parts = None if open_disc else _circle_quotient(e1, e2, d, n, found)
            if parts is not None:
                zeros = ", ".join(f"order {m} at {complex(tau):.6g}" for tau, m in found)
                detail += f"; common circle factor ({zeros}) divided out"
        checks.append(ConditionCheck("DVanishesInDisc", parts is not None, detail))

    mirror = deg_ok and is_mirror(e1, e2, n)
    if not deg_ok:
        checks.append(ConditionCheck("ReflectionMismatch", False,
                                     "degree bound failed, reflection undefined"))
    else:
        passed, dev = True, 0.0
        if not mirror:
            e2_reflected = e2.reflect(n)
            passed, dev = agree(e1, e2_reflected), coeff_distance(e1, e2_reflected)
        checks.append(ConditionCheck(
            "ReflectionMismatch", passed,
            f"max coefficient deviation of e1 from the n-reflection of e2: {dev:.3e}"))

    dv = d.abs_on_circle
    slack = MODULUS_SLACK * float(np.max(dv))
    worst = max(float(np.max(e.abs_on_circle - dv)) for e in ((e1,) if mirror else (e1, e2)))
    checks.append(ConditionCheck(
        "ModulusDomination", worst <= slack,
        f"max(|e_i| - |d|) on the circle: {worst:.3e}"))
    return checks, TetraRational(*parts) if all(c.passed for c in checks) else None


def _circle_quotient(e1, e2, d, n, circle) -> tuple | None:
    """(e1/f, e2/f, d/f, n - deg f), or None unless each quotient times f agrees with its
    original (polycx.agree) and d/f is zero-free on the closed disc.

    circle holds d's zeros in the closed disc, all on the circle.  f has
    c (lam - tau)^m with c = exp(i (pi - arg tau)/2) for each zero tau of d of
    order m there, so f is its own reflection at index deg f.
    """
    pairs = []
    for tau, m in circle:
        # a zero of order m is a simple zero of d's (m - 1)-th derivative
        tau = _newton_limits(np.polyder(d.coeffs[::-1], m - 1)[::-1], [tau])[0][0]
        c = np.exp(0.5j * (np.pi - np.angle(tau)))
        pairs += [(-c * tau, c)] * m
    f = linear_product(1.0, pairs)
    parts = (e1, e2, d)
    quotients = [p if p.is_zero else Polynomial(np.polydiv(p.coeffs[::-1], f.coeffs[::-1])[0][::-1])
                 for p in parts]
    if (all(agree(q * f, p) for q, p in zip(quotients, parts))
            and zero_free_disc(quotients[2], 1.0 + CIRCLE_TOL)):
        return (*quotients, n - f.degree)
    return None


def eval_function(x: TetraRational, lam: complex) -> TetraPoint:
    """Value of the function at a point of the closed disc."""
    if not abs(lam) <= 1.0 + CIRCLE_TOL:   # NaN fails it
        raise ValueError(f"|lam| = {abs(lam)} is outside the closed disc")
    dv = x.d.eval(lam)
    if dv == 0:
        raise DenominatorVanishes(f"d({lam}) = {dv}")
    return TetraPoint(x.e1.eval(lam) / dv, x.e2.eval(lam) / dv,
                      x.d_reflected.eval(lam) / dv)


def _eval_grid(x: TetraRational, lam: np.ndarray):
    """(x1, x2, x3) as arrays over the points lam, which lie in the closed disc.

    Raises DenominatorVanishes at the first point where eval_function would.
    """
    dv = x.d.eval(lam)
    pole = dv == 0
    if pole.any():
        i = int(np.argmax(pole))
        raise DenominatorVanishes(f"d({lam[i]}) = {dv[i]}")
    return x.e1.eval(lam) / dv, x.e2.eval(lam) / dv, x.d_reflected.eval(lam) / dv


def _points(x1, x2, x3):
    """TetraPoints of coordinate arrays, built in C with no Python call per point."""
    return map(tuple.__new__, repeat(TetraPoint), zip(x1.tolist(), x2.tolist(), x3.tolist()))


@cache
def _rings() -> np.ndarray:
    """RING_SAMPLES points on each circle of radius 0.1, 0.5 and 0.9; shared, read-only."""
    rings = (np.array([0.1, 0.5, 0.9])[:, None] * unit_circle(RING_SAMPLES)).ravel()
    rings.flags.writeable = False
    return rings


def degree(x: TetraRational) -> int:
    """Blaschke degree of the third component.

    Counts the open-disc zeros of the n-reflection of d: x.n less the orders
    in polycx.roots_inside(d, 1 + CIRCLE_TOL), so x.n with nothing solved
    for every function validate returns, whose d passed the closed-disc test
    it memoised.  Circle zeros of an unvalidated d cancel against the
    reflection and do not count.  Raises ZeroPolynomialHasAllRoots for d = 0.
    """
    return x.n - sum(order for _, order in roots_inside(x.d, 1.0 + CIRCLE_TOL))


def winding_number(x: TetraRational) -> int:
    """Total winding of the third component along the circle.

    By the argument principle, the zeros of d~n in the open disc (degree)
    less the poles of d~n/d there, the orders in roots_inside(d, 1 - CIRCLE_TOL).
    Circle zeros of d cancel against the reflection.  Nothing is sampled, and
    nothing is solved when d passes both disc tests.
    Raises ZeroPolynomialHasAllRoots for d = 0.
    """
    return degree(x) - sum(order for _, order in roots_inside(x.d, 1.0 - CIRCLE_TOL))


def royal_polynomial(x: TetraRational) -> Polynomial:
    """reflect(d, n) * d - e1 * e2; identically zero on the royal variety."""
    return x._royal[0]


def is_royal_variety(x: TetraRational) -> bool:
    return x._royal[1]


def royal_nodes(x: TetraRational) -> tuple[RoyalNode, ...]:
    """Disc-closure zeros of the royal polynomial with multiplicities.

    lam^-n times the royal polynomial is |d|^2 - |e1|^2 on the circle, so
    polycx.circle_split applies.  Zeros outside the closed disc are the
    reflections of interior zeros and are discarded; circle zeros carry
    half of their even raw order as multiplicity.  A factor common to e1,
    e2 and d at circle zeros of d would add circle roots; validation divides
    it out (see validate).  A function that construct returned
    takes the Newton limits from its spec's nodes where they account for
    every root (see polycx.circle_split); any other function solves.  Such
    a function's nodes, counted with multiplicity, must then match its
    spec's one to one within CIRCLE_TOL, each spec node in turn taking the
    nearest unused one, or ConstructionInconsistent is raised.  The result
    is kept on x; a raised error is not kept.
    """
    return x._royal_nodes


def type_nk(x: TetraRational) -> TypeNK:
    """Total and circle royal multiplicities, or the royal-variety flag."""
    if is_royal_variety(x):
        return TypeNK(0, 0, royal_variety_flag=True)
    return TypeNK.from_nodes(royal_nodes(x))


def superficial_build(spec: SuperficialSpec, n_bound: int) -> TetraRational:
    """Boundary-valued function from beta weights and a Blaschke third component.

    With d the denominator of the Blaschke product (scaled so the reflection
    identity realizes the unimodular constant) and N its reflection,

        e1 = beta1 d + conj(beta2) N,   e2 = beta2 d + conj(beta1) N.

    The image of the open disc lies in the topological boundary.
    """
    k = len(spec.x3.zeros)
    if k > n_bound:
        raise InvalidSuperficialSpec(f"Blaschke degree {k} exceeds bound {n_bound}")
    gamma = np.exp(-0.5j * np.angle(spec.x3.unimodular_constant))
    d = linear_product(gamma, [(1.0, -np.conj(z)) for z in spec.x3.zeros])
    num = d.reflect(k)
    e1 = spec.beta1 * d + np.conj(spec.beta2) * num
    e2 = spec.beta2 * d + np.conj(spec.beta1) * num
    return validate(e1, e2, d, k)


def is_superficial(x: TetraRational) -> bool:
    """Sampled test that the open-disc image stays on the topological boundary.

    Evaluates on RING_SAMPLES uniform points of each circle of radius 0.1,
    0.5 and 0.9, as one array kept on x; every |tetra_defect| must stay
    below SUPERFICIAL_TOL.
    """
    defect = boundary.tetra_defect(TetraPoint(*x._on_rings))
    return not np.any(np.abs(defect) >= SUPERFICIAL_TOL)


def psi_omega_check(x: TetraRational, spec: SuperficialSpec) -> float:
    """Max deviation of Psi(omega, x(lam)) from its constant value.

    omega = conj(beta2)/|beta2| and the constant is beta1/|beta1|; both
    beta weights must be nonzero.  lam runs over RING_SAMPLES uniform points
    of each circle of radius 0.1, 0.5 and 0.9, the samples is_superficial
    keeps on x, evaluated as one array by boundary.psi, which raises PsiPole
    at the first pole.
    """
    if spec.beta1 == 0 or spec.beta2 == 0:
        raise UndefinedOmegaOrK("both beta weights must be nonzero")
    omega = np.conj(spec.beta2) / abs(spec.beta2)
    k_val = spec.beta1 / abs(spec.beta1)
    psi = boundary.psi(omega, TetraPoint(*x._on_rings))
    return float(np.max(np.abs(psi - k_val)))


def circle_trace(x: TetraRational,
                 samples: int = TRACE_SAMPLES) -> list[tuple[complex, TetraPoint, float]]:
    """Uniform circle samples with the distinguished-boundary defect |x1 - conj(x2) x3|.

    Evaluates on the grid unit_circle(samples), 16 <= samples <= CIRCLE_SAMPLES,
    as one array and returns (lam, x(lam), defect) rows of plain Python
    complex and float.
    """
    if samples < 16:
        raise ValueError("samples must be at least 16")
    if samples > CIRCLE_SAMPLES:
        raise ValueError(f"samples must be at most CIRCLE_SAMPLES = {CIRCLE_SAMPLES}")
    grid = unit_circle(samples)
    x1, x2, x3 = _eval_grid(x, grid)
    defect = np.abs(x1 - x2.conjugate() * x3)
    return list(zip(grid.tolist(), _points(x1, x2, x3), defect.tolist()))


# JSON codec: ascending coefficient lists, {"n", "E1", "E2", "D"}; numbers as in polycx

def decode_function_fields(data: dict) -> tuple[Polynomial, Polynomial, Polynomial, int]:
    """(e1, e2, d, n) of a function payload, parsed but not validated; n = 2.0 reads as 2."""
    for key in ("n", "E1", "E2", "D"):
        if key not in data:
            raise MalformedInput(f"missing field {key!r}")
    polys = [Polynomial(decode_complex_list(data[key], key)) for key in ("E1", "E2", "D")]
    n = data["n"]
    if not _is_number(n) or n % 1:
        raise MalformedInput("field 'n' must be an integer")
    if n < 0:
        raise MalformedInput("field 'n' must be nonnegative")
    return (*polys, int(n))


def to_json_dict(x: TetraRational) -> dict:
    def encode(p: Polynomial):
        return [encode_complex(c) for c in p.coeffs.tolist()]

    return {"n": x.n, "E1": encode(x.e1), "E2": encode(x.e2), "D": encode(x.d)}


def from_json_dict(data: dict) -> TetraRational:
    return validate(*decode_function_fields(data))
