"""Complex univariate polynomials, ascending coefficient order.

Coefficients are one read-only complex128 array; the zero polynomial is the
empty array.  Trailing coefficients of magnitude <= TRIM_TOL are dropped on
construction so convolution noise cannot inflate the formal degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegreeExceedsReflectionIndex,
    NonFiniteCoefficient,
    OddCircleRootOrder,
    ZeroPolynomialHasAllRoots,
)

TRIM_TOL = 1e-14
NEG_INF = float("-inf")
EPS = float(np.finfo(float).eps)
# Library-wide values; every module imports them from here.  Callers and the
# command line override only the membership tolerance and the trace samples.
DEFAULT_MEMBERSHIP_TOL = 1e-9
CIRCLE_TOL = 1e-6
CLUSTER_TOL = 1e-7
CIRCLE_SAMPLES = 4096
TRACE_SAMPLES = 256
AGREE_TOL = 1e-10     # relative: two coefficient lists are one polynomial
SPEC_TOL = 1e-12      # exact input: unimodular constants, points in the closed disc


def modulus(a: np.ndarray) -> np.ndarray:
    """|a| elementwise; np.hypot rounds as Python's abs does, np.abs does not."""
    return np.hypot(a.real, a.imag)


def zero_pad(a: np.ndarray, m: int) -> np.ndarray:
    """a followed by zeros up to length m."""
    return np.concatenate((a, np.zeros(max(m - len(a), 0))))


class CoefficientArray:
    """Frozen dataclass base: coeffs is a read-only complex128 array; == compares values."""

    def _set_coeffs(self, c: np.ndarray):
        """Keep c as coeffs, read-only; NonFiniteCoefficient if an entry is NaN or infinite."""
        if not np.isfinite(c).all():
            raise NonFiniteCoefficient(f"{type(self).__name__} coefficient "
                                       f"{complex(c[~np.isfinite(c)][0])} is not finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @cached_property
    def _coeff_tuple(self) -> tuple:
        """The coefficients as a tuple of Python complex numbers."""
        return tuple(self.coeffs.tolist())

    def coeff(self, j: int) -> complex:
        return complex(self.coeffs[j]) if 0 <= j < len(self.coeffs) else 0j

    def __add__(self, other):
        m = max(len(self.coeffs), len(other.coeffs))
        return type(self)(zero_pad(self.coeffs, m) + zero_pad(other.coeffs, m))

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}(coeffs={self._coeff_tuple!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Polynomial(CoefficientArray):
    coeffs: np.ndarray = ()
    # roots() and circle_split() try Newton from these first (not fields: copies
    # and JSON drop them)
    _root_seeds = None
    _node_seeds = None

    def __post_init__(self):
        self._set_coeffs(_trim(np.array(self.coeffs, dtype=complex)))

    @cached_property
    def _roots(self) -> "RootMultiset":
        """The roots result; polycx.roots rejects the zero polynomial before it."""
        seeds = self._root_seeds
        if seeds is not None and len(seeds) == self.degree:
            z, bound, _, converged = _newton_limits(self.coeffs, seeds)
            if converged and _distinct(z, bound):
                return RootMultiset(_entries(z, np.ones(len(z), dtype=int)))
        z = np.roots(self.coeffs[::-1])
        with np.errstate(all="ignore"):
            fz = self.eval(z)
            cand = z - fz / Polynomial(_derivative(self.coeffs)).eval(z)
            better = np.isfinite(cand) & (np.abs(self.eval(cand)) <= np.abs(fz))
        z = np.where(better, cand, z)
        member = _components(z, CLUSTER_TOL)
        orders = member.sum(axis=1)
        return RootMultiset(_entries(member @ z / orders, orders))

    @cached_property
    def _zero_free(self) -> dict:
        """zero_free_disc results by radius; scale carries them (see scale)."""
        return {}

    @property
    def degree(self):
        """Index of the last nonzero coefficient; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if len(self.coeffs) else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def max_coeff(self) -> float:
        return float(modulus(self.coeffs).max(initial=0.0))

    def eval(self, z):
        """Horner evaluation at a scalar, or elementwise at an ndarray of points."""
        acc = 0j * z
        for c in reversed(self._coeff_tuple):
            acc = acc * z + c
        return acc

    @cached_property
    def on_circle(self) -> np.ndarray:
        """Values on unit_circle(CIRCLE_SAMPLES), once per instance, read-only; see _carry."""
        vals = circle_values(self.coeffs)
        vals.flags.writeable = False
        return vals

    @cached_property
    def abs_on_circle(self) -> np.ndarray:
        """|on_circle|, once per instance, read-only."""
        vals = np.abs(self.on_circle)
        vals.flags.writeable = False
        return vals

    def _carry(self, operands, combine) -> "Polynomial":
        """self, given on_circle = combine(operand samples) with no transform, when
        every operand has sampled and self kept all of their coefficients.

        scale, negation, + and - (linear maps) carry samples so.
        """
        if (len(self.coeffs) == max(len(q.coeffs) for q in operands)
                and all("on_circle" in q.__dict__ for q in operands)):
            vals = combine(*(q.on_circle for q in operands))
            vals.flags.writeable = False
            self.__dict__["on_circle"] = vals
        return self

    def reflect(self, n: int) -> "Polynomial":
        """Coefficient reversal with conjugation at index n.

        Realizes f -> lambda^n * conj(f(1/conj(lambda))); requires degree <= n.
        """
        if self.degree > n:
            raise DegreeExceedsReflectionIndex(
                f"degree {self.degree} exceeds reflection index {n}")
        return Polynomial(np.conj(zero_pad(self.coeffs, n + 1)[::-1]))

    def conj_flip(self) -> "Polynomial":
        """Conjugate every coefficient: f -> conj(f(conj(lambda)))."""
        return Polynomial(np.conj(self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return super().__add__(other)._carry((self, other), np.add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs)._carry((self,), np.negative)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return product((self, other))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        """c times self; a result that kept every coefficient (so c != 0) has
        self's roots and takes a copy of self's zero_free_disc answers."""
        a = self.coeffs
        # Python's complex product c * a_j part by part; numpy's complex multiply rounds otherwise
        out = (c.real * a.real - c.imag * a.imag).astype(complex)
        out.imag = c.real * a.imag + c.imag * a.real
        scaled = Polynomial(out)._carry((self,), lambda vals: c * vals)
        if len(scaled.coeffs) == len(a) and "_zero_free" in self.__dict__:
            scaled.__dict__["_zero_free"] = dict(self._zero_free)
        return scaled


def _trim(c: np.ndarray) -> np.ndarray:
    """c without its trailing coefficients of modulus TRIM_TOL or below."""
    k = len(c)
    while k and abs(c.item(k - 1)) <= TRIM_TOL:
        k -= 1
    return c if k == len(c) else c[:k]


def _convolve(arrays) -> np.ndarray:
    """Left-to-right product of coefficient arrays, None if there are none.

    Each factor and each partial product is trimmed as Polynomial trims, so
    the result equals the repeated Polynomial product bit for bit.
    """
    acc = None
    for a in arrays:
        a = _trim(a)
        if not len(a) or (acc is not None and not len(acc)):
            return a[:0]
        acc = a if acc is None else _trim(np.convolve(acc, a))
    return acc


def product(factors) -> Polynomial:
    """Product of the polynomials in factors, multiplied left to right; 1 if none.

    Convolves coefficient arrays and builds one Polynomial at the end.
    """
    acc = _convolve(f.coeffs for f in factors)
    return Polynomial((1.0,)) if acc is None else Polynomial(acc)


def linear_product(lead: complex, pairs) -> Polynomial:
    """lead * prod (c0 + c1 lam) over the (c0, c1) pairs, multiplied left to right.

    Equals product() of the Polynomials (lead,), (c0, c1), ... bit for bit,
    without building one Polynomial per factor.
    """
    return Polynomial(_convolve([np.array([lead], dtype=complex),
                                 *np.array(pairs, dtype=complex)]))


def coeff_distance(p: Polynomial, q: Polynomial) -> float:
    """Max absolute coefficient difference, shorter side zero padded."""
    m = max(len(p.coeffs), len(q.coeffs))
    return float(modulus(zero_pad(p.coeffs, m) - zero_pad(q.coeffs, m)).max(initial=0.0))


def agree(p: Polynomial, q: Polynomial) -> bool:
    """True iff p and q differ by at most AGREE_TOL (1 + their largest coefficient)."""
    return coeff_distance(p, q) <= AGREE_TOL * (1.0 + max(p.max_coeff(), q.max_coeff()))


def is_n_symmetric(p: Polynomial, n: int) -> bool:
    """True iff degree(p) <= n and p agrees with its n-reflection."""
    return p.degree <= n and agree(p, p.reflect(n))


def is_mirror(p: Polynomial, q: Polynomial, n: int) -> bool:
    """True iff q is p's n-reflection exactly, nothing trimmed: then |q| = |p| on the circle."""
    m = n + 1
    return (max(len(p.coeffs), len(q.coeffs)) <= m
            and np.array_equal(zero_pad(q.coeffs, m), np.conj(zero_pad(p.coeffs, m)[::-1])))


def circle_values(c: np.ndarray) -> np.ndarray:
    """Values of the ascending coefficients c on unit_circle(CIRCLE_SAMPLES).

    The values at the m-th roots of unity are the inverse DFT of c, folded
    modulo m when there are more than m coefficients (omega^(jk) depends on
    k mod m only).
    """
    m = CIRCLE_SAMPLES
    if len(c) > m:
        c = np.pad(c, (0, -len(c) % m)).reshape(-1, m).sum(axis=0)
    return np.fft.ifft(c, m, norm="forward")


@lru_cache(maxsize=8)
def unit_circle(m: int) -> np.ndarray:
    """m uniform samples of the unit circle, counterclockwise from 1.

    Built once per m and shared, so the array is read-only.
    """
    grid = np.exp(2j * np.pi * np.arange(m) / m)
    grid.flags.writeable = False
    return grid


def circle_power(n: int) -> np.ndarray:
    """lam^n on unit_circle(CIRCLE_SAMPLES), read off the grid as exact as the grid itself."""
    return unit_circle(CIRCLE_SAMPLES)[n * np.arange(CIRCLE_SAMPLES) % CIRCLE_SAMPLES]


@dataclass(frozen=True)
class RootMultiset:
    """Clustered roots with integer orders; orders sum to the degree."""

    entries: tuple = ()

    @property
    def total_order(self) -> int:
        return sum(order for _, order in self.entries)

    def expand(self) -> tuple:
        """Locations repeated according to order."""
        out = []
        for loc, order in self.entries:
            out.extend([loc] * order)
        return tuple(out)


def _components(points, tol):
    """Membership matrix (component x point) of the graph joining points
    closer than tol; with one tol per point the smaller of two decides."""
    tol = np.broadcast_to(tol, points.shape)
    close = np.abs(points[:, None] - points[None, :]) < np.minimum.outer(tol, tol)
    labels = np.arange(len(points))
    while True:
        spread = np.where(close, labels, len(points)).min(axis=1, initial=len(points))
        if np.array_equal(spread, labels):
            return np.flatnonzero(labels == np.arange(len(points)))[:, None] == labels
        labels = spread


def _entries(locs, orders):
    """(location, order) pairs in the library's canonical order."""
    keys = np.lexsort((np.round(locs.imag, 12), np.round(locs.real, 12)))
    return tuple(zip(locs[keys].tolist(), orders[keys].tolist()))


def roots(p: Polynomial) -> RootMultiset:
    """All complex roots with multiplicity.

    Eigenvalues of the companion matrix of the monic normalization, one
    Newton step per root where it lowers |p|, then one entry per connected
    component of the graph joining roots closer than CLUSTER_TOL.  A p with
    one root seed per root (construct's e1) takes their Newton limits instead
    when they converge and are _distinct.  The result is kept on p; a raised
    error is not kept.
    """
    if p.is_zero:
        raise ZeroPolynomialHasAllRoots("the zero polynomial vanishes everywhere")
    return p._roots


def zero_free_disc(p: Polynomial, radius: float) -> bool:
    """True iff every root of p has modulus above radius; no roots are solved.

    The Schur-Cohn test on p(radius lam); see _schur_cohn.  O(degree^2)
    flops.  The result is kept on p for each radius, and a kept answer
    decides every radius it implies: zero-free up to r is zero-free up to
    any radius <= r, and not zero-free up to r is not up to any radius >= r.
    """
    if p.is_zero:
        raise ZeroPolynomialHasAllRoots("the zero polynomial vanishes everywhere")
    memo = p._zero_free
    for kept, free in memo.items():
        if (kept >= radius) if free else (kept <= radius):
            return free
    memo[radius] = _schur_cohn(p.coeffs * radius ** np.arange(len(p.coeffs)))
    return memo[radius]


def roots_inside(p: Polynomial, radius: float) -> tuple:
    """The (location, order) entries of roots(p) of modulus below radius.

    zero_free_disc decides, and roots are solved only when it finds one.
    When rounding puts every solved root at or past radius, the entry
    nearest to 0 stands for the root the test found.
    """
    if zero_free_disc(p, radius):
        return ()
    found = roots(p).entries
    return (tuple(entry for entry in found if abs(entry[0]) < radius)
            or (min(found, key=lambda entry: abs(entry[0])),))


def _schur_cohn(q: np.ndarray) -> bool:
    """True iff the polynomial with ascending coefficients q has no root in the closed unit disc.

    Schur 1917, Cohn 1922; Marden, Geometry of Polynomials, sections 42-43.
    With q normalised to q(0) = 1 and top coefficient a, |a| < 1 is
    necessary (1/|a| is the product of the root moduli), and then
    q - a conj(q reversed) loses its top coefficient and keeps the number
    of roots in the closed disc (Rouché on the circle, where
    |q reversed| = |q|).  So
    the test recurses on that, normalised again, down to a constant.
    """
    if q[0] == 0:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        q = q / q[0]
        while len(q) > 1:
            a = q.item(-1)
            if not abs(a) < 1.0:
                return False
            q = (q[:-1] - a * np.conj(q[:0:-1])) / (1.0 - abs(a) ** 2)
    return True


def reflected_roots(p: Polynomial, n: int) -> RootMultiset:
    """Roots of p.reflect(n), read from roots(p) with no solve.

    n - deg p roots at 0, and 1/conj(r) with its order for each nonzero root
    r of p (a root at 0 has no reflection: the reflected degree drops
    instead); roots closer than CLUSTER_TOL merge at their mean, as in roots().
    """
    pairs = [(1 / loc.conjugate(), order) for loc, order in roots(p).entries if loc]
    if n > p.degree:
        pairs.append((0j, n - p.degree))
    locs = np.array([loc for loc, _ in pairs], dtype=complex)
    orders = np.array([order for _, order in pairs], dtype=int)
    member = _components(locs, CLUSTER_TOL)
    total = member @ orders
    return RootMultiset(_entries(member @ (orders * locs) / total, total))


def _derivative(c: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the derivative of the polynomial with coefficients c."""
    return np.arange(1, len(c)) * c[1:]


def _newton_limits(f: np.ndarray, seeds) -> tuple:
    """Newton's method on the polynomial with ascending coefficients f, all
    seeds at once, one power matrix per step; a seed stops once its step no
    longer shrinks.  Returns the limits, the rounding bound on their
    positions (Horner bound of f over |f'|), f' there, and whether they
    converged: each next step within its bound, each bound within CIRCLE_TOL.
    The bound covers evaluating f as given, not the rounding that formed f:
    for a royal polynomial, a difference of two convolutions that cancel,
    forming it rounded 30-175 times more than this bound at the nodes of
    n = 24-32 specs.
    """
    df = _derivative(f)
    c, last = np.asarray(seeds, dtype=complex), np.inf
    with np.errstate(all="ignore"):
        for _ in range(64):
            powers = c[:, None] ** np.arange(len(f))
            slope = powers[:, :-1] @ df
            step = (powers @ f) / slope
            size = np.abs(step)
            if not np.any((size < last) & (size > 4 * EPS * np.abs(c))):
                break
            c, last = np.where(size < last, c - step, c), np.minimum(size, last)
        bound = len(f) * EPS * (np.abs(powers) @ np.abs(f)) / np.abs(slope)
        return c, bound, slope, bool(np.all((size <= bound) & (bound <= CIRCLE_TOL)))


def _distinct(z: np.ndarray, margin: np.ndarray) -> bool:
    """True iff the points z lie pairwise more than 2 CLUSTER_TOL plus their margins apart."""
    gap = np.abs(z[:, None] - z[None, :]) - margin[:, None] - margin[None, :]
    return bool(np.all((gap > 2 * CLUSTER_TOL) | np.eye(len(z), dtype=bool)))


def _seeded_split(p: Polynomial, seeds, circle_tol: float) -> tuple | None:
    """circle_split(p, circle_tol) as Newton limits from the seeds; None
    unless they account for every root of p.

    A seed within SPEC_TOL of the circle stands for a double root: its limit
    c on p' must pass circle_split's tests (|c| within circle_tol plus the
    rounding bound t of 1, and the roots c +- w of the quadratic model,
    |w|^2 = |2 p(c) / p''(c)|, within the join radius 2 sqrt(2 t) of c) and
    gives (c/|c|, 2).  Another seed's limit s on p, inside the circle and
    outside the join band, gives (s, 1) inside and (1/conj(s), 1) outside
    unless the seed is 0.  All limits converge, are _distinct (c by its join
    radius) and count deg p roots; the circle seeds run first, when there are
    any, and the rest only if they pass.
    """
    if seeds is None:
        return None
    seeds = np.asarray(seeds, dtype=complex)
    on = np.abs(np.abs(seeds) - 1.0) <= SPEC_TOL
    c, join = seeds[on], np.zeros(0)
    with np.errstate(all="ignore"):
        if on.any():
            c, c_bound, ddp, converged = _newton_limits(_derivative(p.coeffs), c)
            join = 2.0 * np.sqrt(2.0 * (circle_tol + c_bound))
            if not (converged and np.all(np.abs(np.abs(c) - 1.0) <= circle_tol + c_bound)
                    and np.all(np.sqrt(np.abs(2.0 * p.eval(c) / ddp)) <= join)):
                return None
        s, bound, _, converged = _newton_limits(p.coeffs, seeds[~on])
        paired = seeds[~on] != 0
        partners = 1.0 / np.conj(s[paired])
        ok = (converged
              and np.all(1.0 - np.abs(s) > 2.0 * np.sqrt(2.0 * (circle_tol + bound)))
              and len(s) + len(partners) + 2 * len(c) == p.degree
              and _distinct(np.concatenate([s, partners, c]),
                            np.concatenate([bound, bound[paired] / np.abs(s[paired]) ** 2,
                                            join])))
    if not ok:
        return None
    return (_entries(s, np.ones(len(s), dtype=int)), _entries(c / np.abs(c), np.full(len(c), 2)),
            _entries(partners, np.ones(len(partners), dtype=int)))


def circle_split(p: Polynomial, circle_tol: float = CIRCLE_TOL) -> tuple:
    """Roots of p as (inside, circle, outside) tuples of (location, order).

    p is self-reciprocal and of one sign on the circle up to a power of
    lam, so its roots pair as (r, 1/conj r) and its circle roots have even
    order.  A circle root of order 2v is a root of p' of order 2v - 1;
    noise splits it into 2v roots of p around the derivative root, which
    stays near the circle.  So each root of p near the circle seeds Newton's
    method on p'.  A double root whose derivative root c lies t off the
    circle splits by sqrt(2 t), so a root joins its limit c when it lies
    within twice that, t being circle_tol plus the rounding bound on the
    position of c.  Limits within twice their rounding bounds of each other
    are one derivative root c; when c lies within t of the circle, their
    roots form one circle entry at c/|c| with their total raw order.
    circle_tol = 0 forgives rounding only.  The rounding bounds cover
    evaluating p's coefficients as given, not the rounding that formed them
    (for a royal polynomial at n = 24-32, 30-175 times larger at its nodes).
    A p with node seeds (construct's royal polynomial) takes their Newton
    limits instead when _seeded_split accepts them, and solves nothing.

    Raises OddCircleRootOrder for a circle entry of odd order, and for a
    root that joins none yet lies within circle_tol plus its own rounding
    bound of the circle.
    """
    seeded = _seeded_split(p, p._node_seeds, circle_tol)
    if seeded is not None:
        return seeded
    ms = roots(p)
    z = np.array([loc for loc, _ in ms.entries], dtype=complex)
    orders = np.array([order for _, order in ms.entries], dtype=int)
    dist = np.abs(np.abs(z) - 1.0)
    with np.errstate(all="ignore"):
        # How far rounding alone can move each root: the Horner bound over
        # |p'| for a simple root, both from one power matrix; a merged entry
        # is known to CLUSTER_TOL.
        powers = z[:, None] ** np.arange(len(p.coeffs))
        simple = p.degree * EPS * (np.abs(powers) @ np.abs(p.coeffs)) / np.abs(
            powers[:, :-1] @ _derivative(p.coeffs))
        slack = circle_tol + np.where(orders > 1, CLUSTER_TOL, simple)
        joined = dist <= 2.0 * np.sqrt(2.0 * slack)
        locs, total = z[:0], orders[:0]
        if joined.any():
            c, rounding, _, _ = _newton_limits(_derivative(p.coeffs), z[joined])
            close = np.abs(c - z[joined]) <= 2.0 * np.sqrt(2.0 * (circle_tol + rounding))
            joined[joined] = close
            member = _components(c[close], 2.0 * rounding[close])
            total = member @ orders[joined]
            locs = member @ (orders[joined] * c[close]) / total
            on_circle = np.abs(np.abs(locs) - 1.0) <= circle_tol + np.max(
                np.where(member, rounding[close], 0.0), axis=1, initial=0.0)
            joined[joined] = member[on_circle].any(axis=0)
            locs, total = locs[on_circle], total[on_circle]
        lone = ~joined & (dist <= slack)
    odd = np.concatenate([locs[total % 2 == 1], z[lone]])
    if len(odd):
        raise OddCircleRootOrder(f"circle root near {complex(odd[0]):.6g} has odd order")
    inside, outside = ~joined & (np.abs(z) < 1.0), ~joined & (np.abs(z) >= 1.0)
    return (_entries(z[inside], orders[inside]), _entries(locs / np.abs(locs), total),
            _entries(z[outside], orders[outside]))


def from_roots(locations) -> Polynomial:
    """Expand prod (lambda - r) over the given root list."""
    return linear_product(1.0, [(-r, 1) for r in locations])
