import pathlib
import re

import numpy as np
import pytest

from helpers import (coeff_bits, count_ifft, mp_circle_values, pairwise_product,
                     random_construction_spec)
import tetrainner
from tetrainner.construct import construct
from tetrainner.errors import (
    ConstructionInconsistent,
    DegreeExceedsReflectionIndex,
    NonFiniteCoefficient,
    TetraError,
    ZeroPolynomialHasAllRoots,
)
from tetrainner.fejriesz import TrigPolynomial
from tetrainner import polycx
from tetrainner.polycx import (
    CIRCLE_SAMPLES,
    CIRCLE_TOL,
    TRIM_TOL,
    Polynomial,
    circle_split,
    coeff_distance,
    from_roots,
    is_mirror,
    is_n_symmetric,
    product,
    roots,
    unit_circle,
    zero_free_disc,
)

SQ2 = np.sqrt(2.0)


def test_eval_linear_at_i():
    p = Polynomial((1, 1))
    assert p.eval(1j) == 1 + 1j


def test_eval_zero_polynomial():
    assert Polynomial().eval(3.0) == 0


def test_eval_worked_denominator():
    # -2 + lambda/2 at lambda = 1
    p = Polynomial((-2, 0.5))
    assert abs(p.eval(1.0) - (-1.5)) < 1e-15


def test_eval_on_array_matches_scalar():
    p = Polynomial((1.0, -2.0j, 0.25))
    grid = unit_circle(16)
    vals = p.eval(grid)
    for lam, v in zip(grid, vals):
        assert abs(p.eval(complex(lam)) - v) < 1e-14


def test_reflect_monomial():
    assert Polynomial((0, 1)).reflect(1) == Polynomial((1,))


def test_reflect_worked_linear():
    # sqrt(2)(1 - lambda/2) at index 1 gives sqrt(2)(lambda - 1/2)
    p = Polynomial((SQ2, -SQ2 / 2))
    expected = Polynomial((-SQ2 / 2, SQ2))
    assert coeff_distance(p.reflect(1), expected) < 1e-15


def test_reflect_is_involution():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(0, 9))
        deg = int(rng.integers(0, n + 1))
        p = Polynomial(tuple(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)))
        assert coeff_distance(p.reflect(n).reflect(n), p) < 1e-14


def test_reflect_rejects_large_degree():
    with pytest.raises(DegreeExceedsReflectionIndex):
        Polynomial((1, 2, 3)).reflect(1)


def test_reflect_circle_identity():
    # eval(reflect(p, n), lam) = lam^n conj(p(1/conj(lam))) on the circle
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        p = Polynomial(tuple(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)))
        for lam in unit_circle(13):
            lhs = p.reflect(n).eval(complex(lam))
            rhs = lam ** n * np.conj(p.eval(1.0 / np.conj(lam)))
            assert abs(lhs - rhs) < 1e-12


def test_conj_flip_imaginary_monomial():
    assert Polynomial((0, 1j)).conj_flip() == Polynomial((0, -1j))


def test_conj_flip_real_fixed_point():
    p = Polynomial((1.0, -2.0, 0.5))
    assert p.conj_flip() == p


def test_conj_flip_involution_and_eval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = Polynomial(tuple(rng.normal(size=5) + 1j * rng.normal(size=5)))
        assert p.conj_flip().conj_flip() == p
        lam = complex(rng.normal(), rng.normal())
        assert abs(p.conj_flip().eval(np.conj(lam)) - np.conj(p.eval(lam))) < 1e-12


def test_roots_quadratic():
    ms = roots(Polynomial((-1, 0, 1)))
    locs = sorted(ms.expand(), key=lambda z: z.real)
    assert len(locs) == 2
    assert abs(locs[0] + 1) < 1e-12 and abs(locs[1] - 1) < 1e-12


def test_roots_reflected_denominator():
    # lambda - 1/4, the reflection of the worked denominator up to scale
    ms = roots(Polynomial((-0.25, 1)))
    assert ms.entries == ((0.25 + 0j, 1),)


def test_roots_double_root_clusters():
    sigma = np.exp(1j * np.pi / 3)
    p = Polynomial((sigma ** 2, -2 * sigma, 1))
    ms = roots(p)
    assert len(ms.entries) == 1
    loc, order = ms.entries[0]
    assert order == 2
    assert abs(loc - sigma) < 1e-6


def test_circle_split_noisy_double_root():
    tau = np.exp(0.7j)
    d = from_roots([tau, 1.8, -1.5j, 1.2 + 1.1j])
    p = d * d.reflect(4)  # |d|^2 on the circle, up to lam^4
    rng = np.random.default_rng(3)
    noise = Polynomial(tuple(1e-12 * (rng.normal(size=9) + 1j * rng.normal(size=9))))
    noisy = p + noise + noise.reflect(8)
    near = [loc for loc, _ in roots(noisy).entries if abs(loc - tau) < 1e-3]
    assert len(near) == 2  # split far beyond cluster_tol
    inside, circle, outside = circle_split(noisy)
    assert len(circle) == 1
    loc, order = circle[0]
    assert order == 2 and abs(loc - tau) < 1e-9
    assert sum(o for _, o in inside) == sum(o for _, o in outside) == 3


def test_np_roots_called_only_in_polycx():
    src = pathlib.Path(tetrainner.__file__).parent
    callers = sorted(f.name for f in src.glob("*.py")
                     if re.search(r"\b(np|numpy)\.roots\(", f.read_text()))
    assert callers == ["polycx.py"]


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialHasAllRoots):
        roots(Polynomial())


def test_roots_orders_sum_to_degree():
    rng = np.random.default_rng(23)
    for _ in range(20):
        deg = int(rng.integers(1, 10))
        p = Polynomial(tuple(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)))
        assert roots(p).total_order == p.degree


def test_roots_expand_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(25):
        deg = int(rng.integers(1, 13))
        locs = []
        while len(locs) < deg:
            cand = complex(2 * rng.normal(), 2 * rng.normal())
            if all(abs(cand - z) > 0.3 for z in locs):
                locs.append(cand)
        recovered = roots(from_roots(locs)).expand()
        used = list(recovered)
        for z in locs:
            best = min(range(len(used)), key=lambda i: abs(used[i] - z))
            assert abs(used[best] - z) < 1e-7
            used.pop(best)


def test_is_n_symmetric_monomial_index_two():
    assert is_n_symmetric(Polynomial((0, 1)), 2)


def test_is_n_symmetric_palindrome():
    assert is_n_symmetric(Polynomial((1, 0, 1)), 2)


def test_is_n_symmetric_royal_example():
    # (7/4) lambda is 2-symmetric
    assert is_n_symmetric(Polynomial((0, 1.75)), 2)
    assert not is_n_symmetric(Polynomial((1, 1.75)), 2)


def test_is_n_symmetric_is_relative_to_the_largest_coefficient():
    # within AGREE_TOL (1 + 3e6) = 3e-4 of its reflection, beyond it
    p = Polynomial((1e6 + 2e6j, 3e6, 1e6 - 2e6j))
    assert is_n_symmetric(p + Polynomial((0, 0, 1e-6)), 2)
    assert not is_n_symmetric(p + Polynomial((0, 0, 1e-2)), 2)


def test_multiply_difference_of_squares():
    prod = Polynomial((1, 1)) * Polynomial((1, -1))
    assert coeff_distance(prod, Polynomial((1, 0, -1))) < 1e-15


def test_multiply_by_a_scalar_scales():
    p = Polynomial((1.5, -2j, 3))
    assert p * 2.0 == p.scale(2.0) == 2.0 * p
    assert p * 0 == Polynomial()
    with pytest.raises(NonFiniteCoefficient):
        p * np.nan


@pytest.mark.parametrize("coeffs", [
    (np.nan, 1), (np.inf,), (1, complex(0, np.nan)), (1, 2, complex(-np.inf, 0))])
def test_non_finite_coefficients_raise_a_typed_error(coeffs):
    with pytest.raises(NonFiniteCoefficient, match="Polynomial coefficient .* not finite") as err:
        Polynomial(coeffs)
    assert isinstance(err.value, TetraError) and err.value.cli_exit_code == 4


def test_add_cancels_to_zero():
    p = Polynomial((1.5, -2j, 3))
    assert (p + p.scale(-1)).is_zero


def test_worked_royal_polynomial_expansion():
    # (-2 + lambda/2)(1/2 - 2 lambda) - 2 (1 - lambda/2)(lambda - 1/2) = (7/4) lambda
    lhs = (Polynomial((-2, 0.5)) * Polynomial((0.5, -2))
           - Polynomial((1, -0.5)).scale(2.0) * Polynomial((-0.5, 1)))
    assert coeff_distance(lhs, Polynomial((0, 1.75))) < 1e-14


def test_trailing_trim_after_convolution():
    p = Polynomial((1.0, 1e-16))
    assert p.degree == 0
    ms = from_roots(roots(Polynomial((1, 2, 1))).expand())
    assert ms.degree == 2


def test_unit_circle_is_shared_and_read_only():
    grid = unit_circle(48)
    assert unit_circle(48) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0
    assert np.array_equal(grid, np.exp(2j * np.pi * np.arange(48) / 48))


# -- per-instance memos --------------------------------------------------------

def test_roots_memo_is_per_instance_and_tolerance():
    p = product([Polynomial((1.5,))] + [Polynomial((-r, 1)) for r in (0.5, -0.25j, 2.0 + 1.0j)])
    ms = roots(p)
    assert roots(p) is ms
    twin = Polynomial(p.coeffs)
    assert twin == p and roots(twin) is not ms and roots(twin) == ms


def test_on_circle_memo_is_per_instance_and_read_only():
    p = Polynomial((1.0, -2.0j, 0.25))
    vals = p.on_circle
    assert p.on_circle is vals and len(vals) == CIRCLE_SAMPLES
    assert np.max(np.abs(vals[::29] - mp_circle_values(p, CIRCLE_SAMPLES, 29))) <= 1e-14 * sum(
        map(abs, p.coeffs))
    assert not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 0.0
    twin = Polynomial(p.coeffs)
    assert twin.on_circle is not vals and np.array_equal(twin.on_circle, vals)
    zero = Polynomial().on_circle
    assert not zero.flags.writeable and not zero.any()
    # a carried array is read-only too, and a twin of the result transforms afresh
    carried = p.scale(2.0)
    assert "on_circle" in carried.__dict__ and not carried.on_circle.flags.writeable
    with pytest.raises(ValueError):
        carried.on_circle[0] = 0.0
    twin = Polynomial(carried.coeffs)
    assert "on_circle" not in twin.__dict__ and twin.on_circle is not carried.on_circle


P = Polynomial((1.0, -2.0j, 0.25))
Q = Polynomial((0.5j, 1.0, 0.0, -3.0 + 1.0j))


@pytest.mark.parametrize("op, scale", [
    (lambda p, q: p.scale(0.3 - 1.1j), 0.3 - 1.1j),
    (lambda p, q: 2.5 * p, 2.5),
    (lambda p, q: -p, 1.0),
    (lambda p, q: p + q, 1.0),
    (lambda p, q: p - q, 1.0),
    (lambda p, q: q.scale(0.5) - p.scale(2j), 2.0),
], ids=["scale", "rmul", "neg", "add", "sub", "combination"])
def test_linear_maps_carry_the_samples_of_sampled_operands(monkeypatch, op, scale):
    p, q = Polynomial(P.coeffs), Polynomial(Q.coeffs)
    p.on_circle, q.on_circle
    calls = count_ifft(monkeypatch)
    result = op(p, q)
    assert not calls and "on_circle" in result.__dict__
    assert not result.on_circle.flags.writeable
    # fixed before measuring: each operand's rounding, times the largest weight
    bound = 1e-15 * abs(scale) * (sum(map(abs, P.coeffs)) + sum(map(abs, Q.coeffs)))
    fresh = Polynomial(result.coeffs).on_circle
    assert len(calls) == 1 and np.max(np.abs(result.on_circle - fresh)) <= bound
    assert np.max(np.abs(result.on_circle[::61] - mp_circle_values(result, CIRCLE_SAMPLES, 61))
                  ) <= bound


@pytest.mark.parametrize("op", [
    lambda p, q: p + Polynomial(q.coeffs),          # an operand never sampled
    lambda p, q: Polynomial(q.coeffs) - p,
    lambda p, q: -Polynomial(p.coeffs),
    lambda p, q: Polynomial(p.coeffs).scale(3.0),
    lambda p, q: p - p.scale(1.0 + 1e-15),          # every coefficient trims
    lambda p, q: p.scale(1e-14),                    # the top coefficient drops below TRIM_TOL
], ids=["add-unsampled", "sub-unsampled", "neg-unsampled", "scale-unsampled", "sub-trims",
        "scale-trims"])
def test_no_carry_from_an_unsampled_operand_or_a_trimmed_result(op):
    p, q = Polynomial(P.coeffs), Polynomial(Q.coeffs)
    p.on_circle, q.on_circle
    result = op(p, q)
    assert "on_circle" not in result.__dict__
    # the fresh samples are those of the trimmed coefficients
    assert np.array_equal(result.on_circle, polycx.circle_values(result.coeffs))


def test_trig_polynomials_have_no_samples_to_carry():
    total = TrigPolynomial((1.0, 0.5j)) + TrigPolynomial((2.0,))
    assert type(total) is TrigPolynomial and not hasattr(total, "on_circle")


# degree -1 is the zero polynomial; degree > CIRCLE_SAMPLES folds the coefficients.
# m < CIRCLE_SAMPLES compares the subgrid unit_circle(m), every (CIRCLE_SAMPLES/m)-th point.
@pytest.mark.parametrize("degree, m", [
    (deg, m) for deg in (0, 1, 16, 64) for m in (16, 256, CIRCLE_SAMPLES)]
    + [(100, 16), (40, 32), (-1, 16), (-1, CIRCLE_SAMPLES), (CIRCLE_SAMPLES + 40, CIRCLE_SAMPLES)])
def test_on_circle_matches_mpmath_oracle(degree, m):
    rng = np.random.default_rng([degree + 1, m])
    p = Polynomial(tuple(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)))
    assert len(p.coeffs) == degree + 1
    # every point costs one mpmath Horner pass over the coefficients
    stride = CIRCLE_SAMPLES // m if m < CIRCLE_SAMPLES else 61 if degree <= 64 else 1489
    err = np.max(np.abs(p.on_circle[::stride] - mp_circle_values(p, CIRCLE_SAMPLES, stride)))
    assert err <= 1e-15 * sum(map(abs, p.coeffs))


def test_root_entries_are_python_scalars():
    # numpy scalars would change the reprs and the JSON of the results
    d = from_roots([np.exp(0.7j), 0.5, 1.8, -1.5j])
    p = d * d.reflect(4)
    groups = (roots(p).entries,) + circle_split(p)
    assert all(groups) and all(
        type(loc) is complex and type(order) is int for g in groups for loc, order in g)


def test_roots_error_is_not_kept():
    zero = Polynomial()
    for _ in range(2):
        with pytest.raises(ZeroPolynomialHasAllRoots):
            roots(zero)
    assert not vars(zero).get("_roots")


# -- product against the pairwise product ---------------------------------------

@pytest.mark.parametrize("factors", [
    [],
    [Polynomial((2.0, 1j))],
    [Polynomial((1, 1)), Polynomial()],
    # the leading coefficient drops below the trim threshold mid-way
    [Polynomial((1.0, -1e-10)), Polynomial((1.0, -2e-10j)), Polynomial((0.5, 1.0))],
    # every coefficient drops below it: the product is zero
    [Polynomial((1e-8,)), Polynomial((1e-8,)), Polynomial((1.0, 1.0))],
])
def test_product_edge_cases_match_pairwise(factors):
    expected = pairwise_product(factors[0], factors[1:]) if factors else Polynomial((1.0,))
    got = product(factors)
    assert coeff_bits(got) == coeff_bits(expected) and got.degree == expected.degree


def test_product_matches_pairwise_on_random_factors():
    rng = np.random.default_rng(71)
    for _ in range(50):
        factors = [Polynomial(tuple(rng.normal(size=int(rng.integers(1, 4)))
                                    + 1j * rng.normal(size=1)))
                   for _ in range(int(rng.integers(1, 12)))]
        expected = pairwise_product(factors[0], factors[1:])
        assert coeff_bits(product(factors)) == coeff_bits(expected)
        assert (coeff_bits(factors[0] * factors[-1])
                == coeff_bits(pairwise_product(factors[0], factors[-1:])))


# -- one read-only complex128 array, bit-identical to the tuple arithmetic ---------

def _ref_trim(cs):
    cs = [complex(c) for c in cs]
    while cs and abs(cs[-1]) <= TRIM_TOL:
        cs.pop()
    return tuple(cs)


def _ref_coeff(cs, j):
    return cs[j] if 0 <= j < len(cs) else 0j


def _ref_add(a, b):
    return _ref_trim(_ref_coeff(a, j) + _ref_coeff(b, j) for j in range(max(len(a), len(b))))


def _random_coeffs(rng):
    """Mixed magnitudes with exact and signed zeros and values at the trim threshold."""
    pool = [0.0, -0.0, 1.0, -2.5, TRIM_TOL, -TRIM_TOL, 3e-15, 1e-300]
    parts = [rng.normal() * 10.0 ** rng.integers(-16, 4) if rng.random() < 0.7
             else pool[rng.integers(len(pool))] for _ in range(2 * int(rng.integers(0, 9)))]
    return tuple(complex(re, im) for re, im in zip(parts[::2], parts[1::2]))


def _bits(cs):
    return np.array(cs, dtype=complex).tobytes()


def test_array_operations_match_the_tuple_arithmetic_bit_for_bit():
    rng = np.random.default_rng(2024)
    scalars = [complex(rng.normal(), rng.normal()), float(rng.normal()), -0.0, 2,
               np.float64(rng.normal()), np.complex128(complex(rng.normal(), -0.0))]
    for _ in range(400):
        a, b = _ref_trim(_random_coeffs(rng)), _ref_trim(_random_coeffs(rng))
        p, q = Polynomial(a), Polynomial(b)
        assert _bits(p.coeffs) == _bits(a) and _bits(q.coeffs) == _bits(b)
        for c in scalars:
            assert _bits(p.scale(c).coeffs) == _bits(_ref_trim(c * z for z in a))
        assert _bits((p + q).coeffs) == _bits(_ref_add(a, b))
        assert _bits((p - q).coeffs) == _bits(_ref_add(a, tuple(-z for z in b)))
        n = len(a) + int(rng.integers(0, 3))
        assert _bits(p.reflect(n).coeffs) == _bits(
            _ref_trim(np.conj(_ref_coeff(a, n - j)) for j in range(n + 1)))
        assert p.max_coeff() == max((abs(z) for z in a), default=0.0)
        assert coeff_distance(p, q) == max(
            (abs(_ref_coeff(a, j) - _ref_coeff(b, j)) for j in range(max(len(a), len(b)))),
            default=0.0)


@pytest.mark.parametrize("coeffs", [(), (1, 2), (0.5, 1j, 0.0)])
def test_coeffs_is_a_read_only_complex128_array(coeffs):
    for obj in (Polynomial(coeffs), TrigPolynomial(coeffs)):
        assert isinstance(obj.coeffs, np.ndarray) and obj.coeffs.dtype == np.complex128
        assert obj.coeffs.ndim == 1 and not obj.coeffs.flags.writeable
        with pytest.raises(ValueError):
            obj.coeffs[...] = 0
        with pytest.raises(TypeError):
            hash(obj)


def test_equality_compares_values_and_repr_keeps_full_precision():
    p = Polynomial((1 / 3, 0.1 + 2j / 3))
    assert p == Polynomial([1 / 3 + 0j, 0.1 + 2j / 3, 1e-15])
    assert p != Polynomial((1 / 3, 0.1 + 2j / 3 + 1e-12)) and p != TrigPolynomial(p.coeffs)
    assert repr(p) == f"Polynomial(coeffs={(1 / 3 + 0j, 0.1 + 2j / 3)!r})"
    assert eval(repr(p), {"Polynomial": Polynomial}) == p
    assert repr(Polynomial()) == "Polynomial(coeffs=())"
    assert repr(TrigPolynomial()) == "TrigPolynomial(coeffs=(0j,))"


def test_the_empty_polynomial_needs_no_special_case():
    zero, p = Polynomial(), Polynomial((1.0, -2j))
    assert zero.coeffs.shape == (0,) and zero.is_zero and zero.degree == float("-inf")
    for n in (-3, 0, 4):
        assert zero.reflect(n) == zero and is_n_symmetric(zero, n)
    assert zero + p == p and p + zero == p and zero - p == -p
    grid = unit_circle(16)
    assert np.array_equal(zero.eval(grid), np.zeros(16, dtype=complex))
    assert zero.eval(0.5) == 0 and zero.max_coeff() == 0.0 and coeff_distance(zero, p) == 2.0
    assert product([p, zero]) == zero and product([zero]) == zero and zero * p == zero


# -- Schur-Cohn disc test against mpmath roots ----------------------------------

RADII = (1.0 + CIRCLE_TOL, 1.0 - CIRCLE_TOL)   # strict and lenient DVanishesInDisc


def mp_roots(coeffs, start=None):
    """Roots of the ascending coefficients at 30 digits, refined from start if given."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        found, err = mpmath.polyroots(
            [mpmath.mpc(c.real, c.imag) for c in coeffs[::-1]], maxsteps=500, extraprec=100,
            roots_init=None if start is None else [mpmath.mpc(complex(z)) for z in start],
            error=True)
        assert err < 1e-20
        return found


def _constructed_d(rng, n):
    for _ in range(5):
        try:
            return construct(random_construction_spec(rng, n, k_circle=n // 3)).d
        except ConstructionInconsistent:
            continue
    pytest.fail(f"no construction at n = {n} in five draws")


def test_zero_free_disc_matches_mpmath_on_constructed_d():
    rng = np.random.default_rng(89)
    for n in range(1, 33):
        d = _constructed_d(rng, n)
        nearest = min(abs(r) for r in mp_roots(d.coeffs.tolist(), np.roots(d.coeffs[::-1])))
        for radius in RADII:
            assert zero_free_disc(d, radius) == (nearest > radius), (n, radius)


@pytest.mark.parametrize("n", [4, 12, 24])
def test_zero_free_disc_matches_mpmath_when_a_root_crosses_the_radius(n):
    mpmath = pytest.importorskip("mpmath")
    d = _constructed_d(np.random.default_rng(n), n)
    found = list(mp_roots(d.coeffs.tolist(), np.roots(d.coeffs[::-1])))
    near = min(range(n), key=lambda j: abs(found[j]))
    for radius in RADII:
        for shift in (1e-7, -1e-7, 1e-3, -1e-3):
            with mpmath.workdps(30):
                moved = found[:near] + [found[near] * (radius + shift) / abs(found[near])] \
                    + found[near + 1:]
                coeffs = [d.coeff(n)]
                for r in moved:   # times (lam - r), ascending
                    coeffs = [-r * coeffs[0]] + [coeffs[j - 1] - r * coeffs[j]
                                                 for j in range(1, len(coeffs))] + [coeffs[-1]]
                p = Polynomial(tuple(complex(c) for c in coeffs))
            nearest = min(abs(r) for r in mp_roots(p.coeffs.tolist(), moved))
            assert (nearest > radius) == (shift > 0)
            assert zero_free_disc(p, radius) == (shift > 0), (radius, shift)


@pytest.mark.parametrize("coeffs, radius, expected", [
    ((0.0, 1.0, 2.0), 1e-3, False),                      # d(0) = 0
    ((0.0, 0.0, 0.5j), 2.0, False),
    ((3.0 - 1j,), 1.0 + CIRCLE_TOL, True),              # a nonzero constant
    ((1e-13,), 1e6, True),
    ((1.0, -0.5, 2e-14), 1.0 + CIRCLE_TOL, True),       # roots near 2 and 2.5e13
    ((1.0, -0.5, 2e-14), 2.5, False),
    ((1.0, -1.0, 1e-14 + 1e-15j), 1.0 + CIRCLE_TOL, False),  # root 1 + 1e-14, near the trim
])
def test_zero_free_disc_edge_cases(coeffs, radius, expected):
    p = Polynomial(coeffs)
    if p.degree > 0:
        nearest = min(abs(r) for r in mp_roots(p.coeffs.tolist()))
        assert (nearest > radius) == expected
    assert zero_free_disc(p, radius) == expected


# -- roots_inside --------------------------------------------------------------

def test_roots_inside_a_zero_free_disc_solves_nothing(monkeypatch):
    def refuse(a):
        raise AssertionError("roots solved")

    monkeypatch.setattr(np, "roots", refuse)
    assert polycx.roots_inside(from_roots([1.5, -2.0j, 0.5 + 1.2j]), 1.0 + CIRCLE_TOL) == ()
    assert polycx.roots_inside(Polynomial((3.0 - 1j,)), 1e6) == ()


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.0 + CIRCLE_TOL])
def test_roots_inside_keeps_a_root_solved_onto_the_radius(rho):
    # Schur-Cohn finds the root of lam - rho in the closed disc of radius rho,
    # and the solve puts it at rho, not below: it is the nearest root
    p = Polynomial((-rho, 1.0))
    assert not zero_free_disc(p, rho) and polycx.roots(p).entries == ((rho + 0j, 1),)
    assert polycx.roots_inside(p, rho) == ((rho + 0j, 1),)


def test_zero_free_disc_is_kept_per_radius(monkeypatch):
    p = from_roots([1.5, -2.0j, 0.5 + 1.2j])
    calls = []
    test = polycx._schur_cohn
    monkeypatch.setattr(polycx, "_schur_cohn", lambda q: calls.append(1) or test(q))
    assert [zero_free_disc(p, r) for r in (1.0, 1.2, 1.0, 1.6, 1.2)] == [
        True, True, True, False, True]
    assert len(calls) == 3
    assert zero_free_disc(Polynomial(p.coeffs), 1.0) and len(calls) == 4
    with pytest.raises(ZeroPolynomialHasAllRoots):
        zero_free_disc(Polynomial(), 1.0)


# -- roots by Newton's method from seeds ------------------------------------------

# two interior roots and their reflections
PAIRS = from_roots([0.5, 2.0, -0.3j, 1 / np.conj(-0.3j)])


def test_seeded_split_equals_circle_split():
    # a root at 0 (its partner is at infinity), two interior pairs, a double circle root
    p = from_roots([0.0, 0.5, 2.0, -0.3j, 1 / np.conj(-0.3j), 1j, 1j])
    inside, circle = polycx._seeded_split(p, (0.0, 0.5, -0.3j, 1j))
    expected = circle_split(p)[:2]
    assert [order for _, order in inside] == [order for _, order in expected[0]] == [1, 1, 1]
    assert [order for _, order in circle] == [order for _, order in expected[1]] == [2]
    for found, solved in zip(inside + circle, expected[0] + expected[1]):
        assert abs(found[0] - solved[0]) < 1e-12


# roots spaced evenly on a segment or an arc: separated, yet so ill-conditioned
# that their rounding bounds exceed CIRCLE_TOL (Wilkinson's example)
SEGMENT = np.linspace(0.2, 0.6, 10)
ARC = np.exp(1j * np.linspace(0.0, 0.8, 6))


@pytest.mark.parametrize("p, seeds", [
    (from_roots(np.concatenate([SEGMENT, 1 / SEGMENT])), SEGMENT),
    (from_roots(np.concatenate([ARC, ARC])), ARC),
    # a simple root inside the join band of the circle
    (from_roots([0.999, 1 / 0.999]), (0.999,)),
    # a double root 1e-3 off the circle
    (from_roots([1.001, 1.001]), (1.0,)),
    # the derivative root 1 is on the circle, but 1 +- 0.01j split past the join radius
    (Polynomial((1 + 1e-4, -2, 1)), (1.0,)),
    # one seed for four roots
    (PAIRS, (0.5,)),
    # two seeds converge to one root: the count is right, the limits are not distinct
    (PAIRS, (0.5, 0.5001)),
], ids=["not-converged", "circle-not-converged", "join-band", "off-circle", "split",
        "count-short", "duplicate"])
def test_seeded_split_rejects(p, seeds):
    assert polycx._seeded_split(p, seeds) is None
    assert polycx._seeded_split(p, None) is None


def test_seeded_split_skips_the_interior_seeds_when_the_circle_seeds_fail(monkeypatch):
    # the circle pass reports a limit that fails every circle rule at once
    calls, run = [], polycx._newton_limits

    def limits(f, seeds):
        calls.append(len(seeds))
        if len(calls) == 1:
            return np.array([3.0 + 0j]), np.array([0.5]), np.array([1e-300 + 0j]), False
        return run(f, seeds)

    monkeypatch.setattr(polycx, "_newton_limits", limits)
    p = from_roots([0.5, 2.0, 1j, 1j])
    assert polycx._seeded_split(p, (0.5, 1j)) is None
    assert calls == [1]
    calls.clear()
    monkeypatch.setattr(polycx, "_newton_limits", lambda f, seeds: calls.append(len(seeds))
                        or run(f, seeds))
    assert polycx._seeded_split(p, (0.5, 1j)) is not None
    assert calls == [1, 1]


def test_seeded_split_runs_no_circle_pass_without_circle_seeds(monkeypatch):
    # k = 0 constructions: every seed lies inside the circle; the interior pass
    # converges for some of them and not for others
    rng, accepted = np.random.default_rng(5), 0
    calls, run, evaluate = [], polycx._newton_limits, Polynomial.eval
    monkeypatch.setattr(polycx, "_newton_limits", lambda f, z: calls.append(len(z)) or run(f, z))
    monkeypatch.setattr(Polynomial, "eval", lambda q, z: calls.append("eval") or evaluate(q, z))
    for _ in range(4):
        x = construct(random_construction_spec(rng, 16))
        p, seeds = x._royal[0], x._node_seeds
        assert all(abs(s) < 1.0 - 1e-3 for s in seeds)
        calls.clear()
        found = polycx._seeded_split(p, seeds)
        assert calls == [16]
        if found is not None:
            # the entries of the interior pass alone, as the empty circle pass left them
            interior = run(p.coeffs, seeds)[0]
            assert found == (polycx._entries(interior, np.ones(16, dtype=int)), ())
            accepted += 1
    assert 0 < accepted < 4


@pytest.mark.parametrize("p, seeds, accepted", [
    (PAIRS, (0.5, 2.0, -0.3j, 1 / np.conj(-0.3j)), True),
    (Polynomial((2.0,)), (), True),
    (PAIRS, None, False),
    (PAIRS, (0.5, 2.0, -0.3j), False),                   # a seed short
    (PAIRS, (0.5, 0.5001, 2.0, -0.3j), False),           # two seeds converge to one root
    (from_roots(np.linspace(0.2, 0.6, 12)), np.linspace(0.2, 0.6, 12), False),  # not converged
])
def test_seeded_roots_accept_only_distinct_converged_limits(monkeypatch, p, seeds, accepted):
    seeded = polycx._seeded_roots(p.coeffs, seeds)
    assert (seeded is not None) == accepted
    if accepted:
        solved = roots(Polynomial(p.coeffs))
        assert [order for _, order in seeded.entries] == [order for _, order in solved.entries]
        for (found, _), (loc, _) in zip(seeded.entries, solved.entries):
            assert abs(found - loc) < 1e-12
        # a seeded polynomial solves nothing
        seeded_copy = Polynomial(p.coeffs)
        object.__setattr__(seeded_copy, "_root_seeds", seeds)
        monkeypatch.setattr(np, "roots", None)
        assert roots(seeded_copy) == seeded


# -- exact reflections on the circle ------------------------------------------

@pytest.mark.parametrize("p, q, n, expected", [
    (Polynomial((1, 2j)), Polynomial((-2j, 1)), 1, True),
    (Polynomial((1, 2j)), Polynomial((0, -2j, 1)), 2, True),         # degree below n
    (Polynomial(), Polynomial(), 3, True),
    (Polynomial((1, 2j)), Polynomial((-2j, np.nextafter(1.0, 2.0))), 1, False),
    (Polynomial((1, 2j)), Polynomial((2j, 1)), 1, False),
    (Polynomial((1, 2j, 3)), Polynomial((3, -2j, 1)), 1, False),     # degree above n
])
def test_is_mirror_is_the_exact_reflection(p, q, n, expected):
    assert is_mirror(p, q, n) == expected


def test_is_mirror_rejects_a_reflection_that_trims():
    # q.reflect(1) drops q's coefficient 1e-15 and equals p, but |q| != |p| on the circle
    p, q = Polynomial((2j,)), Polynomial((1e-15, -2j))
    assert q.reflect(1) == p and not is_mirror(p, q, 1)
    assert not np.array_equal(np.abs(p.on_circle), np.abs(q.on_circle))


@pytest.mark.parametrize("n", [0, 1, 7, 32, 4095, 4096, 10000])
def test_circle_power_reads_lam_to_the_n_off_the_grid(n):
    grid = unit_circle(4096)
    for power in (n, -n):
        assert np.max(np.abs(polycx.circle_power(power) - grid ** power)) < 1e-11
    # the index form the verify command used for lam^-n, bit for bit
    assert np.array_equal(polycx.circle_power(-n), grid[(-n % 4096) * np.arange(4096) % 4096])
