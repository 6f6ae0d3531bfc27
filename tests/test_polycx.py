import pathlib
import re

import numpy as np
import pytest

from helpers import (NAN_EIGENVALUE_D, SCHUR_COHN_OVERFLOW_D, assert_exact_expansion, coeff_bits,
                     complex_list, convolved_once, count_disc_tests, count_ifft, count_solves,
                     mp_circle_values, pairwise_product, random_construction_spec)
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
from tetrainner.tetrafun import validate
from tetrainner import polycx
from tetrainner.polycx import (
    CIRCLE_SAMPLES,
    CIRCLE_TOL,
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
    zero_pad,
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


def test_eigvals_called_only_in_polycx():
    src = pathlib.Path(tetrainner.__file__).parent
    texts = {f.name: f.read_text() for f in src.glob("*.py")}
    assert sorted(name for name, text in texts.items()
                  if re.search(r"\b(np|numpy)\.linalg\.eigvals\(", text)) == ["polycx.py"]
    assert not any(re.search(r"\b(np|numpy)\.roots\(", text) for text in texts.values())


def _solver_inputs(rng):
    """Complex, real and real-negated (signed zero) coefficients of degree 0-64,
    with 0-3 exact-zero low coefficients."""
    for trial in range(240):
        deg = int(rng.integers(0, 65))
        c = rng.normal(size=deg + 1) + 0j
        if trial % 3 == 0:
            c += 1j * rng.normal(size=deg + 1)
        elif trial % 3 == 2:
            c = -np.round(c, 1)
        c[:min(int(rng.integers(0, 4)), deg)] = 0.0
        c[-1] = c[-1] or 1.0
        yield c


def test_companion_roots_equal_np_roots_bit_for_bit():
    for c in _solver_inputs(np.random.default_rng(41)):
        assert polycx._companion_roots(c).tobytes() == np.roots(c[::-1]).astype(complex).tobytes()


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_circle_split_lists_inside_and_outside_in_canonical_order(n):
    rng, checked = np.random.default_rng([43, n]), 0
    for k_circle in (0, n // 2, 0, n // 2):
        x = construct(random_construction_spec(rng, n, k_circle=k_circle))
        try:
            inside, _, outside = circle_split(Polynomial(x._royal[0].coeffs))
        except TetraError:
            continue
        for entries in (inside, outside):
            locs, orders = zip(*entries) if entries else ((), ())
            assert entries == polycx._entries(np.array(locs, dtype=complex),
                                              np.array(orders, dtype=int))
        checked += len(inside) > 1
    assert checked >= 2


def _components_by_search(points, tol):
    """Membership rows of the connected components, in order of their first point."""
    tol = np.broadcast_to(tol, points.shape)
    label = list(range(len(points)))
    for i in range(len(points)):
        for j in range(i):
            if abs(points[i] - points[j]) < min(tol[i], tol[j]):
                old, new = sorted((label[i], label[j]))[::-1]
                label = [new if lab == old else lab for lab in label]
    return np.array([[lab == root for lab in label] for root in sorted(set(label))],
                    dtype=bool).reshape(len(set(label)), len(points))


@pytest.mark.parametrize("points, tol", [
    ([], 1e-7),
    ([0.5j], 1e-7),
    ([0.0, 1.0, 2.0j, -1.0], 1e-7),
    ([0.0, 1.0, 1.0 + 5e-8, -1.0], 1e-7),                     # one close pair
    ([0.0, 1.0, 1.0 + 5e-8, 2.0, 2.0 + 5e-8j, 2.0 - 5e-8j], 1e-7),
    ([0.0, 5e-4, 1.0, 1.0 + 5e-4], [1e-3, 1e-3, 1e-9, 1e-3]),   # the smaller tol decides
    ([0.0, 5e-4, 1.0], [1e-3, 1e-3, 1e-9]),
    ([0.0, 5e-4, 1.0], [1e-3, 1e-4, 1e-9]),
])
def test_components_match_a_plain_search(points, tol):
    points = np.array(points, dtype=complex)
    member = polycx._components(points, tol)
    assert member.dtype == bool
    assert np.array_equal(member, _components_by_search(points, tol))


def test_roots_of_a_polynomial_whose_derivative_overflows():
    # 2 * 1e308 overflows: the polish reads p' as a coefficient list, not as a Polynomial
    # (which would reject the infinite coefficient), and keeps the eigenvalues
    (minus_one, order_a), (zero, order_b) = roots(Polynomial((0, 1e308, 1e308))).entries
    assert abs(minus_one + 1) <= 1e-15 and zero == 0 and order_a == order_b == 1


@pytest.mark.parametrize("coeffs", [
    (1, 1e300, 1e-10),                  # the normalization's parts overflow
    complex_list(NAN_EIGENVALUE_D),     # its modulus does
])
def test_roots_raise_when_the_monic_normalization_overflows(coeffs):
    with pytest.raises(NonFiniteCoefficient, match="monic normalization"):
        roots(Polynomial(coeffs))


def test_roots_raise_on_an_eigenvalue_that_is_not_finite(monkeypatch):
    # LAPACK may return NaN eigenvalues; _components would drop them from the multiset
    monkeypatch.setattr(polycx.np.linalg, "eigvals", lambda m: np.full(len(m), np.nan + 0j))
    with pytest.raises(NonFiniteCoefficient, match="eigenvalue"):
        roots(Polynomial((1, 2, 3)))


def test_schur_cohn_reads_a_top_coefficient_past_the_float_range_as_not_zero_free():
    assert not zero_free_disc(Polynomial(complex_list(SCHUR_COHN_OVERFLOW_D)), 1.0)
    assert polycx._schur_cohn(np.array([1.0, complex(1.5e308, 1.5e308)])) is False


def _extreme_draws(rng, count):
    """(coefficients, degree) of degree 1-8, of random phase, with moduli near
    powers of ten from 1e-300 to 1e300: their ratios and products leave the
    float range when normalised, reflected and multiplied."""
    scales = np.array([-300.0, -200.0, -100.0, -10.0, 0.0, 10.0, 100.0, 200.0, 300.0])
    for _ in range(count):
        deg = int(rng.integers(1, 9))
        exponents = rng.choice(scales, size=deg + 1) + rng.uniform(-1, 1, size=deg + 1)
        yield (10.0 ** np.clip(exponents, -300, 300) * np.exp(2j * np.pi * rng.random(deg + 1)),
               deg)


def _or_typed_error(call):
    """call(), or None when it raises a TetraError."""
    try:
        return call()
    except TetraError:
        return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extreme_finite_coefficients_give_results_or_typed_errors():
    for c, deg in _extreme_draws(np.random.default_rng(61), 300):
        p = Polynomial(c)
        found = _or_typed_error(lambda: roots(p))
        assert found is None or len(found.expand()) == p.degree, c
        _or_typed_error(lambda: zero_free_disc(p, 1.0))
        _or_typed_error(lambda: polycx.roots_inside(p, 1.0))
        _or_typed_error(lambda: circle_split(p * p.reflect(p.degree)))
        _or_typed_error(lambda: validate(Polynomial(()), Polynomial(()), p, deg))


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialHasAllRoots):
        roots(Polynomial())


def test_roots_orders_sum_to_degree():
    rng = np.random.default_rng(23)
    for _ in range(20):
        deg = int(rng.integers(1, 10))
        p = Polynomial(tuple(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)))
        assert len(roots(p).expand()) == p.degree


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


# finite parts of infinite modulus count as not finite, first, inner or trailing
HUGE = complex(1.5e308, 1.5e308)


@pytest.mark.parametrize("coeffs", [
    (np.nan, 1), (np.inf,), (1, complex(0, np.nan)), (1, 2, complex(-np.inf, 0)),
    (HUGE, 2, 3), (1, HUGE, 3), (1, 2, HUGE)])
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
    # exact zeros go, of either sign; a tiny coefficient is data
    assert Polynomial((1.0, 0.0, -0.0j)).degree == 0
    assert Polynomial((1.0, 1e-16)).degree == Polynomial((1.0, 5e-324)).degree == 1
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
    lambda p, q: p - p,                             # every coefficient cancels exactly
    lambda p, q: p.scale(5e-324),                   # the top coefficient underflows to 0
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


# -- product against one convolution chain, the mpmath oracle and pairwise ------

@pytest.mark.parametrize("factors", [
    [],
    [Polynomial((2.0, 1j))],
    [Polynomial((1, 1)), Polynomial()],
    # the leading coefficient drops below the trim threshold mid-way
    [Polynomial((1.0, -1e-10)), Polynomial((1.0, -2e-10j)), Polynomial((0.5, 1.0))],
    # every coefficient drops below it: the product is zero
    [Polynomial((1e-8,)), Polynomial((1e-8,)), Polynomial((1.0, 1.0))],
])
def test_product_edge_cases_match_one_convolution_chain(factors):
    expected = convolved_once([f.coeffs for f in factors]) if factors else Polynomial((1.0,))
    got = product(factors)
    assert coeff_bits(got) == coeff_bits(expected) and got.degree == expected.degree
    assert_exact_expansion(got, [f.coeffs for f in factors])


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
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_coeff(cs, j):
    return cs[j] if 0 <= j < len(cs) else 0j


def _ref_add(a, b):
    return _ref_trim(_ref_coeff(a, j) + _ref_coeff(b, j) for j in range(max(len(a), len(b))))


def _random_coeffs(rng):
    """Mixed magnitudes with exact and signed zeros, tiny and subnormal values."""
    pool = [0.0, -0.0, 1.0, -2.5, 1e-14, -1e-14, 3e-15, 1e-300, 5e-324]
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
    assert p == Polynomial([1 / 3 + 0j, 0.1 + 2j / 3, 0.0])
    assert p != Polynomial([1 / 3 + 0j, 0.1 + 2j / 3, 1e-15])
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

RADII = (1.0 + CIRCLE_TOL, 1.0 - CIRCLE_TOL)   # validation's closed- and open-disc tests


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
        # scale carries the answers kept on d; each equals a fresh test of the scaled twin
        q = d.scale(np.exp(2j * np.pi * rng.random()) * (0.5 + rng.random()))
        assert q._zero_free == d._zero_free and q._zero_free is not d._zero_free
        for radius in (*RADII, 1.0 - 1e-9, 1.0, 0.5):
            assert zero_free_disc(q, radius) == zero_free_disc(Polynomial(q.coeffs), radius), (
                n, radius)


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
    calls = count_disc_tests(monkeypatch)
    assert [zero_free_disc(p, r) for r in (1.0, 1.2, 1.0, 1.6, 1.2)] == [
        True, True, True, False, True]
    assert len(calls) == 3
    # zero-free up to 1.2 decides every smaller radius, a root within 1.6 every larger one
    assert [zero_free_disc(p, r) for r in (1.1, 0.5, 2.0)] == [True, True, False]
    assert len(calls) == 3
    assert zero_free_disc(Polynomial(p.coeffs), 1.0) and len(calls) == 4
    with pytest.raises(ZeroPolynomialHasAllRoots):
        zero_free_disc(Polynomial(), 1.0)


def test_scale_carries_disc_answers_unless_it_trims(monkeypatch):
    p = from_roots([1.5, -2.0j, 0.5 + 1.2j])
    assert zero_free_disc(p, 1.2) and not zero_free_disc(p, 1.6)
    calls = count_disc_tests(monkeypatch)
    q = p.scale(0.3 - 2.0j)
    assert [zero_free_disc(q, r) for r in (1.1, 1.2, 1.6, 2.0)] == [True, True, False, False]
    assert calls == []
    # a copy: what q learns later is not written back onto p
    assert zero_free_disc(q, 1.25) and len(calls) == 1
    assert zero_free_disc(p, 1.25) and len(calls) == 2
    # c = 0 leaves the zero polynomial; a top coefficient that underflows moves a root
    assert "_zero_free" not in p.scale(0.0).__dict__
    tiny_top = Polynomial((1.0, -0.5, 5e-324))
    assert not zero_free_disc(tiny_top, 2.5)
    trimmed = tiny_top.scale(0.4)
    assert trimmed.degree == 1 and "_zero_free" not in trimmed.__dict__
    assert not zero_free_disc(trimmed, 2.5) and len(calls) == 4


# -- roots by Newton's method from seeds ------------------------------------------

# two interior roots and their reflections
PAIRS = from_roots([0.5, 2.0, -0.3j, 1 / np.conj(-0.3j)])


def _seeded(p, root_seeds=None, node_seeds=None):
    """An unsolved copy of p carrying the given seeds."""
    copy = Polynomial(p.coeffs)
    object.__setattr__(copy, "_root_seeds", root_seeds)
    object.__setattr__(copy, "_node_seeds", node_seeds)
    return copy


def _assert_split_within_rounding(split, solved, p):
    """split has solved's structure, each entry within the rounding bound of
    the Newton limit at it (on p' for a circle entry, on p otherwise)."""
    assert [[order for _, order in group] for group in split] == \
        [[order for _, order in group] for group in solved]
    for group, fresh, f in zip(split, solved, (p.coeffs, polycx._derivative(p.coeffs),
                                               p.coeffs)):
        if group:
            bound = polycx._newton_limits(f, np.array([loc for loc, _ in group]))[1]
            assert np.all(np.abs(np.array([loc for loc, _ in group])
                                 - np.array([loc for loc, _ in fresh])) <= bound)


def test_seeded_split_equals_circle_split(monkeypatch):
    # a root at 0 (its partner is at infinity), two interior pairs, a double circle root
    p = from_roots([0.0, 0.5, 2.0, -0.3j, 1 / np.conj(-0.3j), 1j, 1j])
    seeds = (0.0, 0.5, -0.3j, 1j)
    expected = circle_split(p)
    solves = count_solves(monkeypatch)
    # the seeds account for every root: no solve
    inside, circle, outside = circle_split(_seeded(p, node_seeds=seeds))
    assert solves == []
    assert [order for _, order in inside] == [order for _, order in expected[0]] == [1, 1, 1]
    assert [order for _, order in circle] == [order for _, order in expected[1]] == [2]
    assert [order for _, order in outside] == [order for _, order in expected[2]] == [1, 1]
    for found, solved in zip(inside + circle + outside, sum(expected, ())):
        assert abs(found[0] - solved[0]) < 1e-12
    # the outside entries are the partners of the nonzero interior limits
    assert outside == polycx._entries(
        1 / np.conj(np.array([loc for loc, _ in inside if loc])), np.ones(2, dtype=int))

    # constructed royal polynomials, n = 1-16 at k = 0 and k = n/2
    accepted = 0
    for n in range(1, 17):
        for k in sorted({0, n // 2}):
            x = construct(random_construction_spec(np.random.default_rng([n, k]), n,
                                                   k_circle=k))
            royal = x._royal[0]
            solves.clear()
            split = circle_split(royal)
            # seeds taken solve nothing; seeds refused solve the royal polynomial once
            assert solves in ([], [royal.degree])
            accepted += not solves
            _assert_split_within_rounding(split, circle_split(Polynomial(royal.coeffs)), royal)
    assert accepted >= 28    # 30 of the 31 when written


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
def test_seeded_split_rejects(monkeypatch, p, seeds):
    # circle_split of a copy with these seeds, or with none, solves, and
    # answers (or raises) as an unseeded p does
    expected = _or_typed_error(lambda: circle_split(Polynomial(p.coeffs)))
    solves = count_solves(monkeypatch)
    for node_seeds in (seeds, None):
        assert _or_typed_error(lambda: circle_split(_seeded(p, node_seeds=node_seeds))) == expected
    assert solves == [p.degree, p.degree]


def test_seeded_split_skips_the_interior_seeds_when_the_circle_seeds_fail(monkeypatch):
    # the circle pass reports a limit that fails every circle rule at once
    # (len(f), seed count) per Newton pass: 4 for p', 5 for p
    calls, run = [], polycx._newton_limits

    def limits(f, seeds):
        calls.append((len(f), len(seeds)))
        if len(calls) == 1:
            return np.array([3.0 + 0j]), np.array([0.5]), np.array([1e-300 + 0j]), False
        return run(f, seeds)

    monkeypatch.setattr(polycx, "_newton_limits", limits)
    p = from_roots([0.5, 2.0, 1j, 1j])
    solves = count_solves(monkeypatch)
    # no Newton pass on p: the fallback solve and its circle pass on p' follow
    assert circle_split(_seeded(p, node_seeds=(0.5, 1j))) == circle_split(Polynomial(p.coeffs))
    assert calls[0] == (4, 1) and all(f == 4 for f, _ in calls) and solves == [4, 4]
    calls.clear()
    solves.clear()
    monkeypatch.setattr(polycx, "_newton_limits", lambda f, seeds: calls.append(
        (len(f), len(seeds))) or run(f, seeds))
    circle_split(_seeded(p, node_seeds=(0.5, 1j)))
    assert calls == [(4, 1), (5, 1)] and solves == []


def test_seeded_split_runs_no_circle_pass_without_circle_seeds(monkeypatch):
    # k = 0 constructions: every seed lies inside the circle; the interior pass
    # converges for some of them and not for others
    rng, accepted = np.random.default_rng(5), 0
    calls, run, evaluate = [], polycx._newton_limits, Polynomial.eval
    monkeypatch.setattr(polycx, "_newton_limits", lambda f, z: calls.append(len(z)) or run(f, z))
    monkeypatch.setattr(Polynomial, "eval", lambda q, z: calls.append("eval") or evaluate(q, z))
    solves = count_solves(monkeypatch)
    for _ in range(4):
        x = construct(random_construction_spec(rng, 16))
        p = x._royal[0]
        seeds = p._node_seeds
        assert all(0.0 < abs(s) < 1.0 - 1e-3 for s in seeds)
        calls.clear()
        solves.clear()
        found = circle_split(p)
        # the interior pass runs first; when it fails, the fallback solve follows
        assert calls[0] == 16 and solves in ([], [32])
        if solves:
            assert found == circle_split(Polynomial(p.coeffs))
        else:
            assert calls == [16]
            # the entries of the interior pass alone, as the empty circle pass left them
            interior = run(p.coeffs, seeds)[0]
            simple = np.ones(16, dtype=int)
            assert found == (polycx._entries(interior, simple), (),
                             polycx._entries(1 / np.conj(interior), simple))
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
    solved = roots(Polynomial(p.coeffs))
    solves = count_solves(monkeypatch)
    seeded = roots(_seeded(p, root_seeds=seeds))
    # an accepted seed list solves nothing; a rejected one solves as an unseeded p does
    assert solves == ([] if accepted else [p.degree])
    assert [order for _, order in seeded.entries] == [order for _, order in solved.entries]
    for (found, _), (loc, _) in zip(seeded.entries, solved.entries):
        assert abs(found - loc) < 1e-12


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


def test_is_mirror_is_a_reflection_that_equals():
    # no reflection drops a nonzero coefficient, so is_mirror is q.reflect(n) == p
    rng = np.random.default_rng(920)
    pool = [0.0, -0.0, 1e-15, -1e-15, 5e-324, 1.0, -2.5]

    def draw(size):
        return [complex(pool[rng.integers(len(pool))], pool[rng.integers(len(pool))])
                for _ in range(size)]

    for _ in range(2000):
        n = int(rng.integers(0, 4))
        q = Polynomial(draw(int(rng.integers(0, n + 3))))
        # p is q's reflection with some entries redrawn, or an unrelated draw
        p = (Polynomial([c if rng.random() < 0.8 else draw(1)[0]
                         for c in zero_pad(q.coeffs, n + 1)[::-1].conj()])
             if rng.random() < 0.7 else Polynomial(draw(int(rng.integers(0, n + 3)))))
        assert is_mirror(p, q, n) == (q.degree <= n and q.reflect(n) == p)


@pytest.mark.parametrize("n", [0, 1, 7, 32, 4095, 4096, 10000])
def test_circle_power_reads_lam_to_the_n_off_the_grid(n):
    grid = unit_circle(4096)
    for power in (n, -n):
        assert np.max(np.abs(polycx.circle_power(power) - grid ** power)) < 1e-11
    # the index form the verify command used for lam^-n, bit for bit
    assert np.array_equal(polycx.circle_power(-n), grid[(-n % 4096) * np.arange(4096) % 4096])
