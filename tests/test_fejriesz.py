import numpy as np
import pytest

from helpers import count_solves, random_construction_spec, random_outer_polynomial
from tetrainner import fejriesz
from tetrainner.construct import build_e1, build_royal_target
from tetrainner.errors import (
    NonFiniteCoefficient,
    NotNonnegativeOnCircle,
    NotTwoNSymmetric,
    OddCircleRootOrder,
)
from tetrainner.fejriesz import (
    TrigPolynomial,
    factor,
    laurent_shift,
    modulus_squared_on_circle,
)
from tetrainner.polycx import (CIRCLE_SAMPLES, CIRCLE_TOL, Polynomial, coeff_distance, from_roots,
                               roots, unit_circle, zero_free_disc, zero_pad)

SQ2 = np.sqrt(2.0)


def _align_phase(p: Polynomial) -> Polynomial:
    for c in p.coeffs:
        if abs(c) > 0:
            return p.scale(np.conj(c) / abs(c))
    return p


def test_factor_rejects_the_zero_polynomial():
    with pytest.raises(ValueError, match="every coefficient is zero"):
        factor(TrigPolynomial((0.0,)))


@pytest.mark.parametrize("coeffs", [(1e-30,), (1e-29, 1e-30)])
def test_factor_keeps_a_tiny_trig_polynomial(coeffs):
    # no coefficient is too small to keep: |D|^2 = p on the circle at p's own scale
    p = TrigPolynomial(coeffs)
    d, grid = factor(p), unit_circle(CIRCLE_SAMPLES)
    assert d.degree == len(coeffs) - 1
    assert np.max(np.abs(np.abs(d.eval(grid)) ** 2 - p.value(grid))) <= 1e-12 * coeffs[0]


def test_factor_rejects_a_tiny_negative_constant():
    # the guard is relative: -1e-12 everywhere is negative at its own scale
    with pytest.raises(NotNonnegativeOnCircle):
        factor(TrigPolynomial((-1e-12,)))


def test_modulus_squared_constant():
    assert tuple(modulus_squared_on_circle(Polynomial((1,))).coeffs.tolist()) == ((1 + 0j),)


def test_modulus_squared_perfect_square():
    trig = modulus_squared_on_circle(Polynomial((1, 1)))
    assert abs(trig.coeff(0) - 2) < 1e-15
    assert abs(trig.coeff(1) - 1) < 1e-15


def test_modulus_squared_worked_denominator():
    trig = modulus_squared_on_circle(Polynomial((SQ2, -SQ2 / 2)))
    assert abs(trig.coeff(0) - 2.5) < 1e-14
    assert abs(trig.coeff(1) + 1) < 1e-14


def test_modulus_squared_matches_direct_sampling():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = Polynomial(tuple(rng.normal(size=6) + 1j * rng.normal(size=6)))
        trig = modulus_squared_on_circle(p)
        grid = unit_circle(64)
        direct = np.abs(p.eval(grid)) ** 2
        assert float(np.max(np.abs(trig.value(grid) - direct))) < 1e-12


def test_laurent_shift_worked_royal():
    trig = laurent_shift(Polynomial((0, 1.75)), 1)
    assert tuple(trig.coeffs.tolist()) == ((1.75 + 0j), 0j)


def test_laurent_shift_circle_node_target():
    # (lambda - 1)(1 - lambda) = -1 + 2 lambda - lambda^2; shift by n = 1
    trig = laurent_shift(Polynomial((-1, 2, -1)), 1)
    assert abs(trig.coeff(0) - 2) < 1e-15
    assert abs(trig.coeff(1) + 1) < 1e-15
    assert float(np.min(trig.value(unit_circle(512)))) >= -1e-12


def test_laurent_shift_zero_polynomial():
    trig = laurent_shift(Polynomial(), 3)
    assert tuple(trig.coeffs.tolist()) == (0j, 0j, 0j, 0j)


def test_laurent_shift_rejects_asymmetric():
    with pytest.raises(NotTwoNSymmetric):
        laurent_shift(Polynomial((1, 1)), 1)


def test_laurent_shift_rejects_degree_above_2n():
    with pytest.raises(NotTwoNSymmetric, match="degree 3 exceeds 2n = 2"):
        laurent_shift(Polynomial((1, 0, 0, 1)), 1)


def test_value_at_a_scalar_is_a_float():
    p = TrigPolynomial((1, 0.5))
    assert p.value(1.0) == 2.0 and isinstance(p.value(1.0), float)
    assert p.value(-1.0) == 0.0 and p.value(1j) == 1.0


def test_factor_strips_matching_zero_ends():
    # a zero top coefficient puts a zero at both ends of lam^n p; they are stripped
    p = TrigPolynomial((2, 0.5, 0))
    d = factor(p)
    assert d == factor(TrigPolynomial((2, 0.5))) and d.degree == 1
    square = modulus_squared_on_circle(d).coeffs
    assert np.max(np.abs(square - p.coeffs[:2])) < 1e-12


def test_non_finite_coefficients_are_rejected_on_construction():
    # factor used to return Polynomial((nan+nanj,)) for this input
    with pytest.raises(NonFiniteCoefficient, match="TrigPolynomial coefficient"):
        factor(TrigPolynomial((np.nan,)))
    with pytest.raises(NonFiniteCoefficient):
        TrigPolynomial((1.0, complex(0, np.inf)))
    with pytest.raises(NonFiniteCoefficient, match="TrigPolynomial coefficient"):
        TrigPolynomial((1.0, complex(1.5e308, 1.5e308), 1.0))


def test_factor_constant_one():
    d = factor(TrigPolynomial((1.0,)))
    assert coeff_distance(d, Polynomial((1,))) < 1e-12


def test_factor_perfect_square_circle_zero():
    d = factor(TrigPolynomial((2.0, 1.0)))
    assert coeff_distance(d, Polynomial((1, 1))) < 1e-8


def test_factor_worked_denominator():
    d = factor(TrigPolynomial((4.25, -1.0)))
    assert coeff_distance(d, Polynomial((2, -0.5))) < 1e-9
    # the quadratic system behind the worked example
    a1, a2 = d.coeff(0), d.coeff(1)
    assert abs(abs(a1) ** 2 + abs(a2) ** 2 - 4.25) < 1e-9
    assert abs(a1 * np.conj(a2) + 1) < 1e-9


def test_factor_rejects_negative():
    with pytest.raises(NotNonnegativeOnCircle):
        factor(TrigPolynomial((-1.0,)))


def test_factor_rejects_odd_circle_order():
    # 2 Re(lambda) = lambda + 1/lambda changes sign; its circle roots are simple
    with pytest.raises((NotNonnegativeOnCircle, OddCircleRootOrder)):
        factor(TrigPolynomial((0.0, 1.0)))


def test_factor_round_trip_random_outer():
    rng = np.random.default_rng(17)
    for _ in range(60):
        d_ref = _align_phase(random_outer_polynomial(rng))
        recovered = factor(modulus_squared_on_circle(d_ref))
        assert coeff_distance(recovered, d_ref) < 1e-8
        assert zero_free_disc(recovered, 1.0 - CIRCLE_TOL)


def test_factor_reconstruction_bound():
    rng = np.random.default_rng(19)
    for _ in range(20):
        trig = modulus_squared_on_circle(random_outer_polynomial(rng))
        d = factor(trig)
        grid = unit_circle(4096)
        resid = np.abs(np.abs(d.eval(grid)) ** 2 - trig.value(grid))
        bound = 1e-8 * (1.0 + float(np.max(trig.value(grid))))
        assert float(np.max(resid)) < bound


def test_factor_with_forced_circle_root():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d0 = random_outer_polynomial(rng, max_degree=5)
        full = Polynomial((-1, 1)) * d0
        d = factor(modulus_squared_on_circle(full))
        assert d.degree == d0.degree + 1
        assert min(abs(loc - 1.0) for loc, _ in roots(d).entries) < 1e-6


def test_factor_keeps_near_circle_root_off_the_circle():
    # a root 2e-5 outside the circle is resolved by the coefficients and
    # must not be mistaken for a noise-split double circle root
    near = 1.00002 * np.exp(2.1j)
    d_ref = _align_phase(Polynomial((-near, 1)) * from_roots([1.7, -1.4j, 2.0 + 0.5j]))
    d = factor(modulus_squared_on_circle(d_ref))
    assert coeff_distance(d, d_ref) < 1e-8
    assert min(abs(loc - near) for loc, _ in roots(d).entries) < 1e-9


def test_factor_keeps_a_cepstral_d_only_if_it_is_zero_free_up_to_the_strict_radius(monkeypatch):
    # D has a root between 1 and 1 + CIRCLE_TOL: outer, but not zero-free up
    # to 1 + CIRCLE_TOL, which validation asks of d next.  The cepstral
    # start of so near a circle zero aliases, so the test hands Newton D itself;
    # D fails the disc test and the root path solves P = lam^2 p once
    d_ref = from_roots([1.0 + 5e-7, 3.0])
    monkeypatch.setattr(fejriesz, "_cepstral", lambda vals, m: zero_pad(d_ref.coeffs, m))
    solves = count_solves(monkeypatch)
    d = factor(modulus_squared_on_circle(d_ref))
    assert solves == [4] and coeff_distance(d, d_ref) < 1e-8


@pytest.mark.parametrize("p, outer", [
    (from_roots([1.0 - 5e-7]), True),
    (from_roots([1.0 - 2e-6]), False),
    (Polynomial((1, 1)), True),        # a circle zero is allowed
    (Polynomial((0, 1)), False),       # a zero at the origin is not
    (Polynomial((-2, 0.5)), True),     # the worked denominator
], ids=["near-circle", "inside", "circle-zero", "origin-zero", "worked-denominator"])
def test_outer_is_zero_free_up_to_the_open_disc_radius(p, outer):
    # the open-disc question validation asks of d
    assert zero_free_disc(p, 1.0 - CIRCLE_TOL) == outer


# -- the two paths of factor ------------------------------------------------------

def _construction_trig(n, k, seed=4):
    """lam^-n R + |E1|^2 as construct builds it, for a seeded spec with k circle nodes."""
    spec = random_construction_spec(np.random.default_rng([seed, n, k]), n, k_circle=k)
    return (laurent_shift(build_royal_target(spec.sigma, spec.t_plus), n)
            + modulus_squared_on_circle(build_e1(spec.alpha1, spec.alpha2, spec.t)))


def _factor_counting(p, monkeypatch):
    """factor(p), the degrees it solved, and the number of Newton runs."""
    newton, degrees, runs = fejriesz._newton, count_solves(monkeypatch), []
    monkeypatch.setattr(fejriesz, "_newton", lambda d, c: runs.append(1) or newton(d, c))
    d = factor(p)
    monkeypatch.undo()
    return d, degrees, len(runs)


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("half", [False, True])
def test_cepstral_factor_against_a_30_digit_residual(monkeypatch, n, half):
    p = _construction_trig(n, n // 2 if half else 0)
    d, degrees, runs = _factor_counting(p, monkeypatch)
    assert degrees == [] and runs == 1       # no root solve, no fallback
    assert d.degree == n and zero_free_disc(d, 1.0 - CIRCLE_TOL)
    assert d.coeffs[0].imag == 0 and d.coeffs[0].real > 0
    assert _residual_30_digits(d, p) <= 1e-13
    # the root path reaches the same factor; the largest gap seen on 36
    # construction specs at n = 16, 24, 32 was 8.9e-12 relative
    monkeypatch.setattr(fejriesz, "NEWTON_TOL", -1.0)    # no residual meets it
    assert coeff_distance(d, factor(p)) <= 1e-10 * d.max_coeff()


def _residual_30_digits(d, p):
    """max_j |c_j - F_j(D)| / max |c| with F(D) formed at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        dm = [mpmath.mpc(z) for z in d.coeffs.tolist()]
        cm = [mpmath.mpc(z) for z in p.coeffs.tolist()]
        resid = max(abs(cm[j] - mpmath.fsum(dm[q + j] * mpmath.conj(dm[q])
                                            for q in range(len(dm) - j)))
                    for j in range(len(cm)))
        return float(resid / max(abs(c) for c in cm))


def _min_over_max(p):
    vals = p.value(unit_circle(CIRCLE_SAMPLES))
    return vals.min() / vals.max()


@pytest.mark.parametrize("n, k, seed", [
    (16, 8, 61),        # min p / max p = 3.6e-10
    (24, 12, 21),       # 5.9e-12
    (32, 0, 69),        # 1.0e-11
    (32, 16, 0),        # 1.1e-10
])
def test_cepstral_factor_close_to_zero_needs_no_root_solve(monkeypatch, n, k, seed):
    p = _construction_trig(n, k, seed)
    assert 1e-13 <= _min_over_max(p) <= 1e-8
    d, degrees, runs = _factor_counting(p, monkeypatch)
    assert degrees == [] and runs == 1
    assert d.degree == n and zero_free_disc(d, 1.0 - CIRCLE_TOL)
    assert d.coeffs[0].imag == 0 and d.coeffs[0].real > 0
    assert _residual_30_digits(d, p) <= 1e-13


def _near_circle_square(eps, extra):
    """|D|^2 for D with a root eps outside the circle and extra roots past 1.2."""
    rng = np.random.default_rng(3)
    locs = list((1.2 + rng.random(extra)) * np.exp(2j * np.pi * rng.random(extra)))
    d_ref = _align_phase(from_roots([(1 + eps) * np.exp(1j)] + locs))
    return d_ref, modulus_squared_on_circle(d_ref)


@pytest.mark.parametrize("eps, extra, newton_runs", [
    (0.0, 4, 2),        # a double circle root between grid points: min p / max p = 4.0e-11
    (2e-4, 10, 2),      # 2.7e-8: Newton stops at residual 4e-7
    (1e-4, 10, 2),      # 1.4e-8: Newton converges to a root reflected into the disc
])
def test_factor_falls_back_to_the_root_path(monkeypatch, eps, extra, newton_runs):
    d_ref, p = _near_circle_square(eps, extra)
    d, degrees, runs = _factor_counting(p, monkeypatch)
    assert degrees == [2 * d_ref.degree]
    assert runs == newton_runs    # the root path is polished too
    assert coeff_distance(d, d_ref) < 1e-8 and zero_free_disc(d, 1.0 - CIRCLE_TOL)
    assert d.coeffs[0].imag == 0 and d.coeffs[0].real > 0


def test_factor_near_a_circle_root_takes_the_cepstral_path(monkeypatch):
    d_ref, p = _near_circle_square(1e-3, 4)
    assert _min_over_max(p) < 1e-8    # 1.7e-9
    d, degrees, runs = _factor_counting(p, monkeypatch)
    assert degrees == [] and runs == 1
    assert coeff_distance(d, d_ref) < 1e-8 and zero_free_disc(d, 1.0 - CIRCLE_TOL)
    assert d.coeffs[0].imag == 0 and d.coeffs[0].real > 0
