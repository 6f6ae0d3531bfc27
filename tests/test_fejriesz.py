import numpy as np
import pytest

from helpers import random_outer_polynomial
from tetrainner.errors import NotNonnegativeOnCircle, NotTwoNSymmetric, OddCircleRootOrder
from tetrainner.fejriesz import (
    TrigPolynomial,
    factor,
    is_outer,
    laurent_shift,
    modulus_squared_on_circle,
)
from tetrainner.polycx import Polynomial, coeff_distance, from_roots, roots, unit_circle

SQ2 = np.sqrt(2.0)


def _align_phase(p: Polynomial) -> Polynomial:
    for c in p.coeffs:
        if abs(c) > 0:
            return p.scale(np.conj(c) / abs(c))
    return p


@pytest.mark.parametrize("coeffs", [(1e-30,), (1e-29, 1e-30), (0.0,)])
def test_factor_rejects_what_trims_to_the_zero_polynomial(coeffs):
    # a tiny positive constant used to reach circle_split as the zero polynomial
    with pytest.raises(ValueError, match="TRIM_TOL"):
        factor(TrigPolynomial(coeffs))


def test_factor_of_a_negative_constant_within_the_guard_is_zero():
    # passes the nonnegativity guard, and its largest sample is below 0
    assert factor(TrigPolynomial((-1e-12,))).is_zero


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
        assert is_outer(recovered)


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


def test_is_outer_circle_zero_allowed():
    assert is_outer(Polynomial((1, 1)))


def test_is_outer_rejects_origin_zero():
    assert not is_outer(Polynomial((0, 1)))


def test_is_outer_worked_denominator():
    assert is_outer(Polynomial((-2, 0.5)))
