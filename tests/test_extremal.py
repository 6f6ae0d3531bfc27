import json

import numpy as np
import pytest

from helpers import (
    coeff_bits,
    count_ifft,
    mp_circle_values,
    random_construction_spec,
    sample_fixed_x3_closed,
    sample_fixed_x3_distinguished,
)
from tetrainner.boundary import TetraPoint, TetraRegion, classify_tetra
from tetrainner.cli import EXIT_PRECONDITION, main
from tetrainner.construct import construct, recover_data
from tetrainner.errors import (
    CircleNodesPresent,
    ExtremalityNotDisproved,
    NotSymmetric,
    NumericalSupAtOne,
    RoyalVarietyFunction,
    ThirdComponentMismatch,
)
from tetrainner import extremal
from tetrainner.extremal import (
    PerturbationMethod,
    _perturbation_polynomial,
    certify_extreme_symmetric,
    convex_combine,
    gamma_royal,
    perturb_nonextreme,
    scale_nonextreme,
)
from tetrainner.polycx import (CIRCLE_SAMPLES, EPS, Polynomial, agree, coeff_distance,
                               from_roots, is_mirror, is_n_symmetric, product, unit_circle)
from tetrainner.tetrafun import (
    TetraRational,
    TypeNK,
    from_gamma_inner,
    is_royal_variety,
    royal_nodes,
    royal_polynomial,
    to_json_dict,
    type_nk,
    validate,
    validation_report,
)

ONE = Polynomial((1,))
LAM = Polynomial((0, 1))
ZERO = Polynomial()


def _midpoint_error(result, x):
    return max(
        coeff_distance((result.x_plus.e1 + result.x_minus.e1).scale(0.5), x.e1),
        coeff_distance((result.x_plus.e2 + result.x_minus.e2).scale(0.5), x.e2),
    )


def test_convex_combine_midpoint():
    x = validate(ONE, LAM, ONE, 1)
    y = validate(ZERO, ZERO, ONE, 1)
    z = convex_combine(x, y, 0.5)
    assert coeff_distance(z.e1, Polynomial((0.5,))) < 1e-15
    assert coeff_distance(z.e2, Polynomial((0, 0.5))) < 1e-15


def test_convex_combine_endpoints():
    x = validate(ONE, LAM, ONE, 1)
    y = validate(ZERO, ZERO, ONE, 1)
    assert coeff_distance(convex_combine(x, y, 1.0).e1, x.e1) < 1e-15
    assert coeff_distance(convex_combine(x, y, 0.0).e2, y.e2) < 1e-15


def test_convex_combine_rejects_mismatched_third():
    x = validate(ZERO, ZERO, ONE, 1)
    y = validate(ZERO, ZERO, ONE, 2)
    with pytest.raises(ThirdComponentMismatch):
        convex_combine(x, y, 0.5)
    # same n, genuinely different denominators
    w = validate(ZERO, ZERO, Polynomial((1, -0.5)), 1)
    with pytest.raises(ThirdComponentMismatch):
        convex_combine(x, w, 0.5)


def test_convex_combine_rejects_bad_weights_and_denominators():
    x = validate(ONE, LAM, ONE, 1)
    for t in (-0.1, 1.5):
        with pytest.raises(ValueError, match="outside"):
            convex_combine(x, x, t)
    # a triple built without validation may carry d = 0
    with pytest.raises(ThirdComponentMismatch, match="denominator of x is zero"):
        convex_combine(TetraRational(ZERO, ZERO, ZERO, 1), x, 0.5)
    y = validate(ZERO, ZERO, Polynomial((1j,)), 1)
    with pytest.raises(ThirdComponentMismatch, match="non-real factor"):
        convex_combine(x, y, 0.5)


def test_convex_combine_accepts_real_rescaled_denominator():
    x = validate(ONE, LAM, ONE, 1)
    y = validate(Polynomial((-2,)), Polynomial((0, -2)), Polynomial((-2,)), 1)
    z = convex_combine(x, y, 0.25)
    assert coeff_distance(z.e1, ONE) < 1e-12


def test_convex_combine_shares_a_denominator_where_agree_holds():
    # AGREE_TOL (1 + 1e6) = 1e-4 is the edge at this scale
    x = validate(ZERO, ZERO, Polynomial((1e6, -5e5)), 1)
    for offset in (1e-6, 0.9e-4, 1.1e-4, 1e-2):
        y = validate(ZERO, ZERO, x.d + Polynomial((0, offset)), 1)
        if agree(y.d, x.d):
            assert convex_combine(x, y, 0.5).d == x.d
        else:
            with pytest.raises(ThirdComponentMismatch, match="not proportional"):
                convex_combine(x, y, 0.5)
    assert agree(x.d + Polynomial((0, 0.9e-4)), x.d)
    assert not agree(x.d + Polynomial((0, 1.1e-4)), x.d)


def test_convex_combine_random_pairs_validate():
    rng = np.random.default_rng(61)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        x = construct(random_construction_spec(rng, n))
        variants = [
            validate(ZERO, ZERO, x.d, x.n),
            validate(x.e2, x.e1, x.d, x.n),
            validate(x.e1.scale(0.9), x.e2.scale(0.9), x.d, x.n),
        ]
        for y in variants:
            for t in np.linspace(0, 1, 10):
                convex_combine(x, y, float(t))


def test_fixed_x3_slices_are_convex():
    rng = np.random.default_rng(63)
    for _ in range(100):
        x3 = complex(np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
        a = sample_fixed_x3_closed(rng, x3)
        b = sample_fixed_x3_closed(rng, x3)
        for t in np.linspace(0, 1, 10):
            w = TetraPoint(t * a.x1 + (1 - t) * b.x1, t * a.x2 + (1 - t) * b.x2, x3)
            assert classify_tetra(w, 1e-7) is not TetraRegion.OUTSIDE


def test_fixed_x3_distinguished_slices_are_convex():
    rng = np.random.default_rng(65)
    for _ in range(100):
        x3 = complex(np.exp(2j * np.pi * rng.random()))
        a = sample_fixed_x3_distinguished(rng, x3)
        b = sample_fixed_x3_distinguished(rng, x3)
        for t in np.linspace(0, 1, 10):
            w = TetraPoint(t * a.x1 + (1 - t) * b.x1, t * a.x2 + (1 - t) * b.x2, x3)
            assert classify_tetra(w, 1e-7) is TetraRegion.DISTINGUISHED_BOUNDARY


def test_scale_nonextreme_worked_example():
    spec = random_construction_spec(np.random.default_rng(0), 1)
    x = construct(spec)
    assert type_nk(x).k == 0
    result = scale_nonextreme(x)
    assert result.method is PerturbationMethod.EPSILON_SCALING
    assert result.t_used > 0
    assert _midpoint_error(result, x) < 1e-12


def test_scale_nonextreme_epsilon_value():
    # sup of max(|x1|, |x2|) on the circle near 0.8485 for the worked example
    x = validate(Polynomial((np.sqrt(2), -np.sqrt(2) / 2)),
                 Polynomial((-np.sqrt(2) / 2, np.sqrt(2))),
                 Polynomial((-2, 0.5)), 1)
    grid = unit_circle(4096)
    sup = max(float(np.max(np.abs(x.e1.eval(grid)) / np.abs(x.d.eval(grid)))),
              float(np.max(np.abs(x.e2.eval(grid)) / np.abs(x.d.eval(grid)))))
    result = scale_nonextreme(x)
    assert abs(result.t_used - 0.5 * (1.0 / sup - 1.0)) < 1e-12
    assert abs(sup - 3 * np.sqrt(2) / 5) < 1e-6


def test_scale_nonextreme_reads_the_sup_of_a_mirror_off_e1():
    x = construct(random_construction_spec(np.random.default_rng(3), 8))
    assert type_nk(x).k == 0 and is_mirror(x.e1, x.e2, 8)
    mirrored = TetraRational(*(Polynomial(p.coeffs) for p in (x.e1, x.e2, x.d)), 8)
    result = scale_nonextreme(mirrored)
    assert "on_circle" not in mirrored.e2.__dict__
    sup = float(np.max(np.abs(mirrored.e1.on_circle) / np.abs(mirrored.d.on_circle)))
    assert result.t_used == 0.5 * (1.0 / sup - 1.0)
    # both halves are mirrors too, so validating them sampled neither e2 half
    for half in (result.x_plus, result.x_minus):
        assert is_mirror(half.e1, half.e2, 8) and "on_circle" not in half.e2.__dict__
    # e2 one ulp off the mirror: both numerators are sampled
    coeffs = x.e2.coeffs.copy()
    coeffs[2] = complex(coeffs[2].real, np.nextafter(coeffs[2].imag, np.inf))
    near = TetraRational(Polynomial(x.e1.coeffs), Polynomial(coeffs), Polynomial(x.d.coeffs), 8)
    near_result = scale_nonextreme(near)
    dv = np.abs(near.d.on_circle)
    sup = max(float(np.max(np.abs(e.on_circle) / dv)) for e in (near.e1, near.e2))
    assert "on_circle" in near.e2.__dict__
    assert near_result.t_used == 0.5 * (1.0 / sup - 1.0)
    assert abs(near_result.t_used - result.t_used) < 1e-12


def test_scale_nonextreme_degenerate_zero_components():
    x = validate(ZERO, ZERO, ONE, 1)
    result = scale_nonextreme(x)
    assert result.note == "DegenerateZeroComponents"
    assert result.t_used == 1.0
    assert result.x_plus is x and result.x_minus is x


def test_scale_nonextreme_rejects_a_component_sup_at_one():
    # modulus domination forgives |e1| - |d| up to MODULUS_SLACK (1 + max |d|)
    e1 = Polynomial((1 + 1e-10,))
    x = validate(e1, e1, ONE, 0)
    assert type_nk(x) == TypeNK(0, 0)
    with pytest.raises(NumericalSupAtOne, match="is at 1"):
        scale_nonextreme(x)


def test_scale_nonextreme_rejects_circle_nodes():
    rng = np.random.default_rng(67)
    x = construct(random_construction_spec(rng, 2, k_circle=1))
    with pytest.raises(CircleNodesPresent):
        scale_nonextreme(x)


def test_perturb_even_degree_circle_node():
    rng = np.random.default_rng(69)
    x = construct(random_construction_spec(rng, 2, k_circle=1))
    result = perturb_nonextreme(x)
    assert result.method is PerturbationMethod.G_PERTURB_EVEN
    assert result.t_used > 0
    assert _midpoint_error(result, x) < 1e-12
    assert is_n_symmetric(result.g, x.n)


def test_perturb_odd_degree_circle_node():
    rng = np.random.default_rng(71)
    x = construct(random_construction_spec(rng, 3, k_circle=1))
    result = perturb_nonextreme(x)
    assert result.method is PerturbationMethod.G_PERTURB_ODD
    assert _midpoint_error(result, x) < 1e-12
    assert is_n_symmetric(result.g, x.n)


def test_perturb_boundary_ratio_two_k_equals_n():
    rng = np.random.default_rng(73)
    x = construct(random_construction_spec(rng, 4, k_circle=2))
    result = perturb_nonextreme(x)
    assert result.t_used > 0
    assert _midpoint_error(result, x) < 1e-12


def test_perturb_with_zero_numerators_bounds_t_by_the_royal_slack():
    # |d|^2 has a double circle zero near 1 and e1 = e2 = 0: type (2, 1), e1 sup 0
    x = validate(ZERO, ZERO, from_roots([1.0000015, 3.0]), 2)
    assert type_nk(x) == TypeNK(2, 1)
    result = perturb_nonextreme(x)
    assert result.method is PerturbationMethod.G_PERTURB_EVEN
    assert abs(result.t_used - 0.90000068) < 1e-7
    assert result.x_plus.e1 == result.g.scale(result.t_used)
    assert _midpoint_error(result, x) < 1e-12


def _perturbation_polynomial_by_product(taus, n, k):
    """One Polynomial per linear factor, multiplied by product(), then averaged
    with its n-reflection: the reference form."""
    squares = [Polynomial((-tau, 1)) for tau in taus for _ in range(2)]
    if n % 2 == 0:
        m = n // 2
        lead = complex(np.prod([np.conj(t) for t in taus])) if taus else 1.0
        g = product([Polynomial((lead,)), Polynomial((0,) * (m - k) + (1,))] + squares)
    else:
        m = (n - 1) // 2
        omega_sq = -np.conj(taus[0]) * complex(np.prod([np.conj(t) ** 2 for t in taus]))
        omega = np.exp(0.5j * np.angle(omega_sq)) * np.sqrt(abs(omega_sq))
        g = product([Polynomial((omega,)), Polynomial((0,) * (m - k) + (1,)),
                     Polynomial((-taus[0], 1))] + squares)
    return (g + g.reflect(n)).scale(0.5)


def test_perturbation_polynomial_matches_the_product_form_bit_for_bit():
    rng = np.random.default_rng(79)
    signed = [1 - 0j, complex(1.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0),
              complex(0.0, 1.0), complex(-0.0, -1.0)]
    for n in range(1, 41):
        for k in range(n % 2, n // 2 + 1):
            circle = np.exp(2j * np.pi * rng.random(k)).tolist()
            for taus in (circle, [signed[j % len(signed)] for j in range(k)]):
                got = _perturbation_polynomial(taus, n, k)
                assert coeff_bits(got) == coeff_bits(
                    _perturbation_polynomial_by_product(taus, n, k)), (n, k, taus)


def _constructed_of_type(n, k):
    """The first of twenty constructions from default_rng(n) whose type is (n, k)."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = construct(random_construction_spec(rng, n, k_circle=k))
        if type_nk(x) == TypeNK(n, k):
            return x
    pytest.fail(f"no construction of type ({n}, {k}) in twenty draws")


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (16, 8), (24, 12)])
def test_perturbation_g_is_its_own_reflection(n, k):
    x = _constructed_of_type(n, k)
    result = perturb_nonextreme(x)
    g = result.g
    # equal values (the middle coefficient's zero imaginary part may change sign)
    assert g == g.reflect(n)
    for half in (result.x_plus, result.x_minus):
        check = next(c for c in validation_report(half.e1, half.e2, half.d, n)
                     if c.code == "ReflectionMismatch")
        assert check.passed and coeff_distance(half.e1, half.e2.reflect(n)) == 0.0
        assert check.detail.endswith(": 0.000e+00") and is_mirror(half.e1, half.e2, n)
    # g and g' still vanish at every circle node
    dg = Polynomial(np.arange(1, len(g.coeffs)) * g.coeffs[1:])
    for nd in royal_nodes(x):
        if nd.on_circle:
            assert abs(g.eval(nd.location)) <= 1e-10 * g.max_coeff()
            assert abs(dg.eval(nd.location)) <= 1e-10 * g.max_coeff()


def _node_extremes_by_complex_loop(interior, taus):
    """The reference: |lam - s|^2 from the complex difference on the whole grid,
    interior nodes looped twice; (pivot location, pivot value, M)."""
    grid = unit_circle(CIRCLE_SAMPLES)
    node_products = np.ones_like(grid, dtype=float)
    for s in taus + interior:
        node_products = node_products * np.abs(grid - s) ** 2
    interior_product = np.ones_like(grid, dtype=float)
    for s in interior:
        interior_product = interior_product * np.abs(grid - s) ** 2
    pivot = int(np.argmax(node_products))
    return grid[pivot], float(node_products[pivot]), float(interior_product.min())


def _assert_node_extremes_match_the_complex_loop(monkeypatch, x):
    n = x.n
    nodes = royal_nodes(x)
    taus = [nd.location for nd in nodes if nd.on_circle for _ in range(nd.multiplicity)]
    interior = [nd.location for nd in nodes if not nd.on_circle for _ in range(nd.multiplicity)]
    # fixed before measuring: each of the n factors and products rounds a few ulps
    tol = 8 * n * EPS
    _, pivot, m_const = extremal._node_extremes(interior, taus)
    _, pivot_ref, m_ref = _node_extremes_by_complex_loop(interior, taus)
    assert abs(pivot - pivot_ref) <= tol * pivot_ref
    assert abs(m_const - m_ref) <= tol * m_ref
    t_used = perturb_nonextreme(x).t_used
    monkeypatch.setattr(extremal, "_node_extremes", _node_extremes_by_complex_loop)
    t_ref = perturb_nonextreme(x).t_used
    assert abs(t_used - t_ref) <= tol * t_ref


@pytest.mark.parametrize("n", [16, 24, 32])
def test_node_products_match_the_complex_loop(monkeypatch, n):
    _assert_node_extremes_match_the_complex_loop(monkeypatch, _constructed_of_type(n, n // 2))


# both parity branches of _perturbation_polynomial, one circle node and the most
@pytest.mark.parametrize("n, k", [(5, 1), (5, 2), (7, 1), (7, 3), (9, 1), (9, 4),
                                  (16, 1), (24, 1)])
def test_node_products_match_the_complex_loop_at_odd_n_and_one_circle_node(monkeypatch, n, k):
    _assert_node_extremes_match_the_complex_loop(monkeypatch, _constructed_of_type(n, k))


@pytest.mark.parametrize("n, k", [(16, 0), (24, 0), (16, 8), (24, 12)])
def test_perturbation_halves_carry_their_samples(monkeypatch, n, k):
    x = _constructed_of_type(n, k)
    assert "on_circle" in x.e1.__dict__ and "on_circle" in x.d.__dict__
    calls = count_ifft(monkeypatch)
    result = perturb_nonextreme(x)
    # g and the two node polynomials are transformed; k = 0 transforms nothing
    assert len(calls) == (3 if k else 0)
    t, g = result.t_used, result.g
    weight = sum(map(abs, x.e1.coeffs)) * (1 + t if k == 0 else 1) + t * sum(map(abs, g.coeffs))
    bound = 1e-15 * weight     # fixed before measuring
    for half in (result.x_plus, result.x_minus):
        assert "on_circle" in half.e1.__dict__ and "on_circle" not in half.e2.__dict__
        carried, oracle = half.e1.on_circle, mp_circle_values(half.e1, CIRCLE_SAMPLES, 61)
        assert np.max(np.abs(carried - Polynomial(half.e1.coeffs).on_circle)) <= bound
        assert np.max(np.abs(carried[::61] - oracle)) <= bound
    # each twin built from the coefficients transformed afresh
    assert len(calls) == (3 if k else 0) + 2


def test_perturbation_halves_keep_the_mode_their_function_was_validated_in():
    # a constructed k = 1 function read in lenient mode takes the G path
    x = _constructed_of_type(2, 1)
    x = validate(x.e1, x.e2, x.d, x.n, strict=False)
    result = perturb_nonextreme(x)
    assert result.method is PerturbationMethod.G_PERTURB_EVEN
    assert not result.x_plus.strict and not result.x_minus.strict
    # d = 1 + lam vanishes at -1, which only lenient validation accepts; its
    # factor common to (0, 0, d) cancels from the royal polynomial
    # lam (1 + lam)^2, leaving (0, 0, lam) of type (1, 0), and the grid sample
    # at -1 is a 0/0
    x = validate(Polynomial(()), Polynomial(()), Polynomial((1, 1)), 2, strict=False)
    assert type_nk(x) == TypeNK(1, 0)
    result = perturb_nonextreme(x)
    assert result.method is PerturbationMethod.EPSILON_SCALING
    assert result.note == "DegenerateZeroComponents"
    # k = 0: scale_nonextreme keeps the mode too
    x = validate(Polynomial((0.5,)), Polynomial((0, 0.5)), Polynomial((2,)), 1, strict=False)
    result = scale_nonextreme(x)
    assert not result.x_plus.strict and not result.x_minus.strict


def test_perturb_rejects_majority_circle_nodes():
    rng = np.random.default_rng(75)
    x = construct(random_construction_spec(rng, 3, k_circle=2))
    with pytest.raises(ExtremalityNotDisproved):
        perturb_nonextreme(x)


def test_perturb_delegates_for_interior_only():
    rng = np.random.default_rng(77)
    x = construct(random_construction_spec(rng, 2))
    result = perturb_nonextreme(x)
    assert result.method is PerturbationMethod.EPSILON_SCALING


def test_perturb_preserves_circle_node_locations_and_values():
    rng = np.random.default_rng(79)
    x = construct(random_construction_spec(rng, 4, k_circle=1))
    taus = [nd.location for nd in royal_nodes(x) if nd.on_circle]
    result = perturb_nonextreme(x)
    for side in (result.x_plus, result.x_minus):
        side_taus = [nd.location for nd in royal_nodes(side) if nd.on_circle]
        for tau in taus:
            assert min(abs(tau - s) for s in side_taus) < 1e-6
        # the perturbation g vanishes at the nodes, so the values agree
        for tau in taus:
            dv = x.d.eval(tau)
            assert abs(side.e1.eval(tau) / dv - x.e1.eval(tau) / dv) < 1e-10
            assert abs(side.e2.eval(tau) / dv - x.e2.eval(tau) / dv) < 1e-10


def test_certify_symmetric_circle_heavy_function():
    x = from_gamma_inner(Polynomial((1, 1)), ONE, 1)
    assert certify_extreme_symmetric(x)


def test_certify_rejects_asymmetric():
    rng = np.random.default_rng(81)
    x = construct(random_construction_spec(rng, 1))
    assert not certify_extreme_symmetric(x)


def test_certify_rejects_interior_nodes():
    x = validate(ZERO, ZERO, ONE, 1)
    assert not certify_extreme_symmetric(x)


ROYAL_VARIETY_ERROR = "RoyalVarietyFunction: royal polynomial is identically zero"


def _cli_perturb(x, tmp_path, capsys):
    path = tmp_path / "func.json"
    path.write_text(json.dumps(to_json_dict(x)), encoding="utf-8")
    code = main(["perturb", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("call, outcome", [
    (recover_data, ROYAL_VARIETY_ERROR),
    (scale_nonextreme, ROYAL_VARIETY_ERROR),
    (perturb_nonextreme, ROYAL_VARIETY_ERROR),
    (certify_extreme_symmetric, False),
    (_cli_perturb, (EXIT_PRECONDITION, "", f"error: {ROYAL_VARIETY_ERROR}\n")),
], ids=["recover_data", "scale_nonextreme", "perturb_nonextreme",
        "certify_extreme_symmetric", "cli_perturb"])
def test_royal_variety_function(tmp_path, capsys, call, outcome):
    # x = (lam, lam, lam^2) is symmetric and lies on the royal variety x1 x2 = x3
    x = validate(LAM, LAM, ONE, 2)
    assert is_royal_variety(x)
    if call is _cli_perturb:
        assert call(x, tmp_path, capsys) == outcome
    elif outcome is False:
        assert call(x) is False
    else:
        with pytest.raises(RoyalVarietyFunction) as info:
            call(x)
        assert f"{info.type.__name__}: {info.value}" == outcome


def test_gamma_royal_monomial():
    x = validate(ZERO, ZERO, ONE, 1)
    assert coeff_distance(gamma_royal(x), Polynomial((0, 4))) < 1e-15


def test_gamma_royal_superficial_pair():
    x = from_gamma_inner(Polynomial((1, 1)), ONE, 1)
    assert coeff_distance(gamma_royal(x), Polynomial((-1, 2, -1))) < 1e-14


def test_gamma_royal_matches_royal_polynomial():
    x = from_gamma_inner(Polynomial((0.5, 1.2, 0.5)), Polynomial((2.0, 0.3, 0.1)), 2)
    assert coeff_distance(gamma_royal(x), royal_polynomial(x).scale(4.0)) == 0.0


def test_gamma_royal_rejects_asymmetric():
    rng = np.random.default_rng(83)
    x = construct(random_construction_spec(rng, 1))
    with pytest.raises(NotSymmetric):
        gamma_royal(x)


def test_superficial_functions_resist_decomposition():
    # a nonconstant boundary-valued function has |x1| = 1 somewhere on the
    # circle, hence circle royal nodes; the scaling route must refuse, and
    # the symmetric ones are certified extreme outright
    from tetrainner.tetrafun import BlaschkeSpec, SuperficialSpec, superficial_build

    sym = superficial_build(SuperficialSpec(0.5, 0.5, BlaschkeSpec((0.0,))), 1)
    assert type_nk(sym).k >= 1
    with pytest.raises(CircleNodesPresent):
        scale_nonextreme(sym)
    with pytest.raises(ExtremalityNotDisproved):
        perturb_nonextreme(sym)
    assert certify_extreme_symmetric(sym)
