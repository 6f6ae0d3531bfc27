import json

import numpy as np
import pytest

from helpers import (
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
    RoyalVarietyFunction,
    ThirdComponentMismatch,
)
from tetrainner.extremal import (
    PerturbationMethod,
    certify_extreme_symmetric,
    convex_combine,
    gamma_royal,
    perturb_nonextreme,
    scale_nonextreme,
)
from tetrainner.polycx import Polynomial, agree, coeff_distance, is_n_symmetric, unit_circle
from tetrainner.tetrafun import (
    from_gamma_inner,
    is_royal_variety,
    royal_nodes,
    royal_polynomial,
    to_json_dict,
    type_nk,
    validate,
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


def test_scale_nonextreme_degenerate_zero_components():
    x = validate(ZERO, ZERO, ONE, 1)
    result = scale_nonextreme(x)
    assert result.note == "DegenerateZeroComponents"
    assert result.t_used == 1.0
    assert result.x_plus is x and result.x_minus is x


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
