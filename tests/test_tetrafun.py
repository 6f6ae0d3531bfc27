import ast

import numpy as np
import pytest

from helpers import count_disc_tests, count_ifft, count_python_calls, random_construction_spec
from tetrainner import polycx, tetrafun
from tetrainner.boundary import TetraPoint, TetraRegion, classify_tetra, psi, tetra_defect
from tetrainner.construct import construct
from tetrainner.errors import (
    ConstructionInconsistent,
    DenominatorVanishes,
    InvalidSuperficialSpec,
    MalformedInput,
    NonFiniteCoefficient,
    OddCircleRootOrder,
    RoyalVarietyFunction,
    UndefinedOmegaOrK,
    ValidationError,
    ZeroPolynomialHasAllRoots,
)
from tetrainner.polycx import CIRCLE_TOL, Polynomial, coeff_distance, is_n_symmetric, unit_circle
from tetrainner.tetrafun import (
    BlaschkeSpec,
    ConditionCheck,
    SuperficialSpec,
    TetraRational,
    TypeNK,
    circle_trace,
    degree,
    eval_function,
    from_gamma_inner,
    from_json_dict,
    is_royal_variety,
    is_superficial,
    psi_omega_check,
    royal_nodes,
    royal_polynomial,
    superficial_build,
    to_json_dict,
    type_nk,
    validate,
    validation_report,
    winding_number,
)

SQ2 = np.sqrt(2.0)

ONE = Polynomial((1,))
LAM = Polynomial((0, 1))
ZERO = Polynomial()


def third_component_spec(n=1):
    """The function (0, 0, lambda^n)."""
    return validate(ZERO, ZERO, ONE, n)


def royal_variety_spec():
    """The function (1, lambda, lambda)."""
    return validate(ONE, LAM, ONE, 1)


def worked_example():
    """Numerators sqrt(2)(1 - lambda/2), sqrt(2)(lambda - 1/2) over -2 + lambda/2."""
    return validate(Polynomial((SQ2, -SQ2 / 2)), Polynomial((-SQ2 / 2, SQ2)),
                    Polynomial((-2, 0.5)), 1)


def test_validate_zero_components():
    x = third_component_spec()
    assert x.e1.is_zero and x.e2.is_zero


def test_validate_royal_variety_example():
    x = royal_variety_spec()
    assert is_royal_variety(x)


def test_validate_worked_example():
    x = worked_example()
    assert x.n == 1


def test_validate_reports_every_violation():
    with pytest.raises(ValidationError) as err:
        validate(Polynomial((3,)), LAM, ONE, 1)
    codes = {code for code, _ in err.value.violations}
    assert "ReflectionMismatch" in codes
    assert "ModulusDomination" in codes


def test_validate_rejects_disc_zero_of_d():
    with pytest.raises(ValidationError) as err:
        validate(ZERO, ZERO, Polynomial((-0.5, 1)), 1)
    assert {code for code, _ in err.value.violations} == {"DVanishesInDisc"}


def test_validate_strict_rejects_circle_zero_lenient_allows():
    d = Polynomial((-1, 1))
    with pytest.raises(ValidationError):
        validate(ZERO, ZERO, d, 1, strict=True)
    x = validate(ZERO, ZERO, d, 1, strict=False)
    assert not x.strict


def _disc_check(d, strict):
    return next(c for c in validation_report(ZERO, ZERO, d, d.degree, strict=strict)
                if c.code == "DVanishesInDisc")


def test_failing_disc_check_lists_the_offending_roots():
    d = polycx.from_roots([0.5j, 1.0, 2.0])
    for strict, mode, offending in ((True, "closed", [0.5j, 1.0]), (False, "open", [0.5j])):
        check = _disc_check(d, strict)
        head, listed = check.detail.split(": ")
        assert not check.passed and head == f"roots of d inside the {mode} disc"
        listed = sorted(ast.literal_eval(listed), key=lambda entry: abs(entry[0]))
        assert [order for _, order in listed] == [1] * len(offending)
        assert all(abs(loc - r) < 1e-12 for (loc, _), r in zip(listed, offending))
        # the entries of roots(d) as they are, in a list
        radius = 1.0 + CIRCLE_TOL if strict else 1.0 - CIRCLE_TOL
        assert check.detail.endswith(str([entry for entry in polycx.roots(d).entries
                                          if abs(entry[0]) < radius]))
    # a root exactly on the strict radius fails the closed-disc test and is listed
    check = _disc_check(Polynomial((-(1.0 + CIRCLE_TOL), 1.0)), True)
    assert not check.passed
    assert check.detail == f"roots of d inside the closed disc: {[(1.0 + CIRCLE_TOL + 0j, 1)]}"
    check = _disc_check(Polynomial((-(1.0 + 2 * CIRCLE_TOL), 1.0)), True)
    assert check.passed and check.detail == "roots of d inside the closed disc: none"


def _count_np_roots(monkeypatch):
    calls, solve = [], np.roots
    monkeypatch.setattr(np, "roots", lambda a: calls.append(len(a) - 1) or solve(a))
    return calls


def test_degree_of_a_strict_function_solves_nothing(monkeypatch):
    x = construct(random_construction_spec(np.random.default_rng(97), 6, k_circle=2))
    calls = _count_np_roots(monkeypatch)
    strict = from_json_dict(to_json_dict(x))
    assert degree(strict) == 6 and calls == []
    lenient = from_json_dict(to_json_dict(x), strict=False)
    assert degree(lenient) == 6 and calls == []


def test_degree_and_winding_of_a_function_read_from_json_run_one_disc_test(monkeypatch):
    x = construct(random_construction_spec(np.random.default_rng(97), 6, k_circle=2))
    data = to_json_dict(x)
    calls = count_disc_tests(monkeypatch)
    y = from_json_dict(data)
    assert degree(y) == winding_number(y) == 6 and len(calls) == 1


def test_lenient_degree_solves_d_when_d_has_a_circle_zero(monkeypatch):
    # d = (lam - 1)(lam - 3): the circle zero cancels against the reflection
    x = validate(ZERO, ZERO, polycx.from_roots([1.0, 3.0]), 2, strict=False)
    calls = _count_np_roots(monkeypatch)
    assert degree(x) == 1 and calls == [2]


def test_degree_of_a_zero_denominator_raises():
    # only a triple built without validation can carry d = 0
    with pytest.raises(ZeroPolynomialHasAllRoots):
        degree(TetraRational(ZERO, ZERO, ZERO, 1))


def test_validation_report_names_a_zero_denominator():
    check = next(c for c in validation_report(ZERO, ZERO, ZERO, 1) if c.code == "DVanishesInDisc")
    assert not check.passed and check.detail == "d is identically zero"


def test_non_finite_input_raises_a_typed_error():
    # numpy's LinAlgError used to escape from validate and superficial_build here
    with pytest.raises(NonFiniteCoefficient):
        validate(Polynomial((0.1,)), Polynomial((0.1,)), Polynomial((np.nan, 1)), 1)
    # a NaN Blaschke zero no longer reaches superficial_build: the spec rejects it
    with pytest.raises(InvalidSuperficialSpec, match="Blaschke zero"):
        BlaschkeSpec((complex(np.nan, 0),))


@pytest.mark.parametrize("build, field", [
    (lambda: BlaschkeSpec((0.5, complex(np.nan, 0.2))), "Blaschke zero"),
    (lambda: BlaschkeSpec((0.5,), complex(np.nan, 0)), "unimodular_constant"),
    (lambda: SuperficialSpec(np.nan, 0.5, BlaschkeSpec((0.5,))), "beta1"),
    (lambda: SuperficialSpec(0.5, complex(0, np.nan), BlaschkeSpec((0.5,))), "beta2"),
])
def test_superficial_specs_reject_nan_naming_the_field(build, field):
    # every range check used to be a comparison that NaN fails, so these were built
    with pytest.raises(InvalidSuperficialSpec, match=field) as info:
        build()
    assert "nan" in str(info.value)


def test_validation_report_lists_four_codes():
    report = validation_report(ZERO, ZERO, ONE, 1)
    assert [c.code for c in report] == [
        "DegreeBound", "DVanishesInDisc", "ReflectionMismatch", "ModulusDomination"]
    assert all(c.passed for c in report)


def test_eval_function_monomial():
    pt = eval_function(third_component_spec(), 0.5)
    assert pt.x1 == 0 and pt.x2 == 0 and abs(pt.x3 - 0.5) < 1e-15


def test_eval_function_worked_example_at_zero():
    pt = eval_function(worked_example(), 0.0)
    assert abs(pt.x1 - (-SQ2 / 2)) < 1e-14
    assert abs(pt.x2 - SQ2 / 4) < 1e-14
    assert abs(pt.x3 - (-0.25)) < 1e-14


def test_eval_function_circle_values_distinguished():
    x = worked_example()
    for lam in unit_circle(32):
        region = classify_tetra(eval_function(x, complex(lam)), 1e-9)
        assert region is TetraRegion.DISTINGUISHED_BOUNDARY


def test_eval_function_rejects_far_point_and_pole():
    with pytest.raises(ValueError):
        eval_function(worked_example(), 2.0)
    x = validate(ZERO, ZERO, Polynomial((-1, 1)), 1, strict=False)
    with pytest.raises(DenominatorVanishes):
        eval_function(x, 1.0)


@pytest.mark.parametrize("lam", [float("nan"), complex(0.5, float("nan")), float("inf"),
                                 complex(float("inf"), 0.0)])
def test_eval_function_rejects_non_finite_points(lam):
    with pytest.raises(ValueError):
        eval_function(worked_example(), lam)


def test_degree_monomial():
    assert degree(third_component_spec()) == 1


def test_degree_worked_example():
    assert degree(worked_example()) == 1


def test_degree_is_n_on_the_strict_shell():
    # a root of d just past 1 + CIRCLE_TOL passes strict validation, so it counts
    r = 1.0 + polycx.CIRCLE_TOL + 1e-13
    assert degree(validate(ZERO, ZERO, Polynomial((-r, 1.0)), 1)) == 1


def test_degree_bound_caps_n_at_circle_samples():
    n = polycx.CIRCLE_SAMPLES
    assert degree(third_component_spec(n)) == n
    with pytest.raises(ValidationError) as err:
        validate(ONE, LAM, ONE, 10 ** 6)
    assert err.value.violations == [
        ("DegreeBound", "deg(e1)=0, deg(e2)=1, deg(d)=0, bound n=1000000, "
                        f"n above CIRCLE_SAMPLES = {n}"),
        ("ReflectionMismatch", "degree bound failed, reflection undefined"),
    ]


def test_disc_test_skipped_when_d_breaks_the_degree_bound(monkeypatch):
    # 200 coefficients, zero free in the closed disc (Rouché: the tail sums below 1)
    tail = np.random.default_rng(7).uniform(-1e-3, 1e-3, 199)
    d = Polynomial(np.concatenate(([1.0], tail)))
    calls = []
    for owner, name in ((polycx.np, "roots"), (polycx, "_schur_cohn")):
        run = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, run=run, name=name:
                            calls.append(name) or run(*a))

    with pytest.raises(ValidationError) as err:
        validate(ONE, ONE, d, 2)
    assert ("DVanishesInDisc", "degree bound failed, disc test skipped") in err.value.violations
    assert err.value.violations[0][0] == "DegreeBound" and calls == []
    # within the bound the disc is tested, and passes with no solve
    disc, = (c for c in validation_report(ONE, ONE, d, 199) if c.code == "DVanishesInDisc")
    assert disc.passed and calls == ["_schur_cohn"]


def test_degree_matches_construction_size():
    rng = np.random.default_rng(31)
    x = construct(random_construction_spec(rng, 3))
    assert degree(x) == 3


def test_winding_monomial():
    assert winding_number(third_component_spec()) == 1


def test_winding_worked_example():
    assert winding_number(worked_example()) == 1


def test_winding_squared_monomial():
    assert winding_number(third_component_spec(2)) == 2


def test_royal_polynomial_royal_variety():
    assert royal_polynomial(royal_variety_spec()).is_zero


def test_royal_polynomial_monomial():
    assert coeff_distance(royal_polynomial(third_component_spec()), LAM) < 1e-15


def test_royal_polynomial_worked_example():
    assert coeff_distance(royal_polynomial(worked_example()),
                          Polynomial((0, 1.75))) < 1e-14


def test_royal_nodes_monomial():
    nodes = royal_nodes(third_component_spec())
    assert len(nodes) == 1
    nd = nodes[0]
    assert nd.location == 0 and nd.raw_order == 1 and nd.multiplicity == 1
    assert not nd.on_circle


def test_royal_nodes_worked_example():
    nodes = royal_nodes(worked_example())
    assert len(nodes) == 1 and abs(nodes[0].location) < 1e-9
    assert type_nk(worked_example()).n == 1


def test_royal_nodes_circle_node_halved():
    rng = np.random.default_rng(33)
    spec = random_construction_spec(rng, 2, k_circle=1)
    x = construct(spec)
    nodes = royal_nodes(x)
    circle_nodes = [nd for nd in nodes if nd.on_circle]
    assert len(circle_nodes) == 1
    assert circle_nodes[0].raw_order == 2 and circle_nodes[0].multiplicity == 1
    assert sum(nd.multiplicity for nd in nodes) == 2


def test_royal_nodes_rejects_royal_variety():
    with pytest.raises(RoyalVarietyFunction):
        royal_nodes(royal_variety_spec())


def test_type_nk_monomial():
    tk = type_nk(third_component_spec())
    assert (tk.n, tk.k, tk.royal_variety_flag) == (1, 0, False)


def test_type_nk_royal_variety_flag():
    assert type_nk(royal_variety_spec()).royal_variety_flag


def test_type_nk_circle_and_interior():
    rng = np.random.default_rng(35)
    x = construct(random_construction_spec(rng, 2, k_circle=1))
    tk = type_nk(x)
    assert (tk.n, tk.k) == (2, 1)


def test_superficial_build_constant_weights():
    x = superficial_build(SuperficialSpec(1.0, 0.0, BlaschkeSpec((0.0,))), 1)
    assert coeff_distance(x.e1, ONE) < 1e-15
    assert coeff_distance(x.e2, LAM) < 1e-15
    assert coeff_distance(x.d, ONE) < 1e-15


def test_superficial_build_opposite_imaginary_weights():
    spec = SuperficialSpec(0.5j, -0.5j, BlaschkeSpec((0.0,)))
    x = superficial_build(spec, 1)
    # the symmetrized first component vanishes identically
    assert (x.e1 + x.e2).is_zero
    assert is_superficial(x)


def test_superficial_build_degree_two():
    x = superficial_build(SuperficialSpec(0.5, 0.5, BlaschkeSpec((0.0, 0.0))), 2)
    assert is_superficial(x)
    for lam in (0.3, -0.2 + 0.4j):
        region = classify_tetra(eval_function(x, lam), 1e-9)
        assert region is TetraRegion.TOPOLOGICAL_BOUNDARY


def test_superficial_build_rejects_bad_weights():
    with pytest.raises(InvalidSuperficialSpec):
        SuperficialSpec(0.9, 0.9, BlaschkeSpec((0.0,)))
    with pytest.raises(InvalidSuperficialSpec):
        superficial_build(SuperficialSpec(1.0, 0.0, BlaschkeSpec((0.0, 0.5))), 1)


def test_blaschke_spec_rejects_bad_data():
    with pytest.raises(InvalidSuperficialSpec, match="constant"):
        BlaschkeSpec((0.5,), 2.0)
    for z in (1.0, 1j, 1.5):
        with pytest.raises(InvalidSuperficialSpec, match="not strictly inside"):
            BlaschkeSpec((z,))


def test_superficial_build_with_nontrivial_constant():
    c = np.exp(0.7j)
    spec = SuperficialSpec(0.3, -0.7, BlaschkeSpec((0.4, -0.2j), c))
    x = superficial_build(spec, 2)
    # x3 realizes the requested Blaschke product
    for lam in (0.1, 0.5j, -0.3 + 0.2j):
        expected = c * (lam - 0.4) * (lam + 0.2j) / ((1 - 0.4 * lam) * (1 - 0.2j * lam))
        assert abs(eval_function(x, lam).x3 - expected) < 1e-12
    assert is_superficial(x)


def test_is_superficial_rejects_inner_image():
    assert not is_superficial(third_component_spec())


def test_is_superficial_rejects_worked_example():
    assert not is_superficial(worked_example())


def test_psi_omega_constant_real_weights():
    spec = SuperficialSpec(0.5, 0.5, BlaschkeSpec((0.0,)))
    assert psi_omega_check(superficial_build(spec, 1), spec) < 1e-10


def test_psi_omega_constant_imaginary_weights():
    spec = SuperficialSpec(0.5j, -0.5j, BlaschkeSpec((0.0,)))
    assert psi_omega_check(superficial_build(spec, 1), spec) < 1e-10


def test_superficial_checks_evaluate_the_rings_once(monkeypatch):
    spec = SuperficialSpec(0.6, 0.4j, BlaschkeSpec((0.3, -0.5j)))
    x = superficial_build(spec, 2)
    calls, evaluate = [], tetrafun._eval_grid
    monkeypatch.setattr(tetrafun, "_eval_grid", lambda *a: calls.append(1) or evaluate(*a))
    assert is_superficial(x) and psi_omega_check(x, spec) < 1e-10
    assert len(calls) == 1
    assert not any(v.flags.writeable for v in x._on_rings)
    assert not tetrafun._rings().flags.writeable


def test_psi_omega_rejects_zero_weight():
    spec = SuperficialSpec(1.0, 0.0, BlaschkeSpec((0.0,)))
    with pytest.raises(UndefinedOmegaOrK):
        psi_omega_check(superficial_build(spec, 1), spec)


def test_from_gamma_inner_zero_sum():
    x = from_gamma_inner(ZERO, ONE, 1)
    assert x.e1.is_zero and coeff_distance(x.d, ONE) < 1e-15


def test_from_gamma_inner_superficial_pair():
    x = from_gamma_inner(Polynomial((1, 1)), ONE, 1)
    assert coeff_distance(x.e1, Polynomial((0.5, 0.5))) < 1e-15
    assert coeff_distance(x.e1, x.e2) == 0


def test_from_gamma_inner_rejects_bad_input():
    # each failure is reported under validate's code for (s/2, s/2, denom)
    for s_num, denom, codes in (
            (Polynomial((1, 2)), ONE, ["ReflectionMismatch", "ModulusDomination"]),
            (Polynomial((3, 3)), ONE, ["ModulusDomination"]),
            (Polynomial((1, 1)), Polynomial((-0.5, 1)), ["DVanishesInDisc",
                                                         "ModulusDomination"])):
        with pytest.raises(ValidationError) as exc:
            from_gamma_inner(s_num, denom, 1)
        assert [code for code, _ in exc.value.violations] == codes


def test_circle_trace_royal_variety():
    rows = circle_trace(royal_variety_spec(), 16)
    assert len(rows) == 16
    assert max(defect for _, _, defect in rows) < 1e-12


def test_circle_trace_worked_example():
    rows = circle_trace(worked_example(), 256)
    assert max(defect for _, _, defect in rows) < 1e-10


def test_circle_trace_rejects_tiny_sampling():
    with pytest.raises(ValueError):
        circle_trace(worked_example(), 8)


def test_circle_trace_makes_no_python_call_per_row():
    x = construct(random_construction_spec(np.random.default_rng(7), 8, k_circle=4))
    for m in (256, 1024):
        circle_trace(x, m)  # builds the grid and the values x keeps
    assert count_python_calls(circle_trace, x, 256) == count_python_calls(circle_trace, x, 1024)


@pytest.mark.parametrize("m", [16, 256])
def test_circle_trace_rows_hold_the_grid_values_bit_for_bit(m):
    x = construct(random_construction_spec(np.random.default_rng(11), 8))
    rows = circle_trace(x, m)
    lam, points, defect = zip(*rows)
    assert all(type(pt) is TetraPoint for pt in points)
    values = tetrafun._eval_grid(x, unit_circle(m))
    got = np.array([pt.as_tuple() for pt in points]).T
    assert all(got[j].tobytes() == values[j].tobytes() for j in range(3))
    assert np.array(lam).tobytes() == unit_circle(m).tobytes()
    assert np.array(defect).tobytes() == np.abs(values[0] - values[1].conjugate() * values[2]).tobytes()


# -- grid evaluation against the pointwise oracle ------------------------------

SUPERFICIAL_SPECS = (
    SuperficialSpec(0.5j, -0.5j, BlaschkeSpec((0.0,))),
    SuperficialSpec(0.3, -0.7, BlaschkeSpec((0.4, -0.2j), np.exp(0.7j))),
    SuperficialSpec(0.2 + 0.1j, (1.0 - np.hypot(0.2, 0.1)) * 1j,
                    BlaschkeSpec((0.5, -0.3 + 0.4j, 0.1j, -0.6))),
)
# psi_omega_check accepts any function; this spec only supplies omega and k
PSI_SPEC = SuperficialSpec(0.5, 0.5j, BlaschkeSpec(()))


def _oracle_fixture(case):
    """(function, spec, superficial): the worked example, an n = 8
    construction with four circle nodes, and the superficial builds."""
    if case == 0:
        return worked_example(), PSI_SPEC, False
    if case == 1:
        rng = np.random.default_rng(53)
        return construct(random_construction_spec(rng, 8, k_circle=4)), PSI_SPEC, False
    spec = SUPERFICIAL_SPECS[case - 2]
    return superficial_build(spec, len(spec.x3.zeros)), spec, True


def _ring_points(samples=64):
    return [complex(lam) for radius in (0.1, 0.5, 0.9) for lam in radius * unit_circle(samples)]


@pytest.mark.parametrize("case", range(2 + len(SUPERFICIAL_SPECS)))
def test_grid_paths_match_pointwise_oracle(case):
    x, spec, superficial = _oracle_fixture(case)
    for lam, pt, defect in circle_trace(x, 256):
        ref = eval_function(x, lam)
        assert type(lam) is complex and type(pt.x1) is complex and type(defect) is float
        for got, want in zip(pt.as_tuple(), ref.as_tuple()):
            assert abs(got - want) <= 1e-12
        assert abs(defect - abs(ref.x1 - np.conj(ref.x2) * ref.x3)) <= 1e-12
    defects = [tetra_defect(eval_function(x, lam)) for lam in _ring_points()]
    assert is_superficial(x) == all(abs(v) < 1e-10 for v in defects) == superficial
    omega = np.conj(spec.beta2) / abs(spec.beta2)
    k_val = spec.beta1 / abs(spec.beta1)
    worst = max(abs(psi(omega, eval_function(x, lam)) - k_val) for lam in _ring_points())
    assert abs(psi_omega_check(x, spec) - worst) <= 1e-12 * (1.0 + worst)


def test_grid_path_raises_where_denominator_vanishes():
    on_circle = validate(ZERO, ZERO, Polynomial((-1.0, 1.0)), 1, strict=False)
    with pytest.raises(DenominatorVanishes):
        eval_function(on_circle, 1.0)
    with pytest.raises(DenominatorVanishes):
        circle_trace(on_circle, 64)
    # d(0.5) = 0 exactly; 0.5 is a sample of the radius 0.5 ring
    inside = TetraRational(ZERO, ZERO, Polynomial((-0.5, 1.0)), 1, strict=False)
    with pytest.raises(DenominatorVanishes):
        is_superficial(inside)
    with pytest.raises(DenominatorVanishes):
        psi_omega_check(inside, PSI_SPEC)


def test_grid_paths_do_not_call_eval_function(monkeypatch):
    def refuse(*args):
        raise AssertionError("pointwise evaluation on a grid path")

    x, spec, _ = _oracle_fixture(3)
    monkeypatch.setattr("tetrainner.tetrafun.eval_function", refuse)
    assert len(circle_trace(x, 64)) == 64
    assert is_superficial(x)
    assert psi_omega_check(x, spec) < 1e-10


# -- one royal solve per function ---------------------------------------------

def _count_roots(monkeypatch):
    calls = []
    solve = polycx.roots

    def counting(*args, **kwargs):
        calls.append(args[0].degree)
        return solve(*args, **kwargs)

    monkeypatch.setattr(polycx, "roots", counting)
    return calls


def test_royal_nodes_solved_once_per_function(monkeypatch):
    x = construct(random_construction_spec(np.random.default_rng(55), 4, k_circle=2))
    calls = _count_roots(monkeypatch)
    # the constructed function starts Newton from its spec's nodes; a
    # reloaded copy solves once
    for y, solves in ((x, 0), (from_json_dict(to_json_dict(x)), 1)):
        calls.clear()
        tk = type_nk(y)
        assert len(calls) == solves
        nodes = royal_nodes(y)
        assert royal_nodes(y) is nodes and type_nk(y) == tk == TypeNK.from_nodes(nodes)
        assert len(calls) == solves


def test_royal_nodes_forms_each_royal_product_once(monkeypatch):
    x = worked_example()
    fresh = TetraRational(x.e1, x.e2, x.d, x.n)
    calls = []
    multiply = Polynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    royal_nodes(fresh)
    assert len(calls) == 2


def test_royal_nodes_errors_are_not_kept(monkeypatch):
    # |e1| crosses |d| on the circle: the royal polynomial has simple circle roots
    odd = TetraRational(Polynomial((1.0, 0.5)), Polynomial((0.5, 1.0)), ONE, 1)
    calls = _count_roots(monkeypatch)
    for expected in (1, 2):
        with pytest.raises(OddCircleRootOrder):
            royal_nodes(odd)
        assert len(calls) == expected
    royal = royal_variety_spec()
    for _ in range(2):
        with pytest.raises(RoyalVarietyFunction):
            royal_nodes(royal)


# -- structural invariants on randomly constructed functions -----------------

def test_modulus_equality_on_circle():
    rng = np.random.default_rng(41)
    grid = unit_circle(512)
    for _ in range(10):
        x = construct(random_construction_spec(rng, int(rng.integers(1, 5))))
        dev = np.abs(np.abs(x.e1.eval(grid)) - np.abs(x.e2.eval(grid)))
        assert float(np.max(dev)) < 1e-10 * max(1.0, float(np.max(np.abs(x.d.eval(grid)))))


def test_royal_balance_identity():
    rng = np.random.default_rng(43)
    grid = unit_circle(512)
    for _ in range(10):
        x = construct(random_construction_spec(rng, int(rng.integers(1, 5))))
        shifted = grid ** (-x.n) * royal_polynomial(x).eval(grid)
        for e in (x.e1, x.e2):
            resid = shifted - (np.abs(x.d.eval(grid)) ** 2 - np.abs(e.eval(grid)) ** 2)
            assert float(np.max(np.abs(resid))) < 1e-9


def test_royal_symmetry_and_positivity():
    rng = np.random.default_rng(45)
    grid = unit_circle(512)
    for _ in range(10):
        x = construct(random_construction_spec(rng, int(rng.integers(1, 5))))
        royal = royal_polynomial(x)
        assert is_n_symmetric(royal, 2 * x.n)
        assert float(np.min(np.real(grid ** (-x.n) * royal.eval(grid)))) > -1e-10


def test_node_multiplicities_sum_to_degree():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n // 2 + 1))
        x = construct(random_construction_spec(rng, n, k_circle=k))
        assert sum(nd.multiplicity for nd in royal_nodes(x)) == degree(x) == n


def test_first_component_off_disc_identity():
    # x1(lam) = conj-flipped x2 evaluated at 1/lam, times x3(lam)
    for x in (worked_example(), third_component_spec()):
        for radius in (0.5, 1.0, 2.0):
            for lam in radius * unit_circle(64):
                lam = complex(lam)
                dv = x.d.eval(lam)
                lhs = x.e1.eval(lam) / dv
                x2_flip = x.e2.conj_flip().eval(1.0 / lam) / x.d.conj_flip().eval(1.0 / lam)
                rhs = x2_flip * (x.d_reflected.eval(lam) / dv)
                assert abs(lhs - rhs) < 1e-9


def test_component_modulus_peaks_exactly_at_circle_nodes():
    rng = np.random.default_rng(49)
    x = construct(random_construction_spec(rng, 3, k_circle=1))
    tau = [nd.location for nd in royal_nodes(x) if nd.on_circle][0]
    pt = eval_function(x, tau)
    assert abs(abs(pt.x1) - 1.0) < 1e-8
    assert abs(abs(pt.x2) - 1.0) < 1e-8
    for lam in unit_circle(64):
        lam = complex(lam)
        if abs(lam - tau) > 0.1:
            pt = eval_function(x, lam)
            assert abs(pt.x1) < 1.0 - 1e-12
            assert abs(pt.x2) < 1.0 - 1e-12


def test_winding_equals_degree_for_constructions():
    rng = np.random.default_rng(51)
    for _ in range(8):
        n = int(rng.integers(1, 6))
        x = construct(random_construction_spec(rng, n))
        assert winding_number(x) == degree(x)


# -- degree from the roots of d ------------------------------------------------

def _reflected_count(x, circle_tol=1e-6):
    """degree's definition: open-disc zeros of the n-reflection of d."""
    dr = x.d.reflect(x.n)
    if dr.degree <= 0:
        return 0
    return sum(order for loc, order in polycx.roots(dr).entries if abs(loc) < 1.0 - circle_tol)


def test_degree_of_an_unvalidated_strict_triple_counts_the_reflection():
    # the disc test, not the strict flag, lets degree skip the roots of d
    x = TetraRational(ZERO, ZERO, Polynomial((0.0, -2.0, 1.0)), 3)
    assert x.strict and degree(x) == _reflected_count(x) == 2


def test_degree_matches_roots_of_reflection_for_constructions():
    rng = np.random.default_rng(73)
    for n in range(1, 33):
        for _ in range(5):
            try:
                x = construct(random_construction_spec(rng, n, k_circle=n // 3))
                break
            except ConstructionInconsistent:
                continue
        else:
            pytest.fail(f"no construction at n = {n} in five draws")
        assert degree(x) == _reflected_count(x) == n


@pytest.mark.parametrize("spec", SUPERFICIAL_SPECS)
def test_degree_matches_roots_of_reflection_for_superficial(spec):
    x = superficial_build(spec, len(spec.x3.zeros))
    assert degree(x) == _reflected_count(x) == len(spec.x3.zeros)


@pytest.mark.parametrize("x, expected", [
    # circle zero of d (lenient): it cancels and does not count
    (validate(ZERO, ZERO, Polynomial((-1.0, 1.0)), 1, strict=False), 0),
    (validate(ZERO, ZERO, Polynomial((2.0, -3.0, 1.0)), 3, strict=False), 2),
    # deg d < n: the reflection has n - deg d zeros at 0
    (third_component_spec(3), 3),
    (validate(ZERO, ZERO, Polynomial((-2.0, 1.0)), 4), 4),
    # d vanishing at 0 (unvalidated): that root has no reflection
    (TetraRational(ZERO, ZERO, Polynomial((0.0, -2.0, 1.0)), 3, strict=False), 2),
    (TetraRational(ZERO, ZERO, Polynomial((0.0, 0.0, 1.5j)), 2, strict=False), 0),
])
def test_degree_matches_roots_of_reflection_for_special_d(x, expected):
    assert degree(x) == _reflected_count(x) == expected


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(61)
    for n in range(1, 17):
        x = construct(random_construction_spec(rng, n))
        assert repr(from_json_dict(to_json_dict(x))) == repr(x)


def test_json_accepts_number_coefficients():
    numbers = {"n": 1, "E1": [1], "E2": [0, 1.0], "D": [[1, 0]]}
    pairs = {"n": 1, "E1": [[1, 0]], "E2": [[0, 0], [1.0, 0]], "D": [[1, 0]]}
    assert repr(from_json_dict(numbers)) == repr(from_json_dict(pairs))
    assert repr(from_json_dict(dict(pairs, n=1.0))) == repr(from_json_dict(pairs))


ROYAL_JSON = {"n": 1, "E1": [[1.0, 0.0]], "E2": [[0.0, 0.0], [1.0, 0.0]], "D": [[1.0, 0.0]]}


@pytest.mark.parametrize("payload, message", [
    ({}, "missing field 'n'"),
    ({key: ROYAL_JSON[key] for key in ("n", "E1", "E2")}, "missing field 'D'"),
    (dict(ROYAL_JSON, E1="abc"), "field 'E1' must be a list of [re, im] pairs"),
    (dict(ROYAL_JSON, E2={"re": 1}), "field 'E2' must be a list of [re, im] pairs"),
    (dict(ROYAL_JSON, D=[[1.0, 0.0, 0.0]]), "field 'D' must be a number or an [re, im] pair"),
    (dict(ROYAL_JSON, E2=[["a", 0]]), "field 'E2' must be a number or an [re, im] pair"),
    (dict(ROYAL_JSON, n=1.7), "field 'n' must be an integer"),
    (dict(ROYAL_JSON, n=True), "field 'n' must be an integer"),
    (dict(ROYAL_JSON, n="abc"), "field 'n' must be an integer"),
    (dict(ROYAL_JSON, n=float("nan")), "field 'n' must be an integer"),
    (dict(ROYAL_JSON, E1=[float("nan")]), "field 'E1' must be a number or an [re, im] pair"),
    (dict(ROYAL_JSON, E2=[[1.0, float("inf")]]),
     "field 'E2' must be a number or an [re, im] pair"),
    (dict(ROYAL_JSON, D=[True]), "field 'D' must be a number or an [re, im] pair"),
    (dict(ROYAL_JSON, E1=[10 ** 400]), "field 'E1' must be a number or an [re, im] pair"),
])
def test_json_malformed_input_names_the_field(payload, message):
    with pytest.raises(MalformedInput) as exc:
        from_json_dict(payload)
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [-1, -2, -2.0])
def test_json_rejects_a_negative_reflection_index(n):
    with pytest.raises(MalformedInput) as exc:
        from_json_dict(dict(ROYAL_JSON, n=n))
    assert str(exc.value) == "field 'n' must be nonnegative"


# -- reflections read off the circle ------------------------------------------

def _fresh(*polys):
    """Copies with nothing memoised, so each on_circle is a transform."""
    return tuple(Polynomial(p.coeffs) for p in polys)


def _modulus_check(e1, e2, d, n):
    return next(c for c in validation_report(e1, e2, d, n) if c.code == "ModulusDomination")


def _constructed(rng, n, k_circle=0):
    for _ in range(5):
        try:
            return construct(random_construction_spec(rng, n, k_circle=k_circle))
        except ConstructionInconsistent:
            continue
    pytest.fail(f"no construction at n = {n} in five draws")


@pytest.mark.parametrize("n", [4, 8, 16, 24, 32])
def test_validation_reads_an_exact_mirror_off_e1(monkeypatch, n):
    x = _constructed(np.random.default_rng(n), n, k_circle=n // 4)
    e1, e2, d = _fresh(x.e1, x.e2, x.d)
    assert polycx.is_mirror(e1, e2, n)
    calls = count_ifft(monkeypatch)
    monkeypatch.setattr(Polynomial, "reflect", None)
    monkeypatch.setattr(tetrafun, "coeff_distance", None)
    monkeypatch.setattr(tetrafun, "agree", None)
    report = {c.code: c for c in validation_report(e1, e2, d, n)}
    check = report["ModulusDomination"]
    assert len(calls) == 2 and "on_circle" not in e2.__dict__
    # ReflectionMismatch passes as the reflection would, with nothing reflected or compared
    assert report["ReflectionMismatch"] == ConditionCheck(
        "ReflectionMismatch", True,
        "max coefficient deviation of e1 from the n-reflection of e2: 0.000e+00")
    monkeypatch.undo()
    assert coeff_distance(e1, e2.reflect(n)) == 0.0
    # the verdict and worst of sampling both numerators
    dv = np.abs(d.on_circle)
    worst_e1 = max(0.0, float(np.max(np.abs(e1.on_circle) - dv)))
    worst_both = max(worst_e1, float(np.max(np.abs(e2.on_circle) - dv)))
    assert check.passed == (worst_both <= 1e-9 * (1.0 + np.max(dv)))
    assert check.detail == f"max(|e_i| - |d|) on the circle: {worst_e1:.3e}"
    assert abs(worst_e1 - worst_both) <= 1e-15 * (1.0 + np.max(dv))


def test_validation_samples_e2_one_ulp_off_its_mirror(monkeypatch):
    x = _constructed(np.random.default_rng(16), 16)
    coeffs = x.e2.coeffs.copy()
    coeffs[3] = complex(np.nextafter(coeffs[3].real, np.inf), coeffs[3].imag)
    e1, e2, d = _fresh(x.e1, Polynomial(coeffs), x.d)
    assert not polycx.is_mirror(e1, e2, 16)
    calls = count_ifft(monkeypatch)
    report = {c.code: c for c in validation_report(e1, e2, d, 16)}
    assert report["ModulusDomination"].passed and len(calls) == 3
    # the reflection is formed and compared: one ulp off shows as a deviation
    dev = coeff_distance(e1, e2.reflect(16))
    assert report["ReflectionMismatch"].passed and dev > 0.0
    assert report["ReflectionMismatch"].detail.endswith(f": {dev:.3e}")


def test_validation_catches_a_violation_by_e2_alone():
    # |e1| = 1 <= |d| = 2 everywhere, |e2| = 3 > |d|: not a mirror, so e2 is sampled
    check = _modulus_check(Polynomial((1,)), Polynomial((3,)), Polynomial((2,)), 0)
    assert not check.passed and check.detail == "max(|e_i| - |d|) on the circle: 1.000e+00"


@pytest.mark.parametrize("e1, e2, n", [
    (Polynomial((0, 0, 1)), Polynomial((1,)), 1),                     # degree above n
    (Polynomial((1,)), Polynomial((0,) * 4097 + (1,)), 4097),          # n above CIRCLE_SAMPLES
])
def test_degree_bound_failure_samples_both_numerators(monkeypatch, e1, e2, n):
    calls = count_ifft(monkeypatch)
    report = {c.code: c for c in validation_report(e1, e2, Polynomial((2,)), n)}
    assert not report["DegreeBound"].passed
    assert len(calls) == 3 and "on_circle" in e2.__dict__


# -- the winding as a root count -------------------------------------------------

def test_winding_of_a_strict_function_transforms_and_solves_nothing(monkeypatch):
    rng = np.random.default_rng(61)
    for n in (1, 4, 16, 24):
        x = _constructed(rng, n, k_circle=n // 2)
        y = TetraRational(x.e1, x.e2, *_fresh(x.d), n)
        ffts, solves = count_ifft(monkeypatch), _count_np_roots(monkeypatch)
        assert winding_number(y) == n and not ffts and not solves
        assert "d_reflected" not in y.__dict__ and "on_circle" not in y.d.__dict__
        monkeypatch.undo()


@pytest.mark.parametrize("d, n, expected", [
    (Polynomial((1, -1)), 1, 0),   # a circle zero of d cancels against the reflection
    (ONE, 2048, 2048),             # lam^n turns by pi between two of 4096 samples
    (ONE, 4096, 4096),
], ids=["circle-zero", "n2048", "n4096"])
def test_winding_is_a_count_at_any_n(d, n, expected):
    assert winding_number(TetraRational(ZERO, ZERO, d, n, strict=False)) == expected


def test_winding_just_below_the_sampling_limit():
    assert winding_number(TetraRational(ZERO, ZERO, Polynomial((1,)), 2047)) == 2047


def test_winding_counts_a_root_of_d_too_close_to_the_circle_to_sample():
    # d's nearest root lies 1.6e-4 off the circle, a tenth of the spacing of a
    # 4096-point grid; between two such samples d~n/d turns by almost 2 pi
    rng = np.random.default_rng(61)
    for n in (1, 4, 16):
        _constructed(rng, n, k_circle=n // 2)
    x = _constructed(rng, 32, k_circle=16)
    assert abs(min(abs(loc) for loc, _ in polycx.roots(x.d).entries) - 1.000163) < 1e-6
    assert winding_number(x) == degree(x) == 32


def test_winding_equals_degree_with_half_the_nodes_on_the_circle():
    # sampled on 4096 points, 4 of these 12 windings read 22 or 23
    rng = np.random.default_rng(0)
    for _ in range(12):
        x = _constructed(rng, 24, k_circle=12)
        assert winding_number(x) == degree(x) == 24


def _argument_count(d, n, m=2 ** 16):
    """Winding of lam^n conj(d)/d, the third component on the circle, over m
    points offset by half a step from the m-th roots of unity, so that none
    meets a root of d at 1, -1, i or -i."""
    lam = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
    dv = np.polyval(d.coeffs[::-1], lam)
    vals = lam ** n * np.conj(dv) / dv
    jumps = np.angle(np.roll(vals, -1) / vals)
    assert np.max(np.abs(jumps)) < 0.5
    return round(float(np.sum(jumps)) / (2 * np.pi))


def test_winding_matches_root_counts_and_the_argument_principle():
    # roots at least 0.1 off the circle, or exactly on it: the fine grid cannot alias
    rng = np.random.default_rng(19)

    def placed(low, high):
        count = int(rng.integers(0, 6))
        return rng.uniform(low, high, count) * np.exp(2j * np.pi * rng.random(count))

    for _ in range(24):
        inside, outside = placed(0.2, 0.9), placed(1.1, 3.0)
        circle = rng.choice([1, -1, 1j, -1j], int(rng.integers(0, 4)), replace=False)
        d = polycx.from_roots([*inside, *outside, *circle])
        n = d.degree + int(rng.integers(0, 4))
        x = TetraRational(ZERO, ZERO, d, n, strict=False)
        assert winding_number(x) == n - len(circle) - 2 * len(inside) == _argument_count(d, n)
