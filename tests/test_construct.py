import argparse
import importlib
import itertools

import numpy as np
import pytest

from helpers import (assert_exact_expansion, coeff_bits, convolved_once, count_disc_tests,
                     count_solves, match_multiset, node_error, random_construction_spec)
from tetrainner import cli, extremal, polycx, tetrafun
from tetrainner.boundary import TetraRegion, classify_tetra
from tetrainner.construct import (
    ConstructionSpec,
    build_e1,
    build_royal_target,
    construct,
    recover_data,
)
from tetrainner.errors import (
    ConstructionInconsistent,
    DegenerateZeroComponent,
    InvalidConstructionSpec,
    NodeOutsideClosedDisc,
    NodeZeroCollision,
    NonFiniteCoefficient,
    RoyalVarietyFunction,
    TetraError,
    ValidationError,
)
from tetrainner.polycx import (CIRCLE_SAMPLES, CIRCLE_TOL, Polynomial, coeff_distance, from_roots,
                               roots, unit_circle)
from tetrainner.tetrafun import (
    RoyalNode,
    TypeNK,
    degree,
    eval_function,
    from_json_dict,
    royal_nodes,
    royal_polynomial,
    to_json_dict,
    type_nk,
    validate,
)

SQ2 = np.sqrt(2.0)


def worked_spec(omega=1.0):
    return ConstructionSpec(alpha1=(), alpha2=(0.5,), sigma=(0.0,),
                            t_plus=1.75, t=SQ2, omega=omega)


def test_build_royal_target_single_origin_node():
    assert coeff_distance(build_royal_target((0.0,), 1.75), Polynomial((0, 1.75))) < 1e-15


def test_build_royal_target_empty():
    assert coeff_distance(build_royal_target((), 1.75), Polynomial((1.75,))) < 1e-15


def test_build_royal_target_circle_node():
    assert coeff_distance(build_royal_target((1.0,), 1.0), Polynomial((-1, 2, -1))) < 1e-15


def test_build_royal_target_rejects_external_node():
    with pytest.raises(NodeOutsideClosedDisc):
        build_royal_target((1.5,), 1.0)


def test_build_e1_worked_example():
    assert coeff_distance(build_e1((), (0.5,), SQ2), Polynomial((SQ2, -SQ2 / 2))) < 1e-15


def test_build_e1_single_origin_zero():
    assert coeff_distance(build_e1((0.0,), (), 1.0), Polynomial((0, 1))) < 1e-15


def test_build_e1_reflection_swaps_roles():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a1 = [complex(0.8 * rng.normal(), 0.4 * rng.normal()) for _ in range(2)]
        a2 = [complex(0.5 * rng.normal(), 0.3 * rng.normal()) for _ in range(1)]
        a1 = [z / max(1.5, abs(z) * 1.5) for z in a1]
        a2 = [z / max(1.5, abs(z) * 1.5) for z in a2]
        t = complex(rng.normal(), rng.normal())
        n = len(a1) + len(a2)
        lhs = build_e1(a1, a2, t).reflect(n)
        rhs = build_e1(a2, a1, np.conj(t))
        assert coeff_distance(lhs, rhs) < 1e-12


def test_construct_worked_example():
    x = construct(worked_spec())
    assert coeff_distance(x.d, Polynomial((2, -0.5))) < 1e-9
    assert coeff_distance(royal_polynomial(x), Polynomial((0, 1.75))) < 1e-9
    assert degree(x) == 1
    rec = recover_data(x)
    assert rec.zeros1.entries == ()
    assert len(rec.zeros2.entries) == 1
    assert abs(rec.zeros2.entries[0][0] - 0.5) < 1e-8


def test_construct_degenerate_constant():
    x = construct(ConstructionSpec(t_plus=1.0, t=1.0))
    assert x.n == 0
    pt = eval_function(x, 0.3)
    assert classify_tetra(pt) is TetraRegion.DISTINGUISHED_BOUNDARY


@pytest.mark.parametrize("t_plus", [1e-13, 1e-15])
def test_construct_rejects_tiny_royal_targets(t_plus):
    # forming R = d~n d - e1 e2 cancels a tiny target to rounding, far from the
    # target at the target's own scale
    with pytest.raises(ConstructionInconsistent, match="royal polynomial drift"):
        construct(ConstructionSpec(alpha1=(0.3,), sigma=(0.5,), t_plus=t_plus))


def test_construct_keeps_a_tiny_e1():
    # no coefficient is too small to keep: e1 = 1e-15 (lam - 0.3) is data
    x = construct(ConstructionSpec(alpha1=(0.3,), sigma=(0.5,), t=1e-15))
    assert x.e1.degree == 1 and abs(x.e1.coeff(1) - 1e-15) <= 1e-15 * 1e-12
    (node,) = royal_nodes(x)
    assert abs(node.location - 0.5) <= CIRCLE_TOL and node.multiplicity == 1


def test_builders_reject_a_zero_product():
    with pytest.raises(InvalidConstructionSpec, match="e1 is zero"):
        build_e1((0.3,), (), 0.0)
    assert build_royal_target((0.5,), 1e-15).degree == 2


def test_construct_rejects_collision():
    with pytest.raises(NodeZeroCollision):
        ConstructionSpec(alpha1=(1.0,), alpha2=(), sigma=(1.0,), t_plus=1.0, t=1.0)


def test_construct_rejects_count_mismatch():
    with pytest.raises(InvalidConstructionSpec):
        ConstructionSpec(alpha1=(0.1,), alpha2=(), sigma=(0.0, 0.5), t_plus=1.0, t=1.0)


WORKED_FIELDS = {"alpha1": (), "alpha2": (0.5,), "sigma": (0.0,), "t_plus": 1.75, "t": SQ2}


@pytest.mark.parametrize("fields, error, message", [
    ({"t_plus": 0.0}, InvalidConstructionSpec, "t_plus = 0.0 must be positive"),
    ({"t_plus": -1.0}, InvalidConstructionSpec, "t_plus = -1.0 must be positive"),
    ({"t": 0}, InvalidConstructionSpec, "t must be nonzero"),
    ({"omega": 1.5}, InvalidConstructionSpec, r"\|omega\| = 1.5 is not 1"),
    ({"alpha2": (1.5,)}, NodeOutsideClosedDisc, "alpha2 entry"),
    ({"sigma": (0.5j + 1,)}, NodeOutsideClosedDisc, "sigma entry"),
])
def test_construction_spec_rejects_out_of_range_parameters(fields, error, message):
    with pytest.raises(error, match=message):
        ConstructionSpec(**{**WORKED_FIELDS, **fields})


def test_construction_spec_caps_n_at_circle_samples():
    # checked first: a spec this large reaches no other check, and is never constructed
    with pytest.raises(InvalidConstructionSpec, match="n = 4097 above CIRCLE_SAMPLES"):
        ConstructionSpec(sigma=(0.0,) * (CIRCLE_SAMPLES + 1))
    spec = ConstructionSpec(alpha1=(0.5,) * CIRCLE_SAMPLES, sigma=(0.0,) * CIRCLE_SAMPLES)
    assert spec.n == CIRCLE_SAMPLES


def test_build_royal_target_rejects_nonpositive_scale():
    for t_plus in (0.0, -1.0):
        with pytest.raises(InvalidConstructionSpec, match="must be positive"):
            build_royal_target((0.5,), t_plus)


@pytest.mark.parametrize("fields", [
    {"alpha2": (complex("nan"),)}, {"t": complex("nan")}, {"omega": complex("nan")},
    {"t": complex("inf")}, {"sigma": (complex("nan"),)}, {"alpha1": (complex("nan"),)},
    {"t_plus": float("nan")}, {"sigma": (0.5, complex(0.1, float("nan")))}])
def test_construct_rejects_non_finite_input(fields):
    # these used to escape as numpy's LinAlgError or a misleading NotTwoNSymmetric.
    # NaN fails every range check, so the spec names it (CLI exit 3); an
    # infinite t is a valid spec whose |E1|^2 overflows (exit 4)
    (name, value), = fields.items()
    if np.isnan(value).any():
        with pytest.raises(InvalidConstructionSpec, match=f"^{name} is not a number$"):
            ConstructionSpec(**{**WORKED_FIELDS, **fields})
    else:
        with pytest.raises(NonFiniteCoefficient, match="is not finite"):
            construct(ConstructionSpec(**{**WORKED_FIELDS, **fields}))


def test_construct_self_checks_the_factorization(monkeypatch):
    construct_module = importlib.import_module("tetrainner.construct")
    outer = construct_module.factor
    # a denominator with a zero in the disc fails validation
    monkeypatch.setattr(construct_module, "factor", lambda trig: from_roots([0.5]))
    with pytest.raises(ConstructionInconsistent, match="failed validation: DVanishesInDisc"):
        construct(worked_spec())
    # a valid denominator whose royal polynomial is not the target
    monkeypatch.setattr(construct_module, "factor", lambda trig: outer(trig).scale(2.0))
    with pytest.raises(ConstructionInconsistent, match="royal polynomial drift"):
        construct(worked_spec())


def test_recover_data_rejects_zero_component():
    x = validate(Polynomial(), Polynomial(), Polynomial((1,)), 1)
    with pytest.raises(DegenerateZeroComponent):
        recover_data(x)


def test_recover_data_rejects_royal_variety():
    x = validate(Polynomial((1,)), Polynomial((0, 1)), Polynomial((1,)), 1)
    with pytest.raises(RoyalVarietyFunction):
        recover_data(x)


def test_round_trip_random_specs():
    rng = np.random.default_rng(29)
    for trial in range(12):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, n // 2 + 1)) if trial % 2 else 0
        spec = random_construction_spec(rng, n, k_circle=k)
        x = construct(spec)
        rec = recover_data(x)
        match_multiset(spec.alpha1, rec.zeros1.expand(), 1e-6)
        match_multiset(spec.alpha2, rec.zeros2.expand(), 1e-6)
        recovered_nodes = []
        for nd in rec.nodes:
            recovered_nodes.extend([nd.location] * nd.multiplicity)
        match_multiset(spec.sigma, recovered_nodes, 1e-6)
        assert sum(nd.multiplicity for nd in rec.nodes) == n


@pytest.mark.parametrize("n, seed", [(16, 10), (16, 42), (20, 28), (20, 52)])
def test_royal_nodes_half_on_circle_high_degree(n, seed):
    # noise splits these double circle roots of the royal polynomial far
    # beyond cluster_tol; the derivative roots still place them
    spec = random_construction_spec(np.random.default_rng(seed), n, k_circle=n // 2)
    nodes = royal_nodes(construct(spec))
    assert sum(nd.multiplicity for nd in nodes) == n
    assert sum(nd.multiplicity for nd in nodes if nd.on_circle) == n // 2
    match_multiset(spec.sigma, [nd.location for nd in nodes for _ in range(nd.multiplicity)],
                   1e-6)


def test_royal_identity_on_circle():
    rng = np.random.default_rng(37)
    grid = unit_circle(4096)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        spec = random_construction_spec(rng, n, k_circle=int(rng.integers(0, n // 2 + 1)))
        x = construct(spec)
        shifted = np.real(grid ** (-n) * royal_polynomial(x).eval(grid))
        assert float(np.min(shifted)) > -1e-9
        target = spec.t_plus * np.ones_like(shifted)
        for s in spec.sigma:
            target = target * np.abs(grid - s) ** 2
        rel = np.max(np.abs(shifted - target)) / max(1.0, float(np.max(target)))
        assert rel < 1e-7


def test_omega_family_shares_structure():
    rng = np.random.default_rng(39)
    base = construct(worked_spec())
    base_nodes = royal_nodes(base)
    for theta in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
        omega = complex(np.exp(1j * theta))
        x = construct(worked_spec(omega=omega))
        # x3 picks up the omega^2 twist and nothing else
        for lam in 0.7 * unit_circle(8):
            lam = complex(lam)
            lhs = x.d_reflected.eval(lam) / x.d.eval(lam)
            rhs = omega ** 2 * base.d_reflected.eval(lam) / base.d.eval(lam)
            assert abs(lhs - rhs) < 1e-10
        nodes = royal_nodes(x)
        assert len(nodes) == len(base_nodes)
        for nd, base_nd in zip(nodes, base_nodes):
            assert abs(nd.location - base_nd.location) < 1e-9
        assert coeff_distance(royal_polynomial(x), royal_polynomial(base)) < 1e-9


def test_parameter_scaling_equivalence():
    rng = np.random.default_rng(40)
    spec = random_construction_spec(rng, 3)
    rescaled = ConstructionSpec(alpha1=spec.alpha1, alpha2=spec.alpha2, sigma=spec.sigma,
                                t_plus=1.0, t=spec.t / np.sqrt(spec.t_plus),
                                omega=spec.omega)
    xa = construct(spec)
    xb = construct(rescaled)
    for lam in 0.8 * unit_circle(16):
        pa = eval_function(xa, complex(lam))
        pb = eval_function(xb, complex(lam))
        assert abs(pa.x1 - pb.x1) < 1e-9
        assert abs(pa.x2 - pb.x2) < 1e-9
        assert abs(pa.x3 - pb.x3) < 1e-9


def test_construct_handles_large_t():
    spec = ConstructionSpec(alpha1=(0.3,), alpha2=(), sigma=(0.5j,), t_plus=2.0, t=250.0)
    x = construct(spec)
    assert degree(x) == 1
    rec = recover_data(x)
    assert abs(rec.zeros1.entries[0][0] - 0.3) < 1e-6


# -- each polynomial solved once ------------------------------------------------

@pytest.mark.parametrize("k_circle", [0, 4])
def test_pipeline_solves_each_polynomial_once(monkeypatch, k_circle):
    spec = random_construction_spec(np.random.default_rng(79), 8, k_circle=k_circle)
    degrees = count_solves(monkeypatch)
    x = construct(spec)
    # a constructed function finds its zeros and nodes by Newton from the
    # spec; a reloaded copy solves e1 and the royal polynomial (2n).  factor
    # takes its cepstral path, the Schur-Cohn test decides d, the zeros of e2
    # are reflected from those of e1, and the degree is n when d passed the
    # closed-disc test
    for y, solved in ((x, []), (from_json_dict(to_json_dict(x)), [8, 16])):
        degrees.clear()
        recover_data(y)
        result = extremal.perturb_nonextreme(y)
        assert degrees == solved
        assert degree(result.x_plus) == degree(result.x_minus) == 8
        assert len(degrees) == len(solved)


@pytest.mark.parametrize("k_circle", [0, 4])
def test_perturbation_halves_reuse_the_disc_test_of_d(monkeypatch, k_circle):
    # k_circle is k at n = 8; at n = 16 it stands for k = 0 and k = n/2.
    # factor asks D the closed-disc question, d = conj(omega) D carries the answer
    # into validation, and the halves reuse d: one test in all
    for n in (8, 16):
        spec = random_construction_spec(np.random.default_rng(79), n, k_circle=k_circle * n // 8)
        calls = count_disc_tests(monkeypatch)
        x = construct(spec)
        if (n, k_circle) == (16, 4):
            # a node of this function lies 1.23e-5 off its sigma, so its nodes
            # raise; its JSON copy carries no seeds and is counted instead
            with pytest.raises(ConstructionInconsistent, match="from its spec node"):
                recover_data(x)
            calls.clear()
            x = from_json_dict(to_json_dict(x))
            assert node_error(spec.sigma, royal_nodes(x)) > CIRCLE_TOL
        recover_data(x)
        result = extremal.perturb_nonextreme(x)
        assert result.x_plus.d is result.x_minus.d is x.d
        assert len(calls) == 1, n
        monkeypatch.undo()


def test_zeros2_are_the_reflected_zeros_of_x1():
    rng = np.random.default_rng(101)
    specs = [random_construction_spec(rng, n, k_circle=k)
             for n, k in ((1, 0), (3, 1), (8, 0), (8, 4), (16, 0), (24, 6))]
    # alpha2 = 0 leaves deg e1 = n - 1, so x2 vanishes at 0; alpha1 = 0 is a
    # zero of x1 whose reflection lies at infinity
    specs.append(ConstructionSpec(alpha1=(0.0, 0.3), alpha2=(0.0, 0.5j),
                                  sigma=(0.1, -0.4, 0.6j, 0.2 - 0.2j)))
    for spec in specs:
        x = construct(spec)
        found = recover_data(x).zeros2.entries
        expected = [(loc, order) for loc, order in roots(x.e2).entries
                    if abs(loc) <= 1.0 + CIRCLE_TOL]
        assert [order for _, order in found] == [order for _, order in expected]
        assert max((abs(a - b) for (a, _), (b, _) in zip(found, expected)), default=0.0) <= 1e-9
    assert x.e1.degree == x.n - 1 and (0j, 1) in found


# -- expansions against one convolution chain and the mpmath oracle ---------------

def _random_points(rng, count):
    pts = [0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
           for _ in range(count)]
    # a node at 0, one below the trim threshold and a tiny pair whose
    # product drops below it part-way through the expansion
    return pts + [0.0, 3e-15 * np.exp(1j), 2e-10, -1e-10j]


def test_expansions_match_one_convolution_chain_and_the_mpmath_oracle():
    rng = np.random.default_rng(83)
    for _ in range(20):
        sigma = _random_points(rng, int(rng.integers(0, 10)))
        rng.shuffle(sigma)
        t_plus = float(0.5 + rng.random())
        factors = [(t_plus,)] + [f for s in sigma for f in ((-s, 1), (1, -np.conj(s)))]
        got = build_royal_target(sigma, t_plus)
        assert coeff_bits(got) == coeff_bits(convolved_once(factors))
        assert_exact_expansion(got, factors)

        alpha1, alpha2 = (_random_points(rng, int(rng.integers(0, 6))) for _ in range(2))
        t = complex(rng.normal(), rng.normal())
        factors = [(t,)] + [(-a, 1) for a in alpha1] + [(1, -np.conj(a)) for a in alpha2]
        got = build_e1(alpha1, alpha2, t)
        assert coeff_bits(got) == coeff_bits(convolved_once(factors))
        assert_exact_expansion(got, factors)

        factors = [(1.0,)] + [(-r, 1) for r in sigma]
        got = from_roots(sigma)
        assert coeff_bits(got) == coeff_bits(convolved_once(factors))
        assert_exact_expansion(got, factors)


# -- seeded nodes and zeros of constructed functions -------------------------------

def _nodes_or_error(x):
    try:
        return royal_nodes(x)
    except TetraError as exc:
        return type(exc)


def _assert_same_roots(x, copy):
    """x's nodes and zeros have the structure of copy's, which were solved, at
    locations within the rounding bound of the Newton pass."""
    nodes, solved = _nodes_or_error(x), _nodes_or_error(copy)
    if nodes is ConstructionInconsistent:
        # x's nodes are off its seeds, and so are the copy's, which carries none
        assert node_error(royal_polynomial(x)._node_seeds, solved) > CIRCLE_TOL
        return
    if not isinstance(solved, tuple):
        assert nodes is solved
        return
    assert [(nd.raw_order, nd.multiplicity, nd.on_circle) for nd in nodes] == \
        [(nd.raw_order, nd.multiplicity, nd.on_circle) for nd in solved]
    coeffs = royal_polynomial(x).coeffs
    derivative = polycx._derivative(coeffs)
    for nd, fresh in zip(nodes, solved):
        bound = polycx._newton_limits(derivative if nd.on_circle else coeffs,
                                      np.array([nd.location]))[1][0]
        assert abs(nd.location - fresh.location) <= bound
    zeros, fresh_zeros = roots(x.e1).entries, roots(copy.e1).entries
    assert [order for _, order in zeros] == [order for _, order in fresh_zeros]
    bounds = polycx._newton_limits(x.e1.coeffs, np.array([loc for loc, _ in zeros]))[1]
    assert all(abs(a - b) <= bound for (a, _), (b, _), bound in zip(zeros, fresh_zeros, bounds))
    rec, fresh_rec = recover_data(x), recover_data(copy)
    for found, fresh in ((rec.zeros1, fresh_rec.zeros1), (rec.zeros2, fresh_rec.zeros2)):
        assert [order for _, order in found.entries] == [order for _, order in fresh.entries]
    assert rec.nodes is nodes


@pytest.mark.parametrize("n", [4, 8, 16, 24, 32])
def test_seeded_roots_equal_a_fresh_solve(monkeypatch, n):
    accepted = []
    for seed in range(3):
        for k in (0, n // 2):
            try:
                x = construct(random_construction_spec(np.random.default_rng([seed, n]), n,
                                                       k_circle=k))
            except ConstructionInconsistent:
                continue
            solves = count_solves(monkeypatch)
            _nodes_or_error(x)
            roots(x.e1)
            accepted.append(solves == [])
            monkeypatch.undo()
            _assert_same_roots(x, from_json_dict(to_json_dict(x)))
    assert any(accepted)


@pytest.mark.parametrize("spec, seeds, royal_seeded", [
    # the partner of the node 0 is at infinity
    (ConstructionSpec(alpha1=(0.3,), alpha2=(0.5j,), sigma=(0.0, 0.4)), None, True),
    (ConstructionSpec(alpha1=(0.5,), alpha2=(-0.2,), sigma=(0.3, 0.3)), None, False),
    (ConstructionSpec(alpha1=(0.5,), alpha2=(-0.4,), sigma=(1.0, 1.0)), None, False),
    (ConstructionSpec(alpha1=(0.3,), alpha2=(0.0,), sigma=(0.2, -0.5j)), None, True),
    (ConstructionSpec(alpha1=(0.3,), alpha2=(-0.1j,), sigma=(0.999, 0.2j)), None, False),
    (ConstructionSpec(), None, True),
    (ConstructionSpec(alpha1=(0.3, 0.1), alpha2=(-0.5j, 0.2), sigma=(1j, -1.0, 0.2, 0.5 - 0.5j)),
     None, True),
    (random_construction_spec(np.random.default_rng(1), 8, k_circle=2),
     random_construction_spec(np.random.default_rng(2), 8, k_circle=2), False),
], ids=["origin", "repeated", "circle-order-4", "alpha2-zero", "join-band", "n0", "circle",
        "other-seeds"])
def test_seeded_roots_edge_specs(monkeypatch, spec, seeds, royal_seeded):
    x = construct(spec)
    # R's top coefficient is the conjugate of R(0), which a node at 0 makes 0 in
    # exact arithmetic and rounding in double: _royal trims it, also on a JSON copy
    copy = from_json_dict(to_json_dict(x))
    for y in (x, copy):
        assert royal_polynomial(y).degree == 2 * spec.n - spec.sigma.count(0)
    if seeds is not None:
        # another spec's nodes and zeros: Newton from them does not find every root
        object.__setattr__(royal_polynomial(x), "_node_seeds", seeds.sigma)
        object.__setattr__(x.e1, "_root_seeds",
                           seeds.alpha1 + tuple(1 / np.conj(a) for a in seeds.alpha2))
    solves = count_solves(monkeypatch)
    _nodes_or_error(x)
    assert solves == ([] if royal_seeded else [royal_polynomial(x).degree])
    solves.clear()
    roots(x.e1)
    assert solves == ([] if seeds is None else [x.e1.degree])
    monkeypatch.undo()
    _assert_same_roots(x, copy)


# n = 16, k = 8: one royal node of the constructed function lies 1.23e-5 off its sigma
OFF_SPEC = random_construction_spec(np.random.default_rng(79), 16, k_circle=8)


@pytest.mark.parametrize("read", [recover_data, type_nk, extremal.perturb_nonextreme])
def test_royal_nodes_off_the_spec_raise_when_read(read):
    x = construct(OFF_SPEC)
    with pytest.raises(ConstructionInconsistent,
                       match=r"^a royal node lies 1\.229e-05 from its spec node, above CIRCLE_TOL$"):
        read(x)
    with pytest.raises(ConstructionInconsistent):   # the error is not kept
        royal_nodes(x)
    # a JSON copy carries no seeds: it returns the nodes that x found off its spec
    assert node_error(OFF_SPEC.sigma, royal_nodes(from_json_dict(to_json_dict(x)))) > CIRCLE_TOL


def test_royal_nodes_raise_when_their_count_is_not_the_specs():
    spec = random_construction_spec(np.random.default_rng(5), 8, k_circle=2)
    x = construct(spec)
    object.__setattr__(royal_polynomial(x), "_node_seeds", spec.sigma[1:])
    with pytest.raises(ConstructionInconsistent, match="^8 royal nodes found for the spec's 7$"):
        royal_nodes(x)


def test_the_node_match_is_the_greedy_loop_of_the_reference():
    # the first two share a nearest node, which the first spec node takes
    cases = [((0.0, 0.1), (0.04, 0.3)), ((0.1, 0.0), (0.04, 0.3)),
             ((0.3, 0.3), (0.3 + 2e-7, 0.3 - 2e-7))]
    rng = np.random.default_rng(89)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        sigma = 0.3 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        moved = sigma + 10.0 ** rng.uniform(-8, -1) * (rng.normal(size=m) + 1j * rng.normal(size=m))
        cases.append((tuple(sigma), tuple(rng.permutation(moved))))
    for sigma, found in cases:
        worst = node_error(sigma, [RoyalNode(z, 1, 1, False) for z in found])
        if worst <= CIRCLE_TOL:
            tetrafun._match_spec(sigma, list(found))
            continue
        with pytest.raises(ConstructionInconsistent, match=f"lies {worst:.3e} from"):
            tetrafun._match_spec(sigma, list(found))


# at pi/2 and pi the factor vanishes on a sample of the circle grid
@pytest.mark.parametrize("angle", [0.7, np.pi / 2, np.pi])
def test_a_common_circle_factor_cancels_from_every_answer(angle):
    # f = c (lam - tau) equals its 1-reflection, so x times f/f is x
    x = construct(ConstructionSpec(alpha1=(0.3,), alpha2=(0.2j,), sigma=(0.5, -0.4j)))
    tau, c = np.exp(1j * angle), np.exp(0.5j * (np.pi - angle))
    f = Polynomial((-c * tau, c))
    xl = validate(x.e1 * f, x.e2 * f, x.d * f, 3)
    assert degree(xl) == degree(x) == 2 and type_nk(xl) == type_nk(x)
    nodes, expected = royal_nodes(xl), royal_nodes(x)
    assert [(nd.raw_order, nd.multiplicity, nd.on_circle) for nd in nodes] == \
        [(nd.raw_order, nd.multiplicity, nd.on_circle) for nd in expected]
    assert max(abs(nd.location - e.location) for nd, e in zip(nodes, expected)) < 1e-9
    for found, zeros in zip((recover_data(xl).zeros1, recover_data(xl).zeros2),
                            (recover_data(x).zeros1, recover_data(x).zeros2)):
        assert [order for _, order in found.entries] == [order for _, order in zeros.entries]
        match_multiset(zeros.expand(), found.expand(), 1e-9)
    result, expected = extremal.perturb_nonextreme(xl), extremal.perturb_nonextreme(x)
    assert result.method is expected.method
    assert abs(result.t_used - expected.t_used) <= 1e-12 * expected.t_used
    for half in (result.x_plus, result.x_minus):
        validate(half.e1, half.e2, half.d, half.n)


def test_a_squared_common_circle_factor_cancels_from_every_answer():
    # d's double circle zero is placed on d', where it is simple
    x = construct(ConstructionSpec(alpha1=(0.3,), alpha2=(0.2j,), sigma=(np.exp(1.9j), 0.5)))
    tau, c = np.exp(-1.2j), np.exp(0.5j * (np.pi + 1.2))
    f = Polynomial((-c * tau, c))
    f2 = f * f
    xl = validate(x.e1 * f2, x.e2 * f2, x.d * f2, 4)
    assert type_nk(xl) == type_nk(x) == TypeNK(2, 1)
    match_multiset([nd.location for nd in royal_nodes(x)],
                   [nd.location for nd in royal_nodes(xl)], 1e-9)
    for found, zeros in zip((recover_data(xl).zeros1, recover_data(xl).zeros2),
                            (recover_data(x).zeros1, recover_data(x).zeros2)):
        match_multiset(zeros.expand(), found.expand(), 1e-9)
    result = extremal.perturb_nonextreme(xl)
    assert result.method is extremal.PerturbationMethod.G_PERTURB_EVEN
    for half in (result.x_plus, result.x_minus):
        validate(half.e1, half.e2, half.d, half.n)


# at pi/2 the factor vanishes on a grid sample, where e1/f has no value
@pytest.mark.parametrize("angle", [0.7, np.pi / 2])
def test_a_common_circle_factor_perturbs_at_one_circle_node(angle):
    # one circle royal node: g is built at the reduced index 2 and times f
    x = construct(ConstructionSpec(alpha1=(0.3,), alpha2=(0.2j,), sigma=(np.exp(1.9j), 0.5)))
    tau, c = np.exp(1j * angle), np.exp(0.5j * (np.pi - angle))
    f = Polynomial((-c * tau, c))
    xl = validate(x.e1 * f, x.e2 * f, x.d * f, 3)
    assert type_nk(xl) == type_nk(x) == TypeNK(2, 1)
    result = extremal.perturb_nonextreme(xl)
    assert result.method is extremal.PerturbationMethod.G_PERTURB_EVEN and result.t_used > 0
    assert polycx.is_n_symmetric(result.g, xl.n)
    for half in (result.x_plus, result.x_minus):
        validate(half.e1, half.e2, half.d, half.n)
    for mid, e in (((result.x_plus.e1 + result.x_minus.e1).scale(0.5), xl.e1),
                   ((result.x_plus.e2 + result.x_minus.e2).scale(0.5), xl.e2)):
        assert coeff_distance(mid, e) <= 1e-12 * e.max_coeff()


def test_a_circle_zero_of_d_with_nothing_there_to_cancel_raises():
    # (0, 0, 1 + lam): the royal polynomial's double root at -1 is the common factor
    x = validate(Polynomial(()), Polynomial(()), Polynomial((1, 1)), 1)
    assert royal_nodes(x) == () and degree(x) == 0
    # e1 = 1e-10 or 1e-9 passes modulus domination with d but has no zero at -1
    for eps in (1e-10, 1e-9):
        parts = (Polynomial((eps,)), Polynomial((0, eps)), Polynomial((1, 1)))
        with pytest.raises(ValidationError) as err:
            validate(*parts, 1)
        [(code, detail)] = err.value.violations
        assert code == "DVanishesInDisc"
        assert detail == "roots of d inside the closed disc: [((-1+0j), 1)]"
        data = {"n": 1, **{key: [[c.real, c.imag] for c in p.coeffs.tolist()]
                           for key, p in zip(("E1", "E2", "D"), parts)}}
        report = cli.cmd_verify(data, argparse.Namespace())
        assert not report["valid"] and "invariants" not in report
        assert {row["condition"]: row["passed"] for row in report["conditions"]} == {
            "degree bounds": True, "denominator nonvanishing": False,
            "modulus domination": True, "reflection identity": True}
    # a zero of d inside the circle (no validation admits it) is no circle zero
    x = tetrafun.TetraRational(Polynomial(()), Polynomial(()), Polynomial((0.0, -2.0, 1.0)), 3)
    assert type_nk(x) == TypeNK(3, 0)


def test_a_strict_function_solves_nothing_to_cancel(monkeypatch):
    x = from_json_dict(to_json_dict(construct(
        random_construction_spec(np.random.default_rng(7), 6, k_circle=3))))
    solves, tests = count_solves(monkeypatch), count_disc_tests(monkeypatch)
    data = recover_data(x)
    # the royal polynomial and e1, each once; d's disc answer is the one validation kept
    assert solves == [6, 12] and tests == []
    assert type_nk(x) == TypeNK(6, 3) and len(data.zeros1.expand()) + len(data.zeros2.expand()) == 6


def _mp_root(mpmath, coeffs, z):
    """The root next to z of the polynomial with ascending coefficients coeffs,
    by Newton's method from a z good to 1e-6, so 6 steps reach 60 digits."""
    z = mpmath.mpc(z)
    for _ in range(6):
        value, slope = mpmath.polyval(coeffs[::-1], z, derivative=True)
        z -= value / slope
    return complex(z)


@pytest.mark.parametrize("n, k, seed", [(24, 0, 3), (24, 0, 4), (32, 0, 3), (24, 12, 3),
                                        (32, 16, 3)])
def test_seeded_nodes_match_the_mpmath_oracle(monkeypatch, n, k, seed):
    """Oracle: 60-digit roots of the royal polynomial of the returned triple,
    formed exactly, and of the double one the pass solves.  The pass's limits
    lie within their rounding bound of the latter; forming R in double moves
    the former by up to the rounding of the convolutions, (n + 2) eps times
    the same sums of moduli, over |R'| (or |R''| for a circle node, with
    2n for the derivative)."""
    mpmath = pytest.importorskip("mpmath")
    x = construct(random_construction_spec(np.random.default_rng(seed), n, k_circle=k))
    solves = count_solves(monkeypatch)
    nodes = [nd for nd in royal_nodes(x) if nd.on_circle == (k > 0)]
    assert solves == [] and len(nodes) == (k or n)

    coeffs = royal_polynomial(x).coeffs
    scale = 2 * n if k else 1
    f = polycx._derivative(coeffs) if k else coeffs
    z, bound, slope, _ = polycx._newton_limits(f, np.array([nd.location for nd in nodes]))
    powers = np.abs(z)[:, None] ** np.arange(n + 1)
    d_reflected, d, e1, e2 = (powers[:, :len(p.coeffs)] @ np.abs(p.coeffs)
                              for p in (x.d_reflected, x.d, x.e1, x.e2))
    formed = scale * (n + 2) * polycx.EPS * (d_reflected * d + e1 * e2)

    with mpmath.workdps(60):
        def mp(p):
            return [mpmath.mpc(c) for c in p.coeffs.tolist()]

        def times(a, b):
            out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return out

        exact = [a - b for a, b in itertools.zip_longest(
            times(mp(x.d_reflected), mp(x.d)), times(mp(x.e1), mp(x.e2)), fillvalue=0)]
        for oracle, allowed in ((exact, bound + formed / np.abs(slope)),
                                ([mpmath.mpc(c) for c in coeffs.tolist()], bound)):
            if k:
                oracle = [j * c for j, c in enumerate(oracle)][1:]
            for nd, start, tol in zip(nodes, z, allowed):
                root = _mp_root(mpmath, oracle, start)
                assert abs((root / abs(root) if k else root) - nd.location) <= tol
