import importlib
import itertools

import numpy as np
import pytest

from helpers import coeff_bits, match_multiset, pairwise_product, random_construction_spec
from tetrainner import extremal, polycx
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
)
from tetrainner.polycx import (CIRCLE_SAMPLES, CIRCLE_TOL, Polynomial, coeff_distance, from_roots,
                               roots, unit_circle)
from tetrainner.tetrafun import (
    degree,
    eval_function,
    from_json_dict,
    royal_nodes,
    royal_polynomial,
    to_json_dict,
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


@pytest.mark.parametrize("scale, error, message", [
    # the royal target is tiny but above the trim threshold: x lies on the royal variety
    ({"t_plus": 1e-13}, ConstructionInconsistent, "royal variety"),
    ({"t_plus": 1e-15}, InvalidConstructionSpec, "royal target trims to zero"),
    ({"t": 1e-15}, InvalidConstructionSpec, "e1 trims to zero"),
])
def test_construct_rejects_tiny_scales(scale, error, message):
    spec = ConstructionSpec(alpha1=(0.3,), sigma=(0.5,), **{"t_plus": 1.0, "t": 1.0, **scale})
    with pytest.raises(error, match=message):
        construct(spec)


def test_builders_reject_a_product_that_trims_to_zero():
    for t in (0.0, 1e-15):
        with pytest.raises(InvalidConstructionSpec, match="e1 trims to zero"):
            build_e1((0.3,), (), t)
    with pytest.raises(InvalidConstructionSpec, match="royal target trims to zero"):
        build_royal_target((0.5,), 1e-15)


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
    solve, degrees = np.roots, []

    def counting(a):
        degrees.append(len(a) - 1)
        return solve(a)

    monkeypatch.setattr(np, "roots", counting)
    x = construct(spec)
    # a constructed function finds its zeros and nodes by Newton from the
    # spec; a reloaded copy solves e1 and the royal polynomial (2n).  factor
    # takes its cepstral path, the Schur-Cohn test decides d, the zeros of e2
    # are reflected from those of e1, and the degree of a strict function is n
    for y, solved in ((x, []), (from_json_dict(to_json_dict(x)), [8, 16])):
        degrees.clear()
        recover_data(y)
        result = extremal.perturb_nonextreme(y)
        assert degrees == solved
        assert degree(result.x_plus) == degree(result.x_minus) == 8
        assert len(degrees) == len(solved)


@pytest.mark.parametrize("k_circle", [0, 4])
def test_perturbation_halves_reuse_the_disc_test_of_d(monkeypatch, k_circle):
    x = construct(random_construction_spec(np.random.default_rng(79), 8, k_circle=k_circle))
    calls, test = [], polycx._schur_cohn
    monkeypatch.setattr(polycx, "_schur_cohn", lambda q: calls.append(1) or test(q))
    result = extremal.perturb_nonextreme(x)
    assert result.x_plus.d is result.x_minus.d is x.d
    assert calls == []


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


# -- expansions against the pairwise product -------------------------------------

def _random_points(rng, count):
    pts = [0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
           for _ in range(count)]
    # a node at 0, one below the trim threshold and a tiny pair whose
    # product drops below it part-way through the expansion
    return pts + [0.0, 3e-15 * np.exp(1j), 2e-10, -1e-10j]


def test_expansions_match_pairwise_product():
    rng = np.random.default_rng(83)
    for _ in range(20):
        sigma = _random_points(rng, int(rng.integers(0, 10)))
        rng.shuffle(sigma)
        t_plus = float(0.5 + rng.random())
        expected = pairwise_product(Polynomial((t_plus,)), [
            f for s in sigma for f in (Polynomial((-s, 1)), Polynomial((1, -np.conj(s))))])
        assert coeff_bits(build_royal_target(sigma, t_plus)) == coeff_bits(expected)

        alpha1, alpha2 = (_random_points(rng, int(rng.integers(0, 6))) for _ in range(2))
        t = complex(rng.normal(), rng.normal())
        expected = pairwise_product(
            Polynomial((t,)), [Polynomial((-a, 1)) for a in alpha1]
            + [Polynomial((1, -np.conj(a))) for a in alpha2])
        assert coeff_bits(build_e1(alpha1, alpha2, t)) == coeff_bits(expected)

        expected = pairwise_product(Polynomial((1.0,)), [Polynomial((-r, 1)) for r in sigma])
        assert coeff_bits(from_roots(sigma)) == coeff_bits(expected)


# -- seeded nodes and zeros of constructed functions -------------------------------

def _solves(monkeypatch):
    """The degree of every eigen-solve from here on."""
    solve, degrees = np.roots, []
    monkeypatch.setattr(np, "roots", lambda a: degrees.append(len(a) - 1) or solve(a))
    return degrees


def _nodes_or_error(x):
    try:
        return royal_nodes(x)
    except TetraError as exc:
        return type(exc)


def _assert_same_roots(x, copy):
    """x's nodes and zeros have the structure of copy's, which were solved, at
    locations within the rounding bound of the Newton pass."""
    nodes, solved = _nodes_or_error(x), _nodes_or_error(copy)
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
            solves = _solves(monkeypatch)
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
    if seeds is not None:
        # another spec's nodes and zeros: Newton from them does not find every root
        object.__setattr__(x, "_node_seeds", seeds.sigma)
        object.__setattr__(x.e1, "_root_seeds",
                           seeds.alpha1 + tuple(1 / np.conj(a) for a in seeds.alpha2))
    solves = _solves(monkeypatch)
    _nodes_or_error(x)
    assert solves == ([] if royal_seeded else [royal_polynomial(x).degree])
    solves.clear()
    roots(x.e1)
    assert solves == ([] if seeds is None else [x.e1.degree])
    monkeypatch.undo()
    _assert_same_roots(x, from_json_dict(to_json_dict(x)))


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
    solves = _solves(monkeypatch)
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
