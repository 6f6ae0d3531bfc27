"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (visible with pytest -s);
a failed assertion marks the criterion FAIL.  Run with

    pytest -s tests/test_acceptance.py
"""

import time

import numpy as np
import pytest

from helpers import (
    match_multiset,
    random_construction_spec,
    random_outer_polynomial,
    sample_fixed_x3_closed,
    sample_fixed_x3_distinguished,
)
from tetrainner.boundary import (
    Matrix2,
    TetraPoint,
    TetraRegion,
    classify_tetra,
    mu_diag_le_one,
    mu_diag_value,
    pi_map,
    tetra_defect,
)
from tetrainner.construct import ConstructionSpec, construct, recover_data
from tetrainner.extremal import (
    PerturbationMethod,
    convex_combine,
    perturb_nonextreme,
    scale_nonextreme,
)
from tetrainner.fejriesz import factor, modulus_squared_on_circle
from tetrainner.polycx import Polynomial, coeff_distance, unit_circle
from tetrainner.tetrafun import (
    BlaschkeSpec,
    SuperficialSpec,
    degree,
    is_superficial,
    psi_omega_check,
    royal_nodes,
    royal_polynomial,
    superficial_build,
    type_nk,
    validate,
    winding_number,
)

SQ2 = np.sqrt(2.0)


def _report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _constructed_pool(seed, count, max_n=5, allow_circle=True):
    rng = np.random.default_rng(seed)
    specs = []
    for trial in range(count):
        n = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(0, n // 2 + 1)) if (allow_circle and trial % 2) else 0
        specs.append(random_construction_spec(rng, n, k_circle=k))
    return specs


def test_criterion_01_worked_example_reproduction():
    spec = ConstructionSpec(alpha1=(), alpha2=(0.5,), sigma=(0.0,),
                            t_plus=1.75, t=SQ2, omega=1.0)
    construct(spec)  # warm caches before timing
    start = time.perf_counter()
    x = construct(spec)
    elapsed = time.perf_counter() - start
    a1, a2 = x.d.coeff(0), x.d.coeff(1)
    assert abs(abs(a1) ** 2 + abs(a2) ** 2 - 4.25) < 1e-9
    assert abs(a1 * np.conj(a2) - (-1.0)) < 1e-9
    assert coeff_distance(royal_polynomial(x), Polynomial((0, 1.75))) < 1e-9
    rec = recover_data(x)
    assert rec.zeros1.entries == ()
    assert len(rec.zeros2.expand()) == 1
    assert abs(rec.zeros2.expand()[0] - 0.5) < 1e-8
    assert degree(x) == 1
    assert elapsed < 0.1
    _report(1, "worked single-node construction reproduced")


def test_criterion_02_nonconvexity_witness():
    a = TetraPoint(1j, 1, 1j)
    b = TetraPoint(-1, 1j, -1j)
    assert classify_tetra(a) is TetraRegion.DISTINGUISHED_BOUNDARY
    assert classify_tetra(b) is TetraRegion.DISTINGUISHED_BOUNDARY
    mid = TetraPoint((a.x1 + b.x1) / 2, (a.x2 + b.x2) / 2, (a.x3 + b.x3) / 2)
    assert classify_tetra(mid) is TetraRegion.OUTSIDE
    assert abs(tetra_defect(mid) - (SQ2 - 1.0)) < 1e-12
    _report(2, "midpoint of two distinguished points leaves the closure")


def test_criterion_03_factorization_round_trip():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        d_ref = random_outer_polynomial(rng)
        lead = next(c for c in d_ref.coeffs if abs(c) > 0)
        d_ref = d_ref.scale(np.conj(lead) / abs(lead))
        recovered = factor(modulus_squared_on_circle(d_ref))
        assert coeff_distance(recovered, d_ref) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"200 outer factorization round trips in {elapsed:.2f}s")


def test_criterion_04_construction_round_trip():
    start = time.perf_counter()
    specs = _constructed_pool(103, 50)
    for spec in specs:
        x = construct(spec)
        rec = recover_data(x)
        match_multiset(spec.alpha1, rec.zeros1.expand(), 1e-6)
        match_multiset(spec.alpha2, rec.zeros2.expand(), 1e-6)
        nodes = []
        for nd in rec.nodes:
            nodes.extend([nd.location] * nd.multiplicity)
        match_multiset(spec.sigma, nodes, 1e-6)
        assert sum(nd.multiplicity for nd in rec.nodes) == len(spec.sigma)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"50 construction round trips in {elapsed:.2f}s")


def test_criterion_05_structure_invariants():
    grid = unit_circle(512)
    for spec in _constructed_pool(105, 25):
        x = construct(spec)
        dv = np.abs(x.d.eval(grid))
        e1v = np.abs(x.e1.eval(grid))
        e2v = np.abs(x.e2.eval(grid))
        assert float(np.max(np.abs(e1v - e2v))) < 1e-9
        royal = royal_polynomial(x)
        shifted = grid ** (-x.n) * royal.eval(grid)
        assert float(np.max(np.abs(shifted - (dv ** 2 - e1v ** 2)))) < 1e-9
        assert float(np.max(np.abs(shifted - (dv ** 2 - e2v ** 2)))) < 1e-9
        assert coeff_distance(royal, royal.reflect(2 * x.n)) < 1e-10
    _report(5, "modulus equality, royal balance and symmetry hold")


def test_criterion_06_degree_coherence():
    for spec in _constructed_pool(107, 25):
        x = construct(spec)
        n = len(spec.sigma)
        assert winding_number(x) == degree(x) == n
    _report(6, "winding number equals degree equals node count")


def test_criterion_07_nonextremality_decompositions():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    done = 0
    while done < 20:
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n // 2 + 1))
        x = construct(random_construction_spec(rng, n, k_circle=k))
        result = perturb_nonextreme(x)
        assert result.method in (PerturbationMethod.G_PERTURB_EVEN,
                                 PerturbationMethod.G_PERTURB_ODD)
        assert result.t_used > 0
        err = max(
            coeff_distance((result.x_plus.e1 + result.x_minus.e1).scale(0.5), x.e1),
            coeff_distance((result.x_plus.e2 + result.x_minus.e2).scale(0.5), x.e2))
        assert err < 1e-12
        done += 1
    for _ in range(20):
        n = int(rng.integers(1, 7))
        x = construct(random_construction_spec(rng, n, k_circle=0))
        result = scale_nonextreme(x)
        assert result.t_used > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, f"40 decompositions in {elapsed:.2f}s")


def test_criterion_08_superficial_suite():
    rng = np.random.default_rng(111)
    for _ in range(20):
        phase1, phase2 = np.exp(2j * np.pi * rng.random(2))
        w = 0.05 + 0.9 * rng.random()
        beta1, beta2 = w * phase1, (1.0 - w) * phase2
        zeros = tuple(0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                      for _ in range(int(rng.integers(0, 3))))
        spec = SuperficialSpec(beta1, beta2,
                               BlaschkeSpec(zeros, np.exp(2j * np.pi * rng.random())))
        x = superficial_build(spec, len(zeros))
        assert is_superficial(x)
        assert psi_omega_check(x, spec) < 1e-8
    special = SuperficialSpec(0.5j, -0.5j, BlaschkeSpec((0.0,)))
    xs = superficial_build(special, 1)
    assert (xs.e1 + xs.e2).is_zero
    assert is_superficial(xs)
    _report(8, "superficial family verified with constant fractional value")


def test_criterion_09_convex_slices():
    rng = np.random.default_rng(113)
    for _ in range(100):
        x3 = complex(np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
        a = sample_fixed_x3_closed(rng, x3)
        b = sample_fixed_x3_closed(rng, x3)
        for t in np.linspace(0, 1, 10):
            w = TetraPoint(t * a.x1 + (1 - t) * b.x1, t * a.x2 + (1 - t) * b.x2, x3)
            assert classify_tetra(w, 1e-7) is not TetraRegion.OUTSIDE
    for _ in range(100):
        x3 = complex(np.exp(2j * np.pi * rng.random()))
        a = sample_fixed_x3_distinguished(rng, x3)
        b = sample_fixed_x3_distinguished(rng, x3)
        for t in np.linspace(0, 1, 10):
            w = TetraPoint(t * a.x1 + (1 - t) * b.x1, t * a.x2 + (1 - t) * b.x2, x3)
            assert classify_tetra(w, 1e-7) is not TetraRegion.OUTSIDE
    for spec in _constructed_pool(115, 10, max_n=4):
        x = construct(spec)
        variants = (validate(Polynomial(), Polynomial(), x.d, x.n),
                    validate(x.e2, x.e1, x.d, x.n))
        for y in variants:
            for t in np.linspace(0, 1, 10):
                convex_combine(x, y, float(t))
    _report(9, "pointwise and function-level convex combinations stay in class")


def test_criterion_10_mu_coherence():
    rng = np.random.default_rng(117)
    for _ in range(200):
        scale = 0.2 + 2.8 * rng.random()
        entries = scale * (rng.normal(size=4) + 1j * rng.normal(size=4)) / 2
        a = Matrix2(*[complex(v) for v in entries])
        assert mu_diag_le_one(a) == (mu_diag_value(a) <= 1 + 1e-6)
    for _ in range(50):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        u = Matrix2(q[0, 0], q[0, 1], q[1, 0], q[1, 1])
        assert classify_tetra(pi_map(u)) is TetraRegion.DISTINGUISHED_BOUNDARY
    _report(10, "mu threshold, mu value and unitary images agree")
