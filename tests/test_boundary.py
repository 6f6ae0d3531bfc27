import copy
import pickle

import numpy as np
import pytest

from helpers import count_python_calls, sample_closed
from tetrainner.boundary import (
    GammaPoint,
    GammaRegion,
    Matrix2,
    TetraPoint,
    TetraRegion,
    classify_gamma,
    classify_tetra,
    gamma_defect,
    gamma_to_tetra,
    mu_diag_le_one,
    mu_diag_value,
    pi_map,
    psi,
    sample_distinguished,
    sample_interior,
    tetra_defect,
    tetra_to_gamma_diff,
    tetra_to_gamma_sum,
)
from tetrainner.errors import NonFiniteCoefficient, PsiPole
from tetrainner.polycx import unit_circle


def test_psi_constant_on_triangular_points():
    # x3 = x1 x2 makes the map constantly x1
    x = TetraPoint(0.3 + 0.1j, 0.5, (0.3 + 0.1j) * 0.5)
    for z in (0.0, 0.5j, -0.7):
        assert abs(psi(z, x) - x.x1) < 1e-14


def test_psi_at_origin_point():
    assert psi(0.3, TetraPoint(0, 0, 0)) == 0


def test_psi_worked_value():
    assert abs(psi(0.0, TetraPoint(1j, 1, 1j)) - 1j) < 1e-15


def test_psi_pole_detection():
    with pytest.raises(PsiPole):
        psi(1.0, TetraPoint(0.5, 1.0, 0.25))


def test_psi_on_arrays_matches_pointwise():
    rng = np.random.default_rng(13)
    pts = [sample_interior(rng) for _ in range(200)]
    z = 0.8 * np.exp(0.4j)
    got = psi(z, TetraPoint(*(np.array(c) for c in zip(*(p.as_tuple() for p in pts)))))
    assert np.max(np.abs(got - np.array([psi(z, p) for p in pts]))) < 1e-14


def test_psi_on_arrays_names_first_pole():
    x2 = np.array([0.5, 1.0, 1.0 + 1e-13, 1.0])
    zeros = np.zeros(4, dtype=complex)
    with pytest.raises(PsiPole, match=r"^x2\*z = \(1\+0j\) is within 1e-12 of 1$"):
        psi(1.0, TetraPoint(zeros, x2 + 0j, zeros))


def test_classify_origin_interior():
    assert classify_tetra(TetraPoint(0, 0, 0)) is TetraRegion.INTERIOR


def test_classify_distinguished_point():
    assert classify_tetra(TetraPoint(1j, 1, 1j)) is TetraRegion.DISTINGUISHED_BOUNDARY


def test_classify_nonconvexity_midpoint_outside():
    mid = TetraPoint((-1 + 1j) / 2, (1 + 1j) / 2, 0)
    assert classify_tetra(mid) is TetraRegion.OUTSIDE
    assert abs(tetra_defect(mid) - (np.sqrt(2) - 1)) < 1e-12


def test_classify_topological_boundary():
    # (1/2, 1/2, 0): defect = 1/2 + 1/2 - 1 = 0 with both moduli below 1
    assert classify_tetra(TetraPoint(0.5, 0.5, 0)) is TetraRegion.TOPOLOGICAL_BOUNDARY


def _classify_reference(x, tol):
    """classify_tetra written out from tetra_defect and the moduli, point by point."""
    defect = (abs(x.x1 - x.x2.conjugate() * x.x3) + abs(x.x2 - x.x1.conjugate() * x.x3)
              - (1.0 - abs(x.x3) ** 2))
    a1, a3 = abs(x.x1), abs(x.x3)
    if defect <= tol and (abs(a3 - 1.0) > tol or a1 <= 1.0 + tol) and abs(a3 - 1.0) <= tol:
        return TetraRegion.DISTINGUISHED_BOUNDARY
    if defect < -tol:
        return TetraRegion.INTERIOR
    if abs(defect) <= tol and a1 <= 1.0 + tol and abs(x.x2) <= 1.0 + tol:
        return TetraRegion.TOPOLOGICAL_BOUNDARY
    return TetraRegion.OUTSIDE


class _Counted(complex):
    """A coordinate that counts the abs() taken of it."""

    def __abs__(self):
        self.reads["abs"] += 1
        return complex.__abs__(self)


class _CountingPoint:
    """A TetraPoint stand-in that counts reads of each coordinate and of its modulus."""

    def __init__(self, x):
        self.reads = {"x1": 0, "x2": 0, "x3": 0}
        self._coords = {}
        for name, value in zip(("x1", "x2", "x3"), x.as_tuple()):
            self._coords[name] = _Counted(value)
            self._coords[name].reads = {"abs": 0}

    def __getattr__(self, name):
        self.reads[name] += 1
        return self._coords[name]


def _edge_points(rng, tol):
    """Points of every region, and points straddling |x3| = 1 and |x1| = 1 by
    fractions and multiples of tol."""
    points = [sample_interior(rng) for _ in range(20)]
    points += [sample_distinguished(rng) for _ in range(20)]
    points += [TetraPoint(0.5, 0.5, 0), TetraPoint(0.5j, -0.5j, 0), TetraPoint(0.9, 0.9, 0.5),
               TetraPoint(2.0, 0, 0), TetraPoint((-1 + 1j) / 2, (1 + 1j) / 2, 0)]
    for shift in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        r = 1.0 + shift * tol
        for _ in range(4):
            u = np.exp(2j * np.pi * rng.random())
            x2 = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            points.append(TetraPoint(np.conj(x2) * r * u, x2, r * u))       # |x3| = r
            points.append(TetraPoint(r * u, np.conj(u) * u, u))            # |x1| = r
            points.append(TetraPoint(r * u, 0.3 * x2, 0.5 * u))
    return points


@pytest.mark.parametrize("tol", [1e-9, 1e-7])
def test_classify_tetra_matches_the_pointwise_rule_and_reads_each_coordinate_once(tol):
    rng = np.random.default_rng(113)
    seen = set()
    for x in _edge_points(rng, tol):
        counting = _CountingPoint(x)
        region = classify_tetra(counting, tol)
        assert region is _classify_reference(x, tol) is classify_tetra(x, tol), x
        assert counting.reads == {"x1": 1, "x2": 1, "x3": 1}
        assert counting._coords["x3"].reads["abs"] == 1
        seen.add(region)
    assert seen == set(TetraRegion)


def test_classify_gamma_origin():
    assert classify_gamma(GammaPoint(0, 0)) is GammaRegion.OPEN_G


def test_classify_gamma_distinguished():
    assert classify_gamma(GammaPoint(2, 1)) is GammaRegion.GAMMA_DISTINGUISHED


def test_classify_gamma_outside():
    assert classify_gamma(GammaPoint(3, 0)) is GammaRegion.OUTSIDE


def test_classify_gamma_boundary_top():
    # |s - conj(s) p| = 1 - |p|^2 with |p| < 1: on the boundary, off the distinguished part
    for s, p in ((1, 0), (1.5, 0.5), (1j, 0)):
        assert classify_gamma(GammaPoint(s, p)) is GammaRegion.GAMMA_BOUNDARY_TOP


def test_classify_gamma_labels_every_point_with_one_of_four_regions():
    # a point with |s| <= 2 + tol and defect within tol is on the boundary,
    # so no closed-but-not-open label exists between OPEN_G and OUTSIDE
    assert len(GammaRegion) == 4
    rng = np.random.default_rng(5)
    for _ in range(2000):
        s = complex(*rng.uniform(-2.5, 2.5, 2))
        p = complex(*rng.uniform(-1.2, 1.2, 2))
        tol = 10.0 ** rng.uniform(-15, 0)
        region = classify_gamma(GammaPoint(s, p), tol)
        defect = gamma_defect(GammaPoint(s, p))
        if abs(s) <= 2.0 + tol and defect <= tol:
            assert region is not GammaRegion.OUTSIDE


def test_pi_map_identity():
    assert pi_map(Matrix2(1, 0, 0, 1)) == TetraPoint(1, 1, 1)


def test_pi_map_diagonal():
    phi, psi_v = 0.3 + 0.2j, -0.1 + 0.6j
    assert pi_map(Matrix2(phi, 0, 0, psi_v)) == TetraPoint(phi, psi_v, phi * psi_v)


def test_pi_map_rotated_diagonal():
    phi, psi_v = 0.5 - 0.2j, 0.4 + 0.4j
    s = 1 / np.sqrt(2)
    a = Matrix2(s * phi, s * psi_v, -s * phi, s * psi_v)
    img = pi_map(a)
    assert abs(img.x1 - phi / np.sqrt(2)) < 1e-14
    assert abs(img.x2 - psi_v / np.sqrt(2)) < 1e-14
    assert abs(img.x3 - phi * psi_v) < 1e-14


def _random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return Matrix2(q[0, 0], q[0, 1], q[1, 0], q[1, 1])


def test_mu_le_one_for_unitaries():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = _random_unitary(rng)
        assert mu_diag_le_one(u)
        assert classify_tetra(pi_map(u)) is TetraRegion.DISTINGUISHED_BOUNDARY


def test_mu_le_one_rejects_double_identity():
    assert not mu_diag_le_one(Matrix2(2, 0, 0, 2))


def test_mu_le_one_zero_matrix():
    assert mu_diag_le_one(Matrix2(0, 0, 0, 0))


def test_mu_value_identity():
    # sweep oracle: (r, r, r^2) leaves the closure exactly at r = 1
    assert abs(mu_diag_value(Matrix2(1, 0, 0, 1)) - 1.0) < 1e-6


def test_mu_value_zero_matrix():
    assert mu_diag_value(Matrix2(0, 0, 0, 0)) == 0.0


def test_mu_value_half_diagonal():
    # det(I - A diag(z, w)) = 1 - z/2 vanishes first at |z| = 2
    assert abs(mu_diag_value(Matrix2(0.5, 0, 0, 0)) - 0.5) < 1e-6


def test_gamma_to_tetra_distinguished():
    img = gamma_to_tetra(GammaPoint(2, 1))
    assert img == TetraPoint(1, 1, 1)
    assert classify_tetra(img) is TetraRegion.DISTINGUISHED_BOUNDARY


def test_gamma_to_tetra_origin():
    assert gamma_to_tetra(GammaPoint(0, 0)) == TetraPoint(0, 0, 0)


def test_gamma_to_tetra_preserves_membership():
    rng = np.random.default_rng(4)
    for _ in range(100):
        # random Gamma point as a symmetrization of two disc points
        z, w = [0.999 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                for _ in range(2)]
        img = gamma_to_tetra(GammaPoint(z + w, z * w))
        assert classify_tetra(img) is not TetraRegion.OUTSIDE


def test_tetra_to_gamma_sum_boundary_value():
    # the function (1, lam, lam) at lam = 1 symmetrizes to (2, 1)
    g = tetra_to_gamma_sum(TetraPoint(1, 1, 1))
    assert classify_gamma(g) is GammaRegion.GAMMA_DISTINGUISHED


def test_tetra_to_gamma_origin():
    assert tetra_to_gamma_sum(TetraPoint(0, 0, 0)) == GammaPoint(0, 0)
    assert tetra_to_gamma_diff(TetraPoint(0, 0, 0)) == GammaPoint(0, 0)


def test_weighted_gamma_images_stay_in_gamma():
    # (a x1 + conj(a) x2, x3) lies in the closed symmetrized bidisc
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = sample_closed(rng)
        for _ in range(64):
            a = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            g = GammaPoint(a * x.x1 + np.conj(a) * x.x2, x.x3)
            assert classify_gamma(g, 1e-7) is not GammaRegion.OUTSIDE


def test_rotated_sums_land_in_open_bidisc():
    # (x1 + z x2, z x3) is in the open symmetrized bidisc for interior x
    rng = np.random.default_rng(8)
    z64 = unit_circle(64)
    for _ in range(200):
        x = sample_interior(rng)
        for z in z64:
            g = GammaPoint(x.x1 + z * x.x2, z * x.x3)
            assert classify_gamma(g, 1e-12) is GammaRegion.OPEN_G


def test_psi_sup_separates_membership():
    rng = np.random.default_rng(10)
    circle = unit_circle(512)
    inside_count = 0
    for _ in range(200):
        x = sample_interior(rng)
        if abs(x.x1 * x.x2 - x.x3) < 1e-12:
            continue
        vals = np.abs((x.x3 * circle - x.x1) / (x.x2 * circle - 1))
        assert float(np.max(vals)) < 1.0
        inside_count += 1
    assert inside_count > 150
    outside_count = 0
    while outside_count < 200:
        base = sample_distinguished(rng)
        if abs(base.x1) < 0.3:
            continue
        # inflating x1 alone breaks the boundary identities and leaves |x2| < 1
        x = TetraPoint((1.2 + rng.random()) * base.x1, base.x2, base.x3)
        if classify_tetra(x) is not TetraRegion.OUTSIDE or abs(x.x2) >= 1:
            continue
        vals = np.abs((x.x3 * circle - x.x1) / (x.x2 * circle - 1))
        assert float(np.max(vals)) > 1.0 - 1e-9
        outside_count += 1


def test_distinguished_boundary_algebra():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = sample_distinguished(rng)
        assert classify_tetra(x) is TetraRegion.DISTINGUISHED_BOUNDARY
        assert abs(x.x1 - np.conj(x.x2) * x.x3) <= 2e-9
        assert abs(x.x2 - np.conj(x.x1) * x.x3) <= 2e-9


def test_mu_value_consistent_with_membership():
    rng = np.random.default_rng(14)
    for _ in range(200):
        scale = 0.2 + 2.8 * rng.random()
        m = scale * (rng.normal(size=4) + 1j * rng.normal(size=4)) / 2
        a = Matrix2(*[complex(v) for v in m])
        le_one = mu_diag_le_one(a)
        value = mu_diag_value(a)
        assert le_one == (value <= 1 + 1e-6)


def test_mu_value_against_grid_search_oracle():
    # independent oracle: det(I - A diag(z, w)) = 0 pins z = (1 - a22 w)/(a11 - det w);
    # minimize max(|z|, |w|) over a fine polar grid in w
    rng = np.random.default_rng(16)
    for _ in range(5):
        m = (rng.normal(size=4) + 1j * rng.normal(size=4)) / 2
        a = Matrix2(*[complex(v) for v in m])
        det = a.det()
        best = np.inf
        for radius in np.linspace(0.01, 12.0, 400):
            w = radius * np.exp(2j * np.pi * np.arange(160) / 160)
            denom = a.a11 - det * w
            ok = np.abs(denom) > 1e-12
            z = (1 - a.a22 * w[ok]) / denom[ok]
            if z.size:
                best = min(best, float(np.min(np.maximum(np.abs(z), radius))))
        oracle = 0.0 if not np.isfinite(best) else 1.0 / best
        value = mu_diag_value(a)
        assert abs(value - oracle) < 0.05 * max(1.0, oracle)


def _np_conj_defects(x1, x2, x3):
    """tetra_defect and gamma_defect as written with np.conj."""
    return ((abs(x1 - np.conj(x2) * x3) + abs(x2 - np.conj(x1) * x3) - (1.0 - abs(x3) ** 2)),
            abs(x1 - np.conj(x1) * x3) - (1.0 - abs(x3) ** 2))


def test_defects_match_np_conj_formulas_bit_for_bit():
    # the defects conjugate with .conjugate(), which must give the same bits
    # as np.conj on Python complex and on numpy complex128 scalars
    rng = np.random.default_rng(59)
    pts = rng.uniform(-1.2, 1.2, (200_000, 3)) + 1j * rng.uniform(-1.2, 1.2, (200_000, 3))
    for row in (*pts.tolist(), *pts[:2000]):
        got = tetra_defect(TetraPoint(*row)), gamma_defect(GammaPoint(row[0], row[2]))
        assert got == _np_conj_defects(*row)


def _d_scaled_bound(a):
    """min over d > 0 of the largest singular value of [[a11, d a12], [a21/d, a22]],
    by golden section on log d in [-30, 30] (the Frobenius norm is convex in
    log d, and the largest singular value increases with it at fixed |det|)."""
    def sbar(t):
        d = np.exp(t)
        return np.linalg.norm(np.array([[a.a11, d * a.a12], [a.a21 / d, a.a22]]), 2)
    g = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -30.0, 30.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = sbar(x1), sbar(x2)
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = sbar(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = sbar(x2)
    return min(f1, f2)


def test_mu_value_against_d_scaling_oracle():
    # for two scalar blocks the D-scaled bound is mu itself (Doyle 1982)
    rng = np.random.default_rng(71)
    for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        for _ in range(20):
            m = scale * (rng.normal(size=4) + 1j * rng.normal(size=4))
            a = Matrix2(*[complex(v) for v in m])
            oracle = _d_scaled_bound(a)
            assert abs(mu_diag_value(a) - oracle) <= 1e-12 * oracle


def test_closed_tetrablock_criterion_matches_classify_tetra():
    # the criterion mu_diag_value rests on (Abouhajar, White & Young 2007)
    rng = np.random.default_rng(72)
    parts = rng.uniform(-1.2, 1.2, size=(20000, 6))
    for row in parts:
        x1, x2, x3 = complex(row[0], row[1]), complex(row[2], row[3]), complex(row[4], row[5])
        inside = (abs(x1) ** 2 + abs(x2) ** 2 - abs(x3) ** 2 + 2 * abs(x1 * x2 - x3) <= 1
                  and abs(x3) <= 1)
        assert (classify_tetra(TetraPoint(x1, x2, x3), 0.0) is not TetraRegion.OUTSIDE) == inside


@pytest.mark.parametrize("a, expected", [(Matrix2(1e-7, 0, 0, 0), 1e-7),
                                         (Matrix2(0, 1e-6, 1e-6, 0), 1e-6)],
                         ids=["diagonal", "antidiagonal"])
def test_mu_value_small(a, expected):
    assert mu_diag_value(a) == expected


def test_mu_value_of_triangular_matrices_to_a_few_ulps():
    # det(I - A diag(z, w)) = (1 - a11 z)(1 - a22 w) when a21 = 0, so mu is
    # max(|a11|, |a22|), also when the two are nearly equal
    rng = np.random.default_rng(73)
    for _ in range(200):
        a11 = complex(rng.normal(), rng.normal())
        a22 = a11 * (1 + 10 ** rng.uniform(-15, -3)) * np.exp(2j * np.pi * rng.random())
        a12 = 10 ** rng.uniform(-3, 3) * complex(rng.normal(), rng.normal())
        exact = max(abs(a11), abs(a22))
        for a in (Matrix2(a11, a12, 0, a22), Matrix2(a22, 0, a12, a11)):
            assert abs(mu_diag_value(a) - exact) <= 4 * np.spacing(exact)


def test_mu_value_is_homogeneous():
    rng = np.random.default_rng(74)
    for _ in range(20):
        m = rng.normal(size=4) + 1j * rng.normal(size=4)
        a = Matrix2(*[complex(v) for v in m])
        mu = mu_diag_value(a)
        for k in range(-200, 151, 10):
            c = 10.0 ** k * np.exp(2j * np.pi * rng.random())
            scaled = Matrix2(*[complex(c * v) for v in m])
            assert abs(mu_diag_value(scaled) - abs(c) * mu) <= 8 * np.spacing(abs(c) * mu)


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), complex(0, float("-inf")),
                                   complex(1e300, float("nan"))])
@pytest.mark.parametrize("position", range(4))
def test_mu_value_rejects_non_finite_entries(entry, position):
    entries = [0.5, 0.1j, -0.2, 0.3]
    entries[position] = entry
    with pytest.raises(NonFiniteCoefficient):
        mu_diag_value(Matrix2(*entries))
    with pytest.raises(NonFiniteCoefficient):
        mu_diag_le_one(Matrix2(*entries))


# finite coordinates near the top of the float range: abs() of a complex or ** overflows
@pytest.mark.parametrize("call, point", [
    (tetra_defect, TetraPoint(0j, 0j, complex(1.5e308, 1.5e308))),
    (classify_tetra, TetraPoint(0j, 0j, complex(1.5e308, 1.5e308))),
    (classify_tetra, TetraPoint(complex(1e308, 1e308), complex(1e308, -1e308),
                                complex(1e308, 1e308))),
    (classify_tetra, TetraPoint(complex(1.5e308, 1.5e308), complex(1.5e308, -1.5e308), 1 + 0j)),
    (gamma_defect, GammaPoint(complex(1e308, 1e308), complex(1e308, 1e308))),
    (classify_gamma, GammaPoint(complex(1.5e308, 1.5e308), 1 + 0j)),
])
def test_scalar_overflow_raises_non_finite_coefficient(call, point):
    with pytest.raises(NonFiniteCoefficient, match="overflows the float range"):
        call(point)


@pytest.mark.parametrize("mu, inside", [(1 - 1e-5, True), (1 + 1e-5, False), (1 + 1e-3, False)])
def test_mu_threshold_near_a_double_singular_value(mu, inside):
    # nearly unimodular diagonal, tiny off-diagonal: the balanced matrix has two
    # nearly equal singular values, and the membership defect of pi(A) hardly
    # moves with mu there, so a threshold on the defect accepts mu above one
    rng = np.random.default_rng(23)
    for _ in range(200):
        a11, a22 = np.exp(2j * np.pi * rng.random(2)) * (1 - 10.0 ** rng.uniform(-9, -3, 2))
        a12, a21 = 10.0 ** rng.uniform(-12, -3, 2) * np.exp(2j * np.pi * rng.random(2))
        a = Matrix2(complex(a11), complex(a12), complex(a21), complex(a22))
        c = mu / mu_diag_value(a)
        assert mu_diag_le_one(Matrix2(a.a11 * c, a.a12 * c, a.a21 * c, a.a22 * c)) is inside


# -- points and labels as plain data -------------------------------------------

def test_points_are_immutable_named_tuples_with_the_dataclass_repr():
    x = TetraPoint(1j, 1, 1j)
    assert repr(x) == "TetraPoint(x1=1j, x2=1, x3=1j)"
    assert repr(GammaPoint(2, 1j)) == "GammaPoint(s=2, p=1j)"
    with pytest.raises(AttributeError):
        x.x1 = 0
    with pytest.raises(AttributeError):
        GammaPoint(2, 1j).p = 0
    assert x == (1j, 1, 1j) == x.as_tuple() and type(x.as_tuple()) is tuple
    assert x._replace(x2=0) == TetraPoint(1j, 0, 1j) and x.x2 == 1
    assert hash(x) == hash((1j, 1, 1j))


@pytest.mark.parametrize("region", [TetraRegion, GammaRegion])
def test_a_set_of_labels_makes_no_python_call(region):
    labels = list(region) * 250
    assert count_python_calls(set, labels) == 0
    assert set(labels) == set(region)


@pytest.mark.parametrize("member", [*TetraRegion, *GammaRegion])
def test_a_label_stays_its_member_through_pickle_copy_and_lookup(member):
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.deepcopy(member) is copy.copy(member) is member
    assert type(member)(member.value) is member
    assert hash(member) == object.__hash__(member)
