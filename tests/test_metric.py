import math

import numpy as np
import pytest

import hartogs as hg
from hartogs.boundary import boundary_point, sample_boundary
from hartogs.curvature import fd_step
from hartogs.errors import DomainError, SamplingError, SingularityError
from hartogs.metric import (
    metric_fd_oracle,
    metric_gradients,
    metric_matrix,
    require_interior,
)
from hartogs.profiles import interior_x_max
from hartogs.wirtinger import ComplexStencil

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES


class TestContains:
    def test_origin_interior(self):
        p = hg.contains(hg.Affine(1, 1), [0, 0])
        assert p is not None
        assert p.gap == 1.0
        assert p.margin == 1.0

    def test_boundary_point_outside(self):
        assert hg.contains(hg.Affine(1, 1), [0, 1]) is None

    def test_radial_bound(self):
        assert hg.contains(hg.Affine(1, 1), [1.0, 0]) is None

    def test_powercap_gap_value(self):
        # gap = (1 - 0.25)^2 - 0.09 = 0.4725
        p = hg.contains(hg.PowerCap(2), [0.5, 0.3j])
        assert p is not None
        assert p.gap == pytest.approx(0.4725, abs=1e-15)

    def test_require_interior_raises(self):
        with pytest.raises(DomainError):
            require_interior(hg.Affine(1, 1), [0, 1.2])

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_record_matches_closed_forms(self, profile, n, points_for):
        # the record's radial data are the profile's closed forms at p.x,
        # bit for bit, at interior and at boundary points
        for p in [*points_for(profile, n), *sample_boundary(profile, n, 10, seed=101)]:
            assert (p.f, p.d1, p.d2) == tuple(profile.eval(p.x, k) for k in range(3))
            assert p.det_core == profile.det_core(p.x)

    def test_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            hg.contains(hg.Affine(1, 1), [0.1])


class TestAssembly:
    def test_identity_at_origin(self):
        prof = hg.Affine(1, 1)
        m = hg.assemble_metric(prof, hg.contains(prof, [0, 0]))
        assert np.array_equal(m.h, np.eye(2).astype(complex))
        assert np.array_equal(m.h_inv, np.eye(2).astype(complex))
        assert m.det == 1.0

    def test_zero_fiber_kills_off_diagonals(self):
        prof = hg.ExpDecay(1)
        p = hg.contains(prof, [0.3 + 0.1j, 0, 0])
        m = hg.assemble_metric(prof, p)
        assert m.h[0, 1] == 0 and m.h[0, 2] == 0 and m.h[1, 2] == 0
        assert m.h[1, 1] == m.h[2, 2]

    def test_hermitian_by_construction(self, points_for):
        prof = hg.PowerCap(2)
        for p in points_for(prof, 4):
            m = hg.assemble_metric(prof, p)
            assert np.array_equal(m.h, m.h.conj().T)
            assert np.array_equal(m.h_inv, m.h_inv.conj().T)

    def test_non_interior_rejected(self):
        prof = hg.Affine(1, 1)
        bogus = boundary_point(prof, [0, 1])
        with pytest.raises(DomainError):
            hg.assemble_metric(prof, bogus)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_boundary_records_rejected(self, profile):
        # a sampled boundary record carries margin 0.0, whatever the sign
        # of its rounded gap
        for b in sample_boundary(profile, 3, 10, seed=2):
            assert b.margin == 0.0
            with pytest.raises(DomainError):
                hg.assemble_metric(profile, b)

    def test_singular_profile_rejected(self):
        probe = hg.ConstantProbe()
        p = hg.contains(probe, [0.2, 0.3])
        with pytest.raises(SingularityError):
            hg.assemble_metric(probe, p)


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_vs_fd_hessian(profile, n, points_for):
    for p in points_for(profile, n):
        m = hg.assemble_metric(profile, p)
        fd = metric_fd_oracle(profile, p)
        err = np.linalg.norm(m.h - fd) / (1.0 + np.linalg.norm(m.h))
        assert err <= 1e-11


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 8])
def test_metric_gradients_vs_fd(profile, n, points_for):
    # Wirtinger differences of the closed-form entries, the reference the
    # exact gradients replace in the Lie derivative
    stencil = ComplexStencil(1e-6)

    def h_of(w):
        return metric_matrix(require_interior(profile, w))

    for p in points_for(profile, n, min_margin=0.05):
        dg, dgbar = metric_gradients(profile, p)
        for k in range(n):
            for got, want in zip((dg[k], dgbar[k]), stencil.d_pair(h_of, p.z, k)):
                assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_and_inverse_identities(profile, n, points_for):
    eye = np.eye(n)
    for p in points_for(profile, n):
        m = hg.assemble_metric(profile, p)
        dense = np.linalg.det(m.h).real
        assert abs(m.det - dense) <= 1e-10 * (1.0 + abs(m.det))
        assert np.linalg.norm(m.h @ m.h_inv - eye) <= 1e-10
        # determinant also reads as F^2 * margin / gap^(n+1)
        f = profile.eval(p.x)
        alt = f * f * hg.pseudoconvexity_margin(profile, p.x) / p.gap ** (n + 1)
        assert m.det == pytest.approx(alt, rel=1e-12)


def test_determinant_examples():
    aff = hg.Affine(1, 1)
    assert hg.assemble_metric(aff, hg.contains(aff, [0, 0])).det == 1.0
    assert hg.assemble_metric(aff, hg.contains(aff, [0, 0, 0])).det == 1.0
    # expdecay(1) at (1, 0, 0): margin is 1, gap = e^-1, so det = e^-2 / e^-4
    prof = hg.ExpDecay(1)
    det = hg.assemble_metric(prof, hg.contains(prof, [1, 0, 0])).det
    assert det == pytest.approx(math.e**2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_principal_minor_formula(n, points_for):
    # det of the fiber block of gap^2 h is gap^(n-1) + gap^(n-2) * fiber norm
    prof = hg.Affine(2, 3)
    for p in points_for(prof, n):
        m = hg.assemble_metric(prof, p)
        block = (p.gap**2 * m.h)[1:, 1:]
        fiber = sum(abs(complex(z)) ** 2 for z in p.z[1:])
        want = p.gap ** (n - 1) + p.gap ** (n - 2) * fiber
        got = np.linalg.det(block).real
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
def test_positive_definiteness_tracks_margin(profile, points_for):
    for p in points_for(profile, 3):
        assert hg.pseudoconvexity_margin(profile, p.x) > 0
        assert np.linalg.eigvalsh(metric_matrix(p))[0] > 0.0


def test_degenerate_probe_not_positive_definite():
    probe = hg.ConstantProbe()
    z = np.array([0.4, 0.3 + 0.2j], complex)
    assert hg.pseudoconvexity_margin(probe, 0.16) == 0.0
    eig = np.linalg.eigvalsh(metric_matrix(require_interior(probe, z)))
    assert eig[0] <= 1e-12 * eig[-1]


class TestSampling:
    def test_determinism(self):
        a = hg.sample_interior(hg.PowerCap(2), 3, 7, seed=42)
        b = hg.sample_interior(hg.PowerCap(2), 3, 7, seed=42)
        assert len(a) == len(b) == 7
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.z, pb.z)

    def test_margins_respected(self):
        for p in hg.sample_interior(hg.Affine(1, 1), 2, 25, seed=7, min_margin=0.05):
            assert p.gap >= 0.05
            assert p.margin >= 0.05

    def test_tight_margin_clusters_near_origin(self):
        pts = hg.sample_interior(hg.Affine(1, 1), 2, 5, seed=3, min_margin=0.999)
        for p in pts:
            assert p.gap >= 0.999
            assert max(abs(complex(z)) for z in p.z) < 0.05

    def test_unbounded_profiles_capped(self):
        for p in hg.sample_interior(hg.Rational(), 2, 20, seed=9, min_margin=0.05):
            assert p.x <= 10.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hg.sample_interior(hg.Affine(1, 1), 2, 0, seed=1)
        with pytest.raises(ValueError):
            hg.sample_interior(hg.Affine(1, 1), 1, 5, seed=1)

    def test_impossible_margin_raises(self):
        with pytest.raises(SamplingError):
            hg.sample_interior(hg.Affine(1, 1), 2, 1, seed=1, min_margin=1.5)

    @pytest.mark.parametrize("min_margin", [0.05, 0.01, 0.002])
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_reaches_n8(self, profile, min_margin):
        pts = hg.sample_interior(profile, 8, 50, 8, min_margin)
        assert len(pts) == 50
        assert all(p.n == 8 and p.margin >= min_margin for p in pts)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_draws_match_reference(self, profile):
        # the sampler written with rng.uniform and one rng.normal call per
        # half of the fiber direction: the cheaper draws must give the same
        # points bit for bit, rejections included
        for margin in (0.05, 0.002):
            x_top = interior_x_max(profile)
            if not math.isinf(profile.x0):
                x_top = min(x_top, profile.x0 - margin)
            for n in range(2, 9):
                rng = np.random.default_rng(n)
                want = []
                while len(want) < 50:
                    x = rng.uniform(0.0, x_top)
                    budget = profile.eval(x) - margin
                    if budget <= 0.0:
                        continue
                    z = np.empty(n, dtype=complex)
                    theta = rng.uniform(0.0, 2.0 * math.pi)
                    z[0] = math.sqrt(x) * complex(math.cos(theta), math.sin(theta))
                    direction = np.zeros(n - 1)
                    while np.linalg.norm(direction) <= 1e-12:
                        direction = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
                    radius = math.sqrt(budget) * rng.uniform() ** (1.0 / (2 * (n - 1)))
                    z[1:] = direction * (radius / np.linalg.norm(direction))
                    p = hg.contains(profile, z)
                    if p is not None and p.margin >= margin:
                        want.append(z)
                got = hg.sample_interior(profile, n, 50, n, margin)
                for p, z in zip(got, want, strict=True):
                    assert np.array_equal(p.z, z)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_fiber_uniform_in_ball(self, n):
        # for a uniform fiber vector in the ball of radius sqrt(F(x) - m),
        # (|fiber|^2 / (F(x) - m))^(n-1) is uniform on [0, 1]
        prof, m, count = hg.PowerCap(2), 0.05, 2000
        u = [
            ((p.z[1:] @ p.z[1:].conj()).real / (prof.eval(p.x) - m)) ** (n - 1)
            for p in hg.sample_interior(prof, n, count, 17, m)
        ]
        assert abs(float(np.mean(u)) - 0.5) <= 4.0 / math.sqrt(12.0 * count)


def test_potential_nan_outside():
    prof = hg.Affine(1, 1)
    assert math.isnan(hg.kahler_potential(prof, np.array([0, 1.5], complex)))
    assert math.isnan(hg.kahler_potential(prof, np.array([1.2, 0], complex)))
    assert hg.kahler_potential(prof, np.zeros(2, complex)) == 0.0


def test_adaptive_stencil_shrinks_with_margin():
    prof = hg.Affine(2, 3)
    tight = hg.contains(prof, [0.1, math.sqrt(2 - 3 * 0.01 - 0.06)])
    roomy = hg.contains(prof, [0.0, 0.0])
    assert tight is not None and roomy is not None
    assert fd_step(tight) < fd_step(roomy)
    # ten-step interiority contract
    assert 10 * fd_step(tight) <= tight.margin
