import math

import numpy as np
import pytest

import hartogs as hg
from hartogs.boundary import (
    boundary_point,
    defining_residual,
    levi_matrix,
    sample_boundary,
    tangent_gradient,
)
from hartogs.errors import DomainError

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES


class TestSampling:
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_on_graph_within_tolerance(self, profile):
        for b in sample_boundary(profile, 3, 40, seed=5):
            assert abs(defining_residual(profile, b.z)) <= 1e-12
            assert b.x < profile.x0

    def test_determinism(self):
        a = sample_boundary(hg.PowerCap(2), 3, 10, seed=8)
        b = sample_boundary(hg.PowerCap(2), 3, 10, seed=8)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.z, pb.z)

    def test_pinned_points(self):
        # the fiber direction draw is shared with the interior sampler; the
        # boundary points, hence `levi-scan` output, must not move
        want = [
            [0.31930803872878577 - 0.8379977907040155j, -0.03917302354321233 + 0.1791837933250996j,
             0.06631504123070904 + 0.017303524301456326j],
            [0.6131259994674023 + 0.17927978411320566j, 0.20169552583769593 + 0.07347786635526446j,
             0.4403743411553214 - 0.33223142372922554j],
        ]
        got = sample_boundary(hg.PowerCap(2), 3, 2, seed=5)
        assert [b.x for b in got] == [0.8041979208216348, 0.4080647322145787]
        for b, z in zip(got, want):
            assert np.array_equal(b.z, np.array(z))

    def test_forced_axis_point(self):
        # z_0 = 0 boundary points have fiber radius sqrt(F(0)) = 1
        b = boundary_point(hg.Affine(1, 1), [0, math.cos(0.7) + 1j * math.sin(0.7)])
        assert abs(abs(complex(b.z[1])) - 1.0) < 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            boundary_point(hg.Affine(1, 1), [0, 0.5])
        with pytest.raises(DomainError):
            boundary_point(hg.Affine(1, 1), [1.2, 0.1])
        with pytest.raises(ValueError):
            sample_boundary(hg.Affine(1, 1), 2, 0, seed=1)
        with pytest.raises(ValueError):
            sample_boundary(hg.Affine(1, 1), 1, 5, seed=1)


class TestLeviForm:
    def test_full_form_positive_definite_at_axis(self):
        # with z_0 = 0 the unrestricted form is positive for any nonzero
        # vector, for every decreasing profile
        for profile in PSEUDOCONVEX_FAMILIES:
            fiber = math.sqrt(profile.eval(0.0))
            b = boundary_point(profile, [0, fiber, 0])
            eigs = np.linalg.eigvalsh(levi_matrix(profile, b))
            assert eigs[0] > 0


class TestTangentBasis:
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_annihilating(self, profile, n):
        for b in sample_boundary(profile, n, 6, seed=4):
            basis = hg.tangent_space_basis(profile, b)
            assert basis.shape == (n, n - 1)
            gram = basis.conj().T @ basis
            assert np.max(np.abs(gram - np.eye(n - 1))) <= 1e-12
            functional = tangent_gradient(profile, b) @ basis
            assert np.max(np.abs(functional)) <= 1e-12

    def test_axis_point_contains_head_direction(self):
        # at z_0 = 0 the functional reduces to the fiber pairing, so the
        # z_0 axis lies inside the tangent space
        b = boundary_point(hg.PowerCap(2), [0, 1, 0])
        basis = hg.tangent_space_basis(hg.PowerCap(2), b)
        e0 = np.zeros(3, complex)
        e0[0] = 1.0
        projected = basis @ (basis.conj().T @ e0)
        assert np.linalg.norm(projected - e0) <= 1e-12


class TestRestrictedLevi:
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_positive_for_pseudoconvex(self, profile):
        for b in sample_boundary(profile, 3, 40, seed=6):
            assert hg.restricted_levi_min_eigenvalue(profile, b) > 0

    def test_probe_degenerates(self):
        probe = hg.ConstantProbe()
        eigs = [
            hg.restricted_levi_min_eigenvalue(probe, b)
            for b in sample_boundary(probe, 3, 40, seed=6)
        ]
        assert min(eigs) <= 1e-9

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_min_eigenvalue_closed_form(self, profile, n):
        # the tangent directions with X_0 = 0 have Levi eigenvalue 1; the
        # remaining one, (1, F' zbar_0 z'/F) with z' the fiber part, is
        # orthogonal to them in both forms and has Rayleigh quotient
        # det_core / (F + x F'^2)
        for b in sample_boundary(profile, n, 100, seed=17):
            f = profile.eval(b.x)
            d1 = profile.eval(b.x, 1)
            ratio = profile.det_core(b.x) / (f + b.x * d1 * d1)
            want = ratio if n == 2 else min(1.0, ratio)
            got = hg.restricted_levi_min_eigenvalue(profile, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_sign_matches_proof_expression_n2(self):
        # for n = 2 and z_0 != 0 the minimum eigenvalue carries the sign of
        # F (1 - (F' + F'' x) F / (F'^2 x))
        for profile in PSEUDOCONVEX_FAMILIES:
            for b in sample_boundary(profile, 2, 15, seed=13):
                if b.x <= 1e-3:
                    continue
                f = profile.eval(b.x)
                d1 = profile.eval(b.x, 1)
                d2 = profile.eval(b.x, 2)
                proof_value = f * (1.0 - (d1 + d2 * b.x) * f / (d1 * d1 * b.x))
                eig = hg.restricted_levi_min_eigenvalue(profile, b)
                assert math.copysign(1.0, eig) == math.copysign(1.0, proof_value)


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
def test_margin_levi_equivalence(profile):
    # boundary certification and the radial margin agree at sample
    # resolution: both strictly positive for pseudoconvex families
    samples = sample_boundary(profile, 3, 30, seed=21)
    assert all(hg.pseudoconvexity_margin(profile, b.x) > 1e-9 for b in samples)
    assert all(hg.restricted_levi_min_eigenvalue(profile, b) > 0 for b in samples)


def test_margin_levi_equivalence_fails_for_probe():
    probe = hg.ConstantProbe()
    samples = sample_boundary(probe, 3, 30, seed=21)
    assert all(hg.pseudoconvexity_margin(probe, b.x) <= 1e-9 for b in samples)
    assert min(hg.restricted_levi_min_eigenvalue(probe, b) for b in samples) <= 1e-9
