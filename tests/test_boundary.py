import math

import numpy as np
import pytest

import hartogs as hg
import hartogs.boundary
from hartogs.boundary import (
    boundary_point,
    defining_residual,
    levi_compression_oracle,
    levi_matrix,
    sample_boundary,
    tangent_gradient,
)
from hartogs.errors import DomainError
from hartogs.metric import BLOCK, DISK_BATCH

from conftest import (
    FAMILY_IDS,
    PSEUDOCONVEX_FAMILIES,
    boundary_reference,
    disk_rounds,
    doctor_draws,
    same_bits,
    unreached_draws,
)

#: the profiles the closed-form eigenvalue is checked on against its oracle
ORACLE_PROFILES = [
    hg.Affine(1, 1), hg.Affine(2, 3), hg.PowerCap(0.5), hg.PowerCap(2), hg.PowerCap(3),
    hg.ExpDecay(1), hg.Rational(), hg.ConstantProbe(),
]


def refuse(*args, **kwargs):
    raise AssertionError("read by the function under test")


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
            [0.9072464018438091 - 0.06559084052948976j, -0.038695373755235435 + 0.05177759227953598j,
             0.15699894579894583 + 0.031055822701945294j],
            [-0.14778274565742291 - 0.9755721342405979j, 0.011957414003406948 - 0.004657673815108921j,
             0.01568853778496278 + 0.016946208609163443j],
        ]
        got = sample_boundary(hg.PowerCap(2), 3, 2, seed=5)
        assert [b.x for b in got] == [0.8273981920199033, 0.9735807290208016]
        for b, z in zip(got, want):
            assert np.array_equal(b.z, np.array(z))

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_draws_match_reference(self, profile):
        # the sampler written one point at a time, two uniforms and one
        # fiber row a point: the block draws must give the same points bit
        # for bit, so the first K points of a sample of N are the sample of K
        for n in range(2, 9):
            got = sample_boundary(profile, n, 50, seed=n)
            assert same_bits(got.z, boundary_reference(n, profile, n, 50))
            assert same_bits(sample_boundary(profile, n, 7, seed=n).z, got.z[:7])
            z0 = got.z[:, 0]
            assert same_bits(got.x, z0.real * z0.real + z0.imag * z0.imag)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_draws_match_reference_over_disk_rounds(self, monkeypatch, profile):
        # 600 points at n = 8 are 4800 slots: rounds of one disk attempt a
        # slot while more than BLOCK slots are left, then of DISK_BATCH
        # attempts a slot, give the reference's points bit for bit
        rounds = disk_rounds(monkeypatch)
        got = sample_boundary(profile, 8, 600, seed=8)
        assert same_bits(got.z, boundary_reference(8, profile, 8, 600))
        counts = [count for _, count in rounds]
        assert rounds[0] == (4800, 1) and counts[1] == 1 and DISK_BATCH in counts
        assert all(left <= BLOCK for left, count in rounds if count == DISK_BATCH)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_unreached_draws_match_reference(self, monkeypatch, profile, n):
        # draws no seed reaches (`unreached_draws`): a slot that misses the
        # disk over two rounds, one next to the origin, and point 2 at
        # x = 0, whose z_0 keeps the sign of -0.0 through the record; the
        # points of rows 3 on do not move
        clean = sample_boundary(profile, n, 20, seed=7)
        replace = unreached_draws(7, n, zero_x=2)
        doctor_draws(monkeypatch, replace)
        got = sample_boundary(profile, n, 20, seed=7)
        assert same_bits(got.z, boundary_reference(7, profile, n, 20, replace))
        assert got.x[2] == 0.0 and np.signbit(got.z[2, 0].real)
        assert same_bits(got.z[3:], clean.z[3:])

    def test_forced_axis_point(self):
        # z_0 = 0 boundary points have fiber radius sqrt(F(0)) = 1
        b = boundary_point(hg.Affine(1, 1), [0, math.cos(0.7) + 1j * math.sin(0.7)])
        assert abs(abs(complex(b.z[1])) - 1.0) < 1e-15

    def test_tolerance_scales_with_f_minus_x_fprime(self):
        # at x = 2.5e5 on affine:1e6,1, F - x F' = 1e6: a miss of 1e-13 of
        # that is accepted, one of 1e-9 of it is still refused
        prof = hg.Affine(1e6, 1)
        x = 2.5e5
        scale = prof.eval(x) - x * prof.eval(x, 1)
        assert scale == 1e6
        for miss, ok in ((1e-13, True), (-1e-13, True), (1e-9, False), (-1e-9, False)):
            z = [math.sqrt(x), math.sqrt(prof.eval(x) + miss * scale)]
            if ok:
                assert boundary_point(prof, z).x == x
            else:
                with pytest.raises(DomainError):
                    boundary_point(prof, z)

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
        # 1 + (d0 - 1) F / (F + x F'^2), d0 = -(F' + x F''), from the
        # unsimplified second derivative; the SVD compression finds it
        for b in sample_boundary(profile, n, 100, seed=17):
            f = profile.eval(b.x)
            d1 = profile.eval(b.x, 1)
            d0 = -(d1 + b.x * profile.eval(b.x, 2))
            ratio = 1.0 + (d0 - 1.0) * f / (f + b.x * d1 * d1)
            want = ratio if n == 2 else min(1.0, ratio)
            got = levi_compression_oracle(profile, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("profile", ORACLE_PROFILES, ids=lambda prof: prof.label())
    def test_closed_form_matches_oracle(self, profile):
        for n in range(2, 9):
            for b in sample_boundary(profile, n, 200, seed=30 + n):
                want = levi_compression_oracle(profile, b)
                got = hg.restricted_levi_min_eigenvalue(profile, b)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (n, b.x, got, want)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_oracle_reads_no_det_core(self, monkeypatch, profile):
        # the oracle sees F', F'' and z only, so a wrong det_core cannot
        # hide in both sides of the comparison; the record stores F and
        # det_core, so the oracle must also agree where they are NaN
        points = sample_boundary(profile, 4, 20, seed=3)
        want = [hg.restricted_levi_min_eigenvalue(profile, b) for b in points]
        for name in ("det_core", "_f", "_d3", "defect", "slope_d1", "slope_d2"):
            # lookups stop at the family class, which need not define the name
            monkeypatch.setattr(type(profile), name, refuse, raising=False)
        for b, w in zip(points, want):
            poisoned = b._replace(f=math.nan, det_core=math.nan)
            for record in (b, poisoned):
                assert abs(levi_compression_oracle(profile, record) - w) <= 1e-12 * (1.0 + abs(w))

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_closed_form_takes_no_eigensolve(self, monkeypatch, profile):
        points = sample_boundary(profile, 4, 20, seed=3)
        want = [levi_compression_oracle(profile, b) for b in points]
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for name in ("levi_matrix", "tangent_gradient", "tangent_space_basis"):
            monkeypatch.setattr(hartogs.boundary, name, refuse)
        for b, w in zip(points, want):
            assert abs(hg.restricted_levi_min_eigenvalue(profile, b) - w) <= 1e-12 * (1.0 + abs(w))

    @pytest.mark.parametrize("p", [200, 800])
    def test_underflowed_profile_reads_zero(self, p):
        # where (1 - x)^p underflows, F + x F'^2 is 0 and mu <= F m(x)
        # reads as 0 too; the tangency functional vanishes with F there
        profile = hg.PowerCap(p)
        underflowed = [b for b in sample_boundary(profile, 3, 50, seed=0) if b.f == 0.0]
        # F underflows above x = 0.976 at p = 200, which 50 samples need
        # not reach: x = 0.99 is taken as well, with its fiber radius 0
        underflowed.append(boundary_point(profile, [math.sqrt(0.99), 0.0, 0.0]))
        assert underflowed[-1].f == 0.0
        for b in underflowed:
            assert hg.restricted_levi_min_eigenvalue(profile, b) == 0.0
            with pytest.raises(DomainError):
                hg.tangent_space_basis(profile, b)

    def test_one_det_core_per_point(self, monkeypatch):
        # the sampler's `boundary_point` keeps det_core in the record, from
        # one call over the whole stack, and the closed form and its oracle
        # read nothing of it again
        prof = hg.PowerCap(2)
        original = hg.PowerCap.det_core
        calls = []

        def counted(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(hg.PowerCap, "det_core", counted)
        points = sample_boundary(prof, 3, 5, seed=7)
        assert len(calls) == 1 and np.array_equal(calls[0], points.x)
        calls.clear()
        hg.restricted_levi_min_eigenvalue(prof, points)
        for b in points:
            hg.restricted_levi_min_eigenvalue(prof, b)
            levi_compression_oracle(prof, b)
        assert calls == []

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
