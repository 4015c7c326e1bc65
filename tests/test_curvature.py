import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

import hartogs as hg
from hartogs.curvature import _radial_scales, curvature_defect, extremal_jet_oracle, rho_oracle
from hartogs.errors import SingularityError
from hartogs.metric import MetricData

from conftest import (
    FAMILY_IDS, PSEUDOCONVEX_FAMILIES, QUADCAP_PROBES, QuadCap, central_d1,
    gradient_field_reference, jacobian_from_block, profile_cases, same_bits, t_zbar_reference,
)


def nested_defect_oracle(profile, x, h=2e-4):
    """Independent oracle for the defect: difference the whole expression
    x * d/dx log(det_core) with its own steps."""

    def x_log_slope(t):
        return t * central_d1(lambda s: math.log(profile.det_core(s)), t, h)

    return central_d1(x_log_slope, x, h)


class TestDefect:
    def test_affine_exactly_zero(self):
        for prof in (hg.Affine(1, 1), hg.Affine(2, 3), hg.Affine(0.5, 2)):
            for x in (0.0, 0.1234, 0.3, 0.49 * prof.x0):
                assert prof.defect(x) == 0.0

    def test_powercap_closed_form(self):
        # defect = -(2p-2)/(1-x)^2
        prof = hg.PowerCap(2)
        assert prof.defect(0.0) == pytest.approx(-2.0, abs=1e-9)
        for x in (0.1, 0.4, 0.75):
            want = -2.0 / (1.0 - x) ** 2
            assert abs(prof.defect(x) - want) <= 1e-12 * (1 + abs(want))

    def test_expdecay_matches_nested_oracle(self):
        prof = hg.ExpDecay(1)
        for x in (0.0, 0.5, 2.0):
            got = prof.defect(x)
            assert abs(got - nested_defect_oracle(prof, x)) <= 1e-4 * (1 + abs(got))
        # closed form is the constant -2a
        assert prof.defect(0.7) == pytest.approx(-2.0, abs=1e-6)

    def test_rational_matches_nested_oracle(self):
        prof = hg.Rational()
        for x in (0.0, 1.0, 4.0):
            got = prof.defect(x)
            assert abs(got - nested_defect_oracle(prof, x)) <= 1e-4 * (1 + abs(got))
        assert prof.defect(0.0) == pytest.approx(-4.0, abs=1e-6)

    @pytest.mark.parametrize("p", [0.5, 3.0])
    def test_powercap_matches_nested_oracle(self, p):
        prof = hg.PowerCap(p)
        for x in (0.0, 0.3, 0.8):
            got = prof.defect(x)
            assert abs(got - nested_defect_oracle(prof, x)) <= 1e-4 * (1 + abs(got))

    def test_probe_singular(self):
        prof = hg.ConstantProbe()
        z = [math.sqrt(0.3), 0.5]
        with pytest.raises(SingularityError):
            hg.curvature_defect(prof, hg.contains(prof, z))

    def test_probe_singular_in_extremal_oracle(self):
        # det_core is checked on the record before the probe's defect,
        # which it does not define, is read on the jet of x
        prof = hg.ConstantProbe()
        with pytest.raises(SingularityError, match="det_core"):
            extremal_jet_oracle(prof, hg.contains(prof, [0.2, 0.3]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=profile_cases())
@example(case=(hg.Affine(2.0, 3.0), 8, 1e-3, 1))
@example(case=(hg.PowerCap(1.001), 8, 1e-3, 2))
@example(case=(hg.Rational(), 16, 1e-3, 3))
@example(case=(hg.Rational(), 8, 1e-3, 4))
@example(case=(hg.ExpDecay(1.0), 16, 1e-3, 5))
@example(case=(hg.PowerCap(2.0), 16, 0.05, 6))
@example(case=(QuadCap(1.0 / 3.0), 8, 1e-3, 7))
def test_gradient_field_matches_inverse_metric(case):
    # T = gap^2 (A z_0, B z') from `_radial_scales` against K^T dbar scal
    # with the whole inverse metric K, to 1e-11 relative to max |T| at each
    # point; exactly 0 on affine profiles
    profile, n, margin, seed = case
    p = hg.sample_interior(profile, n, 6, seed % 1000, margin)
    _, _, a, b = _radial_scales(
        profile, p.x, p.f, p.d1, p.d2, p.det_core, curvature_defect(profile, p)
    )
    scale = np.empty(p.z.shape)
    scale[:, 0] = p.gap * p.gap * a
    scale[:, 1:] = (p.gap * p.gap * b)[:, None]
    t = scale * p.z
    if isinstance(profile, hg.Affine):
        assert not np.any(t)
        return
    want = gradient_field_reference(profile, p)
    assert np.all(np.max(np.abs(t - want), axis=-1) <= 1e-11 * np.max(np.abs(want), axis=-1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=profile_cases())
@example(case=(hg.Rational(), 8, 1e-3, 4))
@example(case=(hg.PowerCap(1.001), 8, 1e-3, 2))
@example(case=(QuadCap(1.0 / 3.0), 8, 1e-3, 7))
@example(case=(QuadCap(3.0), 16, 1e-3, 8))
def test_t_zbar_matches_reference(case):
    # the Jacobian the block stands for against K^T (S - E), which builds
    # dT/dzbar from the whole inverse metric and the whole gradient tensor
    # of h and never reduces T to A and B: within 1e-11 relative to
    # 1 + max |t_zbar| per point; and the extremal residual, read off the
    # block, is its largest entry to the few roundings that separate the
    # two forms (2e-15 is 9 ulps of 1), exactly 0 where the Jacobian is
    profile, n, margin, seed = case
    p = hg.sample_interior(profile, n, 6, seed % 1000, margin)
    data = hg.curvature_at(profile, p, hg.assemble_metric(profile, p))
    t_zbar = jacobian_from_block(p.z, data.dbar)
    diff = np.max(np.abs(t_zbar - t_zbar_reference(profile, p)), axis=(-2, -1))
    assert np.all(diff <= 1e-11 * (1.0 + data.extremal))
    largest = np.max(np.abs(t_zbar), axis=(-2, -1))
    assert np.all(np.abs(data.extremal - largest) <= 2e-15 * largest)


@pytest.mark.parametrize("profile", QUADCAP_PROBES, ids=lambda prof: prof.label())
def test_probe_exercises_the_z0_part(profile):
    # on the probes A is not zero, so dT^0/dzbar_0 = z_0^2 dbar[0, 0], with
    # dbar[0, 0] = S_x + F' S_gap of S_0 = gap^2 A, is far above rounding,
    # and the Jacobian matches the reference
    points = hg.sample_interior(profile, 3, 20, 0, 1e-3)
    data = hg.curvature_at(profile, points, hg.assemble_metric(profile, points))
    assert np.max(points.x * np.abs(data.dbar[..., 0, 0])) >= 0.1
    t_zbar = jacobian_from_block(points.z, data.dbar)
    diff = np.max(np.abs(t_zbar - t_zbar_reference(profile, points)), axis=(-2, -1))
    assert np.all(diff <= 1e-11 * (1.0 + data.extremal))


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES + QUADCAP_PROBES,
                         ids=lambda prof: prof.label())
def test_curvature_at_reads_no_inverse_metric(profile):
    # with the inverse metric all NaN, every field keeps its bits
    points = hg.sample_interior(profile, 4, 20, 3, 1e-3)
    m = hg.assemble_metric(profile, points)
    want = hg.curvature_at(profile, points, m)
    got = hg.curvature_at(profile, points, dataclasses.replace(m, h_inv=np.full_like(m.h_inv, np.nan)))
    for field in dataclasses.fields(want):
        assert same_bits(getattr(got, field.name), getattr(want, field.name)), field.name


def slope(profile, x):
    """The scalar-curvature slope -defect F / det_core, the reference that
    slope' and slope'' are differenced from.  Free of the [0, x0) guard of
    Profile.eval, so a central difference may straddle x = 0."""
    return -profile.defect(x) * profile._f(x) / profile.det_core(x)


def test_scal_slope_powercap():
    # slope = -defect F / det_core = 1/(1-x)^2 at p = 2
    prof = hg.PowerCap(2)
    for x in (0.0, 0.3, 0.6):
        assert slope(prof, x) == pytest.approx(1.0 / (1.0 - x) ** 2, rel=1e-6)
    fd = central_d1(lambda t: slope(prof, t), 0.3, 1e-4)
    assert prof.slope_d1(0.3) == pytest.approx(fd, rel=1e-3)


class TestSlopeDerivative:
    @pytest.mark.parametrize(
        "profile",
        [hg.PowerCap(0.5), hg.PowerCap(3), hg.ExpDecay(1), hg.ExpDecay(0.5), hg.Rational(),
         *QUADCAP_PROBES],
        ids=lambda prof: prof.label(),
    )
    def test_matches_difference_of_slope(self, profile):
        # at 0.1, 0.5 and 0.9 times x0, or times 1 where x0 is above 1
        for x in (t * min(profile.x0, 1.0) for t in (0.1, 0.5, 0.9)):
            fd = central_d1(lambda t: slope(profile, t), x, 1e-6)
            assert profile.slope_d1(x) == pytest.approx(fd, rel=1e-8)

    # the cases below sit at the ends of [0, x0)

    def test_powercap_at_origin(self):
        # the central difference straddles x = 0
        prof = hg.PowerCap(2)
        fd = central_d1(lambda t: slope(prof, t), 0.0, 1e-5)
        assert prof.slope_d1(0.0) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0])
    def test_powercap_near_radial_bound(self, p):
        # slope' = (2p-2)/(1-x)^(p+1) grows like 1/(1-x)^(p+1); the step
        # keeps truncation below 1e-7 relative at x = 0.999 x0
        prof = hg.PowerCap(p)
        x = 0.999 * prof.x0
        fd = central_d1(lambda t: slope(prof, t), x, 1e-7)
        assert prof.slope_d1(x) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize(
        "profile",
        [hg.Affine(2, 3), hg.PowerCap(0.5), hg.PowerCap(2), hg.PowerCap(3), hg.ExpDecay(1),
         hg.ExpDecay(0.5), hg.Rational(), *QUADCAP_PROBES],
        ids=lambda prof: prof.label(),
    )
    def test_second_derivative_matches_difference(self, profile):
        # slope_d1 is not domain-guarded, so the difference may straddle
        # the origin; at 0.999 x0 the step keeps truncation below 1e-7
        xs = [t * min(profile.x0, 1.0) for t in (0.0, 0.1, 0.5, 0.9)]
        if math.isfinite(profile.x0):
            xs.append(0.999 * profile.x0)
        for x in xs:
            fd = central_d1(profile.slope_d1, x, 1e-7)
            assert profile.slope_d2(x) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_scal_slope_affine_exactly_zero():
    prof = hg.Affine(2, 3)
    for x in (0.0, 0.2, 0.5):
        assert slope(prof, x) == 0.0
        assert prof.slope_d1(x) == 0.0


class TestRicci:
    def test_affine_origin(self):
        prof = hg.Affine(1, 1)
        p = hg.contains(prof, [0, 0])
        ric = hg.ricci_tensor(prof, p, hg.assemble_metric(prof, p))
        assert np.array_equal(ric, (-3.0 * np.eye(2)).astype(complex))

    def test_powercap_origin(self):
        # defect(0) = -2 shifts only the head entry: Ric = diag(2-3*2, -3)
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0, 0])
        m = hg.assemble_metric(prof, p)
        ric = hg.ricci_tensor(prof, p, m)
        assert ric[0, 0] == pytest.approx(2.0 - 3.0 * m.h[0, 0].real, abs=1e-9)
        assert ric[1, 1] == pytest.approx(-3.0, abs=1e-12)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_fiber_rows_proportional_to_metric(self, profile, points_for):
        for p in points_for(profile, 3):
            m = hg.assemble_metric(profile, p)
            ric = hg.ricci_tensor(profile, p, m)
            assert np.max(np.abs(ric[1:, :] + 4 * m.h[1:, :])) == 0.0

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_fd_oracle(self, profile, n, points_for):
        for p in points_for(profile, n):
            m = hg.assemble_metric(profile, p)
            ric = hg.ricci_tensor(profile, p, m)
            fd = hg.ricci_fd_oracle(profile, p)
            assert np.linalg.norm(ric - fd) <= 1e-11 * (1.0 + np.linalg.norm(ric))


class TestScalarCurvature:
    def test_affine_constants(self):
        for n, want in ((2, -6.0), (3, -12.0)):
            prof = hg.Affine(1, 1)
            p = hg.contains(prof, [0.2 + 0.1j] + [0.25] * (n - 1))
            assert hg.curvature_at(prof, p, hg.assemble_metric(prof, p)).scal == want

    def test_powercap_origin_value(self):
        # gap=1, F=1, det_core=2, defect=-2: -(1/2)(1)(-2) - 6 = -5
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0, 0])
        assert hg.curvature_at(prof, p, hg.assemble_metric(prof, p)).scal == pytest.approx(
            -5.0, abs=1e-9
        )

    def test_affine_constant_across_samples(self, points_for):
        vals = []
        for p in points_for(hg.Affine(2, 3), 2, count=25):
            vals.append(hg.curvature_at(hg.Affine(2, 3), p, hg.assemble_metric(hg.Affine(2, 3), p)).scal)
        assert float(np.var(vals)) < 1e-18
        assert vals[0] == -6.0

    def test_powercap_varies_radially(self):
        prof = hg.PowerCap(2)
        vals = []
        for t in np.linspace(0.0, 0.8, 9):
            p = hg.contains(prof, [t, 0.1])
            vals.append(hg.curvature_at(prof, p, hg.assemble_metric(prof, p)).scal)
        assert max(vals) - min(vals) > 1e-3


class TestGeneralizedCurvatures:
    def test_affine_n2(self, points_for):
        prof = hg.Affine(1, 1)
        for p in points_for(prof, 2, count=5):
            rho = hg.curvature_at(prof, p, hg.assemble_metric(prof, p)).rho
            assert np.array_equal(rho, np.array([-6.0, 9.0]))

    def test_affine_n3_binomial_values(self):
        # ratio (1 - 4t)^3 = 1 - 12t + 48t^2 - 64t^3
        prof = hg.Affine(2, 3)
        p = hg.contains(prof, [0.1, 0.2, 0.3j])
        m = hg.assemble_metric(prof, p)
        rho = hg.curvature_at(prof, p, m).rho
        assert np.array_equal(rho, np.array([-12.0, 48.0, -64.0]))
        fitted = rho_oracle(m, hg.ricci_tensor(prof, p, m))
        assert np.max(np.abs(rho - fitted)) <= 1e-8

    def test_powercap_origin(self):
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0, 0])
        rho = hg.curvature_at(prof, p, hg.assemble_metric(prof, p)).rho
        assert rho[0] == pytest.approx(-5.0, abs=1e-9)
        assert rho[1] == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rho0_is_scal_and_fit_agrees(self, profile, n, points_for):
        for p in points_for(profile, n, count=6):
            m = hg.assemble_metric(profile, p)
            data = hg.curvature_at(profile, p, m)
            rho = data.rho
            assert rho[0] == pytest.approx(data.scal, rel=1e-12)
            fitted = rho_oracle(m, hg.ricci_tensor(profile, p, m))
            assert np.max(np.abs(rho - fitted)) <= 1e-8 * (1.0 + np.max(np.abs(rho)))


class TestRhoOracle:
    @staticmethod
    def _fake_metric(h):
        return MetricData(h=h, det=float(np.linalg.det(h).real), h_inv=np.linalg.inv(h))

    def test_identity_with_einstein_ricci(self):
        # det(I - 3t I)/det(I) = (1-3t)^2 gives rho = (-6, 9)
        m = self._fake_metric(np.eye(2).astype(complex))
        rho = rho_oracle(m, -3.0 * np.eye(2).astype(complex))
        assert np.allclose(rho, [-6.0, 9.0], atol=1e-12)

    def test_zero_ricci(self):
        m = self._fake_metric(np.eye(3).astype(complex))
        assert np.max(np.abs(rho_oracle(m, np.zeros((3, 3), complex)))) <= 1e-12

    @pytest.mark.parametrize(
        "profile", [hg.Affine(1, 1), hg.PowerCap(2), hg.ExpDecay(1), hg.Rational()],
        ids=lambda prof: prof.label(),
    )
    def test_closed_form_at_n8_near_boundary(self, profile):
        # the top of the advertised range, 2e-3 from the boundary, where the
        # metric's entries span many orders of magnitude
        for p in hg.sample_interior(profile, 8, 30, 11, 0.002):
            m = hg.assemble_metric(profile, p)
            rho = hg.curvature_at(profile, p, m).rho
            oracle = rho_oracle(m, hg.ricci_tensor(profile, p, m))
            assert np.max(np.abs(rho - oracle)) <= 1e-8 * (1.0 + np.max(np.abs(rho)))


def test_curvature_at_bundle():
    prof = hg.PowerCap(2)
    p = hg.contains(prof, [0.3, 0.2j])
    m = hg.assemble_metric(prof, p)
    data = hg.curvature_at(prof, p, m)
    assert data.scal == pytest.approx(data.rho[0], rel=1e-12)
    assert data.slope == pytest.approx(-prof.defect(p.x) * prof.eval(p.x) / p.det_core, rel=1e-12)
    assert data.ric.shape == (2, 2)
    # dbar is exactly 0 on affine profiles, powercap:1 (F = 1 - x)
    # among them, at every point of a block
    for prof in (hg.Affine(1, 1), hg.Affine(2, 0.5), hg.PowerCap(1)):
        for n in (2, 8):
            points = hg.sample_interior(prof, n, 40, 3, 1e-3)
            assert not np.any(hg.curvature_at(prof, points, hg.assemble_metric(prof, points)).dbar)


def test_one_det_core_per_point(monkeypatch):
    # the sampler's `contains` keeps det_core in the point record, from one
    # call over each round's whole stack, and assemble_metric, curvature_at
    # and ricci_tensor read that value
    prof = hg.PowerCap(2)
    original = hg.PowerCap.det_core
    calls = []

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(hg.PowerCap, "det_core", counted)
    points = hg.sample_interior(prof, 3, 5, seed=7)
    assert len(calls) == 1 and np.array_equal(calls[0][:5], points.x)
    calls.clear()
    m = hg.assemble_metric(prof, points)
    hg.curvature_at(prof, points, m)
    hg.ricci_tensor(prof, points, m)
    for p in points:
        m = hg.assemble_metric(prof, p)
        hg.curvature_at(prof, p, m)
        hg.ricci_tensor(prof, p, m)
    assert calls == []
