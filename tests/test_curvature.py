import math

import numpy as np
import pytest

import hartogs as hg
from hartogs.curvature import rho_oracle, scal_slope_d1
from hartogs.errors import SingularityError
from hartogs.metric import MetricData

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES, central_d1


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
                assert hg.curvature_defect(prof, x) == 0.0

    def test_powercap_closed_form(self):
        # defect = -(2p-2)/(1-x)^2
        prof = hg.PowerCap(2)
        assert hg.curvature_defect(prof, 0.0) == pytest.approx(-2.0, abs=1e-9)
        for x in (0.1, 0.4, 0.75):
            want = -2.0 / (1.0 - x) ** 2
            assert abs(hg.curvature_defect(prof, x) - want) <= 1e-12 * (1 + abs(want))

    def test_expdecay_matches_nested_oracle(self):
        prof = hg.ExpDecay(1)
        for x in (0.0, 0.5, 2.0):
            got = hg.curvature_defect(prof, x)
            assert abs(got - nested_defect_oracle(prof, x)) <= 1e-4 * (1 + abs(got))
        # closed form is the constant -2a
        assert hg.curvature_defect(prof, 0.7) == pytest.approx(-2.0, abs=1e-6)

    def test_rational_matches_nested_oracle(self):
        prof = hg.Rational()
        for x in (0.0, 1.0, 4.0):
            got = hg.curvature_defect(prof, x)
            assert abs(got - nested_defect_oracle(prof, x)) <= 1e-4 * (1 + abs(got))
        assert hg.curvature_defect(prof, 0.0) == pytest.approx(-4.0, abs=1e-6)

    @pytest.mark.parametrize("p", [0.5, 3.0])
    def test_powercap_matches_nested_oracle(self, p):
        prof = hg.PowerCap(p)
        for x in (0.0, 0.3, 0.8):
            got = hg.curvature_defect(prof, x)
            assert abs(got - nested_defect_oracle(prof, x)) <= 1e-4 * (1 + abs(got))

    def test_probe_singular(self):
        with pytest.raises(SingularityError):
            hg.curvature_defect(hg.ConstantProbe(), 0.3)


def test_scal_slope_powercap():
    # slope = -defect F / det_core = 1/(1-x)^2 at p = 2
    prof = hg.PowerCap(2)
    for x in (0.0, 0.3, 0.6):
        assert hg.scal_slope(prof, x) == pytest.approx(1.0 / (1.0 - x) ** 2, rel=1e-6)
    fd = central_d1(lambda t: hg.scal_slope(prof, t), 0.3, 1e-4)
    assert scal_slope_d1(prof, 0.3) == pytest.approx(fd, rel=1e-3)


class TestSlopeDerivative:
    @pytest.mark.parametrize(
        "profile",
        [hg.PowerCap(0.5), hg.PowerCap(3), hg.ExpDecay(1), hg.ExpDecay(0.5), hg.Rational()],
        ids=lambda prof: prof.label(),
    )
    def test_matches_difference_of_slope(self, profile):
        for x in (0.1, 0.5, 0.9):
            fd = central_d1(lambda t: hg.scal_slope(profile, t), x, 1e-6)
            assert scal_slope_d1(profile, x) == pytest.approx(fd, rel=1e-8)

    # the cases below sit where a stencil on scal_slope would leave [0, x0)

    def test_powercap_at_origin(self):
        # the slope formula, free of the [0, x0) guard of Profile.eval, so
        # the central difference can straddle x = 0
        prof = hg.PowerCap(2)

        def slope(t):
            return -prof.defect(t) * prof._f(t) / prof.det_core(t)

        assert slope(1e-3) == hg.scal_slope(prof, 1e-3)
        fd = central_d1(slope, 0.0, 1e-5)
        assert scal_slope_d1(prof, 0.0) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0])
    def test_powercap_near_radial_bound(self, p):
        # slope' = (2p-2)/(1-x)^(p+1) grows like 1/(1-x)^(p+1); the step
        # keeps truncation below 1e-7 relative at x = 0.999 x0
        prof = hg.PowerCap(p)
        x = 0.999 * prof.x0
        fd = central_d1(lambda t: hg.scal_slope(prof, t), x, 1e-7)
        assert scal_slope_d1(prof, x) == pytest.approx(fd, rel=1e-6)


def test_scal_slope_affine_exactly_zero():
    prof = hg.Affine(2, 3)
    for x in (0.0, 0.2, 0.5):
        assert hg.scal_slope(prof, x) == 0.0
        assert scal_slope_d1(prof, x) == 0.0


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
            assert np.linalg.norm(ric - fd) <= 1e-5 * (1.0 + np.linalg.norm(ric))


class TestScalarCurvature:
    def test_affine_constants(self):
        for n, want in ((2, -6.0), (3, -12.0)):
            prof = hg.Affine(1, 1)
            p = hg.contains(prof, [0.2 + 0.1j] + [0.25] * (n - 1))
            assert hg.scalar_curvature(prof, p, hg.assemble_metric(prof, p)) == want

    def test_powercap_origin_value(self):
        # gap=1, F=1, det_core=2, defect=-2: -(1/2)(1)(-2) - 6 = -5
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0, 0])
        assert hg.scalar_curvature(prof, p, hg.assemble_metric(prof, p)) == pytest.approx(
            -5.0, abs=1e-9
        )

    def test_affine_constant_across_samples(self, points_for):
        vals = []
        for p in points_for(hg.Affine(2, 3), 2, count=25):
            vals.append(hg.scalar_curvature(hg.Affine(2, 3), p, hg.assemble_metric(hg.Affine(2, 3), p)))
        assert float(np.var(vals)) < 1e-18
        assert vals[0] == -6.0

    def test_powercap_varies_radially(self):
        prof = hg.PowerCap(2)
        vals = []
        for t in np.linspace(0.0, 0.8, 9):
            p = hg.contains(prof, [t, 0.1])
            vals.append(hg.scalar_curvature(prof, p, hg.assemble_metric(prof, p)))
        assert max(vals) - min(vals) > 1e-3


class TestGeneralizedCurvatures:
    def test_affine_n2(self, points_for):
        prof = hg.Affine(1, 1)
        for p in points_for(prof, 2, count=5):
            rho = hg.generalized_scalar_curvatures(prof, p, hg.assemble_metric(prof, p))
            assert np.array_equal(rho, np.array([-6.0, 9.0]))

    def test_affine_n3_binomial_values(self):
        # ratio (1 - 4t)^3 = 1 - 12t + 48t^2 - 64t^3
        prof = hg.Affine(2, 3)
        p = hg.contains(prof, [0.1, 0.2, 0.3j])
        m = hg.assemble_metric(prof, p)
        rho = hg.generalized_scalar_curvatures(prof, p, m)
        assert np.array_equal(rho, np.array([-12.0, 48.0, -64.0]))
        fitted = rho_oracle(m, hg.ricci_tensor(prof, p, m))
        assert np.max(np.abs(rho - fitted)) <= 1e-8

    def test_powercap_origin(self):
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0, 0])
        rho = hg.generalized_scalar_curvatures(prof, p, hg.assemble_metric(prof, p))
        assert rho[0] == pytest.approx(-5.0, abs=1e-9)
        assert rho[1] == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rho0_is_scal_and_fit_agrees(self, profile, n, points_for):
        for p in points_for(profile, n, count=6):
            m = hg.assemble_metric(profile, p)
            rho = hg.generalized_scalar_curvatures(profile, p, m)
            scal = hg.scalar_curvature(profile, p, m)
            assert rho[0] == pytest.approx(scal, rel=1e-12)
            fitted = rho_oracle(m, hg.ricci_tensor(profile, p, m))
            assert np.max(np.abs(rho - fitted)) <= 1e-8 * (1.0 + np.max(np.abs(rho)))


class TestRhoOracle:
    @staticmethod
    def _fake_metric(h):
        return MetricData(
            h=h, det=float(np.linalg.det(h).real), h_inv=np.linalg.inv(h),
            gap=1.0, det_core=1.0, num00=1.0,
        )

    def test_identity_with_einstein_ricci(self):
        # det(I - 3t I)/det(I) = (1-3t)^2 gives rho = (-6, 9)
        m = self._fake_metric(np.eye(2).astype(complex))
        rho = rho_oracle(m, -3.0 * np.eye(2).astype(complex))
        assert np.allclose(rho, [-6.0, 9.0], atol=1e-12)

    def test_zero_ricci(self):
        m = self._fake_metric(np.eye(3).astype(complex))
        assert np.max(np.abs(rho_oracle(m, np.zeros((3, 3), complex)))) <= 1e-12


def test_curvature_at_bundle():
    prof = hg.PowerCap(2)
    p = hg.contains(prof, [0.3, 0.2j])
    m = hg.assemble_metric(prof, p)
    data = hg.curvature_at(prof, p, m)
    assert data.scal == pytest.approx(data.rho[0], rel=1e-12)
    assert data.slope == pytest.approx(-data.defect * prof.eval(p.x) / m.det_core, rel=1e-12)
    assert data.ric.shape == (2, 2)
