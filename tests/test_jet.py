import math

import numpy as np
import pytest

import hartogs as hg
import hartogs.curvature
import hartogs.metric
from hartogs.boundary import boundary_point
from hartogs.errors import NumericError
from hartogs.jet import Jet, JetPoint, exp, log
from hartogs.metric import metric_fd_oracle
from hartogs.profiles import Profile

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES


def variables(values):
    """Jets of independent real variables, one direction each."""
    m = len(values)
    eye = np.eye(m)
    return [Jet(float(v), eye[k], np.zeros((m, m))) for k, v in enumerate(values)]


def fd_hessian(f, x, h=1e-4):
    """Test-local nested central differences of a scalar function."""
    x = np.asarray(x, float)
    m = x.size
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            ei, ej = np.eye(m)[i] * h, np.eye(m)[j] * h
            out[i, j] = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return out


class TestJet:
    def test_polynomial_exact(self):
        # f = u^2 v + 3 v^3 - 2 u + 5: grad (2uv - 2, u^2 + 9v^2), hess [[2v, 2u], [2u, 18v]]
        u, v = variables([0.75, -0.5])
        f = u * u * v + 3.0 * v**3 - 2.0 * u + 5.0
        assert f.val == 0.75**2 * -0.5 + 3 * (-0.5) ** 3 - 1.5 + 5.0
        assert np.array_equal(f.grad, [2 * 0.75 * -0.5 - 2.0, 0.75**2 + 9 * 0.25])
        assert np.allclose(f.hess, [[-1.0, 1.5], [1.5, -9.0]], rtol=0, atol=1e-15)

    def test_all_operations_match_differences(self):
        def f(a, b, c):
            return exp(a * b) / (1.0 + c**2) ** 1.5 - log(2.0 + b) * c + 3.0 / (a - 2.0) - (c - a) / b

        x = [0.3, 0.7, -0.4]
        jet = f(*variables(x))
        assert jet.val == pytest.approx(f(*x), rel=1e-15)
        want = fd_hessian(lambda y: f(*y), x)
        assert np.max(np.abs(jet.hess - want)) <= 1e-6 * np.max(np.abs(want))
        assert np.array_equal(jet.hess, jet.hess.T)

    def test_numbers_and_comparisons(self):
        (a,) = variables([0.5])
        assert (2.0 - a).val == 1.5 and (2.0 * a).val == 1.0 and (2.0 + a).val == 2.5
        assert (np.float64(2.0) * a).val == 1.0
        assert 0.0 <= a < 1.0 and a > 0.25 and not a <= 0.0
        assert exp(0.3) == math.exp(0.3) and log(0.3) == math.log(0.3)
        assert hg.ExpDecay(1.3)._f(0.7) == math.exp(-1.3 * 0.7)
        assert hg.ExpDecay(1.3).det_core(0.7) == 1.3 * math.exp(-2.0 * 1.3 * 0.7)

    def test_norm_sq_matches_arithmetic(self):
        z = np.array([0.3 - 0.2j, 0.1 + 0.4j, -0.5j])
        n = z.size
        coords = variables(np.concatenate([z.real, z.imag]))
        w = JetPoint(z)
        for start, stop in ((0, 1), (1, n), (0, n)):
            want = sum(coords[k] * coords[k] + coords[n + k] * coords[n + k] for k in range(start, stop))
            got = w.norm_sq(start, stop)
            assert got.val == pytest.approx(want.val, rel=1e-15)
            assert np.array_equal(got.grad, want.grad) and np.array_equal(got.hess, want.hess)

    def test_fubini_study(self):
        # d^2 log(1 + |z|^2) / dz_a dzbar_b = delta_ab / s - zbar_a z_b / s^2, s = 1 + |z|^2
        z = np.array([0.3 - 0.2j, 0.1 + 0.4j])
        w = JetPoint(z)
        s = 1.0 + float(np.vdot(z, z).real)
        want = np.eye(2) / s - np.outer(z.conj(), z) / s**2
        got = w.hessian_z_zbar(log(1.0 + w.norm_sq(0, 2)))
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.array_equal(got, got.conj().T)


def refuse(*args, **kwargs):
    raise AssertionError("closed form read by an oracle")


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
def test_oracles_read_only_f_and_det_core(monkeypatch, points_for, profile):
    points = points_for(profile, 3)
    want = [(m.h, hg.ricci_tensor(profile, p, m))
            for p, m in ((p, hg.assemble_metric(profile, p)) for p in points)]
    eval_f = Profile.eval

    def f_only(self, x, order=0):
        if order:
            raise AssertionError(f"F derivative of order {order} read by an oracle")
        return eval_f(self, x)

    monkeypatch.setattr(Profile, "eval", f_only)
    for name in ("_d1", "_d2", "_d3", "defect", "slope_d1", "slope_d2"):
        # lookups stop at the family class, which need not define the name
        monkeypatch.setattr(type(profile), name, refuse, raising=False)
    for mod in (hartogs.metric, hartogs.curvature):
        for name in ("metric_matrix", "inverse_metric_matrix", "assemble_metric"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    for p, (h, ric) in zip(points, want):
        assert np.max(np.abs(metric_fd_oracle(profile, p) - h)) <= 1e-12 * np.max(np.abs(h))
        assert np.max(np.abs(hg.ricci_fd_oracle(profile, p) - ric)) <= 1e-12 * np.max(np.abs(ric))


def test_oracles_reject_undefined_potential():
    # det_core vanishes for the probe; gap vanishes on the boundary
    probe = hg.ConstantProbe()
    with pytest.raises(NumericError):
        hg.ricci_fd_oracle(probe, hg.contains(probe, [0.2, 0.3]))
    prof = hg.Affine(1, 1)
    on_boundary = boundary_point(prof, [0, 1])
    for oracle in (metric_fd_oracle, hg.ricci_fd_oracle):
        with pytest.raises(NumericError):
            oracle(prof, on_boundary)
