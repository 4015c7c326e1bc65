import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hartogs as hg
import hartogs.curvature
import hartogs.metric
from hartogs.boundary import boundary_point
from hartogs.errors import NumericError
from hartogs.jet import Jet, JetPoint, exp, log
from hartogs.metric import metric_fd_oracle, point_record
from hartogs.profiles import Profile

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES, same_bits


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


#: operations on two jets, or on one jet and a number; `**` and `log` take
#: positive values, as on the oracles' paths
OPERATIONS = {
    "a + b": lambda a, b: a + b,
    "a - b": lambda a, b: a - b,
    "a * b": lambda a, b: a * b,
    "a / b": lambda a, b: a / b,
    "0.5 - a": lambda a, b: 0.5 - a,
    "3 * a": lambda a, b: 3.0 * a,
    "2 / a": lambda a, b: 2.0 / a,
    **{f"a ** {p}": (lambda a, b, p=p: a**p) for p in (0.5, 2, -1, -4, 2.5)},
    "exp(a)": lambda a, b: exp(a),
    "log(a)": lambda a, b: log(a),
}


@st.composite
def stacked_jets(draw, rows: int, m: int = 2):
    """A jet stacked along a leading axis of `rows` points, with positive
    values and arbitrary gradients and Hessians."""
    def floats(count, lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=count, max_size=count)))

    return Jet(floats(rows, 0.1, 10.0), floats(rows * m, -10.0, 10.0).reshape(rows, m),
               floats(rows * m * m, -10.0, 10.0).reshape(rows, m, m))


def row(jet: Jet, i: int) -> Jet:
    return Jet(float(jet.val[i]), jet.grad[i], jet.hess[i])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_stacked_jets_have_the_bits_of_single_ones(data):
    # row i of an operation on stacked jets is, bit for bit, the same
    # operation on the single jets of row i
    rows = data.draw(st.integers(1, 8))
    a, b = data.draw(stacked_jets(rows)), data.draw(stacked_jets(rows))
    for name, op in OPERATIONS.items():
        stacked = op(a, b)
        for i in range(rows):
            single = op(row(a, i), row(b, i))
            assert same_bits(float(single.val), stacked.val[i]), (name, i)
            assert same_bits(single.grad, stacked.grad[i]), (name, i)
            assert same_bits(single.hess, stacked.hess[i]), (name, i)


def test_stacked_jet_values_are_python_floats():
    # numpy's exp and log differ from math.exp and math.log in about 5% and
    # 0.1% of values, and its ** takes other paths at some exponents; a
    # stacked jet gives every value the bits of Python's float arithmetic
    values = np.random.default_rng(1).uniform(0.1, 10.0, 20_000)
    a = Jet(values, np.ones((values.size, 1)), np.zeros((values.size, 1, 1)))
    for name, op in OPERATIONS.items():
        if "b" not in name:
            want = np.array([op(v, None) for v in values.tolist()])
            assert same_bits(want, op(a, None).val), name


def test_jet_point_stack():
    z = np.array([[0.3 - 0.2j, 0.1 + 0.4j, -0.5j], [0.7, -0.1 + 0.2j, 0.3 + 0.3j]])
    stacked = JetPoint(z)
    assert stacked.n == 3
    for start, stop in ((0, 1), (1, 3), (0, 3)):
        jet = stacked.norm_sq(start, stop)
        for i, w in enumerate(z):
            alone = JetPoint(w).norm_sq(start, stop)
            assert same_bits(alone.val, jet.val[i]) and same_bits(alone.grad, jet.grad[i])
            assert same_bits(alone.hess, jet.hess[i])
    f = log(1.0 + stacked.norm_sq(0, 3))
    for i, w in enumerate(z):
        v = JetPoint(w)
        assert same_bits(v.hessian_z_zbar(log(1.0 + v.norm_sq(0, 3))), stacked.hessian_z_zbar(f)[i])


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
    # in a stack, the one boundary row is named
    interior = hg.sample_interior(prof, 2, 4, seed=3).z
    stack = point_record(prof, np.concatenate([interior[:2], [on_boundary.z], interior[2:]]))
    for oracle in (metric_fd_oracle, hg.ricci_fd_oracle):
        with pytest.raises(NumericError) as err:
            oracle(prof, stack)
        assert repr(on_boundary.z) in str(err.value)
        assert repr(interior[0]) not in str(err.value)
