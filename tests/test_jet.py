import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hartogs as hg
import hartogs.cli
import hartogs.curvature
import hartogs.metric
from hartogs.boundary import boundary_point
from hartogs.errors import DomainError, NumericError
from hartogs.jet import Jet, JetPoint, exp, log
from hartogs.metric import RadialJets, metric_fd_oracle, point_record, relative_norm
from hartogs.profiles import Profile

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES, profile_cases, same_bits


def variables(values):
    """Jets of independent real variables, one direction each, as one-row
    stacks."""
    m = len(values)
    eye = np.eye(m)
    return [Jet(np.array([float(v)]), eye[k:k + 1], np.zeros((1, m, m))) for k, v in enumerate(values)]


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
        assert f.val.tolist() == [0.75**2 * -0.5 + 3 * (-0.5) ** 3 - 1.5 + 5.0]
        assert np.array_equal(f.grad, [[2 * 0.75 * -0.5 - 2.0, 0.75**2 + 9 * 0.25]])
        assert np.allclose(f.hess, [[[-1.0, 1.5], [1.5, -9.0]]], rtol=0, atol=1e-15)

    def test_all_operations_match_differences(self):
        def f(a, b, c):
            return exp(a * b) / (1.0 + c**2) ** 1.5 - log(2.0 + b) * c + 3.0 / (a - 2.0) - (c - a) / b

        x = [0.3, 0.7, -0.4]
        jet = f(*variables(x))
        assert jet.val[0] == pytest.approx(f(*x), rel=1e-15)
        want = fd_hessian(lambda y: f(*y), x)
        assert np.max(np.abs(jet.hess[0] - want)) <= 1e-6 * np.max(np.abs(want))
        assert np.array_equal(jet.hess[0], jet.hess[0].T)

    def test_numbers_and_comparisons(self):
        (a,) = variables([0.5])
        assert (2.0 - a).val == 1.5 and (2.0 * a).val == 1.0 and (2.0 + a).val == 2.5
        assert (np.float64(2.0) * a).val == 1.0
        assert 0.0 <= a < 1.0 and a > 0.25 and not a <= 0.0
        assert exp(0.3) == math.exp(0.3) and log(0.3) == math.log(0.3)
        assert hg.ExpDecay(1.3)._f(0.7) == math.exp(-1.3 * 0.7)
        assert hg.ExpDecay(1.3).det_core(0.7) == 1.3 * math.exp(-2.0 * 1.3 * 0.7)

    def test_norm_sq_matches_arithmetic(self):
        # the sum of u_k^2 + v_k^2 in coordinate order, bit for bit
        z = np.array([0.3 - 0.2j, 0.1 + 0.4j, -0.5j])
        n = z.size
        coords = variables(np.concatenate([z.real, z.imag]))
        w = JetPoint(z)
        for start, stop in ((0, 1), (1, n), (0, n)):
            want = sum(coords[k] * coords[k] + coords[n + k] * coords[n + k] for k in range(start, stop))
            got = w.norm_sq(start, stop)
            assert same_bits(got.val, want.val)
            assert np.array_equal(got.grad, want.grad) and np.array_equal(got.hess, want.hess)

    def test_fubini_study(self):
        # d^2 log(1 + |z|^2) / dz_a dzbar_b = delta_ab / s - zbar_a z_b / s^2, s = 1 + |z|^2
        z = np.array([0.3 - 0.2j, 0.1 + 0.4j])
        w = JetPoint(z)
        s = 1.0 + float(np.vdot(z, z).real)
        want = np.eye(2) / s - np.outer(z.conj(), z) / s**2
        got = w.hessian_z_zbar(log(1.0 + w.norm_sq(0, 2)))
        assert got.shape == (1, 2, 2)
        assert np.max(np.abs(got[0] - want)) <= 1e-15
        assert np.array_equal(got[0], got[0].conj().T)


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
    """Row i of a stacked jet, as a one-row stack."""
    return Jet(jet.val[i:i + 1], jet.grad[i:i + 1], jet.hess[i:i + 1])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_stacked_jets_have_the_bits_of_single_ones(data):
    # row i of an operation on stacked jets is, bit for bit, the same
    # operation on the one-row stacks of row i
    rows = data.draw(st.integers(1, 8))
    a, b = data.draw(stacked_jets(rows)), data.draw(stacked_jets(rows))
    for name, op in OPERATIONS.items():
        stacked = op(a, b)
        for i in range(rows):
            single = op(row(a, i), row(b, i))
            assert same_bits(single.val, stacked.val[i:i + 1]), (name, i)
            assert same_bits(single.grad, stacked.grad[i:i + 1]), (name, i)
            assert same_bits(single.hess, stacked.hess[i:i + 1]), (name, i)


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
    # a 1-D z is a one-row stack, and each row of a stack has its bits
    z = np.array([[0.3 - 0.2j, 0.1 + 0.4j, -0.5j], [0.7, -0.1 + 0.2j, 0.3 + 0.3j]])
    stacked = JetPoint(z)
    assert stacked.n == 3
    for start, stop in ((0, 1), (1, 3), (0, 3)):
        jet = stacked.norm_sq(start, stop)
        for i, w in enumerate(z):
            alone = JetPoint(w)
            assert alone.z.shape == (1, 3)
            alone = alone.norm_sq(start, stop)
            assert same_bits(alone.val, jet.val[i:i + 1])
            assert same_bits(alone.grad, jet.grad[i:i + 1])
            assert same_bits(alone.hess, jet.hess[i:i + 1])
    f = log(1.0 + stacked.norm_sq(0, 3))
    for i, w in enumerate(z):
        v = JetPoint(w)
        assert same_bits(v.hessian_z_zbar(log(1.0 + v.norm_sq(0, 3))), stacked.hessian_z_zbar(f)[i:i + 1])


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
    # a record whose z_0 was moved past x0 at the row before the boundary
    # row: both oracles name it, as they name a gap <= 0
    z = stack.z.copy()
    z[1, 0] = 2.0
    for oracle in (metric_fd_oracle, hg.ricci_fd_oracle):
        with pytest.raises(NumericError) as err:
            oracle(prof, stack._replace(z=z))
        assert repr(z[1]) in str(err.value)
    # the extremal oracle reads x from the record: its DomainError names the
    # value, not the whole jet
    x = stack.x.copy()
    x[1] = 4.0
    with pytest.raises(DomainError) as err:
        hartogs.curvature.extremal_jet_oracle(prof, stack._replace(z=z, x=x))
    assert "x=4.0 outside" in str(err.value) and "grad=" not in str(err.value)


@pytest.mark.parametrize("margin", [0.05, 1e-3])
@pytest.mark.parametrize("n", [2, 3, 8, 16])
@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
def test_jet_x_and_gap_have_the_record_bits(profile, n, margin):
    # the oracles' x and gap are the record's, bit for bit, at every point
    # of a stacked record
    p = hg.sample_interior(profile, n, 40, seed=n, min_margin=margin)
    x, gap = RadialJets(profile, p).x_and_gap
    assert same_bits(x.val, p.x) and same_bits(gap.val, p.gap)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=profile_cases())
@example(case=(hg.Affine(99.1, 82.0), 8, 1e-3, 48))
@example(case=(hg.Affine(39.721583219875306, 39.40790173004453), 6, 1e-3, 923))
@example(case=(hg.Rational(), 16, 1e-3, 1))
@example(case=(hg.PowerCap(1.001), 8, 1e-3, 2))
def test_jet_oracles_agree_to_rounding(case):
    # the measures of metric_vs_fd_hessian and ricci_vs_fd stay at 1e-13,
    # a hundredth of their gates, over the advertised range: the oracles
    # see the record's own |z|^2, so 1/gap^2 amplifies no input mismatch
    profile, n, margin, seed = case
    p = hg.sample_interior(profile, n, 20, seed % 1000, margin)
    m = hg.assemble_metric(profile, p)
    ric = hg.ricci_tensor(profile, p, m)
    assert np.max(relative_norm(m.h - metric_fd_oracle(profile, p), m.h)) <= 1e-13
    assert np.max(relative_norm(ric - hg.ricci_fd_oracle(profile, p), ric)) <= 1e-13


def test_oracles_share_one_stack_of_jets(monkeypatch):
    # the metric and Ricci oracles of one block form its (x, gap) jets and
    # log gap once, and give the bits each gives alone; another record, or
    # another profile on the same record, forms its own
    prof, other = hg.PowerCap(2), hg.ExpDecay(1)
    p = hg.sample_interior(prof, 3, 12, 5)
    q = p[:5]
    alone = {}
    for key, oracle, profile, record in (("metric", metric_fd_oracle, prof, p),
                                         ("ricci", hg.ricci_fd_oracle, prof, p),
                                         ("other", hg.ricci_fd_oracle, other, p),
                                         ("q", hg.ricci_fd_oracle, prof, q)):
        hartogs.metric.radial_jets(prof, q)  # some other record's stack
        alone[key] = oracle(profile, record)
    formed, logs = [], []
    original_jets, original_log = RadialJets.x_and_gap.func, hartogs.metric.log

    def counted_jets(self):
        formed.append(self.profile)
        return original_jets(self)

    def counted_log(v):
        logs.append(v)
        return original_log(v)

    x_and_gap = functools.cached_property(counted_jets)
    x_and_gap.__set_name__(RadialJets, "x_and_gap")
    monkeypatch.setattr(RadialJets, "x_and_gap", x_and_gap)
    monkeypatch.setattr(hartogs.metric, "log", counted_log)
    assert same_bits(metric_fd_oracle(prof, p), alone["metric"])
    assert same_bits(hg.ricci_fd_oracle(prof, p), alone["ricci"])
    assert formed == [prof] and len(logs) == 1
    assert same_bits(hg.ricci_fd_oracle(other, p), alone["other"])
    assert same_bits(hg.ricci_fd_oracle(prof, q), alone["q"])
    assert formed == [prof, other, prof] and len(logs) == 3
    # in verify-theorems, one stack per block of points
    formed.clear()
    results = hartogs.cli.run_verification(prof, 3, hartogs.metric.BLOCK + 9, 2)
    assert all(r.passed for r in results[:8]) and formed == [prof, prof]
