import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hartogs as hg
import hartogs.curvature
from hartogs.curvature import extremal_jet_oracle
from hartogs.errors import NumericError
from hartogs.jet import Jet
from hartogs.wirtinger import ComplexStencil

from conftest import jacobian_from_block, stencil_t_zbar

ST = ComplexStencil()

bounded_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1.5, allow_nan=False, allow_infinity=False
)


def test_holomorphic_square():
    # d/dz of z^2 at 1+i is 2+2i
    got = ST.d_pair(lambda z: z[0] ** 2, [1 + 1j, 0], 0)[0]
    assert got == pytest.approx(2 + 2j, rel=1e-7)


def test_modulus_squared():
    # d/dz |z|^2 = zbar
    got = ST.d_pair(lambda z: abs(z[0]) ** 2, [1 + 1j, 0], 0)[0]
    assert got == pytest.approx(1 - 1j, rel=1e-7)


def test_antiholomorphic_kernel():
    got = ST.d_pair(lambda z: z[0].conjugate(), [0.3 - 0.7j, 0.1], 0)[0]
    assert abs(got) < 1e-9


def test_d_zbar_counterparts():
    assert ST.d_zbar(lambda z: abs(z[0]) ** 2, [1 + 1j, 0], 0) == pytest.approx(1 + 1j, rel=1e-7)
    assert abs(ST.d_zbar(lambda z: z[0] ** 2, [1 + 1j, 0], 0)) < 1e-9


def test_d_pair_consistent():
    z = [0.4 + 0.2j, -0.3j]
    f = lambda w: w[0] ** 2 * w[1] + abs(w[1]) ** 2
    _, dzbar = ST.d_pair(f, z, 1)
    assert dzbar == pytest.approx(ST.d_zbar(f, z, 1), abs=1e-15)


def test_array_valued_function():
    got = ST.d_pair(lambda z: np.array([z[0] ** 2, z[0].conjugate()]), [1 + 1j, 0], 0)[0]
    assert got[0] == pytest.approx(2 + 2j, rel=1e-7)
    assert abs(got[1]) < 1e-9


@settings(max_examples=30, deadline=None)
@given(z0=bounded_complex, z1=bounded_complex)
def test_analytic_reproduction(z0, z1):
    # relative error <= 1e-7 on polynomial test functions
    point = [z0, z1]
    got = ST.d_pair(lambda z: z[0] ** 2 * z[1], point, 0)[0]
    want = 2 * z0 * z1
    assert abs(got - want) <= 1e-7 * (1 + abs(want))
    got = ST.d_zbar(lambda z: z[0] * z[0].conjugate(), point, 0)
    assert abs(got - z0) <= 1e-7 * (1 + abs(z0))


class TestHessian:
    def test_euclidean_potential(self):
        h = ST.hessian_z_zbar(lambda z: abs(z[0]) ** 2 + abs(z[1]) ** 2, [0.2 + 0.1j, -0.4j])
        assert np.allclose(h, np.eye(2), atol=1e-8)

    def test_pluriharmonic_kernel(self):
        h = ST.hessian_z_zbar(lambda z: z[0].real, [0.5, 0.25 + 0.1j])
        assert np.max(np.abs(h)) < 1e-8

    def test_potential_at_origin_is_identity(self):
        # closed-form metric of the unit affine domain at 0 is the identity;
        # the FD Hessian of -log(gap) is this very oracle
        prof = hg.Affine(1, 1)
        h = ST.hessian_z_zbar(lambda z: hg.kahler_potential(prof, z), np.zeros(2, complex))
        assert np.allclose(h, np.eye(2), atol=1e-7)

    def test_exactly_hermitian(self):
        f = lambda z: abs(z[0]) ** 2 * abs(z[1]) ** 2 + (z[0] * z[1].conjugate()).real
        h = ST.hessian_z_zbar(f, [0.3 + 0.2j, 0.1 - 0.5j])
        assert np.array_equal(h, h.conj().T)


def test_nonfinite_stencil_raises():
    with pytest.raises(NumericError):
        ST.d_pair(lambda z: math.nan, [0.0, 0.0], 0)
    prof = hg.Affine(1, 1)
    # potential is NaN outside the domain; a point this close to the
    # boundary pushes the stencil out
    near_edge = np.array([0.0, 1.0 - 1e-9], dtype=complex)
    with pytest.raises(NumericError):
        ST.hessian_z_zbar(lambda z: hg.kahler_potential(prof, z), near_edge)


def test_invalid_step_rejected():
    with pytest.raises(ValueError):
        ComplexStencil(step=0.0)
    with pytest.raises(ValueError):
        ComplexStencil(step=-1e-5)


@pytest.mark.parametrize("profile", [hg.PowerCap(2), hg.Rational()], ids=lambda f: f.label())
def test_extremal_oracle_is_d_zbar_per_coordinate(profile):
    # column c of the exact oracle at each point of a stack is, to the
    # stencil's accuracy, the derivative `d_zbar` takes of T along z_c at
    # that point alone (about 1e-8 relative at step 1e-5, margin 1e-3)
    points = hg.sample_interior(profile, 3, 4, seed=1, min_margin=1e-3)
    block = extremal_jet_oracle(profile, points)
    assert block.shape == (4, 2, 2)
    got = jacobian_from_block(points.z, block)
    for i, p in enumerate(points):
        reference = stencil_t_zbar(profile, p.z, 1e-5)
        assert np.max(np.abs(got[i] - reference)) <= 1e-7 * (1.0 + np.max(np.abs(got[i])))


def test_extremal_oracle_nonfinite_names_point(monkeypatch):
    # a NaN in the x-derivative of the jet of B at one point of a block,
    # which reaches the x partial of S_i = gap^2 B
    prof = hg.PowerCap(2)
    points = hg.sample_interior(prof, 3, 5, seed=2)
    scales = hartogs.curvature._radial_scales

    def poisoned(*args):
        slope, slope_d1, a, b = scales(*args)
        grad = b.grad.copy()
        grad[3, 0] = math.nan
        return slope, slope_d1, a, Jet(b.val, grad, b.hess)

    monkeypatch.setattr(hartogs.curvature, "_radial_scales", poisoned)
    with pytest.raises(NumericError) as err:
        extremal_jet_oracle(prof, points)
    assert repr(points.z[3]) in str(err.value)


def test_extremal_oracle_jets_run_along_x_alone(monkeypatch):
    # the oracle seeds one direction, x: A, A', B, B' and the chain rule's
    # F' come off jets of x alone, and gap enters the block as a number
    grads = []
    scales = hartogs.curvature._radial_scales

    def spied(*args):
        out = scales(*args)
        grads.append([v.grad.shape for v in (*args, *out) if isinstance(v, Jet)])
        return out

    monkeypatch.setattr(hartogs.curvature, "_radial_scales", spied)
    prof = hg.PowerCap(2)
    extremal_jet_oracle(prof, hg.sample_interior(prof, 3, 5, seed=2))
    assert len(grads) == 1 and len(grads[0]) >= 5
    assert set(grads[0]) == {(5, 1)}
