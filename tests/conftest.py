import numpy as np
import pytest
from hypothesis import strategies as st

import hartogs as hg
from hartogs.metric import _complex, _diagonal, _product, _radial, inverse_metric_matrix

#: the CLI-reachable families exercised by cross-module sweeps
PSEUDOCONVEX_FAMILIES = [
    hg.Affine(1, 1),
    hg.Affine(2, 3),
    hg.PowerCap(2),
    hg.ExpDecay(1),
    hg.Rational(),
]

FAMILY_IDS = [p.label() for p in PSEUDOCONVEX_FAMILIES]


@pytest.fixture(scope="session")
def points_for():
    """Session cache of seeded interior samples keyed by request."""
    cache = {}

    def get(profile, n, count=10, seed=101, min_margin=0.05):
        key = (profile.label(), n, count, seed, min_margin)
        if key not in cache:
            cache[key] = hg.sample_interior(profile, n, count, seed, min_margin)
        return cache[key]

    return get


@st.composite
def profile_cases(draw):
    """A profile of a CLI family or powercap:1.001, a dimension, a margin
    and a seed; affine profiles keep x0 = c1/c2 >= 1."""
    c1 = draw(st.floats(0.5, 1e2))
    profile = draw(st.sampled_from([
        hg.Affine(c1, c1 * draw(st.floats(1e-2, 1.0))),
        hg.PowerCap(draw(st.sampled_from([0.5, 2.0, 1.001]) | st.floats(0.1, 50.0))),
        hg.ExpDecay(draw(st.sampled_from([1e-4, 1.0]) | st.floats(1e-4, 10.0))),
        hg.Rational(),
    ]))
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 16]))
    return profile, n, draw(st.sampled_from([0.05, 1e-3])), draw(st.integers(0, 2**32 - 1))


def central_d1(fn, x, h):
    """Test-local first-derivative oracle."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def central_d2(fn, x, h):
    """Test-local second-derivative oracle."""
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def metric_gradients(profile, p):
    """Test-side reference for the contractions `metric_derivative_along`
    and `metric_derivative_against`: the Wirtinger derivatives of the
    metric at p in closed form, as (dg, dgbar) with dg[..., k, :, :] =
    dh/dz_k and dgbar[..., k, :, :] = dh/dzbar_k, which is the conjugate
    transpose of dg[..., k, :, :] since h is Hermitian.  It builds the whole
    (N, n, n, n) tensor, which the package never forms.

    Differentiating h = (d^2 Phi / dz_a dzbar_b), Phi = -log(gap), with
    subscripts for derivatives of gap and a bar on index b throughout:

        d_k h_ab = -gap_kab/gap + (gap_ab gap_k + gap_ka gap_b + gap_a gap_kb)/gap^2
                   - 2 gap_k gap_a gap_b/gap^3,

    where gap_0 = F' zbar_0, gap_i = -zbar_i, the mixed second derivatives
    are diag(F' + F'' x, -1, ..., -1), the only holomorphic one is
    gap_00 = F'' zbar_0^2, and the only third one is
    gap_000bar = zbar_0 (2 F'' + x F''').
    """
    n, z, x, gap, d1, d2 = p.n, p.z, p.x, p.gap, p.d1, p.d2
    re0, im0 = z[..., 0].real, z[..., 0].imag
    gap2 = gap * gap
    g1 = -np.conj(z)
    g1[..., 0] = _complex(d1 * re0, d1 * -im0)
    mixed = np.zeros(z.shape + (n,))
    _diagonal(mixed)[...] = -1.0
    mixed[..., 0, 0] = d1 + d2 * x

    g_k, g_a, g_b = g1[..., :, None, None], g1[..., None, :, None], g1.conj()[..., None, None, :]
    dg = (g_k * mixed[..., None, :, :] + g_a * mixed[..., :, None, :]) / _radial(gap2, 3)
    dg -= _radial(2.0 / (gap2 * gap), 3) * (g_k * g_a) * g_b
    # the gap_00 and gap_000bar terms, each in the order of a scalar complex product
    sq_re, sq_im = _product(d2 * re0, d2 * -im0, re0, -im0)
    dg[..., 0, 0, :] += _radial(_complex(sq_re / gap2, sq_im / gap2), 1) * g1.conj()
    third = 2.0 * d2 + x * profile.eval(x, 3)
    dg[..., 0, 0, 0] -= _complex(re0 * third / gap, -im0 * third / gap)
    return dg, np.swapaxes(dg.conj(), -1, -2)


def scal_gradient_bar(p, slope, slope_d1):
    """Test-side reference for dbar scal at p, from its record, the slope
    and its radial derivative slope':

        d scal / dzbar_0 = z_0 (slope' * gap + slope * F')
        d scal / dzbar_i = -slope * z_i.
    """
    grad = -np.asarray(slope)[..., None] * p.z
    radial = slope_d1 * p.gap + slope * p.d1
    grad[..., 0] = _complex(p.z[..., 0].real * radial, p.z[..., 0].imag * radial)
    return grad


def gradient_field_reference(profile, p):
    """Test-side reference for the gradient field T = K^T dbar scal at p,
    with K = h^-1 the whole closed-form inverse (`inverse_metric_matrix`),
    which the package's radial form of T never assembles."""
    slope = -profile.defect(p.x) * p.f / p.det_core
    grad = scal_gradient_bar(p, slope, profile.slope_d1(p.x))
    return (np.swapaxes(inverse_metric_matrix(p), -1, -2) @ grad[..., None])[..., 0]
