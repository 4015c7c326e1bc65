import math

import numpy as np
import pytest
from hypothesis import strategies as st

import hartogs as hg
from hartogs.curvature import _gradient_field, curvature_defect
from hartogs.metric import (
    _complex, _diagonal, _product, _radial, inverse_metric_matrix, require_interior,
)
from hartogs.profiles import interior_x_max
from hartogs.wirtinger import ComplexStencil

#: the CLI-reachable families exercised by cross-module sweeps
PSEUDOCONVEX_FAMILIES = [
    hg.Affine(1, 1),
    hg.Affine(2, 3),
    hg.PowerCap(2),
    hg.ExpDecay(1),
    hg.Rational(),
]

FAMILY_IDS = [p.label() for p in PSEUDOCONVEX_FAMILIES]


def same_bits(a, b) -> bool:
    """Same dtype, shape and bytes: equal bit for bit, signs of zero and
    NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape) == (b.dtype, b.shape) and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


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


def stencil_t_zbar(profile, z, step):
    """Test-side reference for t_zbar at one point z: column c is the
    central Wirtinger difference `ComplexStencil(step).d_zbar` of the
    gradient field T (`curvature._gradient_field`) along zbar_c."""
    def t_of(w):
        q = require_interior(profile, w)
        return _gradient_field(profile, q, curvature_defect(profile, q))[2]

    stencil = ComplexStencil(step)
    return np.stack([stencil.d_zbar(t_of, z, c) for c in range(len(z))], axis=-1)


class DoctoredGenerator:
    """A real `np.random.Generator` whose standard normals, numbered in
    draw order across every call, are replaced at the indices of
    `replace`, for the draws no seed reaches.  `normal` is loc + scale
    times them, as numpy forms it."""

    def __init__(self, rng, replace):
        self.rng, self.replace, self.drawn = rng, replace, 0

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.rng.uniform(low, high, size)

    def standard_normal(self, size=None, out=None):
        z = np.asarray(self.rng.standard_normal(size, out=out))
        flat = z.reshape(-1)
        for k in range(flat.size):
            flat[k] = self.replace.get(self.drawn + k, flat[k])
        self.drawn += flat.size
        return z

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.standard_normal(size)


def doctor_default_rng(monkeypatch, n):
    """Patch `np.random.default_rng`, which both samplers call, to give
    DoctoredGenerators at dimension n: the first fiber row is degenerate
    (norm below 1e-12, so it is drawn again) and the third holds -0.0 at
    its position 1, which rng.normal returns as 0.0."""
    real, row = np.random.default_rng, 2 * (n - 1)
    replace = {k: (-1.0) ** k * 1e-13 for k in range(row)}
    replace[2 * row + 1] = -0.0
    monkeypatch.setattr(np.random, "default_rng", lambda seed: DoctoredGenerator(real(seed), replace))


def spy_parts(monkeypatch, module):
    """A copy of the fiber parts passed to each call of `stacked_points`
    through `module`, the rows of every call in one list."""
    parts, original = [], module.stacked_points

    def spied(x, theta, rows, radius):
        parts.extend(rows.copy())
        return original(x, theta, rows, radius)

    monkeypatch.setattr(module, "stacked_points", spied)
    return parts


def _fiber_draw(rng, n):
    """The parts of a fiber direction, one rng.normal call per half, drawn
    again while the direction's norm is at or below 1e-12."""
    parts = np.zeros(2 * (n - 1))
    while np.linalg.norm(parts[: n - 1] + 1j * parts[n - 1 :]) <= 1e-12:
        parts = np.concatenate([rng.normal(size=n - 1), rng.normal(size=n - 1)])
    return parts


def _fiber_point(x, theta, parts, radius):
    n = len(parts) // 2 + 1
    z = np.empty(n, dtype=complex)
    z[0] = math.sqrt(x) * complex(math.cos(theta), math.sin(theta))
    direction = parts[: n - 1] + 1j * parts[n - 1 :]
    z[1:] = direction * (radius / np.linalg.norm(direction))
    return z


def interior_reference(rng, profile, n, count, margin):
    """Test-side reference for `sample_interior`, one point at a time with
    rng.uniform and rng.normal: the points kept, and the fiber parts of
    every candidate drawn, in order."""
    x_top = interior_x_max(profile)
    if not math.isinf(profile.x0):
        x_top = min(x_top, profile.x0 - margin)
    points, parts = [], []
    while len(points) < count:
        x = rng.uniform(0.0, x_top)
        budget = profile.eval(x) - margin
        if budget <= 0.0:
            continue
        theta = rng.uniform(0.0, 2.0 * math.pi)
        parts.append(_fiber_draw(rng, n))
        radius = math.sqrt(budget) * rng.uniform() ** (1.0 / (2 * (n - 1)))
        z = _fiber_point(x, theta, parts[-1], radius)
        p = hg.contains(profile, z)
        if p is not None and p.margin >= margin:
            points.append(z)
    return np.array(points), np.array(parts)


def boundary_reference(rng, profile, n, count):
    """Test-side reference for `boundary.sample_boundary`, one point at a
    time with rng.uniform and rng.normal: the points and their fiber
    parts."""
    x_top = interior_x_max(profile)
    points, parts = [], []
    for _ in range(count):
        x = rng.uniform(0.0, x_top)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        parts.append(_fiber_draw(rng, n))
        points.append(_fiber_point(x, theta, parts[-1], math.sqrt(profile.eval(x))))
    return np.array(points), np.array(parts)
