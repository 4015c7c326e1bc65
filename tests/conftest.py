import functools
import math

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import hartogs as hg
import hartogs.metric
from hartogs.jet import power
from hartogs.metric import (
    _complex, _diagonal, _product, _radial, inverse_metric_matrix, require_interior,
)
from hartogs.profiles import Profile, interior_x_max
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


def _horner(poly, x):
    """poly at x by Horner's rule in plain arithmetic, so x may be a float,
    an array or a jet; a constant keeps x's shape."""
    value = 0.0 * x + poly.coef[-1]
    for c in poly.coef[-2::-1]:
        value = value * x + c
    return value


@functools.lru_cache(maxsize=None)
def _cap_forms(coefficients):
    """F, the polynomial with these coefficients (lowest degree first), and
    its derivatives, det_core, and the numerators of the defect, slope' and
    slope'' over det_core^2, ^4 and ^5, each with its power of det_core,
    all by polynomial algebra on F:

        defect = ((det_core' + x det_core'') det_core - x det_core'^2) / det_core^2
        slope  = -defect F / det_core

    and each derivative of N / det_core^k is (N' det_core - k N det_core') / det_core^(k+1)."""
    f, x = Polynomial(coefficients), Polynomial([0.0, 1.0])
    d1, d2 = f.deriv(), f.deriv(2)
    core = x * d1 * d1 - f * (d1 + x * d2)
    core_d1 = core.deriv()
    defect = (core_d1 + x * core.deriv(2)) * core - x * core_d1 * core_d1
    slope = -defect * f
    slope_d1 = slope.deriv() * core - 3.0 * slope * core_d1
    slope_d2 = slope_d1.deriv() * core - 4.0 * slope_d1 * core_d1
    return {"f": (f, 0), "d1": (d1, 0), "d2": (d2, 0), "d3": (f.deriv(3), 0), "core": (core, 0),
            "defect": (defect, 2), "slope_d1": (slope_d1, 4), "slope_d2": (slope_d2, 5)}


class QuadCap(Profile):
    """Test-only family F(x) = 1 - x - c x^2 on [0, x0), x0 the positive
    root of F.  Its det_core is 1 + 4cx - cx^2 >= 1 and its margin
    det_core / F^2 >= 1, and unlike the CLI families F slope is not
    constant, so A, the z_0 part of the extremal gradient field, is not
    zero (`hartogs.curvature`).  Every closed form is a polynomial of
    `_cap_forms` by Horner's rule, over a power of det_core."""

    __slots__ = params = ("c",)
    family = "quadcap"

    @property
    def x0(self) -> float:
        return (math.sqrt(1.0 + 4.0 * self.c) - 1.0) / (2.0 * self.c)

    @property
    def coefficients(self) -> tuple:
        """The coefficients of F, lowest degree first."""
        return (1.0, -1.0, -self.c)

    def _form(self, name, x):
        forms = _cap_forms(self.coefficients)
        numerator, k = forms[name]
        value = _horner(numerator, x)
        return value / power(_horner(forms["core"][0], x), k) if k else value

    def _f(self, x):
        return self._form("f", x)

    def _d1(self, x):
        return self._form("d1", x)

    def _d2(self, x):
        return self._form("d2", x)

    def _d3(self, x):
        return self._form("d3", x)

    def det_core(self, x):
        return self._form("core", x)

    def defect(self, x):
        return self._form("defect", x)

    def slope_d1(self, x):
        return self._form("slope_d1", x)

    def slope_d2(self, x):
        return self._form("slope_d2", x)


class CubicCap(QuadCap):
    """Test-only family F(x) = 1 - x - c x^2 - d x^3 on [0, x0), x0 the
    positive root of F.  F > 0 and F' + x F'' < 0 there, so det_core > 0.
    F''' = -6d is not zero, so neither are the F''' terms of A' and B' in
    `curvature_at`, which enter multiplied by A: on QuadCap F''' is 0, and
    on the CLI families A is."""

    __slots__ = ("d",)
    params = ("c", "d")
    family = "cubiccap"

    @property
    def x0(self) -> float:
        roots = Polynomial(self.coefficients).roots()
        return float(min(r.real for r in roots if r.imag == 0.0 and r.real > 0.0))

    @property
    def coefficients(self) -> tuple:
        return (1.0, -1.0, -self.c, -self.d)


#: two probes of A, largest at x = 0: A(0) = 28/3 and 468
QUADCAP_PROBES = [QuadCap(1.0 / 3.0), QuadCap(3.0)]


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
    """A profile of a CLI family, powercap:1.001 or the test-only `QuadCap`
    or `CubicCap`, a dimension, a margin and a seed; affine profiles keep
    x0 = c1/c2 >= 1."""
    c1 = draw(st.floats(0.5, 1e2))
    profile = draw(st.sampled_from([
        hg.Affine(c1, c1 * draw(st.floats(1e-2, 1.0))),
        hg.PowerCap(draw(st.sampled_from([0.5, 2.0, 1.001]) | st.floats(0.1, 50.0))),
        hg.ExpDecay(draw(st.sampled_from([1e-4, 1.0]) | st.floats(1e-4, 10.0))),
        hg.Rational(),
        QuadCap(draw(st.sampled_from([1.0 / 3.0, 3.0]) | st.floats(0.05, 10.0))),
        CubicCap(draw(st.sampled_from([1.0 / 3.0, 3.0]) | st.floats(0.05, 10.0)),
                 draw(st.sampled_from([1.0, 0.5]) | st.floats(0.05, 10.0))),
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
    """Test-side reference for the contraction `metric_derivative_along`
    and for `t_zbar_reference`: the Wirtinger derivatives of the metric at
    p in closed form, as (dg, dgbar) with dg[..., k, :, :] =
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


def jacobian_from_block(z, block):
    """Test-side n x n zbar-Jacobian z_a z_c block[a', c'] that a radial
    (..., 2, 2) block such as `CurvatureData.dbar` stands for at the points
    z, with a' = 0 for a = 0 and 1 for a fiber coordinate, likewise c'."""
    group = np.minimum(np.arange(z.shape[-1]), 1)
    return z[..., :, None] * z[..., None, :] * block[..., group[:, None], group[None, :]]


def t_zbar_reference(profile, p):
    """Test-side reference for the zbar-Jacobian of T at p, the
    `jacobian_from_block` of `CurvatureData.dbar`: dT/dzbar for
    T = K^T g, g = dbar scal, the long way round: K^T (S - E), with K the
    whole closed-form inverse metric, E[b, c] = sum_a T_a dh_ab/dzbar_c
    from the whole tensor of `metric_gradients`, and S the anti-holomorphic
    Hessian of scal, zero but for S00 = z_0^2 (slope'' gap + 2 slope' F' +
    slope F'') and S0i = Si0 = -slope' z_0 z_i.  It never reduces T to the
    radial functions A and B that `curvature_at` and the jet oracle share."""
    slope = -profile.defect(p.x) * p.f / p.det_core
    slope_d1 = profile.slope_d1(p.x)
    head = profile.slope_d2(p.x) * p.gap + 2.0 * slope_d1 * p.d1 + slope * p.d2
    row = p.z[..., :1] * p.z
    hess = np.zeros(p.z.shape + (p.n,), dtype=complex)
    hess[..., 0, :] = hess[..., :, 0] = row * -_radial(slope_d1, 1)
    hess[..., 0, 0] = row[..., 0] * head
    t = gradient_field_reference(profile, p)
    e = np.einsum("...cab,...a->...bc", metric_gradients(profile, p)[1], t)
    return np.swapaxes(inverse_metric_matrix(p), -1, -2) @ (hess - e)


def stencil_t_zbar(profile, z, step):
    """Test-side reference for t_zbar at one point z: column c is the
    central Wirtinger difference `ComplexStencil(step).d_zbar` of the
    gradient field T (`gradient_field_reference`) along zbar_c."""
    def t_of(w):
        return gradient_field_reference(profile, require_interior(profile, w))

    stencil = ComplexStencil(step)
    return np.stack([stencil.d_zbar(t_of, z, c) for c in range(len(z))], axis=-1)


def field_jet_reference(field, z):
    """Test-side reference for `HoloVectorField.jet` at one point z, in
    Python complex arithmetic: each monomial's powers by `**`, its product
    by `math.prod` and its sums by `+=` from 0j."""
    z = np.asarray(z, dtype=complex).tolist()
    n = field.n
    values = [0j] * n
    jac = [[0j] * n for _ in range(n)]
    for k, comp in enumerate(field.components):
        for coeff, exps in comp:
            powers = [(a, e) for a, e in enumerate(exps) if e]
            factors = [z[a] ** e for a, e in powers]
            values[k] += coeff * math.prod(factors)
            for i, (a, e) in enumerate(powers):
                lowered = factors[:i] + [z[a] ** (e - 1)] + factors[i + 1:]
                jac[k][a] += coeff * (e * math.prod(lowered))
    return np.array(values), np.array(jac)


#: SplitMix64's increment and finalizer, on Python ints
GAMMA, MASK = 0x9E3779B97F4A7C15, 2**64 - 1


def splitmix_finalizer(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class ReferenceStreams:
    """The samplers' draws on Python ints and floats, one at a time: draw
    i of the stream keyed k is SplitMix64's output i from state k, and a
    child's key is a draw of its parent.  `replace` maps (key, index) to a
    doctored draw, for the draws no seed reaches; `doctor_draws` gives the
    package the same ones.  Child keys are never doctored."""

    def __init__(self, replace=None):
        self.replace = replace or {}

    def draw(self, key, i):
        return self.replace.get((key, i), splitmix_finalizer((key + (i + 1) * GAMMA) & MASK))

    def child(self, key, j):
        return splitmix_finalizer((key + (j + 1) * GAMMA) & MASK)

    def uniform(self, key, i):
        return (self.draw(key, i) >> 11) * 2.0**-53

    def streams(self, seed):
        """The uniform and the phase stream's keys: the seed's 64-bit limbs
        folded from the lowest, from the number of limbs."""
        limbs = [(seed >> shift) & MASK for shift in range(0, max(seed.bit_length(), 1), 64)]
        key = len(limbs)
        for limb in limbs:
            key = splitmix_finalizer(((key + GAMMA) & MASK) ^ limb)
        return self.child(key, 0), self.child(key, 1)

    def disk(self, phase, slot):
        """(a, b, a^2 + b^2) of the first attempt of `slot` in the disk."""
        attempt = 0
        while True:
            draw = self.draw(self.child(phase, attempt), slot)
            a, b = (draw >> 32) - (2.0**31 - 0.5), (draw & (2**32 - 1)) - (2.0**31 - 0.5)
            if a * a + b * b < 2.0**62:
                return a, b, a * a + b * b
            attempt += 1

    def point(self, phase, row, n, x, radius):
        """The point of row `row` of a sample with |z_0|^2 = x and fiber
        radius `radius`: the phases and the squared radii of its n disk
        points, the spacings of the first n-2 squared radii sorted as the
        squared moduli of the fiber direction."""
        disk = [self.disk(phase, row * n + k) for k in range(n)]
        edges = [0.0, *sorted(r2 * 2.0**-62 for _, _, r2 in disk[:n - 2]), 1.0]
        square = [x] + [edges[k + 1] - edges[k] for k in range(n - 1)]
        z = []
        for k, ((a, b, r2), q) in enumerate(zip(disk, square)):
            scale = math.sqrt(q) / math.sqrt(r2)
            scale = scale if k == 0 else scale * radius
            z.append(complex(a * scale, b * scale))
        return z


def doctor_draws(monkeypatch, replace):
    """Give the package the doctored draws of `ReferenceStreams(replace)`."""
    real = hartogs.metric._draws

    def doctored(keys, index):
        out = real(keys, index)
        key = np.broadcast_to(np.array(keys, dtype=np.uint64, ndmin=1), out.shape)
        at = np.broadcast_to(np.asarray(index, dtype=np.uint64), out.shape)
        for (k, i), value in replace.items():
            out[(key == np.uint64(k)) & (at == np.uint64(i))] = np.uint64(value)
        return out

    monkeypatch.setattr(hartogs.metric, "_draws", doctored)


def disk_rounds(monkeypatch):
    """(slots, attempts per slot) of each disk round of
    `metric.stacked_points` from now on, in order."""
    rounds, real = [], hartogs.metric._landing

    def spied(stream, slots, first, count):
        rounds.append((len(slots), count))
        return real(stream, slots, first, count)

    monkeypatch.setattr(hartogs.metric, "_landing", spied)
    return rounds


def unreached_draws(seed, n, zero_x):
    """Doctored draws of the sample of this seed at dimension n that no
    seed is known to reach: slot 1 misses the disk in its first 8
    attempts, two rounds' worth; slot 2 lands at (-1/2, 1/2), next to the
    origin, and so does slot 2n, the z_0 phase of row 2; and uniform
    `zero_x` is 0, which gives the x = 0 of row 2, whose z_0 is then
    -0.0 + 0.0j."""
    ref = ReferenceStreams()
    uniform, phase = ref.streams(seed)
    nearest = ((2**31 - 1) << 32) | 2**31
    replace = {(ref.child(phase, t), 1): MASK if t % 2 else 0 for t in range(8)}
    replace |= {(ref.child(phase, 0), 2): nearest, (ref.child(phase, 0), 2 * n): nearest}
    replace[(uniform, zero_x)] = 0
    return replace


def interior_reference(seed, profile, n, count, margin, replace=None):
    """Test-side reference for `sample_interior`, one candidate at a time:
    candidate i takes uniforms 2i and 2i+1 (x, radius) and, if its budget
    is positive, row i of the phase stream."""
    ref = ReferenceStreams(replace)
    uniform, phase = ref.streams(seed)
    x_top = interior_x_max(profile)
    if not math.isinf(profile.x0):
        x_top = min(x_top, profile.x0 - margin)
    points, i = [], -1
    while len(points) < count:
        i += 1
        x = x_top * ref.uniform(uniform, 2 * i)
        budget = profile.eval(x) - margin
        if budget <= 0.0:
            continue
        radius = math.sqrt(budget) * ref.uniform(uniform, 2 * i + 1) ** (1.0 / (2 * (n - 1)))
        z = ref.point(phase, i, n, x, radius)
        p = hg.contains(profile, z)
        if p is not None and p.margin >= margin:
            points.append(z)
    return np.array(points)


def boundary_reference(seed, profile, n, count, replace=None):
    """Test-side reference for `boundary.sample_boundary`, one point at a
    time: point i takes uniform i (x) and row i of the phase stream."""
    ref = ReferenceStreams(replace)
    uniform, phase = ref.streams(seed)
    points = []
    for i in range(count):
        x = interior_x_max(profile) * ref.uniform(uniform, i)
        points.append(ref.point(phase, i, n, x, math.sqrt(profile.eval(x))))
    return np.array(points)
