"""Closed-form assembly of the Kahler metric of a profile domain.

The domain carries the potential Phi = -log(gap) with

    gap(z) = F(|z_0|^2) - |z_1|^2 - ... - |z_{n-1}|^2,

whose mixed complex Hessian h = (d^2 Phi / dz_alpha dzbar_beta) is assembled
entrywise here, together with its determinant and inverse in closed form.
Writing x = |z_0|^2 and priming F in x:

    h[0,0]   = num00 / gap^2,   num00 = x F'^2 - (F' + F'' x) gap
    h[0,b]   = -F' zbar_0 z_b / gap^2                    (b >= 1)
    h[a,b]   = (delta_ab gap + zbar_a z_b) / gap^2       (a, b >= 1)

    det h    = det_core(x) / gap^(n+1)

    hinv[0,0] = gap F / det_core
    hinv[b,0] = gap F' z_0 zbar_b / det_core             (b >= 1)
    hinv[b,a] = gap (F' + F'' x) z_a zbar_b / det_core   (a != b, a,b >= 1)
    hinv[b,b] = gap (det_core + (F' + F'' x) |z_b|^2) / det_core

All of it is read from the point record `DomainPoint` (z and its radial
data x, gap, F, F', F'' and det_core), evaluated once per point by
`point_record`.  The closed-form inverse is the artifact under test: it is
only *verified* against dense inversion, never replaced by it.

The closed forms are written once, over a leading point axis: each takes a
single record or a stacked one, built by one `point_record` call, whose z
has shape (N, n) and whose radial fields have shape (N,), and returns its
arrays with the same leading axis.  A point's entries have the same bits
alone and in any stack.  The CLI evaluates one stacked record per run of
BLOCK points (`blocks`); the first derivatives of h are only formed
contracted with a vector, in O(n^2) per point.  The kernel runs with
numpy's divide, overflow and invalid faults raised (`raises_fp_faults`),
so a fault is one FloatingPointError; the records are built with the
faults of Python's floats (`errors.float_faults`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DomainError, NumericError, SamplingError, SingularityError, float_faults, raises_fp_faults,
)
from .jet import Jet, JetPoint, log
from .profiles import Profile, interior_x_max

#: det_core below this is treated as a metric singularity
SINGULAR_TOL = 1e-14

_MAX_SAMPLE_ATTEMPTS = 100_000

#: the most points in one stacked record on the CLI paths
BLOCK = 256


@dataclass(frozen=True)
class DomainPoint:
    """Interior or boundary point with its radial data, built by
    `point_record` through `contains` or `boundary.boundary_point`.

    `x` is |z_0|^2, `gap` the slack in the fiber inequality, and `margin`
    the smaller of `gap` and the distance x0 - x to the radial bound, or
    0.0 at a boundary point, which the metric and its oracles refuse.
    `f`, `d1` and `d2` are F, F' and F'' at x, and `det_core` is
    det_core(x).  Every per-point quantity of the package is a function of
    these and of z.

    A stacked record holds N points, z of shape (N, n) and each radial
    field of shape (N,): a sequence of single records, sliced or masked.
    """

    z: np.ndarray
    x: float
    gap: float
    margin: float
    f: float
    d1: float
    d2: float
    det_core: float

    @property
    def n(self) -> int:
        return self.z.shape[-1]

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index) -> DomainPoint:
        return DomainPoint(*(getattr(self, name)[index] for name in _FIELDS))


@dataclass(frozen=True)
class MetricData:
    """Metric matrix with determinant and closed-form inverse, with the
    leading point axis of a stacked record."""

    h: np.ndarray
    det: float
    h_inv: np.ndarray


_FIELDS = tuple(f.name for f in fields(DomainPoint))


def blocks(points: DomainPoint) -> list[DomainPoint]:
    """Consecutive runs of BLOCK points (fewer in the last) of a stacked
    record, in order, each a stacked record."""
    return [points[start:start + BLOCK] for start in range(0, len(points), BLOCK)]


def frobenius_norm(a: np.ndarray):
    """||a||_F over the last two axes, summed as `np.linalg.norm` sums one
    matrix (a dot product of the real parts plus one of the imaginary
    parts), so that a stacked matrix keeps the bits of a single one."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    re, im = flat.real, flat.imag
    square = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(square[..., 0, 0])


def relative_norm(a: np.ndarray, h: np.ndarray):
    """||a||_F / (1 + ||h||_F) over the last two axes: the size of a
    residual or difference a relative to the matrix h it is measured on."""
    return frobenius_norm(a) / (1.0 + frobenius_norm(h))


def _x_and_fiber(z):
    """x = |z_0|^2 and the fiber norm |z_1|^2 + ... + |z_{n-1}|^2 of z, or
    of each point of a stack, summed in coordinate order along each row
    (a cumulative sum adds one term at a time)."""
    z = np.asarray(z, dtype=complex)
    square = z.real * z.real + z.imag * z.imag
    return square[..., 0], np.cumsum(square[..., 1:], axis=-1)[..., -1]


def jet_x_and_gap(profile: Profile, w: JetPoint) -> tuple[Jet, Jet]:
    """(x, gap) as stacked jets over the real coordinates of w, from F
    alone: the oracles' path to the radial data, independent of
    `point_record`, with the bits of its x and gap."""
    x = w.norm_sq(0, 1)
    return x, profile.eval(x) - w.norm_sq(1, w.n)


def nonsingular_core(core, x):
    """det_core itself, or SingularityError where it is below SINGULAR_TOL
    (at the first such point of a stack): the metric is singular there, or
    the profile not pseudoconvex."""
    singular = np.less(core, SINGULAR_TOL)
    if singular.any():
        i = np.argmax(singular)
        raise SingularityError(
            f"det_core(x)={float(np.ravel(core)[i])!r} at x={float(np.ravel(x)[i])!r}: "
            "metric singular or profile not pseudoconvex"
        )
    return core


@float_faults
def point_record(profile: Profile, z, on_boundary: bool = False) -> DomainPoint:
    """The record of a point z, or the stacked record of a stack z of shape
    (N, n) from one call of each closed form, with margin 0.0 `on_boundary`;
    a single point is row 0 of a one-point stack.  Raises DomainError at the
    first x outside [0, x0); a gap <= 0 is kept, for the caller to treat.
    det_core is checked by the consumers that divide by it."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 or z.shape[-1] < 2:
        raise ValueError("points need at least two complex coordinates")
    single, z = z.ndim == 1, z.reshape(-1, z.shape[-1])
    x, fiber = _x_and_fiber(z)
    f = profile.eval(x)
    gap = f - fiber
    reach = profile.x0 - x
    # min(gap, x0 - x) as Python's min picks it, also where x0 is inf
    margin = np.zeros_like(gap) if on_boundary else np.where(reach < gap, reach, gap)
    p = DomainPoint(
        z, x, gap, margin, f, profile.eval(x, 1), profile.eval(x, 2), profile.det_core(x)
    )
    return p[0] if single else p


def contains(profile: Profile, z) -> DomainPoint | None:
    """Membership test: the record of z, or None if z is outside; on a
    stack, the stacked record of its points inside, in order, or None if x
    lies outside [0, x0) at any of them, where `point_record` raises.  A
    record is never written to, so where every point is inside it is
    `point_record`'s own, not a masked copy."""
    try:
        p = point_record(profile, z)
    except DomainError:
        return None
    inside = ~(p.gap <= 0.0)
    if np.ndim(inside) == 0:
        return p if inside else None
    return p if inside.all() else p[inside]


def require_interior(profile: Profile, z) -> DomainPoint:
    """The record of an interior point z, or the stacked record of a stack
    of them; DomainError names the first point that is not interior."""
    z = np.asarray(z, dtype=complex)
    p = contains(profile, z)
    if p is not None and p.z.shape == z.shape:
        return p
    first = z if z.ndim == 1 else next(w for w in z if contains(profile, w) is None)
    raise DomainError(f"point {first!r} is not interior to the {profile.label()} domain")


def kahler_potential(profile: Profile, z) -> float | Jet:
    """Potential Phi(z) = -log(gap(z)); NaN outside the domain.  On a stack
    of points it is Phi at each of them, or NaN if any lies outside.

    z may also be a `JetPoint`: Phi is then a stacked `Jet`, whose Hessian
    is exact to rounding (`metric_fd_oracle` reads the metric off it).
    """
    try:
        jet = isinstance(z, JetPoint)
        gap = jet_x_and_gap(profile, z)[1] if jet else point_record(profile, z).gap
    except DomainError:
        return math.nan
    if np.any(gap <= 0.0):
        return math.nan
    return -log(gap)


def _radial(value, axes: int) -> np.ndarray:
    """A radial field with `axes` trailing unit axes, to broadcast against
    arrays indexed by coordinates."""
    return np.asarray(value)[(...,) + (None,) * axes]


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _product(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi), formed as Python
    forms a complex product: numpy's complex multiply fuses multiply-adds
    on some CPUs, so its last bits would depend on the machine."""
    return ar * br - ai * bi, ar * bi + ai * br


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each matrix of a C-contiguous a."""
    return a.reshape(a.shape[:-2] + (-1,))[..., :: a.shape[-1] + 1]


@functools.lru_cache(maxsize=None)
def _lower(n: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the strict lower triangle of the trailing block
    [start:, start:] of an n x n matrix."""
    rows, cols = np.tril_indices(n - start, -1)
    return rows + start, cols + start


def _mirror(re: np.ndarray, im: np.ndarray, start: int = 0) -> None:
    """Set the strict lower triangle of the block [start:, start:] to the
    conjugate of the upper one."""
    rows, cols = _lower(re.shape[-1], start)
    re[..., rows, cols] = re[..., cols, rows]
    im[..., rows, cols] = -im[..., cols, rows]


@raises_fp_faults
def metric_matrix(p: DomainPoint) -> np.ndarray:
    """Closed-form metric matrix at p, shape (..., n, n), Hermitian by
    construction: the lower triangle mirrors the conjugated upper one.  It
    does not divide by det_core, so it also works where the metric
    degenerates.

    Above the diagonal, entry [a, b] is conj(w_a) z_b / gap^2 with
    w_0 = -F' z_0 and w_a = z_a below, as in the module docstring."""
    re, im = p.z.real, p.z.imag
    row_re, row_im = re.copy(), -im
    row_re[..., 0] = -p.d1 * re[..., 0]
    row_im[..., 0] = p.d1 * im[..., 0]
    h_re, h_im = _product(
        row_re[..., :, None], row_im[..., :, None], re[..., None, :], im[..., None, :]
    )
    _mirror(h_re, h_im)
    diagonal = _diagonal(h_re)
    diagonal[..., 0] = p.x * p.d1 * p.d1 - (p.d1 + p.d2 * p.x) * p.gap
    diagonal[..., 1:] = (_radial(p.gap, 1) + re[..., 1:] * re[..., 1:]) + im[..., 1:] * im[..., 1:]
    _diagonal(h_im)[...] = 0.0
    gap2 = _radial(p.gap * p.gap, 2)
    return _complex(h_re / gap2, h_im / gap2)


def _times(a, b) -> np.ndarray:
    """The complex product a b, entrywise and broadcast, by `_product`."""
    return _complex(*_product(a.real, a.imag, b.real, b.imag))


def _gradient_parts(profile: Profile, p: DomainPoint, w: np.ndarray):
    """(g1, mix, gap, gap_00, gap_000bar, g1.w) at p, each with a trailing
    axis of length n or 1 to broadcast against the vectors w[..., k]: the
    derivatives of gap in the first derivatives of h (derived in full in
    the tests' reference tensor, `conftest.metric_gradients`), with
    g1 = (F' zbar_0, -zbar_1, ...), mix = (F' + F'' x, -1, ...) the
    diagonal of the mixed ones, gap_00 = F'' zbar_0^2 and gap_000bar =
    zbar_0 (2 F'' + x F''').  F''' is read here, once per point."""
    bar0 = np.conj(p.z[..., 0])
    g1 = -np.conj(p.z)
    g1[..., 0] = p.d1 * bar0
    mix = np.full(p.z.shape, -1.0)
    mix[..., 0] = p.d1 + p.d2 * p.x
    third = 2.0 * p.d2 + p.x * profile.eval(p.x, 3)
    radial = (p.gap, p.d2 * _times(bar0, bar0), third * bar0)
    return (g1, mix, *(_radial(a, 1) for a in radial), _times(g1, w).sum(axis=-1, keepdims=True))


@raises_fp_faults
def metric_derivative_along(profile: Profile, p: DomainPoint, v) -> np.ndarray:
    """D[..., a, b] = sum_k v_k dh_ab/dz_k at p, O(n^2) per point, from
    s = g1.v and the parts of `_gradient_parts`; v[..., k] broadcasts
    against p.z, with any axes that index vectors leading, as D's do:

        D = s diag(mix)/gap^2 + g1 (x) (mix v - 2 s conj(g1)/gap)/gap^2
            + v_0 gap_00/gap^2 e_0 (x) conj(g1) - v_0 gap_000bar/gap e_0 (x) e_0."""
    v = np.asarray(v, dtype=complex)
    g1, mix, gap, hol, third, s = _gradient_parts(profile, p, v)
    bar, gap2 = g1.conj(), gap * gap
    d = _times((g1 / gap2)[..., :, None], (mix * v - 2.0 * _times(s, bar) / gap)[..., None, :])
    _diagonal(d)[...] += s * mix / gap2
    d[..., 0, :] += _times(_times(v[..., :1], hol) / gap2, bar)
    d[..., 0, :1] -= _times(v[..., :1], third) / gap
    return d


@raises_fp_faults
def metric_derivative_against(profile: Profile, p: DomainPoint, t) -> np.ndarray:
    """E[..., b, c] = sum_a t_a dh_ab/dzbar_c at p, O(n^2) per point, for
    t[..., a] with the point axes of p, from s = g1.t and
    Y = (mix t - s conj(g1)/gap) (x) conj(g1)/gap^2:

        E = Y + Y^T + (conj(gap_00) s/gap^2 - t_0 conj(gap_000bar)/gap) e_0 (x) e_0."""
    t = np.asarray(t, dtype=complex)
    g1, mix, gap, hol, third, s = _gradient_parts(profile, p, t)
    bar, gap2 = g1.conj(), gap * gap
    half = _times((mix * t - _times(s, bar) / gap)[..., :, None], bar[..., None, :])
    e = (half + np.swapaxes(half, -1, -2)) / gap2[..., None]
    e[..., 0, :1] += _times(hol.conj(), s) / gap2 - _times(t[..., :1], third.conj()) / gap
    return e


@raises_fp_faults
def inverse_metric_matrix(p: DomainPoint) -> np.ndarray:
    """Closed-form inverse metric at p, shape (..., n, n); raises
    SingularityError where det_core is below SINGULAR_TOL.

    Entry [b, a] is (gap/det_core) c_a z_a zbar_b with c_0 = F' and
    c_a = F' + F'' x, off the diagonal in column 0 and above it in the
    fiber block; the conjugates mirror it, and the diagonal has its own
    closed forms."""
    re, im = p.z.real, p.z.imag
    core = nonsingular_core(p.det_core, p.x)
    mix = p.d1 + p.d2 * p.x
    s = p.gap / core
    scale = np.empty(re.shape)
    scale[..., 0] = s * p.d1
    scale[..., 1:] = _radial(s * mix, 1)
    k_re, k_im = _product(
        (scale * re)[..., None, :], (scale * im)[..., None, :], re[..., :, None], -im[..., :, None]
    )
    k_re[..., 0, 1:] = k_re[..., 1:, 0]
    k_im[..., 0, 1:] = -k_im[..., 1:, 0]
    _mirror(k_re, k_im, 1)
    diagonal = _diagonal(k_re)
    diagonal[..., 0] = s * p.f
    diagonal[..., 1:] = _radial(s, 1) * (
        _radial(core, 1) + _radial(mix, 1) * (re[..., 1:] * re[..., 1:] + im[..., 1:] * im[..., 1:])
    )
    _diagonal(k_im)[...] = 0.0
    return _complex(k_re, k_im)


@raises_fp_faults
def assemble_metric(profile: Profile, p: DomainPoint) -> MetricData:
    """Metric, determinant and closed-form inverse at an interior point, or
    at every point of a stack, all read from its record; the profile is not
    evaluated again."""
    if np.any(np.less_equal(p.margin, 0.0)):
        raise DomainError("metric requested at a non-interior point")
    h_inv = inverse_metric_matrix(p)
    # float_power calls the C library's pow, as Python's float ** int does
    det = p.det_core / np.float_power(p.gap, p.n + 1)
    return MetricData(h=metric_matrix(p), det=det, h_inv=h_inv)


def fiber_parts(rng: np.random.Generator, n: int, out: np.ndarray) -> None:
    """Fill the row `out` with the real then the imaginary parts of a
    standard Gaussian vector in C^(n-1), drawn in place and again while its
    norm, at least |out[0]| to rounding, is at or below 1e-12, which gives
    no usable direction.  The stream is `rng.normal(size=2 * (n - 1))`'s,
    which returns 0.0 + 1.0 * each draw: the caller adds 0.0 to its rows
    once, turning a -0.0 into 0.0 as that sum does."""
    while True:
        rng.standard_normal(out=out)
        if abs(out[0]) > 2e-12 or np.linalg.norm(out[: n - 1] + 1j * out[n - 1 :]) > 1e-12:
            return


def stacked_points(x, theta, parts, radius) -> np.ndarray:
    """The (N, n) points with |z_0|^2 = x, arg z_0 = theta and a fiber
    vector of length `radius` along each row of the (N, 2(n-1)) array
    `parts` (`fiber_parts`), all arrays of N entries, with the bits of one
    point at a time: z_0 = sqrt(x) (cos + i sin) as Python forms that
    product, the fiber divided by its `np.linalg.norm`."""
    k = parts.shape[1] // 2
    direction = parts[:, :k] + 1j * parts[:, k:]
    # the norm of each row, summed as np.linalg.norm sums one vector
    norm = frobenius_norm(direction[:, None, :])
    z = np.empty((len(x), k + 1), dtype=complex)
    cos = np.fromiter(map(math.cos, theta.tolist()), float, len(x))
    sin = np.fromiter(map(math.sin, theta.tolist()), float, len(x))
    z[:, 0] = _complex(*_product(np.sqrt(x), 0.0, cos, sin))
    z[:, 1:] = direction * (radius / norm)[:, None]
    return z


def sample_interior(
    profile: Profile,
    n: int,
    count: int,
    seed: int,
    min_margin: float = 0.05,
) -> DomainPoint:
    """Deterministic interior points with margin >= min_margin, as one
    stacked record.

    |z_0|^2 is drawn uniformly below both the radial clearance bound and,
    for finite x0, x0 - min_margin, with a uniform phase.  The fiber vector
    is uniform in the ball of real dimension 2(n-1) and radius sqrt(budget),
    budget = F(|z_0|^2) - min_margin.  The margin is then checked exactly.
    Same seed, same points: the draws are made point by point, in the
    order of a sampler that builds each point before the next, each
    written into a row preallocated for its round.  A round draws as many
    candidates as points are missing, or as attempts are left if fewer,
    and builds and tests them at once, so no draw is made past the last
    point kept.  SamplingError says how many points were found when the
    attempts run out.
    """
    if count <= 0:
        raise ValueError("sample count must be positive")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    x_top = interior_x_max(profile)
    if not math.isinf(profile.x0):
        x_top = min(x_top, profile.x0 - min_margin)
    if x_top <= 0.0:
        raise SamplingError(
            f"min_margin={min_margin} leaves no admissible |z_0|^2 range for {profile.label()}"
        )

    runs: list[DomainPoint] = []
    found = attempts = 0
    while found < count:
        rows = min(count - found, _MAX_SAMPLE_ATTEMPTS - attempts)
        if rows == 0:
            which = f"only {found} of {count} interior points" if found else "no interior point"
            raise SamplingError(
                f"{which} with margin >= {min_margin} found in "
                f"{_MAX_SAMPLE_ATTEMPTS} attempts for {profile.label()}"
            )
        # per candidate: x, budget, the theta uniform and the radius uniform
        draws, parts = np.empty((4, rows)), np.empty((rows, 2 * (n - 1)))
        kept = 0
        while kept < rows and attempts < _MAX_SAMPLE_ATTEMPTS:
            attempts += 1
            # bit for bit rng.uniform(0.0, high), which is 0.0 + high * rng.random()
            x = x_top * rng.random()
            budget = profile.eval(x) - min_margin
            if budget <= 0.0:
                continue
            draws[0, kept], draws[1, kept], draws[2, kept] = x, budget, rng.random()
            fiber_parts(rng, n, parts[kept])
            draws[3, kept] = rng.random()
            kept += 1
        if kept == 0:
            continue  # the attempts ran out: the next pass raises
        xs, budgets, thetas, uniforms = draws[:, :kept]
        parts = parts[:kept] + 0.0
        radius = np.sqrt(budgets) * np.float_power(uniforms, 1.0 / (2 * (n - 1)))
        p = contains(profile, stacked_points(xs, 2.0 * math.pi * thetas, parts, radius))
        passed = p.margin >= min_margin
        runs.append(p if passed.all() else p[passed])
        found += len(runs[-1])
    if len(runs) == 1:
        return runs[0]
    return DomainPoint(*(np.concatenate([getattr(r, name) for r in runs]) for name in _FIELDS))


def metric_fd_oracle(profile: Profile, p: DomainPoint) -> np.ndarray:
    """Independent metric oracle: the mixed complex Hessian of the
    potential, from one second-order jet of `kahler_potential` stacked over
    the real coordinates of the points of p (a single record is row 0 of a
    one-point stack).  It reads F and nothing else of the profile, and its
    entries are exact to rounding.  NumericError names the first point
    where x is outside [0, x0) or the gap is not positive.  The `fd` in the
    name is historical; the benchmark's tracer looks the oracle up by it."""
    w = JetPoint(p.z)
    phi = kahler_potential(profile, w)
    if not isinstance(phi, Jet):
        x, fiber = w.norm_sq(0, 1).val, w.norm_sq(1, w.n).val
        inside = (0.0 <= x) & (x < profile.x0)
        undefined = ~inside | (profile.eval(np.where(inside, x, 0.0)) - fiber <= 0.0)
        raise NumericError(f"potential undefined at {w.z[np.argmax(undefined)]!r}")
    h = w.hessian_z_zbar(phi)
    return h if p.z.ndim > 1 else h[0]
