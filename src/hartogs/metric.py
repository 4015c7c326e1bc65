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
single record or a stacked one (`stack`), whose z has shape (N, n) and
whose radial fields have shape (N,), and returns its arrays with the same
leading axis.  A point's entries have the same bits alone and in any stack.
The CLI evaluates one stacked record per run of at most BLOCK points
(`blocks`).  The kernel runs with numpy's divide, overflow and invalid
faults raised (`raises_fp_faults`), so a fault is one FloatingPointError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError, SamplingError, SingularityError
from .jet import Jet, JetPoint, log
from .profiles import Profile, interior_x_max

#: det_core below this is treated as a metric singularity
SINGULAR_TOL = 1e-14

#: the extremal oracle's stencil step far from the boundary
FD_BASE_STEP = 1e-4

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

    A stacked record (`stack`) holds N points: z of shape (N, n) and each
    radial field of shape (N,).
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


@dataclass(frozen=True)
class MetricData:
    """Metric matrix with determinant and closed-form inverse, with the
    leading point axis of a stacked record."""

    h: np.ndarray
    det: float
    h_inv: np.ndarray


_RADIAL = tuple(f.name for f in fields(DomainPoint))[1:]


def stack(points: Sequence[DomainPoint]) -> DomainPoint:
    """One stacked record of the given single records, in their order."""
    return DomainPoint(
        np.array([p.z for p in points]),
        *(np.array([getattr(p, name) for p in points]) for name in _RADIAL),
    )


def blocks(points: Sequence[DomainPoint]) -> list[Sequence[DomainPoint]]:
    """Consecutive runs of at most BLOCK points, in order."""
    return [points[start:start + BLOCK] for start in range(0, len(points), BLOCK)]


def each_point(fn, x):
    """fn, a closed form of one float, at x or at every x of a stack: one
    call per point, so that a value has the same bits in a stack."""
    if np.ndim(x) == 0:
        return fn(x)
    return np.array([fn(v) for v in x.tolist()])


def raises_fp_faults(fn):
    """Run fn with numpy's divide, overflow and invalid faults raised as
    FloatingPointError, an ArithmeticError, instead of a RuntimeWarning per
    array operation and a NaN in the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return fn(*args, **kwargs)

    return wrapper


def frobenius_norm(a: np.ndarray):
    """||a||_F over the last two axes, summed as `np.linalg.norm` sums one
    matrix (a dot product of the real parts plus one of the imaginary
    parts), so that a stacked matrix keeps the bits of a single one."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    re, im = flat.real, flat.imag
    square = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(square[..., 0, 0])


def _x_and_fiber(z) -> tuple[float, float]:
    """x = |z_0|^2 and the fiber norm |z_1|^2 + ... + |z_{n-1}|^2, summed
    in coordinate order over Python complex numbers."""
    z0, *fiber_part = np.asarray(z, dtype=complex).tolist()
    x = z0.real * z0.real + z0.imag * z0.imag
    fiber = 0.0
    for c in fiber_part:
        fiber += c.real * c.real + c.imag * c.imag
    return x, fiber


def x_and_gap(profile: Profile, z) -> tuple[float, float]:
    """(x, gap) at z: x = |z_0|^2 and gap = F(x) - |z_1|^2 - ... - |z_{n-1}|^2.

    Raises DomainError when x lies outside [0, x0), where F is undefined;
    a gap <= 0 (z outside the domain) is returned as it is, for the caller
    to treat.
    """
    x, fiber = _x_and_fiber(z)
    return x, profile.eval(x) - fiber


def jet_x_and_gap(profile: Profile, w: JetPoint) -> tuple[Jet, Jet]:
    """(x, gap) as jets over the real coordinates of w, from F alone (see
    `x_and_gap`)."""
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


def point_record(profile: Profile, z, on_boundary: bool = False) -> DomainPoint:
    """The record of z, its radial data each evaluated once, with margin
    0.0 `on_boundary`.  Raises DomainError where x lies outside [0, x0); a
    gap <= 0 is kept, for the caller to treat.  det_core is not checked
    here: `nonsingular_core` is applied by the consumers that divide by it."""
    z = np.asarray(z, dtype=complex)
    if z.size < 2:
        raise ValueError("points need at least two complex coordinates")
    x, fiber = _x_and_fiber(z)
    f = profile.eval(x)
    gap = f - fiber
    if on_boundary:
        margin = 0.0
    else:
        margin = gap if math.isinf(profile.x0) else min(gap, profile.x0 - x)
    return DomainPoint(
        z, x, gap, margin, f, profile.eval(x, 1), profile.eval(x, 2), profile.det_core(x)
    )


def contains(profile: Profile, z) -> DomainPoint | None:
    """Membership test; returns the point record, or None if z is outside."""
    try:
        p = point_record(profile, z)
    except DomainError:
        return None
    return None if p.gap <= 0.0 else p


def require_interior(profile: Profile, z) -> DomainPoint:
    p = contains(profile, z)
    if p is None:
        raise DomainError(f"point {z!r} is not interior to the {profile.label()} domain")
    return p


def kahler_potential(profile: Profile, z) -> float | Jet:
    """Potential Phi(z) = -log(gap(z)); NaN outside the domain.

    z may also be a `JetPoint`: Phi is then a `Jet`, whose Hessian is exact
    to rounding (`metric_fd_oracle` reads the metric off it).
    """
    try:
        gap = (jet_x_and_gap if isinstance(z, JetPoint) else x_and_gap)(profile, z)[1]
    except DomainError:
        return math.nan
    if gap <= 0.0:
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


@raises_fp_faults
def metric_gradients(profile: Profile, p: DomainPoint) -> tuple[np.ndarray, np.ndarray]:
    """Wirtinger derivatives of the metric at p in closed form, as
    (dg, dgbar) with dg[..., k, :, :] = dh/dz_k and dgbar[..., k, :, :] =
    dh/dzbar_k, which is the conjugate transpose of dg[..., k, :, :] since
    h is Hermitian.

    Differentiating h = (d^2 Phi / dz_a dzbar_b), Phi = -log(gap), with
    subscripts for derivatives of gap and a bar on index b throughout:

        d_k h_ab = -gap_kab/gap + (gap_ab gap_k + gap_ka gap_b + gap_a gap_kb)/gap^2
                   - 2 gap_k gap_a gap_b/gap^3,

    where gap_0 = F' zbar_0, gap_i = -zbar_i, the mixed second derivatives
    are diag(F' + F'' x, -1, ..., -1), the only holomorphic one is
    gap_00 = F'' zbar_0^2, and the only third one is
    gap_000bar = zbar_0 (2 F'' + x F''').  F''' is read here, one call per
    point, not kept in the point record, since nothing else needs it.
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
    third = 2.0 * d2 + x * each_point(lambda v: profile.eval(v, 3), x)
    dg[..., 0, 0, 0] -= _complex(re0 * third / gap, -im0 * third / gap)
    return dg, np.swapaxes(dg.conj(), -1, -2)


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


def fiber_direction(rng: np.random.Generator, n: int) -> tuple[np.ndarray, float]:
    """A standard Gaussian vector in C^(n-1) and its norm: its direction is
    uniform on the unit sphere.  A norm at or below 1e-12, which gives no
    usable direction, is drawn again."""
    while True:
        # one draw of both halves: the same normals, in the same order, as
        # a draw of the real parts followed by one of the imaginary parts
        parts = rng.normal(size=2 * (n - 1))
        direction = parts[: n - 1] + 1j * parts[n - 1 :]
        norm = np.linalg.norm(direction)
        if norm > 1e-12:
            return direction, norm


def sample_interior(
    profile: Profile,
    n: int,
    count: int,
    seed: int,
    min_margin: float = 0.05,
) -> list[DomainPoint]:
    """Deterministic interior points with margin >= min_margin.

    |z_0|^2 is drawn uniformly below both the radial clearance bound and,
    for finite x0, x0 - min_margin, with a uniform phase.  The fiber vector
    is uniform in the ball of real dimension 2(n-1) and radius sqrt(budget),
    budget = F(|z_0|^2) - min_margin.  The margin is then checked exactly.
    Same seed, same points.
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

    points: list[DomainPoint] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > _MAX_SAMPLE_ATTEMPTS:
            raise SamplingError(
                f"no interior point with margin >= {min_margin} found in "
                f"{_MAX_SAMPLE_ATTEMPTS} attempts for {profile.label()}"
            )
        # bit for bit rng.uniform(0.0, high), which is 0.0 + high * rng.random()
        x = x_top * rng.random()
        budget = profile.eval(x) - min_margin
        if budget <= 0.0:
            continue
        z = np.empty(n, dtype=complex)
        theta = 2.0 * math.pi * rng.random()
        z[0] = math.sqrt(x) * complex(math.cos(theta), math.sin(theta))
        direction, norm = fiber_direction(rng, n)
        radius = math.sqrt(budget) * rng.random() ** (1.0 / (2 * (n - 1)))
        z[1:] = direction * (radius / norm)
        p = contains(profile, z)
        if p is not None and p.margin >= min_margin:
            points.append(p)
    return points


def fd_stencil_for(p: DomainPoint):
    """Stencil for the first-difference extremal oracle at p, with the step
    shrunk to the local scale.

    Quantities built on -log(gap) steepen like 1/gap towards the boundary
    and like F' in the radial direction, so the step is proportional to
    the margin per unit of radial gradient.  It never exceeds
    FD_BASE_STEP, and the 10-step interiority contract holds automatically.
    """
    from .wirtinger import ComplexStencil

    scale = min(1.0, p.margin / (1.0 + abs(p.d1) * math.sqrt(p.x)))
    return ComplexStencil(step=FD_BASE_STEP * scale)


def metric_fd_oracle(profile: Profile, p: DomainPoint) -> np.ndarray:
    """Independent metric oracle: the mixed complex Hessian of the
    potential, from one second-order jet of `kahler_potential` over the
    real coordinates of p.  It reads F and nothing else of the profile, and
    its entries are exact to rounding.  The `fd` in the name is historical;
    the benchmark's tracer looks the oracle up by it."""
    w = JetPoint(p.z)
    phi = kahler_potential(profile, w)
    if not isinstance(phi, Jet):
        raise NumericError(f"potential undefined at {p.z!r}")
    return w.hessian_z_zbar(phi)
