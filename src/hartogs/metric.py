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

#: the most candidates one round of `sample_interior` draws
ROUND = 16 * BLOCK


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


@raises_fp_faults
def metric_derivative_along(profile: Profile, p: DomainPoint, v) -> np.ndarray:
    """D[..., a, b] = sum_k v_k dh_ab/dz_k at p, O(n^2) per point; v[..., k]
    broadcasts against p.z, with any axes that index vectors leading, as
    D's do.  It is built from the derivatives of gap (derived in full in
    the tests' reference tensor, `conftest.metric_gradients`):
    g1 = (F' zbar_0, -zbar_1, ...), mix = (F' + F'' x, -1, ...) the
    diagonal of the mixed ones, gap_00 = F'' zbar_0^2 and gap_000bar =
    zbar_0 (2 F'' + x F'''), with s = g1.v:

        D = s diag(mix)/gap^2 + g1 (x) (mix v - 2 s conj(g1)/gap)/gap^2
            + v_0 gap_00/gap^2 e_0 (x) conj(g1) - v_0 gap_000bar/gap e_0 (x) e_0.

    F''' is read here, once per point."""
    v = np.asarray(v, dtype=complex)
    bar0 = np.conj(p.z[..., 0])
    g1 = -np.conj(p.z)
    g1[..., 0] = p.d1 * bar0
    mix = np.full(p.z.shape, -1.0)
    mix[..., 0] = p.d1 + p.d2 * p.x
    third = 2.0 * p.d2 + p.x * profile.eval(p.x, 3)
    gap, hol, third = (_radial(a, 1) for a in (p.gap, p.d2 * _times(bar0, bar0), third * bar0))
    s = _times(g1, v).sum(axis=-1, keepdims=True)
    bar, gap2 = g1.conj(), gap * gap
    d = _times((g1 / gap2)[..., :, None], (mix * v - 2.0 * _times(s, bar) / gap)[..., None, :])
    _diagonal(d)[...] += s * mix / gap2
    d[..., 0, :] += _times(_times(v[..., :1], hol) / gap2, bar)
    d[..., 0, :1] -= _times(v[..., :1], third) / gap
    return d


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


#: SplitMix64's increment (the golden ratio in 64 bits) and its
#: finalizer's two multipliers
_GAMMA, _MULTIPLY = 0x9E3779B97F4A7C15, (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MASK = 2**64 - 1
#: the integer constants of the draws as numpy scalars, built once
_U64 = {v: np.uint64(v) for v in (_GAMMA, *_MULTIPLY, 11, 27, 30, 31, 32, 2**32 - 1)}

#: the disk of `stacked_points`: its attempts are the points of the grid
#: (Z + 1/2)^2 in the square of side 2^32 about 0, kept below radius 2^31
_HALF_SIDE = 2.0**31 - 0.5
_DISK = 2.0**62

#: disk attempts drawn at once for each slot left in a round of
#: `stacked_points`
DISK_BATCH = 6


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of each entry of a uint64 array, in place
    (numpy's integer arrays wrap modulo 2^64 without a warning, where its
    scalars warn)."""
    z ^= z >> _U64[30]
    z *= _U64[_MULTIPLY[0]]
    z ^= z >> _U64[27]
    z *= _U64[_MULTIPLY[1]]
    z ^= z >> _U64[31]
    return z


def _draws(keys, index) -> np.ndarray:
    """Draws `index` (an integer array) of the stream keyed by `keys`, an
    int, or of the streams of an array of keys broadcast against it along
    its last axis: SplitMix64's outputs from state key, the finalizer of
    key + (index + 1) gamma modulo 2^64.  Each draw is a pure function of
    its key and index, an integer expression with the same bits on every
    machine."""
    keys = np.array(keys, dtype=np.uint64, ndmin=1) + _U64[_GAMMA]
    return _mix(np.asarray(index, dtype=np.uint64) * _U64[_GAMMA] + keys)


def uniforms(key: int, index) -> np.ndarray:
    """Uniforms in [0, 1) from draws `index` of the stream keyed by `key`:
    the top 53 bits of each draw times 2^-53."""
    return (_draws(key, index) >> _U64[11]).astype(float) * 2.0**-53


def sample_streams(seed: int) -> tuple[int, int]:
    """The keys of the uniform and the phase stream of a sample: draws 0
    and 1 of the stream keyed by every 64-bit limb of the non-negative
    seed, folded from the lowest as key = mix((key + gamma) ^ limb) from
    key = the number of limbs; a seed below 2^64 has one limb, 0 too.  A
    stream's draws are the keys of its child streams, and a stream is
    drawn from or has children, never both."""
    limbs = [(seed >> shift) & _MASK for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = np.array([len(limbs)], dtype=np.uint64)
    for limb in limbs:
        key = _mix((key + _U64[_GAMMA]) ^ np.uint64(limb))
    return tuple(int(k) for k in _draws(key, np.arange(2)))


def stacked_points(stream: int, rows, n: int, x, radius) -> np.ndarray:
    """The (N, n) points of the N row numbers `rows` of a sample with
    |z_0|^2 = x and a fiber vector of length `radius` (arrays of N
    entries), with a uniform phase of z_0 and a fiber direction uniform on
    the unit sphere of C^(n-1); row r is a function of (stream, r, n)
    alone, and of its x and radius.

    Slot s = rn + k of row r gives the point (a_k, b_k) of the disk
    a^2 + b^2 < 2^62 reached by the first attempt t = 0, 1, ... that lands
    in it: the high and low 32 bits of draw s of child t of the phase
    stream, less 2^31 - 1/2.  So a rejection moves no other slot's draws,
    and no attempt is 0.  The angle of (a_k, b_k) is the phase of z_k, and
    r_k^2 = a_k^2 + b_k^2 over 2^62, independent of it, is uniform: the
    squared moduli q_1, ..., q_{n-1} of the fiber direction are the
    spacings of r_0^2, ..., r_{n-3}^2 sorted, uniform on the simplex as the
    squared moduli of a uniform point of the sphere are.  Then
    z_0 = (a_0 + i b_0) (sqrt(x) / sqrt(a_0^2 + b_0^2)) and
    z_k = (a_k + i b_k) ((sqrt(q_k) / sqrt(a_k^2 + b_k^2)) radius).  Only
    + - * /, sqrt, sort and comparisons are used, each correctly rounded,
    so a point has the same bits on every machine.  A round draws
    DISK_BATCH attempts of each slot left at once, and a first round of
    more than ROUND slots one, which changes no bit."""
    rows = np.asarray(rows, dtype=np.uint64)
    slots = (rows[:, None] * np.uint64(n) + np.arange(n, dtype=np.uint64)).reshape(-1)
    # attempts drawn so far: one for a large first round, whose slots
    # mostly land at once
    attempt = 1 if len(slots) > ROUND else DISK_BATCH
    disk, landed = _landing(stream, slots, 0, attempt)
    todo = np.flatnonzero(~landed)
    while len(todo):
        tried, landed = _landing(stream, slots[todo], attempt, DISK_BATCH)
        now = todo[landed]
        for kept, new in zip(disk, tried):
            kept[now] = new[landed]
        todo, attempt = todo[~landed], attempt + DISK_BATCH
    a, b, r2 = (part.reshape(-1, n) for part in disk)
    cuts = np.sort(r2[:, :n - 2] * 2.0**-62, axis=1)
    square = np.empty(r2.shape)
    square[:, 0] = x
    square[:, 1:-1] = cuts
    square[:, -1] = 1.0
    square[:, 2:] -= cuts
    scale = np.sqrt(square) / np.sqrt(r2)
    scale[:, 1:] *= radius[:, None]
    return _complex(a * scale, b * scale)


def _landing(stream: int, slots: np.ndarray, first: int, count: int):
    """The disk points (a, b, a^2 + b^2) of `stacked_points`, three arrays
    over the slots, of the first of the attempts first to first+count-1
    of each slot that lands in the disk, and whether one did."""
    draws = _draws(_draws(stream, np.arange(first, first + count)), slots[:, None])
    a = (draws >> _U64[32]).astype(float) - _HALF_SIDE
    b = (draws & _U64[2**32 - 1]).astype(float) - _HALF_SIDE
    r2 = a * a + b * b
    hit = r2 < _DISK
    # attempts run along rows; argmax over rows of one costs per row
    if count == 1:
        return (a[:, 0], b[:, 0], r2[:, 0]), hit[:, 0]
    at = np.arange(0, hit.size, count) + np.argmax(hit, axis=1)
    return tuple(v.reshape(-1).take(at) for v in (a, b, r2)), hit.reshape(-1).take(at)


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
    Candidate i takes draws 2i and 2i+1 (x, radius) of the uniform stream
    of `sample_streams` and, if its budget is positive, row i of the phase
    stream (`stacked_points`), so the first K points of a sample of N are
    the sample of K.  A round draws a quarter and 8 more candidates than
    the rate so far needs, at most ROUND and the attempts left, and builds
    and tests them at once.  SamplingError says how many points were found
    when the attempts, one per candidate, run out.
    """
    if count <= 0:
        raise ValueError("sample count must be positive")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    x_top = interior_x_max(profile)
    if not math.isinf(profile.x0):
        x_top = min(x_top, profile.x0 - min_margin)
    # F is largest at x = 0, so no budget is positive where F(0) <= min_margin
    if x_top <= 0.0 or profile.eval(0.0) <= min_margin:
        raise SamplingError(
            f"min_margin={min_margin} leaves no admissible |z_0|^2 range for {profile.label()}"
        )
    uniform, phase = sample_streams(seed)
    runs: list[DomainPoint] = []
    found = attempts = 0
    while found < count:
        if attempts == _MAX_SAMPLE_ATTEMPTS:
            which = f"only {found} of {count} interior points" if found else "no interior point"
            raise SamplingError(
                f"{which} with margin >= {min_margin} found in "
                f"{_MAX_SAMPLE_ATTEMPTS} attempts for {profile.label()}"
            )
        # a quarter and 8 more than the rate so far needs for the points missing
        needed = -(-(count - found) * 5 * max(attempts, 1) // (4 * max(found, 1))) + 8
        first = attempts
        attempts += min(needed, ROUND, _MAX_SAMPLE_ATTEMPTS - attempts)
        u = uniforms(uniform, np.arange(2 * first, 2 * attempts)).reshape(-1, 2)
        x = x_top * u[:, 0]
        budget = profile.eval(x) - min_margin
        keep = np.flatnonzero(budget > 0.0)
        x, budget, u = x[keep], budget[keep], u[keep]
        radius = np.sqrt(budget) * np.float_power(u[:, 1], 1.0 / (2 * (n - 1)))
        p = contains(profile, stacked_points(phase, keep + first, n, x, radius))
        passed = p.margin >= min_margin
        runs.append(p if passed.all() else p[passed])
        found += len(runs[-1])
    if len(runs) > 1:
        runs = [DomainPoint(*(np.concatenate([getattr(r, f) for r in runs]) for f in _FIELDS))]
    return runs[0] if found == count else runs[0][:count]


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
