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
only *verified* against dense inversion, never replaced by it, and only
the checks of `verify-theorems` that read it form it.

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
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError, Frozen, NumericError, SamplingError, SingularityError, float_faults,
    raises_fp_faults,
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


class DomainPoint(Frozen):
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
    A record is immutable; `_fields` names its fields in order and
    `_replace` gives a copy with some of them changed, as on a NamedTuple.
    """

    __slots__ = _fields = ("z", "x", "gap", "margin", "f", "d1", "d2", "det_core")

    def __init__(self, z, x, gap, margin, f, d1, d2, det_core):
        for name, value in zip(self._fields, (z, x, gap, margin, f, d1, d2, det_core)):
            object.__setattr__(self, name, value)

    def _replace(self, **changes) -> DomainPoint:
        return DomainPoint(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    @property
    def n(self) -> int:
        return self.z.shape[-1]

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index) -> DomainPoint:
        return DomainPoint(*(getattr(self, name)[index] for name in self._fields))


class MetricData(NamedTuple):
    """Metric matrix with its determinant, with the leading point axis of a
    stacked record.  The inverse is not part of it: the checks that read
    it call `inverse_metric_matrix`."""

    h: np.ndarray
    det: float


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
    """x = |z_0|^2 and the fiber norm |z_1|^2 + ... + |z_{n-1}|^2 of each
    point of a complex stack z of shape (N, n), summed in coordinate order
    along each row, one term at a time: the columns are added in place one
    at a time.  That has the bits of `np.cumsum` along each row, which runs
    row by row and is slower on every record but one of one or two rows at
    n = 8."""
    square = z.real * z.real
    square += z.imag * z.imag
    # x is copied, so that a record does not hold every square
    x = square[:, 0].copy()
    fiber = square[:, 1].copy()
    for k in range(2, square.shape[1]):
        fiber += square[:, k]
    return x, fiber


class RadialJets:
    """The oracles' radial data at the points of a record p, as stacked jets
    over the real coordinates `w` of its points: (x, gap), from F alone,
    independent of `point_record` and with the bits of its x and gap, and
    log gap.  Each is formed when first read, and kept; x outside [0, x0)
    raises its DomainError where `x_and_gap` is read."""

    def __init__(self, profile: Profile, p: DomainPoint):
        self.profile, self.p, self.w = profile, p, JetPoint(p.z)

    @functools.cached_property
    def x_and_gap(self) -> tuple[Jet, Jet]:
        x = self.w.norm_sq(0, 1)
        return x, self.profile.eval(x) - self.w.norm_sq(1, self.w.n)

    @functools.cached_property
    def log_gap(self) -> Jet:
        return log(self.x_and_gap[1])

    def first_undefined(self) -> int:
        """The first point where x is outside [0, x0) or the gap is not
        positive, from the values alone: where log gap is undefined."""
        x, fiber = self.w.norm_sq(0, 1).val, self.w.norm_sq(1, self.w.n).val
        inside = (0.0 <= x) & (x < self.profile.x0)
        undefined = ~inside | (self.profile.eval(np.where(inside, x, 0.0)) - fiber <= 0.0)
        return int(np.argmax(undefined))


#: the `RadialJets` last asked for, in a one-element list: the jets of
#: one block at most are kept
_last_jets: list[RadialJets] = []


def radial_jets(profile: Profile, p: DomainPoint) -> RadialJets:
    """The `RadialJets` of the record p, those of the last call if it was
    for the same record and profile: the metric and Ricci oracles of one
    block share one stack of jets.  A record is never written to."""
    if not (_last_jets and _last_jets[0].p is p and _last_jets[0].profile is profile):
        _last_jets[:] = [RadialJets(profile, p)]
    return _last_jets[0]


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
    (N, n) from one `Profile.radial` call, with margin 0.0 `on_boundary`;
    a single point is row 0 of a one-point stack.  Raises DomainError at the
    first x outside [0, x0); a gap <= 0 is kept, for the caller to treat.
    det_core is checked by the consumers that divide by it."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 or z.shape[-1] < 2:
        raise ValueError("points need at least two complex coordinates")
    single, z = z.ndim == 1, z.reshape(-1, z.shape[-1])
    x, fiber = _x_and_fiber(z)
    f, d1, d2, core = profile.radial(x)
    gap = f - fiber
    reach = profile.x0 - x
    # min(gap, x0 - x) as Python's min picks it, also where x0 is inf
    margin = np.zeros_like(gap) if on_boundary else np.where(reach < gap, reach, gap)
    p = DomainPoint(z, x, gap, margin, f, d1, d2, core)
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

    z may also be the `RadialJets` of a record of this profile: Phi is then
    a stacked `Jet`, -log gap of those jets, whose Hessian is exact to
    rounding (`metric_fd_oracle` reads the metric off it).
    """
    jets = isinstance(z, RadialJets)
    try:
        gap = z.x_and_gap[1] if jets else point_record(profile, z).gap
    except DomainError:
        return math.nan
    if np.any(gap <= 0.0):
        return math.nan
    return -(z.log_gap if jets else log(gap))


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


def require_interior_record(p: DomainPoint) -> None:
    """DomainError unless every point of the record p is interior: a
    boundary record, with margin 0.0, has no metric."""
    if np.any(np.less_equal(p.margin, 0.0)):
        raise DomainError("metric requested at a non-interior point")


@raises_fp_faults
def assemble_metric(profile: Profile, p: DomainPoint) -> MetricData:
    """Metric and determinant at an interior point, or at every point of a
    stack, both read from its record; the profile is not evaluated again.
    SingularityError where det_core is below SINGULAR_TOL, as the inverse
    would raise it."""
    require_interior_record(p)
    # float_power calls the C library's pow, as Python's float ** int does
    det = nonsingular_core(p.det_core, p.x) / np.float_power(p.gap, p.n + 1)
    return MetricData(h=metric_matrix(p), det=det)


#: SplitMix64's increment (the golden ratio in 64 bits) and its
#: finalizer's two multipliers
_GAMMA, _MULTIPLY = 0x9E3779B97F4A7C15, (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MASK = 2**64 - 1
#: the integer constants of the draws as numpy scalars, built once
_U64 = {v: np.uint64(v) for v in (_GAMMA, *_MULTIPLY, 11, 27, 30, 31)}

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


def _mix_key(z: int) -> int:
    """`_mix` of one key, on Python ints masked to 64 bits: a few int
    operations, where numpy takes about 1.5 us for each on one entry."""
    z = ((z ^ (z >> 30)) * _MULTIPLY[0]) & _MASK
    z = ((z ^ (z >> 27)) * _MULTIPLY[1]) & _MASK
    return z ^ (z >> 31)


def _child(key: int, j: int) -> int:
    """Draw j of the stream keyed by `key` (`_draws`), on Python ints: the
    key of child j of that stream."""
    return _mix_key((key + (j + 1) * _GAMMA) & _MASK)


def _draws(keys, index) -> np.ndarray:
    """Draws `index` (an integer array) of the stream keyed by `keys`, an
    int, or of the streams of a sequence of keys broadcast against it along
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
    stream's draws are the keys of its child streams (`_child`), and a
    stream is drawn from or has children, never both."""
    limbs = [(seed >> shift) & _MASK for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = len(limbs)
    for limb in limbs:
        key = _mix_key(((key + _GAMMA) & _MASK) ^ limb)
    return _child(key, 0), _child(key, 1)


def _attempts(left: int) -> int:
    """Disk attempts a round of `stacked_points` draws for each of the
    `left` slots it holds: one while more than BLOCK are left, of which
    about pi/4 land, and DISK_BATCH below that."""
    return 1 if left > BLOCK else DISK_BATCH


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
    so a point has the same bits on every machine.  A round draws one
    attempt for each slot left while more than BLOCK are left, and
    DISK_BATCH attempts below that (`_attempts`): at n = 8 and 2000 rows,
    rounds of 16000, about 3400 and 730 attempts, then about 160 slots
    times DISK_BATCH.  The schedule changes no bit.  The rounds keep each
    slot's landed draw and a^2 + b^2 in two 1-D arrays, and a later round
    writes its slots into them with 1-D indices; a and b are taken from
    the draws once, into z.  At most four arrays of N n eight-byte entries
    are held at once, z counting two."""
    rows = np.asarray(rows, dtype=np.uint64)
    slots = (rows[:, None] * np.uint64(n) + np.arange(n, dtype=np.uint64)).reshape(-1)
    attempt = _attempts(len(slots))
    draws, r2, landed = _landing(stream, slots, 0, attempt)
    # where the slots left go, and their numbers
    todo = np.flatnonzero(~landed)
    slots = slots[todo]
    while len(todo):
        count = _attempts(len(todo))
        tried, tried_r2, landed = _landing(stream, slots, attempt, count)
        got = np.flatnonzero(landed)
        now = todo[got]
        draws[now], r2[now] = tried[got], tried_r2[got]
        landed = ~landed
        todo, slots, attempt = todo[landed], slots[landed], attempt + count
    # each row is 0, r2[:n-2] sorted, 1: entry s of the flat array is entry
    # s - 1 of the flat r2 times 2^-62, which is exact and so commutes with
    # the sort; then the spacings in place (numpy reads a copy of an input
    # that overlaps its output), and x in column 0
    scale = np.empty((len(x), n))
    flat = scale.reshape(-1)
    np.multiply(r2[:-1], 2.0**-62, out=flat[1:])
    scale[:, 0] = 0.0
    scale[:, -1] = 1.0
    scale[:, 1:-1].sort(axis=1)
    np.subtract(flat[1:], flat[:-1], out=flat[1:])
    scale[:, 0] = x
    np.sqrt(scale, out=scale)
    scale /= np.sqrt(r2, out=r2).reshape(-1, n)
    # freed before z: the draws, scale and z are the most held at once
    del r2
    scale[:, 1:] *= radius[:, None]
    z = np.empty(scale.shape, dtype=complex)
    a, b = _disk_point(draws)
    np.subtract(a.reshape(-1, n), _HALF_SIDE, out=z.real)
    np.subtract(b.reshape(-1, n), _HALF_SIDE, out=z.imag)
    z.real *= scale
    z.imag *= scale
    return z


def _disk_point(draws: np.ndarray):
    """The high and the low 32 bits of each draw, as uint32 views of its
    little-endian halves; less 2^31 - 1/2 each, they are its disk attempt
    (a, b)."""
    halves = draws.astype("<u8", copy=False).view("<u4")
    return halves[..., 1::2], halves[..., ::2]


def _landing(stream: int, slots: np.ndarray, first: int, count: int):
    """The disk attempts of `stacked_points` over the slots, as 1-D arrays
    (draws, r2, landed): the draw of the first of the attempts first to
    first+count-1 of slot s that lands in the disk, r2[s] = a^2 + b^2 of
    its (a, b) (`_disk_point`), and whether one did.  The squares are
    formed in place, so three arrays of the draws' size are held at once."""
    draws = _draws([_child(stream, t) for t in range(first, first + count)], slots[:, None])
    a, b = _disk_point(draws)
    r2 = np.subtract(a, _HALF_SIDE)
    r2 *= r2
    b2 = np.subtract(b, _HALF_SIDE)
    b2 *= b2
    r2 += b2
    hit = r2 < _DISK
    # attempts run along rows; argmax over rows of one costs per row
    if count == 1:
        return draws[:, 0], r2[:, 0], hit[:, 0]
    at = np.arange(0, hit.size, count) + np.argmax(hit, axis=1)
    return draws.reshape(-1)[at], r2.reshape(-1)[at], hit.reshape(-1)[at]


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
    the sample of K.  A round of the budget test draws a quarter and 8 more
    candidates than its pass rate so far needs, at most ROUND and the
    attempts left, and the rounds run until as many candidates passed it as
    points are missing.  Only then are those candidates built and tested,
    in one `stacked_points` and one `contains` call: a positive budget
    leaves a margin of at least min_margin up to rounding, so a sample is
    built once unless rounding rejects a point.  SamplingError says how
    many points were found when the attempts, one per candidate, run out.
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
    # the candidates that passed the budget test and are not built yet:
    # their rows, x and fiber radii
    rows = xs = radii = np.empty(0)
    found = attempts = passes = 0
    while found < count:
        missing = count - found
        while len(rows) < missing and attempts < _MAX_SAMPLE_ATTEMPTS:
            # a quarter and 8 more than the pass rate so far needs
            needed = -(-(missing - len(rows)) * 5 * max(attempts, 1) // (4 * max(passes, 1))) + 8
            first = attempts
            attempts += min(needed, ROUND, _MAX_SAMPLE_ATTEMPTS - attempts)
            u = uniforms(uniform, np.arange(2 * first, 2 * attempts)).reshape(-1, 2)
            x = x_top * u[:, 0]
            budget = profile.eval(x) - min_margin
            keep = np.flatnonzero(budget > 0.0)
            radius = np.sqrt(budget[keep]) * np.float_power(u[keep, 1], 1.0 / (2 * (n - 1)))
            if len(rows):
                rows = np.concatenate([rows, keep + first])
                xs = np.concatenate([xs, x[keep]])
                radii = np.concatenate([radii, radius])
            else:
                rows, xs, radii = keep + first, x[keep], radius
            passes += len(keep)
        if not len(rows):
            which = f"only {found} of {count} interior points" if found else "no interior point"
            raise SamplingError(
                f"{which} with margin >= {min_margin} found in "
                f"{_MAX_SAMPLE_ATTEMPTS} attempts for {profile.label()}"
            )
        p = contains(profile, stacked_points(phase, rows[:missing], n, xs[:missing],
                                             radii[:missing]))
        rows, xs, radii = rows[missing:], xs[missing:], radii[missing:]
        passed = p.margin >= min_margin
        runs.append(p if passed.all() else p[passed])
        found += len(runs[-1])
    if len(runs) > 1:
        fields = DomainPoint._fields
        runs = [DomainPoint(*(np.concatenate([getattr(r, f) for r in runs]) for f in fields))]
    return runs[0]


def metric_fd_oracle(profile: Profile, p: DomainPoint) -> np.ndarray:
    """Independent metric oracle: the mixed complex Hessian of the
    potential, from one second-order jet of `kahler_potential` stacked over
    the real coordinates of the points of p (a single record is row 0 of a
    one-point stack), on the `radial_jets` it shares with the Ricci oracle.
    It reads F and nothing else of the profile, and its entries are exact
    to rounding.  NumericError names the first point
    where x is outside [0, x0) or the gap is not positive.  The `fd` in the
    name is historical; the benchmark's tracer looks the oracle up by it."""
    jets = radial_jets(profile, p)
    w = jets.w
    phi = kahler_potential(profile, jets)
    if not isinstance(phi, Jet):
        raise NumericError(f"potential undefined at {w.z[jets.first_undefined()]!r}")
    h = w.hessian_z_zbar(phi)
    return h if p.z.ndim > 1 else h[0]
