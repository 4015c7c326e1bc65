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

All of it is built from the point's radial data (`Radial`: x, gap, F,
F', F'' and det_core), evaluated once per point by `radial_data`.  The
closed-form inverse is the artifact under test: it is only *verified*
against dense inversion, never replaced by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, SamplingError, SingularityError
from .jet import Jet, JetPoint, log
from .profiles import Profile, interior_x_max

#: det_core below this is treated as a metric singularity
SINGULAR_TOL = 1e-14

_MAX_SAMPLE_ATTEMPTS = 100_000


@dataclass(frozen=True)
class DomainPoint:
    """Interior point with cached membership data.

    `x` is |z_0|^2, `gap` the slack in the fiber inequality, and `margin`
    the smaller of `gap` and the distance x0 - x to the radial bound.
    """

    z: np.ndarray
    x: float
    gap: float
    margin: float

    @property
    def n(self) -> int:
        return self.z.size


@dataclass(frozen=True)
class Radial:
    """Radial data of one evaluated point: x = |z_0|^2, the gap, F, F' and
    F'' at x, and det_core(x).  Every per-point quantity of the package is
    a function of these (and of z for the matrix entries)."""

    x: float
    gap: float
    f: float
    d1: float
    d2: float
    det_core: float


@dataclass(frozen=True)
class MetricData:
    """Metric matrix with determinant and closed-form inverse, and the
    radial data they were built from."""

    h: np.ndarray
    det: float
    h_inv: np.ndarray
    radial: Radial


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


def radial_data(profile: Profile, z) -> Radial:
    """The radial data at z, each evaluated once.  Raises DomainError
    outside the domain.  det_core is not checked here: `nonsingular_core`
    is applied by the consumers that divide by it."""
    x, fiber = _x_and_fiber(z)
    f = profile.eval(x)
    gap = f - fiber
    if gap <= 0.0:
        raise DomainError("metric requested outside the domain (gap <= 0)")
    return Radial(x, gap, f, profile.eval(x, 1), profile.eval(x, 2), profile.det_core(x))


def nonsingular_core(core: float, x: float) -> float:
    """det_core itself, or SingularityError where it is below SINGULAR_TOL:
    the metric is singular there, or the profile not pseudoconvex."""
    if core < SINGULAR_TOL:
        raise SingularityError(
            f"det_core(x)={core!r} at x={x!r}: metric singular or profile not pseudoconvex"
        )
    return core


def contains(profile: Profile, z) -> DomainPoint | None:
    """Membership test; returns a cached DomainPoint or None if outside."""
    z = np.asarray(z, dtype=complex)
    if z.size < 2:
        raise ValueError("domain points need at least two complex coordinates")
    try:
        x, gap = x_and_gap(profile, z)
    except DomainError:
        return None
    if gap <= 0.0:
        return None
    margin = gap if math.isinf(profile.x0) else min(gap, profile.x0 - x)
    return DomainPoint(z, x, gap, margin)


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


def metric_matrix(r: Radial, z) -> np.ndarray:
    """Closed-form metric matrix at z from its radial data (Hermitian by
    construction: the lower triangle mirrors the conjugated upper one).
    It does not divide by det_core, so it also works where the metric
    degenerates."""
    n = len(z)
    x, gap, d1 = r.x, r.gap, r.d1
    gap2 = gap * gap

    h = np.empty((n, n), dtype=complex)
    h[0, 0] = (x * d1 * d1 - (d1 + r.d2 * x) * gap) / gap2
    z0c = complex(z[0]).conjugate()
    for b in range(1, n):
        val = -d1 * z0c * complex(z[b]) / gap2
        h[0, b] = val
        h[b, 0] = val.conjugate()
    for a in range(1, n):
        za = complex(z[a])
        h[a, a] = (gap + za.real * za.real + za.imag * za.imag) / gap2
        for b in range(a + 1, n):
            val = za.conjugate() * complex(z[b]) / gap2
            h[a, b] = val
            h[b, a] = val.conjugate()
    return h


def metric_gradients(profile: Profile, r: Radial, z) -> tuple[np.ndarray, np.ndarray]:
    """Wirtinger derivatives of the metric at z in closed form, as
    (dg, dgbar) with dg[k] = dh/dz_k and dgbar[k] = dh/dzbar_k, which is
    conj(dg[k]).T since h is Hermitian.

    Differentiating h = (d^2 Phi / dz_a dzbar_b), Phi = -log(gap), with
    subscripts for derivatives of gap and a bar on index b throughout:

        d_k h_ab = -gap_kab/gap + (gap_ab gap_k + gap_ka gap_b + gap_a gap_kb)/gap^2
                   - 2 gap_k gap_a gap_b/gap^3,

    where gap_0 = F' zbar_0, gap_i = -zbar_i, the mixed second derivatives
    are diag(F' + F'' x, -1, ..., -1), the only holomorphic one is
    gap_00 = F'' zbar_0^2, and the only third one is
    gap_000bar = zbar_0 (2 F'' + x F''').  F''' is read here, not kept in
    the radial record, since nothing else needs it.
    """
    n = len(z)
    x, gap, d2 = r.x, r.gap, r.d2
    gap2 = gap * gap
    z0c = complex(z[0]).conjugate()
    g1 = -np.conj(np.asarray(z, dtype=complex))
    g1[0] = r.d1 * z0c
    mixed = -np.eye(n)
    mixed[0, 0] = r.d1 + d2 * x

    dg = (g1[:, None, None] * mixed[None, :, :] + g1[None, :, None] * mixed[:, None, :]) / gap2
    dg -= (2.0 / (gap2 * gap)) * (g1[:, None, None] * g1[None, :, None]) * g1.conj()[None, None, :]
    dg[0, 0] += (d2 * z0c * z0c / gap2) * g1.conj()
    dg[0, 0, 0] -= z0c * (2.0 * d2 + x * profile.eval(x, 3)) / gap
    return dg, dg.conj().transpose(0, 2, 1)


def inverse_metric_matrix(r: Radial, z) -> np.ndarray:
    """Closed-form inverse metric at z from its radial data; raises
    SingularityError where det_core is below SINGULAR_TOL."""
    n = len(z)
    core = nonsingular_core(r.det_core, r.x)
    d1 = r.d1
    mix = d1 + r.d2 * r.x
    s = r.gap / core
    z0 = complex(z[0])

    k = np.empty((n, n), dtype=complex)
    k[0, 0] = s * r.f
    for b in range(1, n):
        val = s * d1 * z0 * complex(z[b]).conjugate()
        k[b, 0] = val
        k[0, b] = val.conjugate()
    for b in range(1, n):
        zb = complex(z[b])
        k[b, b] = s * (core + mix * (zb.real * zb.real + zb.imag * zb.imag))
        for a in range(b + 1, n):
            val = s * mix * complex(z[a]) * zb.conjugate()
            k[b, a] = val
            k[a, b] = val.conjugate()
    return k


def assemble_metric(profile: Profile, p: DomainPoint) -> MetricData:
    """Metric, determinant and closed-form inverse at an interior point,
    all from one evaluation of its radial data."""
    if p.margin <= 0.0:
        raise DomainError("metric requested at a non-interior point")
    r = radial_data(profile, p.z)
    h_inv = inverse_metric_matrix(r, p.z)
    h = metric_matrix(r, p.z)
    return MetricData(h=h, det=r.det_core / p.gap ** (p.n + 1), h_inv=h_inv, radial=r)


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


def fd_stencil_for(profile: Profile, p: DomainPoint, base: float = 1e-4):
    """Stencil for the first-difference extremal oracle at p, with the step
    shrunk to the local scale.

    Quantities built on -log(gap) steepen like 1/gap towards the boundary
    and like F' in the radial direction, so the step is proportional to
    the margin per unit of radial gradient.  It never exceeds `base`, and
    the 10-step interiority contract holds automatically.
    """
    from .wirtinger import ComplexStencil

    d1 = abs(profile.eval(p.x, 1))
    scale = min(1.0, p.margin / (1.0 + d1 * math.sqrt(p.x)))
    return ComplexStencil(step=base * scale)


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
