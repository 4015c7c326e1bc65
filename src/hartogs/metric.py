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

The closed-form inverse is the artifact under test: it is only *verified*
against dense inversion, never replaced by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SamplingError, SingularityError
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
class MetricData:
    """Metric matrix with determinant, closed-form inverse and the scalar
    ingredients they were built from."""

    h: np.ndarray
    det: float
    h_inv: np.ndarray
    gap: float
    det_core: float
    num00: float


def x_and_gap(profile: Profile, z) -> tuple[float, float]:
    """(x, gap) at z: x = |z_0|^2 and gap = F(x) - |z_1|^2 - ... - |z_{n-1}|^2.

    Raises DomainError when x lies outside [0, x0), where F is undefined;
    a gap <= 0 (z outside the domain) is returned as it is, for the caller
    to treat.
    """
    z0 = complex(z[0])
    x = z0.real * z0.real + z0.imag * z0.imag
    fiber = 0.0
    for k in range(1, len(z)):
        c = complex(z[k])
        fiber += c.real * c.real + c.imag * c.imag
    return x, profile.eval(x) - fiber


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


def kahler_potential(profile: Profile, z) -> float:
    """Potential Phi(z) = -log(gap(z)); NaN outside the domain.

    Returning NaN rather than raising lets finite-difference stencils
    detect boundary crossings uniformly.
    """
    try:
        gap = x_and_gap(profile, z)[1]
    except DomainError:
        return math.nan
    if gap <= 0.0:
        return math.nan
    return -math.log(gap)


def metric_matrix(profile: Profile, z) -> np.ndarray:
    """Closed-form metric matrix at an interior point (Hermitian by
    construction: the lower triangle mirrors the conjugated upper one)."""
    z = np.asarray(z, dtype=complex)
    n = z.size
    x, gap = x_and_gap(profile, z)
    if gap <= 0.0:
        raise DomainError("metric requested outside the domain (gap <= 0)")
    d1 = profile.eval(x, 1)
    d2 = profile.eval(x, 2)
    gap2 = gap * gap

    h = np.empty((n, n), dtype=complex)
    h[0, 0] = (x * d1 * d1 - (d1 + d2 * x) * gap) / gap2
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


def inverse_metric_matrix(profile: Profile, z) -> np.ndarray:
    """Closed-form inverse metric at an interior point."""
    z = np.asarray(z, dtype=complex)
    n = z.size
    x, gap = x_and_gap(profile, z)
    if gap <= 0.0:
        raise DomainError("inverse metric requested outside the domain (gap <= 0)")
    core = profile.det_core(x)
    if core < SINGULAR_TOL:
        raise SingularityError(
            f"det_core(x)={core!r} at x={x!r}: metric singular or profile not pseudoconvex"
        )
    d1 = profile.eval(x, 1)
    mix = d1 + profile.eval(x, 2) * x
    s = gap / core
    z0 = complex(z[0])

    k = np.empty((n, n), dtype=complex)
    k[0, 0] = s * profile.eval(x)
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


def metric_determinant(profile: Profile, p: DomainPoint) -> float:
    """Closed-form determinant det_core(x) / gap^(n+1)."""
    if p.margin <= 0.0:
        raise DomainError("determinant requested at a non-interior point")
    core = profile.det_core(p.x)
    if core < SINGULAR_TOL:
        raise SingularityError(f"det_core(x)={core!r}: metric singular at x={p.x!r}")
    return core / p.gap ** (p.n + 1)


def assemble_metric(profile: Profile, p: DomainPoint) -> MetricData:
    """Metric, determinant and closed-form inverse at an interior point."""
    if p.margin <= 0.0:
        raise DomainError("metric requested at a non-interior point")
    core = profile.det_core(p.x)
    if core < SINGULAR_TOL:
        raise SingularityError(
            f"det_core(x)={core!r} at x={p.x!r}: metric singular or profile not pseudoconvex"
        )
    h = metric_matrix(profile, p.z)
    h_inv = inverse_metric_matrix(profile, p.z)
    det = core / p.gap ** (p.n + 1)
    num00 = h[0, 0].real * p.gap * p.gap
    return MetricData(h=h, det=det, h_inv=h_inv, gap=p.gap, det_core=core, num00=num00)


def sample_interior(
    profile: Profile,
    n: int,
    count: int,
    seed: int,
    min_margin: float = 0.05,
) -> list[DomainPoint]:
    """Deterministic rejection sampling of interior points with margin >=
    min_margin.

    |z_0|^2 is drawn uniformly below both the radial clearance bound and,
    for finite x0, x0 - min_margin; the fiber coordinates are drawn
    uniformly in discs sized to the remaining slack, then the margin is
    checked exactly.  Same seed, same points.
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
        x = rng.uniform(0.0, x_top)
        budget = profile.eval(x) - min_margin
        if budget <= 0.0:
            continue
        z = np.empty(n, dtype=complex)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z[0] = math.sqrt(x) * complex(math.cos(theta), math.sin(theta))
        for k in range(1, n):
            r = math.sqrt(rng.uniform(0.0, budget))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            z[k] = r * complex(math.cos(phi), math.sin(phi))
        p = contains(profile, z)
        if p is not None and p.margin >= min_margin:
            points.append(p)
    return points


def fd_stencil_for(profile: Profile, p: DomainPoint, base: float = 1e-4):
    """Stencil for second-derivative oracles at p, with the step shrunk to
    the local scale of the potential.

    The potential -log(gap) steepens like 1/gap towards the boundary and
    like F' in the radial direction, so a fixed step loses its truncation
    budget exactly where the metric is largest; proportionality to the
    margin (per unit of radial gradient) keeps the relative error of the
    mixed-Hessian oracle flat across the domain.  The step never exceeds
    `base`, and the 10-step interiority contract holds automatically.
    """
    from .wirtinger import ComplexStencil

    d1 = abs(profile.eval(p.x, 1))
    scale = min(1.0, p.margin / (1.0 + d1 * math.sqrt(p.x)))
    return ComplexStencil(step=base * scale)


def metric_fd_oracle(profile: Profile, p: DomainPoint, stencil=None) -> np.ndarray:
    """Independent metric oracle: FD mixed Hessian of the potential.

    Every entry of the closed-form metric is cross-checked against this.
    Uses a margin-scaled stencil unless given one.
    """
    if stencil is None:
        stencil = fd_stencil_for(profile, p)
    return stencil.hessian_z_zbar(lambda z: kahler_potential(profile, z), p.z)


def is_positive_definite(mat: np.ndarray, pivot_tol: float = 1e-12) -> bool:
    """Cholesky-based positive-definiteness check for Hermitian matrices.

    Fails as soon as a pivot drops below pivot_tol relative to the largest
    diagonal entry; cheapest certified check for the small matrices here.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(np.diagonal(a).real))))
    for k in range(n):
        piv = a[k, k].real
        if piv <= pivot_tol * scale:
            return False
        col = a[k + 1 :, k] / piv
        a[k + 1 :, k + 1 :] -= np.outer(col, a[k + 1 :, k].conj())
    return True
