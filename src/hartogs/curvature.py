"""Ricci and scalar curvature of the profile metric, in closed form.

The whole curvature content of the metric sits in one scalar profile
functional,

    defect(x) = d/dx [ x d/dx log det_core(x) ],

where det_core is the radial determinant factor.  With it:

    Ric      = -(n+1) h + (-defect) on the (0,0) entry only
    scal     = -(gap/det_core) F defect - n(n+1)
    rho_k    = (n+1)^k (-1)^(k+1) C(n-1,k) [ n(n+1)/(k+1) + gap F defect/det_core ]

The defect vanishes identically iff the profile is affine, in which case
the metric is Einstein with scal = -n(n+1); that rigidity is what most of
the test suite exercises.

The defect and two radial derivatives of the slope -defect F / det_core
are closed forms stated per profile family, evaluated once per point in
one call over a stack.  The closed forms built on them (`scal_gradient_bar`,
`curvature_at`) take a single or a stacked record, like those of `metric`,
and run with its floating-point faults raised.  The oracles differentiate
on purpose to stay independent of them: the Ricci oracle with an exact
second-order jet of log det h, and the extremal oracle with a finite
difference of T, the only one left in this module.  Both take a single
or a stacked record: the Ricci oracle as one stacked jet, the extremal
oracle by evaluating T at all the stencil points of all the points as
one stacked record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .jet import JetPoint, log
from .metric import (
    DomainPoint, MetricData, _complex, _product, inverse_metric_matrix, jet_x_and_gap,
    metric_gradients, nonsingular_core, raises_fp_faults, relative_norm, require_interior,
)
from .profiles import Profile
from .wirtinger import ComplexStencil

#: the extremal oracle's stencil step far from the boundary
FD_BASE_STEP = 1e-4


@dataclass(frozen=True)
class CurvatureData:
    """Curvature bundle at one point, or at every point of a stack along a
    leading axis: Ricci matrix, scalar curvature, the radial slope
    functional, the generalized scalar curvatures rho_0..rho_{n-1},
    the Einstein residual, and t_zbar with the extremal residual
    max |t_zbar| (see `curvature_at`)."""

    ric: np.ndarray
    scal: float
    slope: float
    rho: np.ndarray
    einstein: float
    t_zbar: np.ndarray
    extremal: float


def curvature_defect(profile: Profile, p: DomainPoint):
    """defect(x) = (x (log det_core)')', the family's closed form, at p.x
    (at each point of a stack).

    Exactly zero for the affine family.  Raises SingularityError where
    det_core is below SINGULAR_TOL, where the metric degenerates.
    """
    nonsingular_core(p.det_core, p.x)
    return profile.defect(p.x)


@raises_fp_faults
def scal_gradient_bar(p: DomainPoint, slope, slope_d1) -> np.ndarray:
    """Anti-holomorphic gradient of the scalar curvature at p, in closed
    form from its record, the slope and its radial derivative slope':

        d scal / dzbar_0 = z_0 (slope' * gap + slope * F')
        d scal / dzbar_i = -slope * z_i.
    """
    grad = -np.asarray(slope)[..., None] * p.z
    radial = slope_d1 * p.gap + slope * p.d1
    grad[..., 0] = _complex(p.z[..., 0].real * radial, p.z[..., 0].imag * radial)
    return grad


def _gradient_field(profile: Profile, p: DomainPoint, h_inv: np.ndarray, defect):
    """(slope, slope', T) at p from its defect and K = h_inv: slope =
    -defect F / det_core, by which scal = -n(n+1) + slope * gap, its radial
    derivative slope', and T = K^T dbar scal, the (1,0)-gradient field."""
    slope = -defect * p.f / p.det_core
    slope_d1 = profile.slope_d1(p.x)
    grad = scal_gradient_bar(p, slope, slope_d1)
    return slope, slope_d1, (np.swapaxes(h_inv, -1, -2) @ grad[..., None])[..., 0]


def _ricci(p: DomainPoint, m: MetricData, defect) -> np.ndarray:
    ric = -(p.n + 1) * m.h
    ric[..., 0, 0] -= defect
    return ric


@raises_fp_faults
def ricci_tensor(profile: Profile, p: DomainPoint, m: MetricData) -> np.ndarray:
    """Ric = -(n+1) h, with the (0,0) entry shifted by -defect(x)."""
    return _ricci(p, m, curvature_defect(profile, p))


def rho_oracle(m: MetricData, ric: np.ndarray) -> np.ndarray:
    """Generalized scalar curvatures from the determinant-ratio definition

        det(h + t Ric) / det(h) = 1 + sum_k rho_k t^(k+1),

    read off exactly: the ratio is prod_j (1 + t mu_j) over the eigenvalues
    mu_j of h^-1 Ric, so rho_k is their (k+1)-th elementary symmetric
    polynomial.  h^-1 Ric comes from a dense solve, not from the
    closed-form inverse, so the oracle is independent of every closed form
    above.  m and ric may be stacked, with a leading point axis.
    """
    mu = np.linalg.eigvals(np.linalg.solve(m.h, ric))
    return np.reshape([np.poly(-row)[1:].real for row in mu.reshape(-1, mu.shape[-1])], mu.shape)


def ricci_fd_oracle(profile: Profile, p: DomainPoint) -> np.ndarray:
    """Independent Ricci oracle: Ric = -(d^2 / dz dzbar) log det h, from
    one second-order jet of log det h = log det_core - (n+1) log gap over
    the real coordinates of p, or one stacked jet over every point of a
    stacked record.  det h comes from the determinant identity, not from
    the assembled matrix, and only F and det_core are read, so the oracle
    is independent of the defect; its entries are exact to rounding.  The
    `fd` in the name is historical; the benchmark's tracer looks the oracle
    up by it.  Raises NumericError, naming the first such point, where
    det_core or gap is not positive."""
    w = JetPoint(p.z)
    x, gap = jet_x_and_gap(profile, w)
    core = profile.det_core(x)
    undefined = np.logical_or(core <= 0.0, gap <= 0.0)
    if np.any(undefined):
        i = int(np.argmax(undefined))
        raise NumericError(
            f"log det h undefined at {p.z.reshape(-1, p.n)[i]!r}, "
            f"x={float(np.ravel(p.x)[i])!r} (det_core or gap <= 0)"
        )
    return -w.hessian_z_zbar(log(core) - (p.n + 1) * log(gap))


def fd_step(p: DomainPoint):
    """The extremal oracle's stencil step at p, or at each point of a
    stack, shrunk to the local scale.

    Quantities built on -log(gap) steepen like 1/gap towards the boundary
    and like F' in the radial direction, so the step is proportional to
    the margin per unit of radial gradient.  It never exceeds
    FD_BASE_STEP, and the 10-step interiority contract holds automatically.
    """
    scale = p.margin / (1.0 + np.abs(p.d1) * np.sqrt(p.x))
    # min(1.0, scale) as Python's min picks it, also at a NaN
    return FD_BASE_STEP * np.where(scale < 1.0, scale, 1.0)


def extremal_fd_oracle(
    profile: Profile, p: DomainPoint, stencil: ComplexStencil | None = None
) -> np.ndarray:
    """Independent oracle for `CurvatureData.t_zbar` at a single point, or
    at every point of a stacked record: central Wirtinger differences of
    T(w) = h^-1(w)^T dbar scal(w), column c along zbar_c.  T is evaluated
    at all 4n stencil points of every point as one stacked record.  Each
    point's step along z_k is `fd_step` times 1 + |z_k|, unless a stencil
    gives the step for all of them; the margin-scaled step keeps every
    stencil point inside the domain.  NumericError names the point and the
    coordinate of the first non-finite stencil value."""
    z = p.z.reshape(-1, p.n)
    count, n = z.shape
    step = fd_step(p) if stencil is None else stencil.step
    # np.hypot keeps the bits of abs() on one complex number; np.abs does not
    h = np.reshape(step, (-1, 1)) * (1.0 + np.hypot(z.real, z.imag))
    # the offsets h, -h, i h, -i h along each coordinate in turn
    re, im = np.zeros((count, n, 4)), np.zeros((count, n, 4))
    re[..., 0], re[..., 1], im[..., 2], im[..., 3] = h, -h, h, -h
    offsets = _complex(re, im).reshape(count, 4 * n)
    w = np.repeat(z[:, None, :], 4 * n, axis=1)
    w[:, np.arange(4 * n), np.repeat(np.arange(n), 4)] += offsets

    q = require_interior(profile, w.reshape(-1, n))
    t = _gradient_field(profile, q, inverse_metric_matrix(q), profile.defect(q.x))[2]
    t = t.reshape(count, 4 * n, n)
    finite = np.isfinite(t).all(axis=-1)
    if not finite.all():
        i, row = np.unravel_index(np.argmin(finite), finite.shape)
        raise NumericError(
            f"non-finite value on FD stencil at {z[i]!r}, coordinate {row // 4} "
            f"(offset {complex(offsets[i, row])})"
        )
    fu_p, fu_m, fv_p, fv_m = (t[:, j::4] for j in range(4))
    h = h[..., None]
    du = (fu_p - fu_m) / (2.0 * h)
    dv = (fv_p - fv_m) / (2.0 * h)
    t_zbar = np.swapaxes(0.5 * (du + 1j * dv), -1, -2)
    return t_zbar[0] if p.z.ndim == 1 else t_zbar


@raises_fp_faults
def curvature_at(profile: Profile, p: DomainPoint, m: MetricData) -> CurvatureData:
    """Every closed-form curvature quantity at one point, or at every point
    of a stack, from one defect per point, the point record p and the
    metric m assembled from it; of the profile it reads only the defect,
    slope', slope'' and F''', once per point.  The Einstein residual is
    || Ric + (n+1) h ||_F / (1 + ||h||_F).

    The metric is extremal iff T = K^T g is holomorphic, with K = h^-1 and
    g = dbar scal.  t_zbar[a, c] = dT^a/dzbar_c = (K^T (S - dgbar_c^T T))[a, c],
    where dgbar_c = dh/dzbar_c and S, the anti-holomorphic Hessian of scal,
    is zero but for S00 = z_0^2 (slope'' gap + 2 slope' F' + slope F'') and
    S0i = Si0 = -slope' z_0 z_i."""
    n = p.n
    defect = curvature_defect(profile, p)
    slope, slope_d1, t = _gradient_field(profile, p, m.h_inv, defect)
    ric = _ricci(p, m, defect)
    shared = p.gap * p.f * defect / p.det_core
    coefficients = [(n + 1) ** k * (-1.0) ** (k + 1) * math.comb(n - 1, k) for k in range(n)]
    constants = [n * (n + 1) / (k + 1) for k in range(n)]
    rho = np.array(coefficients) * (np.array(constants) + np.asarray(shared)[..., None])
    re0, im0 = p.z[..., 0].real, p.z[..., 0].imag
    head = profile.slope_d2(p.x) * p.gap + 2.0 * slope_d1 * p.d1 + slope * p.d2
    sq_re, sq_im = _product(re0, im0, re0, im0)
    hess = np.zeros(p.z.shape + (n,), dtype=complex)
    hess[..., 0, 0] = _complex(sq_re * head, sq_im * head)
    tail = _complex(-slope_d1 * re0, -slope_d1 * im0)[..., None] * p.z[..., 1:]
    hess[..., 0, 1:] = hess[..., 1:, 0] = tail
    dgbar = metric_gradients(profile, p)[1]
    t_zbar = np.swapaxes(m.h_inv, -1, -2) @ (hess - np.einsum("...cab,...a->...bc", dgbar, t))
    return CurvatureData(
        ric=ric,
        scal=-(p.gap / p.det_core) * p.f * defect - n * (n + 1),
        slope=slope,
        rho=rho,
        einstein=relative_norm(ric + (n + 1) * m.h, m.h),
        t_zbar=t_zbar,
        extremal=np.max(np.abs(t_zbar), axis=(-2, -1)),
    )
