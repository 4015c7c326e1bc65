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
one call over a stack.  The metric is extremal iff the (1,0)-gradient
field T = K^T dbar scal, K = h^-1, is holomorphic.  dbar scal and K are
both radial, so T is a radial multiple of each coordinate, formed in
O(n) per point without K, with s = gap/det_core, r = slope' gap +
slope F' and |z'|^2 = F - gap:

    T^0 = s z_0 (F r - F' slope |z'|^2)
    T^i = s z_i (x F' r - slope (det_core + (F' + F'' x) |z'|^2))

The closed forms built on them (T and `curvature_at`) take a single or a
stacked record, like those of `metric`, and run with its floating-point
faults raised.  The oracles differentiate on purpose, so that they share
no derivative formula with what they check, and exactly, with jets: the
Ricci oracle a second-order jet of log det h over the coordinates, and
the extremal oracle a jet of T's two radial scales over (x, gap).  Both
take a single or a stacked record, as one stacked jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .jet import Jet, JetPoint, log
from .metric import (
    DomainPoint, MetricData, _radial, _times, jet_x_and_gap, metric_derivative_against,
    nonsingular_core, raises_fp_faults, relative_norm,
)
from .profiles import Profile


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


def _radial_scales(profile: Profile, x, gap, f, d1, d2, core, defect):
    """(slope, slope', S0, S1) from x, gap, F, F', F'', det_core and the
    defect: slope = -defect F / det_core, by which scal = -n(n+1) +
    slope * gap, its radial derivative slope', and the radial scales of the
    gradient field T = K^T dbar scal, T^0 = S0 z_0 and T^i = S1 z_i (see
    the module docstring), from dbar_0 scal = z_0 r and dbar_i scal =
    -slope z_i.  Plain arithmetic: the arguments are floats, arrays or
    jets."""
    slope = -defect * f / core
    slope_d1 = profile.slope_d1(x)
    s, fiber = gap / core, f - gap
    r = slope_d1 * gap + slope * d1
    s0 = s * (f * r - d1 * slope * fiber)
    s1 = s * (x * d1 * r - slope * (core + (d1 + d2 * x) * fiber))
    return slope, slope_d1, s0, s1


@raises_fp_faults
def _gradient_field(profile: Profile, p: DomainPoint, defect):
    """(slope, slope', T) at p from its defect, which `curvature_defect`
    gives once det_core is checked: `_radial_scales` on the record."""
    slope, slope_d1, s0, s1 = _radial_scales(
        profile, p.x, p.gap, p.f, p.d1, p.d2, p.det_core, defect
    )
    scale = np.empty(p.z.shape)
    scale[..., 0] = s0
    scale[..., 1:] = _radial(s1, 1)
    # a real times a complex factor: each part is rounded once
    return slope, slope_d1, scale * p.z


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
    mu_j of h^-1 Ric, from a dense solve, not from the closed-form inverse,
    so the oracle is independent of every closed form above.  rho_k is their
    (k+1)-th elementary symmetric polynomial, e_k <- e_k + mu_j e_(k-1)
    over j, formed for all the points of a stacked m and ric at once.
    """
    mu = np.linalg.eigvals(np.linalg.solve(m.h, ric))
    e = np.zeros(mu.shape[:-1] + (mu.shape[-1] + 1,), dtype=complex)
    e[..., 0] = 1.0
    for j in range(mu.shape[-1]):
        e[..., 1:] = e[..., 1:] + _times(mu[..., j, None], e[..., :-1])
    return e[..., 1:].real


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


def _zbar_derivative(scale: Jet, d1, z: np.ndarray) -> np.ndarray:
    """dS/dzbar_c at each point of the stack z of a radial scale S(x, gap),
    given as a jet over (x, gap), with x = |z_0|^2 and gap = F(x) - |z'|^2:
    z_0 (S_x + F' S_gap) for c = 0 and -z_c S_gap above."""
    s_x, s_gap = scale.grad[:, 0], scale.grad[:, 1]
    d = -s_gap[:, None] * z
    d[:, 0] = (s_x + d1 * s_gap) * z[:, 0]
    return d


@raises_fp_faults
def extremal_jet_oracle(profile: Profile, p: DomainPoint) -> np.ndarray:
    """Independent oracle for `CurvatureData.t_zbar` at a single point, or
    at every point of a stacked record.  T^a = S_a(x, gap) z_a is radial
    (`_radial_scales`), so t_zbar[a, c] = z_a dS_a/dzbar_c, exact to
    rounding from the partials of S0 and S1 in x and gap on one stacked jet
    seeded at the record's x and gap.  F, F', F'', det_core, the defect
    and slope' are the family's closed forms on the jet of x, and the F' of
    the chain rule is the derivative of the jet of F.  So the oracle shares
    T's radial form with `curvature_at`, and nothing `curvature_at` builds
    t_zbar from: slope'', F''', the inverse metric and its derivatives.  A
    single record is row 0 of a one-point stack.  SingularityError is
    raised where det_core is below SINGULAR_TOL, and NumericError names
    the first point with a non-finite value."""
    curvature_defect(profile, p)
    z = p.z.reshape(-1, p.n)
    count = len(z)
    seeds, zero = np.eye(2), np.zeros((count, 2, 2))
    x = Jet(np.reshape(p.x, -1), np.broadcast_to(seeds[0], (count, 2)), zero)
    gap = Jet(np.reshape(p.gap, -1), np.broadcast_to(seeds[1], (count, 2)), zero)
    f = profile.eval(x)
    _, _, s0, s1 = _radial_scales(
        profile, x, gap, f, profile.eval(x, 1), profile.eval(x, 2), profile.det_core(x),
        profile.defect(x),
    )
    d1 = f.grad[:, 0]
    dbar = np.empty(z.shape + (p.n,), dtype=complex)
    dbar[:, 0] = _zbar_derivative(s0, d1, z)
    dbar[:, 1:] = _zbar_derivative(s1, d1, z)[:, None, :]
    t_zbar = _times(z[:, :, None], dbar)
    finite = np.isfinite(t_zbar).all(axis=(-2, -1))
    if not finite.all():
        raise NumericError(f"non-finite extremal oracle value at {z[np.argmin(finite)]!r}")
    return t_zbar if p.z.ndim > 1 else t_zbar[0]


@raises_fp_faults
def curvature_at(profile: Profile, p: DomainPoint, m: MetricData) -> CurvatureData:
    """Every closed-form curvature quantity at one point, or at every point
    of a stack, from one defect per point, the point record p and the
    metric m assembled from it; of the profile it reads only the defect,
    slope', slope'' and F''', once per point.  The Einstein residual is
    || Ric + (n+1) h ||_F / (1 + ||h||_F).

    The metric is extremal iff T = K^T g is holomorphic, with K = h^-1 and
    g = dbar scal; `_gradient_field` forms T in O(n).  t_zbar[a, c] =
    dT^a/dzbar_c = (K^T (S - E))[a, c], with E[b, c] = sum_a T_a
    dh_ab/dzbar_c (`metric.metric_derivative_against`) and S, the
    anti-holomorphic Hessian of scal, zero but for S00 = z_0^2
    (slope'' gap + 2 slope' F' + slope F'') and S0i = Si0 = -slope' z_0 z_i."""
    n = p.n
    defect = curvature_defect(profile, p)
    slope, slope_d1, t = _gradient_field(profile, p, defect)
    ric = _ricci(p, m, defect)
    shared = p.gap * p.f * defect / p.det_core
    coefficients = [(n + 1) ** k * (-1.0) ** (k + 1) * math.comb(n - 1, k) for k in range(n)]
    constants = [n * (n + 1) / (k + 1) for k in range(n)]
    rho = np.array(coefficients) * (np.array(constants) + np.asarray(shared)[..., None])
    head = profile.slope_d2(p.x) * p.gap + 2.0 * slope_d1 * p.d1 + slope * p.d2
    row = _times(p.z[..., :1], p.z)  # z_0 z_b
    hess = np.zeros(p.z.shape + (n,), dtype=complex)
    hess[..., 0, :] = hess[..., :, 0] = row * _radial(-slope_d1, 1)
    hess[..., 0, 0] = row[..., 0] * head
    t_zbar = np.swapaxes(m.h_inv, -1, -2) @ (hess - metric_derivative_against(profile, p, t))
    return CurvatureData(
        ric=ric,
        scal=-(p.gap / p.det_core) * p.f * defect - n * (n + 1),
        slope=slope,
        rho=rho,
        einstein=relative_norm(ric + (n + 1) * m.h, m.h),
        t_zbar=t_zbar,
        extremal=np.max(np.abs(t_zbar), axis=(-2, -1)),
    )
