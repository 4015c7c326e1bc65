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
are closed forms stated per profile family.  The oracles differentiate on
purpose to stay independent of them: the Ricci oracle with an exact
second-order jet of log det h, the extremal oracle with a finite
difference of T, the only one left in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .jet import JetPoint, log
from .metric import (
    DomainPoint, MetricData, Radial, fd_stencil_for, inverse_metric_matrix, jet_x_and_gap,
    metric_gradients, nonsingular_core, radial_data,
)
from .profiles import Profile
from .wirtinger import ComplexStencil


@dataclass(frozen=True)
class CurvatureData:
    """Curvature bundle at one point: Ricci matrix, scalar curvature, the
    radial defect and slope functionals, the generalized scalar curvatures
    rho_0..rho_{n-1}, the Einstein residual, and t_zbar with the extremal
    residual max |t_zbar| (see `curvature_at`)."""

    ric: np.ndarray
    scal: float
    defect: float
    slope: float
    rho: np.ndarray
    einstein: float
    t_zbar: np.ndarray
    extremal: float


def curvature_defect(profile: Profile, r: Radial) -> float:
    """defect(x) = (x (log det_core)')', the family's closed form, at r.x.

    Exactly zero for the affine family.  Raises SingularityError where
    det_core is below SINGULAR_TOL, where the metric degenerates.
    """
    nonsingular_core(r.det_core, r.x)
    return profile.defect(r.x)


def _slope(defect: float, f: float, core: float) -> float:
    """slope = -defect F / det_core (see `scal_slope`)."""
    return -defect * f / core


def scal_slope(profile: Profile, x: float) -> float:
    """slope(x) = -defect(x) F(x) / det_core(x), the rate at which scal
    departs from the Einstein constant per unit of gap:
    scal = -n(n+1) + slope * gap.  Raises SingularityError where det_core
    is singular."""
    core = nonsingular_core(profile.det_core(x), x)
    return _slope(profile.defect(x), profile.eval(x), core)


def scal_gradient_bar(r: Radial, z, slope: float, slope_d1: float) -> np.ndarray:
    """Anti-holomorphic gradient of the scalar curvature at z, in closed
    form from its radial data, the slope and its radial derivative slope':

        d scal / dzbar_0 = z_0 (slope' * gap + slope * F')
        d scal / dzbar_i = -slope * z_i.
    """
    grad = -slope * np.asarray(z, dtype=complex)
    grad[0] = complex(z[0]) * (slope_d1 * r.gap + slope * r.d1)
    return grad


def _ricci(p: DomainPoint, m: MetricData, defect: float) -> np.ndarray:
    ric = -(p.n + 1) * m.h
    ric[0, 0] -= defect
    return ric


def ricci_tensor(profile: Profile, p: DomainPoint, m: MetricData) -> np.ndarray:
    """Ric = -(n+1) h, with the (0,0) entry shifted by -defect(x)."""
    return _ricci(p, m, curvature_defect(profile, m.radial))


def rho_oracle(m: MetricData, ric: np.ndarray) -> np.ndarray:
    """Generalized scalar curvatures from the determinant-ratio definition

        det(h + t Ric) / det(h) = 1 + sum_k rho_k t^(k+1),

    read off exactly: the ratio is prod_j (1 + t mu_j) over the eigenvalues
    mu_j of h^-1 Ric, so rho_k is their (k+1)-th elementary symmetric
    polynomial.  h^-1 Ric comes from a dense solve, not from the
    closed-form inverse, so the oracle is independent of every closed form
    above.
    """
    return np.poly(-np.linalg.eigvals(np.linalg.solve(m.h, ric)))[1:].real


def ricci_fd_oracle(profile: Profile, p: DomainPoint) -> np.ndarray:
    """Independent Ricci oracle: Ric = -(d^2 / dz dzbar) log det h, from
    one second-order jet of log det h = log det_core - (n+1) log gap over
    the real coordinates of p.  det h comes from the determinant identity,
    not from the assembled matrix, and only F and det_core are read, so the
    oracle is independent of the defect; its entries are exact to rounding.
    The `fd` in the name is historical; the benchmark's tracer looks the
    oracle up by it.  Raises NumericError where det_core or gap is not
    positive."""
    w = JetPoint(p.z)
    x, gap = jet_x_and_gap(profile, w)
    core = profile.det_core(x)
    if core <= 0.0 or gap <= 0.0:
        raise NumericError(f"log det h undefined at x={p.x!r} (det_core or gap <= 0)")
    return -w.hessian_z_zbar(log(core) - (p.n + 1) * log(gap))


def extremal_fd_oracle(
    profile: Profile, p: DomainPoint, stencil: ComplexStencil | None = None
) -> np.ndarray:
    """Independent oracle for `CurvatureData.t_zbar`: Wirtinger differences
    of T(w) = h^-1(w)^T dbar scal(w), column c along zbar_c.  Uses a
    margin-scaled stencil unless given one, which keeps every stencil
    point inside the domain."""
    if stencil is None:
        stencil = fd_stencil_for(profile, p)

    def t_of(w):
        r = radial_data(profile, w)
        k = inverse_metric_matrix(r, w)
        slope = _slope(profile.defect(r.x), r.f, r.det_core)
        return k.T @ scal_gradient_bar(r, w, slope, profile.slope_d1(r.x))

    return np.stack([stencil.d_zbar(t_of, p.z, c) for c in range(p.n)], axis=1)


def curvature_at(profile: Profile, p: DomainPoint, m: MetricData) -> CurvatureData:
    """Every closed-form curvature quantity at one point, from one defect
    and the radial data the metric was assembled from.  The Einstein
    residual is || Ric + (n+1) h ||_F / (1 + ||h||_F).

    The metric is extremal iff T = K^T g is holomorphic, with K = h^-1 and
    g = dbar scal.  t_zbar[a, c] = dT^a/dzbar_c = (K^T (S - dgbar_c^T T))[a, c],
    where dgbar_c = dh/dzbar_c and S, the anti-holomorphic Hessian of scal,
    is zero but for S00 = z_0^2 (slope'' gap + 2 slope' F' + slope F'') and
    S0i = Si0 = -slope' z_0 z_i."""
    n = p.n
    r = m.radial
    defect = curvature_defect(profile, r)
    slope = _slope(defect, r.f, r.det_core)
    ric = _ricci(p, m, defect)
    shared = p.gap * r.f * defect / r.det_core
    rho = np.empty(n, dtype=float)
    for k in range(n):
        rho[k] = (
            (n + 1) ** k
            * (-1.0) ** (k + 1)
            * math.comb(n - 1, k)
            * (n * (n + 1) / (k + 1) + shared)
        )
    slope_d1 = profile.slope_d1(r.x)
    t = m.h_inv.T @ scal_gradient_bar(r, p.z, slope, slope_d1)
    z0 = complex(p.z[0])
    hess = np.zeros((n, n), dtype=complex)
    hess[0, 0] = z0 * z0 * (profile.slope_d2(r.x) * r.gap + 2.0 * slope_d1 * r.d1 + slope * r.d2)
    hess[0, 1:] = hess[1:, 0] = -slope_d1 * z0 * p.z[1:]
    dgbar = metric_gradients(profile, r, p.z)[1]
    t_zbar = m.h_inv.T @ (hess - np.einsum("cab,a->bc", dgbar, t))
    return CurvatureData(
        ric=ric,
        scal=-(p.gap / r.det_core) * r.f * defect - n * (n + 1),
        defect=defect,
        slope=slope,
        rho=rho,
        einstein=float(np.linalg.norm(ric + (n + 1) * m.h) / (1.0 + np.linalg.norm(m.h))),
        t_zbar=t_zbar,
        extremal=float(np.max(np.abs(t_zbar))),
    )
