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
are closed forms stated per profile family, evaluated once per point.
The closed forms built on them (`scal_gradient_bar`, `curvature_at`) take
a single or a stacked record (`metric.stack`), like those of `metric`,
and run with its floating-point faults raised.  The oracles differentiate
on purpose to stay independent of them: the Ricci oracle with an exact
second-order jet of log det h, once per point, and the extremal oracle
with a finite difference of T, the only one left in this module, which
evaluates T at all of its stencil points as one stacked record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .jet import JetPoint, log
from .metric import (
    DomainPoint, MetricData, _complex, _product, each_point, fd_stencil_for, frobenius_norm,
    inverse_metric_matrix, jet_x_and_gap, metric_gradients, nonsingular_core, raises_fp_faults,
    require_interior, stack,
)
from .profiles import Profile
from .wirtinger import ComplexStencil


@dataclass(frozen=True)
class CurvatureData:
    """Curvature bundle at one point, or at every point of a stack along a
    leading axis: Ricci matrix, scalar curvature, the radial defect and
    slope functionals, the generalized scalar curvatures rho_0..rho_{n-1},
    the Einstein residual, and t_zbar with the extremal residual
    max |t_zbar| (see `curvature_at`)."""

    ric: np.ndarray
    scal: float
    defect: float
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
    return each_point(profile.defect, p.x)


def _slope(defect: float, f: float, core: float) -> float:
    """slope = -defect F / det_core, the rate at which scal departs from
    the Einstein constant per unit of gap: scal = -n(n+1) + slope * gap."""
    return -defect * f / core


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


def _gradient_field(h_inv: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """T = K^T g, K = h^-1: the (1,0)-gradient field of scal from g = dbar scal."""
    return (np.swapaxes(h_inv, -1, -2) @ grad[..., None])[..., 0]


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
    """Independent oracle for `CurvatureData.t_zbar` at a single point:
    Wirtinger differences of T(w) = h^-1(w)^T dbar scal(w), column c along
    zbar_c, with T evaluated at all 4n stencil points as one stacked
    record.  Uses a margin-scaled stencil unless given one, which keeps
    every stencil point inside the domain."""
    if stencil is None:
        stencil = fd_stencil_for(p)

    def t_of(ws):
        q = stack([require_interior(profile, w) for w in ws])
        slope = _slope(each_point(profile.defect, q.x), q.f, q.det_core)
        h_inv = inverse_metric_matrix(q)
        slope_d1 = each_point(profile.slope_d1, q.x)
        return _gradient_field(h_inv, scal_gradient_bar(q, slope, slope_d1))

    return stencil.d_zbar_all(t_of, p.z).T


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
    slope = _slope(defect, p.f, p.det_core)
    ric = _ricci(p, m, defect)
    shared = p.gap * p.f * defect / p.det_core
    coefficients = [(n + 1) ** k * (-1.0) ** (k + 1) * math.comb(n - 1, k) for k in range(n)]
    constants = [n * (n + 1) / (k + 1) for k in range(n)]
    rho = np.array(coefficients) * (np.array(constants) + np.asarray(shared)[..., None])
    slope_d1 = each_point(profile.slope_d1, p.x)
    t = _gradient_field(m.h_inv, scal_gradient_bar(p, slope, slope_d1))
    re0, im0 = p.z[..., 0].real, p.z[..., 0].imag
    head = each_point(profile.slope_d2, p.x) * p.gap + 2.0 * slope_d1 * p.d1 + slope * p.d2
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
        defect=defect,
        slope=slope,
        rho=rho,
        einstein=frobenius_norm(ric + (n + 1) * m.h) / (1.0 + frobenius_norm(m.h)),
        t_zbar=t_zbar,
        extremal=np.max(np.abs(t_zbar), axis=(-2, -1)),
    )
