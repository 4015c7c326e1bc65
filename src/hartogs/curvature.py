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

The defect and the radial derivative of the slope -defect F / det_core are
closed forms stated per profile family, so nothing in this module takes a
finite difference except the Ricci oracle, which differentiates log det h
on purpose to stay independent of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, SingularityError
from .metric import DomainPoint, MetricData, fd_stencil_for, x_and_gap
from .profiles import Profile
from .wirtinger import ComplexStencil

#: the three algebraic forms of scal must agree to this
_SCAL_FORMS_TOL = 1e-9


@dataclass(frozen=True)
class CurvatureData:
    """Curvature bundle at one point: Ricci matrix, scalar curvature, the
    radial defect and slope functionals, and the generalized scalar
    curvatures rho_0..rho_{n-1}."""

    ric: np.ndarray
    scal: float
    defect: float
    slope: float
    rho: np.ndarray


def curvature_defect(profile: Profile, x: float) -> float:
    """defect(x) = (x (log det_core)')', the family's closed form.

    Exactly zero for the affine family.  Raises SingularityError where
    det_core <= 0, since log det_core is undefined there.
    """
    core = profile.det_core(x)
    if core <= 0.0:
        raise SingularityError(f"det_core(x)={core!r} at x={x!r}: defect undefined")
    return profile.defect(x)


def scal_slope(profile: Profile, x: float) -> float:
    """slope(x) = -defect(x) F(x) / det_core(x), the rate at which scal
    departs from the Einstein constant per unit of gap:
    scal = -n(n+1) + slope * gap.  Raises SingularityError where
    det_core <= 0, as the defect does."""
    return -curvature_defect(profile, x) * profile.eval(x) / profile.det_core(x)


def scal_slope_d1(profile: Profile, x: float) -> float:
    """Radial derivative of the slope functional, the family's closed form;
    exactly zero for the affine family."""
    return profile.slope_d1(x)


def ricci_tensor(profile: Profile, p: DomainPoint, m: MetricData) -> np.ndarray:
    """Ric = -(n+1) h, with the (0,0) entry shifted by -defect(x)."""
    ric = -(p.n + 1) * m.h
    ric[0, 0] -= curvature_defect(profile, p.x)
    return ric


def scalar_curvature(profile: Profile, p: DomainPoint, m: MetricData) -> float:
    """Scalar curvature -(gap/det_core) F defect - n(n+1).

    Also evaluates the trace form sum g^{b,abar} Ric_{a,bbar} and the
    slope form -n(n+1) + slope*gap and raises NumericError if the three
    disagree beyond 1e-9: they are algebraically identical, so divergence
    signals a broken assembly rather than an inaccurate one.
    """
    n = p.n
    defect = curvature_defect(profile, p.x)
    f = profile.eval(p.x)
    scal = -(p.gap / m.det_core) * f * defect - n * (n + 1)

    ric = ricci_tensor(profile, p, m)
    scal_trace = float(np.trace(m.h_inv @ ric).real)
    scal_slope_form = -n * (n + 1) + (-defect * f / m.det_core) * p.gap

    budget = _SCAL_FORMS_TOL * (1.0 + abs(scal))
    if abs(scal - scal_trace) > budget or abs(scal - scal_slope_form) > budget:
        raise NumericError(
            f"scalar curvature forms disagree at x={p.x!r}: "
            f"direct={scal!r} trace={scal_trace!r} slope-form={scal_slope_form!r}"
        )
    return scal


def generalized_scalar_curvatures(profile: Profile, p: DomainPoint, m: MetricData) -> np.ndarray:
    """Closed-form vector rho_0..rho_{n-1};
    rho_k = (n+1)^k (-1)^(k+1) C(n-1,k) [n(n+1)/(k+1) + gap F defect / det_core]."""
    n = p.n
    shared = p.gap * profile.eval(p.x) * curvature_defect(profile, p.x) / m.det_core
    rho = np.empty(n, dtype=float)
    for k in range(n):
        rho[k] = (
            (n + 1) ** k
            * (-1.0) ** (k + 1)
            * math.comb(n - 1, k)
            * (n * (n + 1) / (k + 1) + shared)
        )
    return rho


def rho_oracle(m: MetricData, ric: np.ndarray) -> np.ndarray:
    """Generalized scalar curvatures from the determinant-ratio definition

        det(h + t Ric) / det(h) = 1 + sum_k rho_k t^(k+1),

    fitted at n nodes with dense determinants; independent of every closed
    form above.  Nodes sit in (0, 1/(2(n+1))] so the ratio stays well away
    from zero, and the scaled Vandermonde system is refused if its
    condition number exceeds 1e10.
    """
    n = m.h.shape[0]
    t_max = 1.0 / (2.0 * (n + 1))
    nodes = t_max * np.arange(1, n + 1) / n
    det_h = np.linalg.det(m.h)
    rhs = np.empty(n, dtype=float)
    scaled = np.empty((n, n), dtype=float)
    for j, t in enumerate(nodes):
        ratio = np.linalg.det(m.h + t * ric) / det_h
        rhs[j] = ratio.real - 1.0
        s = t / t_max
        for k in range(n):
            scaled[j, k] = s ** (k + 1)
    cond = np.linalg.cond(scaled)
    if cond > 1e10:
        raise NumericError(f"determinant-ratio fit ill-conditioned (cond={cond:.3e})")
    coeffs = np.linalg.solve(scaled, rhs)
    return coeffs / t_max ** np.arange(1, n + 1)


def ricci_fd_oracle(
    profile: Profile, p: DomainPoint, stencil: ComplexStencil | None = None
) -> np.ndarray:
    """Independent Ricci oracle: -hessian_z_zbar of log det h, with det h
    evaluated through the closed-form determinant identity (not through the
    assembled matrix).  Uses a margin-scaled stencil unless given one."""
    if stencil is None:
        stencil = fd_stencil_for(profile, p)
    n = p.n

    def log_det(z):
        try:
            x, gap = x_and_gap(profile, z)
        except DomainError:
            return math.nan
        core = profile.det_core(x)
        if gap <= 0.0 or core <= 0.0:
            return math.nan
        return math.log(core) - (n + 1) * math.log(gap)

    return -stencil.hessian_z_zbar(log_det, p.z)


def curvature_at(profile: Profile, p: DomainPoint, m: MetricData) -> CurvatureData:
    """Bundle of all closed-form curvature quantities at one point."""
    return CurvatureData(
        ric=ricci_tensor(profile, p, m),
        scal=scalar_curvature(profile, p, m),
        defect=curvature_defect(profile, p.x),
        slope=scal_slope(profile, p.x),
        rho=generalized_scalar_curvatures(profile, p, m),
    )
