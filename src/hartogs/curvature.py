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

from .errors import DomainError
from .metric import DomainPoint, MetricData, fd_stencil_for, nonsingular_core, x_and_gap
from .profiles import Profile
from .wirtinger import ComplexStencil


@dataclass(frozen=True)
class CurvatureData:
    """Curvature bundle at one point: Ricci matrix, scalar curvature, the
    radial defect and slope functionals, the generalized scalar curvatures
    rho_0..rho_{n-1}, and the Einstein residual."""

    ric: np.ndarray
    scal: float
    defect: float
    slope: float
    rho: np.ndarray
    einstein: float


def curvature_defect(profile: Profile, x: float) -> float:
    """defect(x) = (x (log det_core)')', the family's closed form.

    Exactly zero for the affine family.  Raises SingularityError where
    det_core is below SINGULAR_TOL, where the metric degenerates.
    """
    nonsingular_core(profile.det_core(x), x)
    return profile.defect(x)


def scal_slope(profile: Profile, x: float) -> float:
    """slope(x) = -defect(x) F(x) / det_core(x), the rate at which scal
    departs from the Einstein constant per unit of gap:
    scal = -n(n+1) + slope * gap.  Raises SingularityError where the
    defect does."""
    return -curvature_defect(profile, x) * profile.eval(x) / profile.det_core(x)


def _ricci(p: DomainPoint, m: MetricData, defect: float) -> np.ndarray:
    ric = -(p.n + 1) * m.h
    ric[0, 0] -= defect
    return ric


def ricci_tensor(profile: Profile, p: DomainPoint, m: MetricData) -> np.ndarray:
    """Ric = -(n+1) h, with the (0,0) entry shifted by -defect(x)."""
    return _ricci(p, m, curvature_defect(profile, p.x))


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
    """Every closed-form curvature quantity at one point, from one defect
    and the radial data the metric was assembled from.  The Einstein
    residual is || Ric + (n+1) h ||_F / (1 + ||h||_F)."""
    n = p.n
    r = m.radial
    defect = curvature_defect(profile, p.x)
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
    return CurvatureData(
        ric=ric,
        scal=-(p.gap / r.det_core) * r.f * defect - n * (n + 1),
        defect=defect,
        slope=-defect * r.f / r.det_core,
        rho=rho,
        einstein=float(np.linalg.norm(ric + (n + 1) * m.h) / (1.0 + np.linalg.norm(m.h))),
    )
