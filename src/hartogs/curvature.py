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
both radial, and T reduces exactly to gap^2 times a function of x alone
on each coordinate:

    T^0 = gap^2 A(x) z_0,   A = (F slope)' / det_core
    T^i = gap^2 B(x) z_i,   B = (x F' slope' + (x F')' slope) / det_core

Every CLI family has det_core = c F^q, so F slope is constant and A is
zero on it; the tests add a family on which A is not.  With T^a = S_a z_a
and S_a a function of (x, gap), the zbar-Jacobian t_zbar[a, c] =
z_a dS_a/dzbar_c needs only the two partials of S_a, chained through
x = |z_0|^2 and gap = F(x) - |z'|^2: no inverse metric and no derivative
of h enters.  `curvature_at` takes the partials in closed form, with A'
and B' from slope'', F''' and det_core' = x F' F'' - F (2F'' + x F''').

The closed forms (`curvature_at` and the Ricci tensor) take a single or a
stacked record, like those of `metric`, and run with its floating-point
faults raised.  The oracles differentiate on purpose, so that they share
no derivative formula with what they check, and exactly, with jets: the
Ricci oracle a second-order jet of log det h over the coordinates, and
the extremal oracle a jet of gap^2 A and gap^2 B over (x, gap).  Both
take a single or a stacked record, as one stacked jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .jet import Jet, JetPoint, log
from .metric import (
    DomainPoint, MetricData, _radial, _times, jet_x_and_gap, nonsingular_core, raises_fp_faults,
    relative_norm,
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


def _radial_scales(profile: Profile, x, f, d1, d2, core, defect):
    """(slope, slope', A, B) from x, F, F', F'', det_core and the defect:
    slope = -defect F / det_core, by which scal = -n(n+1) + slope * gap,
    its radial derivative slope', and the radial functions A and B of the
    gradient field T = K^T dbar scal, T^0 = gap^2 A z_0 and T^i =
    gap^2 B z_i (see the module docstring).  Plain arithmetic: the
    arguments are floats, arrays or jets."""
    slope = -defect * f / core
    slope_d1 = profile.slope_d1(x)
    a = (d1 * slope + f * slope_d1) / core
    b = (x * d1 * slope_d1 + (d1 + x * d2) * slope) / core
    return slope, slope_d1, a, b


def _zbar_jacobian(z: np.ndarray, d1, s0, s1) -> np.ndarray:
    """t_zbar[..., a, c] = dT^a/dzbar_c = z_a dS_a/dzbar_c at each point of
    z, for T^a = S_a(x, gap) z_a, given the partials (S_x, S_gap) of S_0 in
    s0 and of S_i (i >= 1) in s1, and F' in d1: by the chain rule through
    x = |z_0|^2 and gap = F(x) - |z'|^2, dS/dzbar_0 = z_0 (S_x + F' S_gap)
    and dS/dzbar_c = -z_c S_gap above."""
    dbar = np.empty(z.shape + z.shape[-1:], dtype=complex)
    for rows, (s_x, s_gap) in ((slice(0, 1), s0), (slice(1, None), s1)):
        d = -_radial(s_gap, 1) * z
        d[..., 0] = (s_x + d1 * s_gap) * z[..., 0]
        dbar[..., rows, :] = d[..., None, :]
    return _times(z[..., :, None], dbar)


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
    one second-order jet of log det h = log det_core - (n+1) log gap
    stacked over the real coordinates of every point of p; a single record
    is row 0 of a one-point stack.  det h comes from the determinant
    identity, not from the assembled matrix, and only F and det_core are
    read, so the oracle is independent of the defect; its entries are
    exact to rounding.  The `fd` in the name is historical; the
    benchmark's tracer looks the oracle up by it.  Raises NumericError,
    naming the first such point, where det_core or gap is not positive."""
    w = JetPoint(p.z)
    x, gap = jet_x_and_gap(profile, w)
    core = profile.det_core(x)
    undefined = np.logical_or(core <= 0.0, gap <= 0.0)
    if np.any(undefined):
        i = int(np.argmax(undefined))
        raise NumericError(f"log det h undefined at {w.z[i]!r}, x={float(x.val[i])!r} "
                           "(det_core or gap <= 0)")
    ric = -w.hessian_z_zbar(log(core) - (p.n + 1) * log(gap))
    return ric if p.z.ndim > 1 else ric[0]


@raises_fp_faults
def extremal_jet_oracle(profile: Profile, p: DomainPoint) -> np.ndarray:
    """Independent oracle for `CurvatureData.t_zbar` at a single point, or
    at every point of a stacked record: `_zbar_jacobian` on the partials of
    S_0 = gap^2 A and S_i = gap^2 B in x and gap, exact to rounding, from
    one stacked jet seeded at the record's x and gap.  F, F', F'',
    det_core, the defect and slope' are the family's closed forms on the
    jet of x, and the F' of the chain rule is the derivative of the jet of
    F.  So the oracle shares A, B (`_radial_scales`) and the chain rule
    with `curvature_at`, and checks the derivatives A' and B' that
    `curvature_at` takes in closed form: it reads none of slope'', F''',
    det_core', the inverse metric or the derivatives of h.  The tests check
    the reduction of T to A and B against K^T dbar scal.  A single record
    is row 0 of a one-point stack.  SingularityError is raised where
    det_core is below SINGULAR_TOL, and NumericError names the first point
    with a non-finite value."""
    curvature_defect(profile, p)
    z = p.z.reshape(-1, p.n)
    count = len(z)
    seeds, zero = np.eye(2), np.zeros((count, 2, 2))
    x = Jet(np.reshape(p.x, -1), np.broadcast_to(seeds[0], (count, 2)), zero)
    gap = Jet(np.reshape(p.gap, -1), np.broadcast_to(seeds[1], (count, 2)), zero)
    f = profile.eval(x)
    _, _, a, b = _radial_scales(
        profile, x, f, profile.eval(x, 1), profile.eval(x, 2), profile.det_core(x),
        profile.defect(x),
    )
    square = gap * gap
    s0, s1 = ((s.grad[:, 0], s.grad[:, 1]) for s in (square * a, square * b))
    t_zbar = _zbar_jacobian(z, f.grad[:, 0], s0, s1)
    finite = np.isfinite(t_zbar).all(axis=(-2, -1))
    if not finite.all():
        raise NumericError(f"non-finite extremal oracle value at {z[np.argmin(finite)]!r}")
    return t_zbar if p.z.ndim > 1 else t_zbar[0]


@raises_fp_faults
def curvature_at(profile: Profile, p: DomainPoint, m: MetricData) -> CurvatureData:
    """Every closed-form curvature quantity at one point, or at every point
    of a stack, from one defect per point, the point record p and the
    metric matrix m.h assembled from it; of the profile it reads only the
    defect, slope', slope'' and F''', once per point, and of m only h.
    The Einstein residual is || Ric + (n+1) h ||_F / (1 + ||h||_F).

    The metric is extremal iff T = K^T dbar scal is holomorphic, with
    K = h^-1.  t_zbar[a, c] = dT^a/dzbar_c is `_zbar_jacobian` of
    T^0 = gap^2 A z_0 and T^i = gap^2 B z_i (`_radial_scales`) on the
    partials S_x = gap^2 A' and S_gap = 2 gap A (likewise for B), with

        A' = ((F slope)'' - A det_core') / det_core
        B' = (2 (x F')' slope' + x F' slope'' + (x F')'' slope - B det_core') / det_core

    where (x F')'' = 2F'' + x F''' and det_core' = x F' F'' - F (x F')''."""
    n = p.n
    defect = curvature_defect(profile, p)
    slope, slope_d1, a, b = _radial_scales(profile, p.x, p.f, p.d1, p.d2, p.det_core, defect)
    ric = _ricci(p, m, defect)
    shared = p.gap * p.f * defect / p.det_core
    coefficients = [(n + 1) ** k * (-1.0) ** (k + 1) * math.comb(n - 1, k) for k in range(n)]
    constants = [n * (n + 1) / (k + 1) for k in range(n)]
    rho = np.array(coefficients) * (np.array(constants) + np.asarray(shared)[..., None])
    slope_d2 = profile.slope_d2(p.x)
    mix, third = p.d1 + p.x * p.d2, 2.0 * p.d2 + p.x * profile.eval(p.x, 3)
    core_d1 = p.x * p.d1 * p.d2 - p.f * third
    a_d1 = (p.d2 * slope + 2.0 * p.d1 * slope_d1 + p.f * slope_d2 - a * core_d1) / p.det_core
    b_d1 = (2.0 * mix * slope_d1 + p.x * p.d1 * slope_d2 + third * slope - b * core_d1) / p.det_core
    gap2, twice = p.gap * p.gap, 2.0 * p.gap
    t_zbar = _zbar_jacobian(p.z, p.d1, (gap2 * a_d1, twice * a), (gap2 * b_d1, twice * b))
    return CurvatureData(
        ric=ric,
        scal=-(p.gap / p.det_core) * p.f * defect - n * (n + 1),
        slope=slope,
        rho=rho,
        einstein=relative_norm(ric + (n + 1) * m.h, m.h),
        t_zbar=t_zbar,
        extremal=np.max(np.abs(t_zbar), axis=(-2, -1)),
    )
