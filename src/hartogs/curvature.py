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
zero on it; the tests add families on which A is not.  dT^a/dzbar_c =
z_a z_c C[a', c'], a' and c' being 0 on z_0 and 1 on the fiber, for a
2 x 2 block C that `_dbar_block` states once, the chain rule through
(x, gap) on F', gap, A, A', B and B': no inverse metric, no derivative of
h and no n x n array enters.  `scalar_curvature_at` takes A' and B' in
closed form, from slope'' and F'''.  It reads the point record alone;
`curvature_at` adds the Ricci matrix and the Einstein residual, the only
quantities here that read the metric matrix.

The closed forms (`scalar_curvature_at`, `curvature_at` and the Ricci
tensor) take a single or a stacked record, like those of `metric`, and
run with its floating-point faults raised.  The oracles differentiate on purpose, so that they share
no derivative formula with what they check, and exactly, with jets: the
Ricci oracle a second-order jet of log det h over the coordinates, and
the extremal oracle a jet of A and B along x alone.  Both take a single
or a stacked record, as one stacked jet; the Ricci and metric oracles of
a record share its jets of x, gap and log gap (`metric.radial_jets`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError
from .jet import Jet, log
from .metric import (
    DomainPoint, MetricData, _times, nonsingular_core, radial_jets, raises_fp_faults,
    relative_norm, require_interior_record,
)
from .profiles import Profile


class ScalarCurvature(NamedTuple):
    """What the point record alone gives, at one point or at every point
    of a stack along a leading axis (see `scalar_curvature_at`): the
    defect, the scalar curvature, the radial slope functional, the
    generalized scalar curvatures rho_0..rho_{n-1}, the radial block dbar
    of dT/dzbar and the extremal residual max |dT/dzbar|."""

    defect: float
    scal: float
    slope: float
    rho: np.ndarray
    dbar: np.ndarray
    extremal: float


class CurvatureData(NamedTuple):
    """The fields of `ScalarCurvature`, in its order, then the Ricci matrix
    and the Einstein residual, which read the metric matrix too (see
    `curvature_at`)."""

    defect: float
    scal: float
    slope: float
    rho: np.ndarray
    dbar: np.ndarray
    extremal: float
    ric: np.ndarray
    einstein: float


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


def _dbar_block(d1, gap, a, a_d1, b, b_d1) -> np.ndarray:
    """The (..., 2, 2) block C of dT^a/dzbar_c = z_a z_c C[a', c'] for
    T^a = S_a z_a, S_0 = gap^2 A(x) and S_i = gap^2 B(x), from F' in d1,
    gap, A, A', B and B', by the chain rule through x = |z_0|^2 and
    gap = F(x) - |z'|^2: with S_x = gap^2 S' and S_gap = 2 gap S,
    C[a', 0] = S_x + F' S_gap and C[a', 1] = -S_gap."""
    rows = [(gap * gap * s_d1, 2.0 * gap * s) for s, s_d1 in ((a, a_d1), (b, b_d1))]
    return np.stack([np.stack([s_x + d1 * s_gap, -s_gap], axis=-1) for s_x, s_gap in rows],
                    axis=-2)


def jacobian_max(p: DomainPoint, block) -> np.ndarray:
    """max |z_a z_c block[a', c']| over the n x n matrix that a block stands
    for, at each point of p: the largest entry of |block| w w^T with
    w = (sqrt(x), max_{c >= 1} |z_c|), the moduli from re^2 + im^2, whose
    bits, unlike np.abs's, do not depend on the memory layout of z."""
    fiber = p.z[..., 1:].real ** 2 + p.z[..., 1:].imag ** 2
    w = np.sqrt(np.stack([p.x, np.max(fiber, axis=-1)], axis=-1))
    return np.max(np.abs(block) * w[..., :, None] * w[..., None, :], axis=(-2, -1))


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
    stacked over the real coordinates of every point of p, on the
    `metric.radial_jets` it shares with the metric oracle; a single record
    is row 0 of a one-point stack.  det h comes from the determinant
    identity, not from the assembled matrix, and only F and det_core are
    read, so the oracle is independent of the defect; its entries are
    exact to rounding.  The `fd` in the name is historical; the
    benchmark's tracer looks the oracle up by it.  Raises NumericError,
    naming the first such point, where x is outside [0, x0) or det_core
    or gap is not positive, as the metric oracle does."""
    jets = radial_jets(profile, p)
    w = jets.w
    try:
        x, gap = jets.x_and_gap
    except DomainError:
        raise NumericError(f"log det h undefined at {w.z[jets.first_undefined()]!r} "
                           "(x outside [0, x0))") from None
    core = profile.det_core(x)
    undefined = np.logical_or(core <= 0.0, gap <= 0.0)
    if np.any(undefined):
        i = int(np.argmax(undefined))
        raise NumericError(f"log det h undefined at {w.z[i]!r}, x={float(x.val[i])!r} "
                           "(det_core or gap <= 0)")
    ric = -w.hessian_z_zbar(log(core) - (p.n + 1) * jets.log_gap)
    return ric if p.z.ndim > 1 else ric[0]


@raises_fp_faults
def extremal_jet_oracle(profile: Profile, p: DomainPoint) -> np.ndarray:
    """Independent oracle for `ScalarCurvature.dbar` at a single point, or
    at every point of a stacked record, exact to rounding: `_dbar_block`
    on the record's gap and on F', A, A', B and B' from one stacked jet
    along x.  F, F', F'', det_core, the defect and slope' are the family's
    closed forms on that jet, and A', B' and F' the derivatives of the jets
    of A, B and F.  So the oracle shares A, B (`_radial_scales`) and the
    chain rule with `scalar_curvature_at`, and checks the A' and B' that
    it takes in closed form: it reads none of slope'', F''',
    det_core', the inverse metric or the derivatives of h.  The tests check
    the reduction of T to A and B against K^T dbar scal.  A single record
    is row 0 of a one-point stack.  SingularityError is raised where
    det_core is below SINGULAR_TOL, and NumericError names the first point
    with a non-finite value."""
    nonsingular_core(p.det_core, p.x)
    z = p.z.reshape(-1, p.n)
    x = Jet(np.reshape(p.x, -1), np.ones((len(z), 1)), np.zeros((len(z), 1, 1)))
    f = profile.eval(x)
    _, _, a, b = _radial_scales(profile, x, f, profile.eval(x, 1), profile.eval(x, 2),
                                profile.det_core(x), profile.defect(x))
    dbar = _dbar_block(f.grad[:, 0], np.reshape(p.gap, -1), a.val, a.grad[:, 0], b.val,
                       b.grad[:, 0])
    finite = np.isfinite(dbar).all(axis=(-2, -1))
    if not finite.all():
        raise NumericError(f"non-finite extremal oracle value at {z[np.argmin(finite)]!r}")
    return dbar if p.z.ndim > 1 else dbar[0]


@raises_fp_faults
def scalar_curvature_at(profile: Profile, p: DomainPoint) -> ScalarCurvature:
    """Every closed-form curvature quantity that the point record p alone
    gives, at one point or at every point of a stack, from one defect per
    point: of the profile it reads only the defect, slope', slope'' and
    F''', once per point, and it assembles no metric.  `curvature_at`
    adds what reads the metric matrix; `extremal-residual` and
    `canonical.extremal_residual` call this alone.  Like the metric, it
    refuses a record that is not interior.

    The metric is extremal iff T = K^T dbar scal is holomorphic, with
    K = h^-1.  dbar is the `_dbar_block` of T^0 = gap^2 A z_0 and
    T^i = gap^2 B z_i (`_radial_scales`), extremal its `jacobian_max`, with

        A' = ((F slope)'' - A det_core') / det_core
        B' = (2 (x F')' slope' + x F' slope'' + (x F')'' slope - B det_core') / det_core

    where (x F')'' = 2F'' + x F''' and det_core' = x F' F'' - F (x F')''.
    F''' enters both only times A, as slope + B F = x F' A: on the CLI
    families, where A is 0, it moves only rounding."""
    require_interior_record(p)
    n = p.n
    defect = curvature_defect(profile, p)
    slope, slope_d1, a, b = _radial_scales(profile, p.x, p.f, p.d1, p.d2, p.det_core, defect)
    shared = p.gap * p.f * defect / p.det_core
    coefficients = [(n + 1) ** k * (-1.0) ** (k + 1) * math.comb(n - 1, k) for k in range(n)]
    constants = [n * (n + 1) / (k + 1) for k in range(n)]
    rho = np.array(coefficients) * (np.array(constants) + np.asarray(shared)[..., None])
    slope_d2 = profile.slope_d2(p.x)
    mix, third = p.d1 + p.x * p.d2, 2.0 * p.d2 + p.x * profile.eval(p.x, 3)
    core_d1 = p.x * p.d1 * p.d2 - p.f * third
    a_d1 = (p.d2 * slope + 2.0 * p.d1 * slope_d1 + p.f * slope_d2 - a * core_d1) / p.det_core
    b_d1 = (2.0 * mix * slope_d1 + p.x * p.d1 * slope_d2 + third * slope - b * core_d1) / p.det_core
    dbar = _dbar_block(p.d1, p.gap, a, a_d1, b, b_d1)
    return ScalarCurvature(
        defect=defect,
        scal=-(p.gap / p.det_core) * p.f * defect - n * (n + 1),
        slope=slope,
        rho=rho,
        dbar=dbar,
        extremal=jacobian_max(p, dbar),
    )


@raises_fp_faults
def curvature_at(profile: Profile, p: DomainPoint, m: MetricData) -> CurvatureData:
    """`scalar_curvature_at` at one point, or at every point of a stack,
    with the Ricci matrix from its defect and the Einstein residual
    || Ric + (n+1) h ||_F / (1 + ||h||_F), from the metric matrix m.h
    assembled from the record p; of m it reads only h."""
    scalar = scalar_curvature_at(profile, p)
    ric = _ricci(p, m, scalar.defect)
    return CurvatureData(*scalar, ric, relative_norm(ric + (p.n + 1) * m.h, m.h))
