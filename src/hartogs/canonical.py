"""Canonical-metric residuals and the isometry with complex hyperbolic space.

The rigidity facts this package verifies numerically:

* extremal rigidity: the profile metric satisfies the extremal-metric
  equations iff the profile is affine, in which case the domain is
  holomorphically isometric to (an open piece of) complex hyperbolic space;
* soliton rigidity: a metric/holomorphic-field pair solving
  Ric = lambda h + L_X h forces the metric to be Einstein, i.e. again the
  affine/hyperbolic case.

Both are exposed as pointwise residuals in closed form: zero on affine
profiles (the extremal and Einstein residuals exactly), bounded away from
zero elsewhere.  The classification checks downstream read them against
two tiers: at most 1e-8 (the extremal residual) or 1e-9 (the Einstein
residual, unnormalized: ||Ric + (n+1) h||_F) counts as zero, at least 1e-3
on 90% of the samples as an obstruction; anything in between is treated as
suspicious by the test suites.

The residuals take a single or a stacked point record (`metric.point_record`)
and return one value per point.  The fields of `soliton-check --field`
are polynomial, with exact jets over a stack.  `lie_from_jets` is the one
Lie-derivative formula, from the derivative of h along the field in
O(n^2) (`metric.metric_derivative_along`): for a single field in
`soliton_residual`, and for two fields on a leading axis in `soliton_sweep`.

The sweep covers every holomorphic field with three real unknowns.  The
group U(1) x U(n-1), acting on z_0 and on the fiber, preserves gap and so
acts by isometries fixing h and Ric.  Averaging a solution (lam, X) of
Ric = lam h + L_X h over the group gives an invariant solution, and the
invariant holomorphic fields are a z_0 d/dz_0 + b z'.d/dz'; imaginary a
and b give Killing rotations, which add nothing.  So a soliton exists iff
real (lam, a, b) solve the equation.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .curvature import curvature_at, ricci_tensor
from .metric import (
    DomainPoint,
    MetricData,
    _times,
    assemble_metric,
    blocks,
    float_faults,
    frobenius_norm,
    metric_derivative_along,
    metric_matrix,
    raises_fp_faults,
    relative_norm,
    require_interior,
)
from .profiles import Affine, Profile

Monomial = tuple[complex, tuple[int, ...]]


@dataclass(frozen=True)
class HoloVectorField:
    """Holomorphic vector field with polynomial component functions.

    Component k is sum_m coeff_m * z^exps_m (z only, never zbar, so each
    component is holomorphic by construction).  Exponents are
    non-negative and fit a numpy integer.
    """

    n: int
    components: tuple[tuple[Monomial, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("fields need at least two components")
        if len(self.components) != self.n:
            raise ValueError(f"expected {self.n} components, got {len(self.components)}")
        for comp in self.components:
            for _, exps in comp:
                if len(exps) != self.n:
                    raise ValueError(f"monomial exponents {exps!r} do not match n={self.n}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps!r}")
                if any(e > np.iinfo(np.int_).max for e in exps):
                    raise ValueError(f"exponent in {exps!r} is too large")

    @classmethod
    def zero(cls, n: int) -> "HoloVectorField":
        return cls(n, tuple(() for _ in range(n)))

    @classmethod
    def rotation(cls, n: int, speed: float = 1.0) -> "HoloVectorField":
        """The diagonal rotation field with components i*speed*z_k; a
        Killing field for every profile metric."""
        comps = []
        for k in range(n):
            exps = tuple(1 if j == k else 0 for j in range(n))
            comps.append(((complex(0.0, speed), exps),))
        return cls(n, tuple(comps))

    @float_faults
    def jet(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Values f_k and exact Jacobian df[k, a] = d f_k / d z_a at z, or at
        each point of a stack z[..., a], with its leading axes, in one pass
        over the monomials.  The derivative lowers exponent a by one, so no
        coordinate is divided by and a zero coordinate is exact.  Each point
        has the bits, infinities and OverflowError of Python's complex
        arithmetic: `**` on each entry of a column, and products by
        `metric._times` from 1, as `math.prod` forms them."""
        z = np.asarray(z, dtype=complex)
        columns = [column.tolist() for column in z.reshape(-1, self.n).T]
        one = np.ones(len(columns[0]), dtype=complex)
        values = np.zeros((len(one), self.n), dtype=complex)
        jac = np.zeros((len(one), self.n, self.n), dtype=complex)
        for k, comp in enumerate(self.components):
            for coeff, exps in comp:
                powers = [(a, e) for a, e in enumerate(exps) if e]
                factors = [np.array([w**e for w in columns[a]], complex) for a, e in powers]
                values[:, k] += _times(coeff, functools.reduce(_times, factors, one))
                for i, (a, e) in enumerate(powers):
                    lowered = np.array([w ** (e - 1) for w in columns[a]], complex)
                    term = functools.reduce(_times, factors[:i] + [lowered] + factors[i + 1:], one)
                    jac[:, k, a] += _times(coeff, _times(complex(e), term))
        lead = z.shape[:-1]
        return values.reshape(lead + (self.n,)), jac.reshape(lead + (self.n, self.n))

    @classmethod
    def from_text(cls, text: str, n: int) -> "HoloVectorField":
        """Parse the wire format: components separated by `|`, monomials by
        `;`, each monomial `coeff_re,coeff_im:e0,e1,...,e{n-1}`.  An empty
        component is the zero polynomial."""
        chunks = text.split("|")
        if len(chunks) != n:
            raise ValueError(f"expected {n} '|'-separated components, got {len(chunks)}")
        comps = []
        for chunk in chunks:
            monos = []
            for raw in chunk.split(";"):
                raw = raw.strip()
                if not raw:
                    continue
                m = re.fullmatch(r"([^:]+):(.+)", raw)
                if m is None:
                    raise ValueError(f"bad monomial {raw!r}; want coeff_re,coeff_im:e0,...")
                try:
                    re_im = [float(s) for s in m.group(1).split(",")]
                    exps = tuple(int(s) for s in m.group(2).split(","))
                except ValueError as exc:
                    raise ValueError(f"bad monomial {raw!r}") from exc
                if len(re_im) != 2:
                    raise ValueError(f"coefficient of {raw!r} must be re,im")
                if not all(math.isfinite(v) for v in re_im):
                    raise ValueError(f"coefficient of {raw!r} must be finite")
                monos.append((complex(*re_im), exps))
            comps.append(tuple(monos))
        return cls(n, tuple(comps))


def lie_derivative_components(
    profile: Profile, p: DomainPoint, m: MetricData, x_field: HoloVectorField
) -> np.ndarray:
    """Mixed components of the Lie derivative of the metric along the real
    holomorphic field with holomorphic part (f_k):

        (L_X h)_{a,bbar} = sum_k [ f_k dh_{a,bbar}/dz_k
                                 + conj(f_k) dh_{a,bbar}/dzbar_k
                                 + (df_k/dz_a) h_{k,bbar}
                                 + conj(df_k/dz_b) h_{a,kbar} ].

    h is read from the metric `m` assembled at p, and its derivatives from
    the record p.
    Metric and polynomial derivatives are both exact.  The result is
    Hermitian to rounding.
    """
    if x_field.n != p.n:
        raise ValueError(f"field dimension {x_field.n} does not match point dimension {p.n}")
    f_vals, df = x_field.jet(p.z)
    return lie_from_jets(m.h, metric_derivative_along(profile, p, f_vals), df)


def lie_from_jets(h, along, df) -> np.ndarray:
    """The Lie-derivative sum of `lie_derivative_components` from first
    jets, D + D^H + df^T h + h conj(df), with the metric h[..., a, b], its
    derivative D[..., a, b] = sum_k f_k dh_ab/dz_k along the field
    (`metric.metric_derivative_along`; D^H is the sum of the conj(f_k)
    dh/dzbar_k terms, h being Hermitian) and the field's Jacobian
    df[..., k, a] = df_k/dz_a.  The leading axes of h index points, and D
    and df broadcast against h, with any axes that index fields leading."""
    return along + np.swapaxes(along.conj(), -1, -2) + np.swapaxes(df, -1, -2) @ h + h @ df.conj()


def einstein_residual(profile: Profile, p: DomainPoint) -> float:
    """|| Ric + (n+1) h ||_F / (1 + ||h||_F) at one point, or at each point
    of a stack; vanishes iff the radial curvature defect vanishes there."""
    return curvature_at(profile, p, assemble_metric(profile, p)).einstein


@raises_fp_faults
def soliton_residual(profile: Profile, p: DomainPoint, lam: float, field: HoloVectorField) -> float:
    """|| Ric - lam h - L_X h ||_F / (1 + ||h||_F) for the candidate pair
    (lam, X), X the real field of `field`, at one point or at each point of
    a stack.  The Lie sum and the norms run with numpy's faults raised, as
    the kernel does, so a field that overflows them is one
    FloatingPointError."""
    m = assemble_metric(profile, p)
    ric = ricci_tensor(profile, p, m)
    lie = lie_derivative_components(profile, p, m, field)
    return relative_norm(ric - lam * m.h - lie, m.h)


def extremal_residual(profile: Profile, p: DomainPoint) -> float:
    """max over a, c of | d T^a / dzbar_c | for the (1,0)-gradient field T
    of the scalar curvature, in closed form, at one point or at each point
    of a stack.  Zero exactly when T is holomorphic, i.e. when the metric
    is extremal."""
    return curvature_at(profile, p, assemble_metric(profile, p)).extremal


def hyperbolic_isometry(c1: float, c2: float, z) -> np.ndarray:
    """Rescaling (z_0, z_1, ...) -> (z_0 sqrt(c2/c1), z_1/sqrt(c1), ...)
    carrying the affine(c1, c2) domain into the unit hyperbolic model
    (the affine(1, 1) domain), of a point or of each point of a stack."""
    src = Affine(c1, c2)
    p = require_interior(src, z)
    w = np.array(p.z, dtype=complex)
    w[..., 0] *= math.sqrt(c2 / c1)
    w[..., 1:] /= math.sqrt(c1)
    return w


def pullback_check(c1: float, c2: float, p: DomainPoint):
    """Relative Frobenius defect of the isometry: pull the hyperbolic
    metric back through the rescaling and compare with the affine(c1, c2)
    metric at p, a single or stacked point record of that domain.  The
    Jacobian is the constant diagonal of the rescaling."""
    images = require_interior(Affine(1.0, 1.0), hyperbolic_isometry(c1, c2, p.z))
    jac = np.full(p.n, 1.0 / math.sqrt(c1))
    jac[0] = math.sqrt(c2 / c1)
    h_target = metric_matrix(images)
    pulled = (jac[:, None] * h_target) * jac[None, :]
    h_src = metric_matrix(p)
    return relative_norm(pulled - h_src, h_src)


@dataclass(frozen=True)
class SweepResult:
    """Best least-squares soliton candidate: lam and the invariant field
    X = a z_0 d/dz_0 + b z'.d/dz'."""

    lam: float
    a: float
    b: float
    residual: float


@raises_fp_faults
def soliton_sweep(profile: Profile, points: DomainPoint) -> SweepResult:
    """Least-squares search for the best (lam, X) over all holomorphic
    fields, across the interior points of a stacked record (at least two).

    By the averaging argument of the module docstring, X ranges over
    a z_0 d/dz_0 + b z'.d/dz' with real a and b, and the residual
    Ric - lam h - L_X h is linear in (lam, a, b), so the minimiser comes
    from one three-column real least-squares solve.  Rows are weighted by
    1/(1 + ||h||_F) per point; the reported residual is the RMS of the
    pointwise normalized residual norms.  A floor bounded away from zero is
    the numeric trace of soliton rigidity on non-affine profiles.  The
    points are evaluated as stacked records (`metric.blocks`), with numpy's
    faults raised as in the kernel.
    """
    n = points.n
    # row 0 selects z_0, row 1 the fiber: f = split * z and df_k/dz_a = split_k delta_ka
    split = np.zeros((2, n))
    split[0, 0] = 1.0
    split[1, 1:] = 1.0
    df = split[:, None, :, None] * np.eye(n)
    rows = []
    for p in blocks(points):
        m = assemble_metric(profile, p)
        ric = ricci_tensor(profile, p, m)
        lie = lie_from_jets(m.h, metric_derivative_along(profile, p, split[:, None] * p.z), df)
        mats = np.concatenate([ric[:, None], m.h[:, None], np.moveaxis(lie, 0, 1)], axis=1)
        mats = mats.reshape(len(p), 4, -1)
        weight = 1.0 / (1.0 + frobenius_norm(m.h))
        parts = np.concatenate([mats.real, mats.imag], axis=2)
        rows.append(weight[:, None, None] * np.swapaxes(parts, 1, 2))

    system = np.concatenate(rows).reshape(-1, 4)
    rhs, design = system[:, 0], system[:, 1:]
    solution, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = rhs - design @ solution
    per_point = resid.reshape(len(points), -1)
    rms = float(np.sqrt(np.mean(np.sum(per_point**2, axis=1))))
    lam, a, b = (float(v) for v in solution)
    return SweepResult(lam=lam, a=a, b=b, residual=rms)
