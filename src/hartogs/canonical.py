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

Holomorphic fields are polynomial.  `monomial_jets` evaluates monomials
and their exact gradients in one place, and `lie_from_jets` is the one
Lie-derivative formula: for a single field in `soliton_residual`, and for
the whole monomial basis at once in `soliton_sweep`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .curvature import curvature_at, ricci_tensor
from .metric import (
    DomainPoint,
    MetricData,
    assemble_metric,
    metric_gradients,
    metric_matrix,
    radial_data,
    require_interior,
)
from .profiles import Affine, Profile

#: default polynomial degree cap for holomorphic fields
MAX_FIELD_DEGREE = 2

Monomial = tuple[complex, tuple[int, ...]]


@dataclass(frozen=True)
class HoloVectorField:
    """Holomorphic vector field with polynomial component functions.

    Component k is sum_m coeff_m * z^exps_m (z only, never zbar, so each
    component is holomorphic by construction).  Total degree is capped by
    `max_degree`.
    """

    n: int
    components: tuple[tuple[Monomial, ...], ...]
    max_degree: int = MAX_FIELD_DEGREE

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
                if sum(exps) > self.max_degree:
                    raise ValueError(
                        f"monomial {exps!r} exceeds the degree cap {self.max_degree}"
                    )

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

    def jet(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Values f_k and exact Jacobian df[k, a] = d f_k / d z_a at z."""
        monos = [(k, c, e) for k, comp in enumerate(self.components) for c, e in comp]
        rows = [k for k, _, _ in monos]
        coeffs = np.array([c for _, c, _ in monos], dtype=complex)
        vals, grads = monomial_jets(z, [e for _, _, e in monos])
        values = np.zeros(self.n, dtype=complex)
        jac = np.zeros((self.n, self.n), dtype=complex)
        # add.at, not fancy-index +=, so that monomials of one component all count
        np.add.at(values, rows, coeffs * vals)
        np.add.at(jac, rows, coeffs[:, None] * grads)
        return values, jac

    @classmethod
    def from_text(cls, text: str, n: int, max_degree: int = MAX_FIELD_DEGREE) -> "HoloVectorField":
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
        return cls(n, tuple(comps), max_degree)


def monomial_jets(z, exps) -> tuple[np.ndarray, np.ndarray]:
    """Values z^e and exact gradients d z^e / d z_a of the monomials whose
    exponent tuples are the rows of `exps`, at the point z: shapes (M,) and
    (M, n).  The gradient lowers exponent a by one (to no less than 0,
    where its factor e_a is 0), so no coordinate is divided by and a zero
    coordinate is exact."""
    z = np.asarray(z, dtype=complex)
    e = np.asarray(exps, dtype=int).reshape(-1, z.size)
    lowered = np.maximum(e[:, None, :] - np.eye(z.size, dtype=int), 0)
    return np.prod(z**e, axis=1), e * np.prod(z**lowered, axis=2)


def lie_derivative_components(
    profile: Profile, p: DomainPoint, m: MetricData, x_field: HoloVectorField
) -> np.ndarray:
    """Mixed components of the Lie derivative of the metric along the real
    holomorphic field with holomorphic part (f_k):

        (L_X h)_{a,bbar} = sum_k [ f_k dh_{a,bbar}/dz_k
                                 + conj(f_k) dh_{a,bbar}/dzbar_k
                                 + (df_k/dz_a) h_{k,bbar}
                                 + conj(df_k/dz_b) h_{a,kbar} ].

    h and its radial data are read from the metric `m` assembled at p.
    Metric and polynomial derivatives are both exact.  The result is
    Hermitian to rounding.
    """
    if x_field.n != p.n:
        raise ValueError(f"field dimension {x_field.n} does not match point dimension {p.n}")
    dg, dgbar = metric_gradients(profile, m.radial, p.z)
    return lie_from_jets(m.h, dg, dgbar, *x_field.jet(p.z))


def lie_from_jets(h, dg, dgbar, f_vals, df) -> np.ndarray:
    """The Lie-derivative sum of `lie_derivative_components` from first
    jets at one point: the metric h, its Wirtinger derivatives
    dg[k] = dh/dz_k and dgbar[k] = dh/dzbar_k, the field values
    f_vals[..., k] = f_k and the field's Jacobian df[..., k, a] = df_k/dz_a.
    Leading axes of f_vals and df index fields; the result has them too."""
    n = h.shape[0]
    along = f_vals @ dg.reshape(n, -1) + f_vals.conj() @ dgbar.reshape(n, -1)
    return along.reshape(f_vals.shape + (n,)) + np.swapaxes(df, -1, -2) @ h + h @ df.conj()


def einstein_residual(profile: Profile, p: DomainPoint) -> float:
    """|| Ric + (n+1) h ||_F / (1 + ||h||_F); vanishes iff the radial
    curvature defect vanishes at the point."""
    return curvature_at(profile, p, assemble_metric(profile, p)).einstein


def soliton_residual(profile: Profile, p: DomainPoint, lam: float, field: HoloVectorField) -> float:
    """|| Ric - lam h - L_X h ||_F / (1 + ||h||_F) for the candidate pair
    (lam, X), X the real field of `field`."""
    m = assemble_metric(profile, p)
    ric = ricci_tensor(profile, p, m)
    lie = lie_derivative_components(profile, p, m, field)
    diff = ric - lam * m.h - lie
    return float(np.linalg.norm(diff) / (1.0 + np.linalg.norm(m.h)))


def extremal_residual(profile: Profile, p: DomainPoint) -> float:
    """max over a, c of | d T^a / dzbar_c | for the (1,0)-gradient field T
    of the scalar curvature, in closed form.  Zero exactly when T is
    holomorphic, i.e. when the metric is extremal."""
    return curvature_at(profile, p, assemble_metric(profile, p)).extremal


def hyperbolic_isometry(c1: float, c2: float, z) -> np.ndarray:
    """Rescaling (z_0, z_1, ...) -> (z_0 sqrt(c2/c1), z_1/sqrt(c1), ...)
    carrying the affine(c1, c2) domain into the unit hyperbolic model
    (the affine(1, 1) domain)."""
    src = Affine(c1, c2)
    p = require_interior(src, z)
    w = np.array(p.z, dtype=complex)
    w[0] *= math.sqrt(c2 / c1)
    w[1:] /= math.sqrt(c1)
    return w


def pullback_check(c1: float, c2: float, p: DomainPoint) -> float:
    """Relative Frobenius defect of the isometry: pull the hyperbolic
    metric back through the rescaling and compare with the affine(c1, c2)
    metric at p.  The Jacobian is the constant diagonal of the rescaling."""
    src = Affine(c1, c2)
    target = Affine(1.0, 1.0)
    w = hyperbolic_isometry(c1, c2, p.z)
    jac = np.full(p.n, 1.0 / math.sqrt(c1))
    jac[0] = math.sqrt(c2 / c1)
    h_target = metric_matrix(radial_data(target, w), w)
    pulled = (jac[:, None] * h_target) * jac[None, :]
    h_src = metric_matrix(radial_data(src, p.z), p.z)
    return float(np.linalg.norm(pulled - h_src) / (1.0 + np.linalg.norm(h_src)))


@dataclass(frozen=True)
class SweepResult:
    """Best least-squares soliton candidate over polynomial fields."""

    lam: float
    residual: float


def _monomial_exponents(n: int, degree: int):
    """All exponent tuples of total degree <= degree, lexicographic."""
    if n == 0:
        yield ()
        return
    for head in range(degree + 1):
        for rest in _monomial_exponents(n - 1, degree - head):
            yield (head, *rest)


def soliton_sweep(
    profile: Profile, points: list[DomainPoint], degree: int = MAX_FIELD_DEGREE
) -> SweepResult:
    """Least-squares search for the best (lam, X) over polynomial fields of
    bounded degree, across the given (non-empty) interior points.

    The residual Ric - lam h - L_X h is linear in lam and (real-linearly)
    in the field coefficients, so the minimiser comes from one real
    least-squares solve.  Rows are weighted by 1/(1 + ||h||_F) per point;
    the reported residual is the RMS of the pointwise normalized residual
    norms.  A floor bounded away from zero is the numeric trace of soliton
    rigidity on non-affine profiles.
    """
    n = points[0].n
    exps = sorted(_monomial_exponents(n, degree))
    units = np.array([1.0, 1.0j])
    eye = np.eye(n)
    blocks = []
    for p in points:
        m = assemble_metric(profile, p)
        ric = ricci_tensor(profile, p, m)
        dg, dgbar = metric_gradients(profile, m.radial, p.z)
        vals, grads = monomial_jets(p.z, exps)
        # after lam, one column per basis field (k, e, unit), k-major, with
        # f_j = delta_jk unit z^e
        f = np.einsum("kj,m,u->kmuj", eye, vals, units).reshape(-1, n)
        df = np.einsum("kj,ma,u->kmuja", eye, grads, units).reshape(-1, n, n)
        lie = lie_from_jets(m.h, dg, dgbar, f, df)
        mats = np.concatenate([ric[None], m.h[None], lie]).reshape(len(lie) + 2, -1)
        weight = 1.0 / (1.0 + np.linalg.norm(m.h))
        blocks.append(weight * np.concatenate([mats.real, mats.imag], axis=1).T)

    system = np.concatenate(blocks)
    rhs, design = system[:, 0], system[:, 1:]
    solution, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = rhs - design @ solution
    per_point = resid.reshape(len(points), -1)
    rms = float(np.sqrt(np.mean(np.sum(per_point**2, axis=1))))
    return SweepResult(lam=float(solution[0]), residual=rms)
