"""Canonical-metric residuals and the isometry with complex hyperbolic space.

The rigidity facts this package verifies numerically:

* extremal rigidity: the profile metric satisfies the extremal-metric
  equations iff the profile is affine, in which case the domain is
  holomorphically isometric to (an open piece of) complex hyperbolic space;
* soliton rigidity: a metric/holomorphic-field pair solving
  Ric = lambda h + L_X h forces the metric to be Einstein, i.e. again the
  affine/hyperbolic case.

Both are exposed as pointwise residuals: zero (to closed-form precision)
on affine profiles, bounded away from zero elsewhere.  Residual thresholds
downstream follow the two-tier budget: 1e-8 where closed forms dominate,
1e-5 where two finite-difference layers stack; anything in between is
treated as suspicious by the test suites.

Metric first derivatives entering the Lie derivative use a dedicated
stencil with a smaller step than the mixed-Hessian oracle: first
differences tolerate it, and the Killing-field cancellation checks need
the truncation floor at the 1e-9 level.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .curvature import ricci_tensor, scal_slope, scal_slope_d1
from .errors import DomainError
from .metric import (
    DomainPoint,
    assemble_metric,
    inverse_metric_matrix,
    metric_matrix,
    require_interior,
    sample_interior,
    x_and_gap,
)
from .profiles import Affine, Profile
from .wirtinger import ComplexStencil, DEFAULT_STENCIL

#: default polynomial degree cap for holomorphic fields
MAX_FIELD_DEGREE = 2

#: stencil for first derivatives of metric entries (Lie derivative); first
#: differences tolerate a much smaller step than the mixed-Hessian oracle,
#: and the Killing-cancellation checks need the truncation floor below 1e-9
FIRST_DERIVATIVE_STENCIL = ComplexStencil(step=1e-6)

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

    @classmethod
    def constant(cls, n: int, k: int, value: complex = 1.0) -> "HoloVectorField":
        """Constant translation field along coordinate k."""
        comps = [() for _ in range(n)]
        comps[k] = ((complex(value), (0,) * n),)
        return cls(n, tuple(comps))

    def is_zero(self) -> bool:
        return all(len(comp) == 0 for comp in self.components)

    def value(self, k: int, z) -> complex:
        """Component function f_k at z."""
        total = 0.0 + 0.0j
        for coeff, exps in self.components[k]:
            term = coeff
            for j, e in enumerate(exps):
                if e:
                    term *= complex(z[j]) ** e
            total += term
        return total

    def d1(self, k: int, alpha: int, z) -> complex:
        """Exact holomorphic derivative d f_k / d z_alpha at z."""
        total = 0.0 + 0.0j
        for coeff, exps in self.components[k]:
            e_a = exps[alpha]
            if e_a == 0:
                continue
            term = coeff * e_a
            for j, e in enumerate(exps):
                power = e - 1 if j == alpha else e
                if power:
                    term *= complex(z[j]) ** power
            total += term
        return total

    def jet(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Values f_k and exact Jacobian df[k, a] = d f_k / d z_a at z."""
        ks = range(self.n)
        values = np.array([self.value(k, z) for k in ks], dtype=complex)
        return values, np.array([[self.d1(k, a, z) for a in ks] for k in ks], dtype=complex)

    def __add__(self, other: "HoloVectorField") -> "HoloVectorField":
        if self.n != other.n:
            raise ValueError("cannot add fields of different dimension")
        merged = []
        for a, b in zip(self.components, other.components):
            acc: dict[tuple[int, ...], complex] = {}
            for coeff, exps in (*a, *b):
                acc[exps] = acc.get(exps, 0.0 + 0.0j) + coeff
            merged.append(tuple((c, e) for e, c in sorted(acc.items()) if c != 0))
        degree = max(self.max_degree, other.max_degree)
        return HoloVectorField(self.n, tuple(merged), degree)

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
                monos.append((complex(*re_im), exps))
            comps.append(tuple(monos))
        return cls(n, tuple(comps), max_degree)


@dataclass(frozen=True)
class SolitonParams:
    """Candidate soliton pair: constant lam and holomorphic field."""

    lam: float
    field: HoloVectorField

    @property
    def gamma(self) -> float:
        """Shifted constant lam + (n+1), zero for the Einstein value."""
        return self.lam + self.field.n + 1


def metric_entry_gradients(
    profile: Profile, z, stencil: ComplexStencil = FIRST_DERIVATIVE_STENCIL
):
    """Wirtinger first derivatives of every metric entry.

    Returns (dg, dgbar) with dg[k][a, b] = d g_{a,bbar} / d z_k; both come
    from the same 4n evaluations of the full matrix.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size

    def h_of(w):
        return metric_matrix(profile, w)

    dg = np.empty((n, n, n), dtype=complex)
    dgbar = np.empty((n, n, n), dtype=complex)
    for k in range(n):
        dz, dzbar = stencil.d_pair(h_of, z, k)
        dg[k] = dz
        dgbar[k] = dzbar
    return dg, dgbar


def lie_derivative_components(
    profile: Profile,
    p: DomainPoint,
    x_field: HoloVectorField,
    stencil: ComplexStencil = FIRST_DERIVATIVE_STENCIL,
) -> np.ndarray:
    """Mixed components of the Lie derivative of the metric along the real
    holomorphic field with holomorphic part (f_k):

        (L_X h)_{a,bbar} = sum_k [ f_k dh_{a,bbar}/dz_k
                                 + conj(f_k) dh_{a,bbar}/dzbar_k
                                 + (df_k/dz_a) h_{k,bbar}
                                 + conj(df_k/dz_b) h_{a,kbar} ].

    Metric derivatives are finite differences on the closed-form entries;
    polynomial derivatives are exact.  The result is Hermitian to rounding.
    """
    if x_field.n != p.n:
        raise ValueError(f"field dimension {x_field.n} does not match point dimension {p.n}")
    n = p.n
    if x_field.is_zero():
        return np.zeros((n, n), dtype=complex)
    if p.margin < 10.0 * stencil.step:
        raise DomainError(
            f"margin {p.margin!r} too small for FD step {stencil.step!r} (need >= 10 steps)"
        )
    h = metric_matrix(profile, p.z)
    dg, dgbar = metric_entry_gradients(profile, p.z, stencil)
    return lie_from_jets(h, dg, dgbar, *x_field.jet(p.z))


def lie_from_jets(h, dg, dgbar, f_vals, df) -> np.ndarray:
    """The Lie-derivative sum of `lie_derivative_components` from first
    jets at one point: the metric h, its Wirtinger derivatives
    dg[k] = dh/dz_k and dgbar[k] = dh/dzbar_k, the field values
    f_vals[k] = f_k and the field's Jacobian df[k, a] = df_k/dz_a."""
    n = h.shape[0]
    along = f_vals @ dg.reshape(n, -1) + f_vals.conj() @ dgbar.reshape(n, -1)
    return along.reshape(n, n) + df.T @ h + h @ df.conj()


def einstein_residual(profile: Profile, p: DomainPoint) -> float:
    """|| Ric + (n+1) h ||_F / (1 + ||h||_F); vanishes iff the radial
    curvature defect vanishes at the point."""
    m = assemble_metric(profile, p)
    ric = ricci_tensor(profile, p, m)
    diff = ric + (p.n + 1) * m.h
    return float(np.linalg.norm(diff) / (1.0 + np.linalg.norm(m.h)))


def soliton_residual(profile: Profile, p: DomainPoint, params: SolitonParams) -> float:
    """|| Ric - lam h - L_X h ||_F / (1 + ||h||_F) for a given candidate pair."""
    m = assemble_metric(profile, p)
    ric = ricci_tensor(profile, p, m)
    lie = lie_derivative_components(profile, p, params.field)
    diff = ric - params.lam * m.h - lie
    return float(np.linalg.norm(diff) / (1.0 + np.linalg.norm(m.h)))


def scal_gradient_bar(profile: Profile, z) -> np.ndarray:
    """Anti-holomorphic gradient of the scalar curvature, in closed form:

        d scal / dzbar_0 = z_0 (slope' * gap + slope * F')
        d scal / dzbar_i = -slope * z_i.
    """
    z = np.asarray(z, dtype=complex)
    x, gap = x_and_gap(profile, z)
    slope = scal_slope(profile, x)
    slope_d1 = scal_slope_d1(profile, x)
    grad = np.empty(z.size, dtype=complex)
    grad[0] = complex(z[0]) * (slope_d1 * gap + slope * profile.eval(x, 1))
    for i in range(1, z.size):
        grad[i] = -slope * complex(z[i])
    return grad


def extremal_field(profile: Profile, z) -> np.ndarray:
    """T^a(z) = sum_b g^{b,abar} d scal/dzbar_b: the (1,0)-gradient field of
    the scalar curvature.  The metric is extremal iff T is holomorphic."""
    k = inverse_metric_matrix(profile, z)
    return k.T @ scal_gradient_bar(profile, z)


def extremal_residual(
    profile: Profile, p: DomainPoint, stencil: ComplexStencil = DEFAULT_STENCIL
) -> float:
    """max over a, c of | d T^a / dzbar_c |, by Wirtinger differences.

    Zero (to rounding) exactly when the scalar-curvature gradient field is
    holomorphic, i.e. when the metric is extremal.
    """
    if p.margin < 10.0 * stencil.step:
        raise DomainError(
            f"margin {p.margin!r} too small for FD step {stencil.step!r} (need >= 10 steps)"
        )

    def t_of(w):
        return extremal_field(profile, w)

    worst = 0.0
    for c in range(p.n):
        deriv = stencil.d_zbar(t_of, p.z, c)
        worst = max(worst, float(np.max(np.abs(deriv))))
    return worst


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
    h_target = metric_matrix(target, w)
    pulled = (jac[:, None] * h_target) * jac[None, :]
    h_src = metric_matrix(src, p.z)
    return float(np.linalg.norm(pulled - h_src) / (1.0 + np.linalg.norm(h_src)))


@dataclass(frozen=True)
class SweepResult:
    """Best least-squares soliton candidate over polynomial fields."""

    lam: float
    field: HoloVectorField
    residual: float
    samples: int


def _monomial_exponents(n: int, degree: int):
    """All exponent tuples of total degree <= degree, lexicographic."""
    if n == 0:
        yield ()
        return
    for head in range(degree + 1):
        for rest in _monomial_exponents(n - 1, degree - head):
            yield (head, *rest)


def soliton_sweep(
    profile: Profile,
    n: int,
    samples: int,
    seed: int,
    degree: int = MAX_FIELD_DEGREE,
    min_margin: float = 0.3,
) -> SweepResult:
    """Least-squares search for the best (lam, X) over polynomial fields of
    bounded degree, across a fixed sample of interior points.

    The residual Ric - lam h - L_X h is linear in lam and (real-linearly)
    in the field coefficients, so the minimiser comes from one real
    least-squares solve.  Rows are weighted by 1/(1 + ||h||_F) per point;
    the reported residual is the RMS of the pointwise normalized residual
    norms.  A floor bounded away from zero is the numeric trace of soliton
    rigidity on non-affine profiles.
    """
    pts = sample_interior(profile, n, samples, seed, min_margin=min_margin)
    exps = sorted(_monomial_exponents(n, degree))
    basis = [(k, e, unit) for k in range(n) for e in exps for unit in (1.0 + 0.0j, 1.0j)]
    fields = [
        HoloVectorField(n, tuple(((unit, e),) if j == k else () for j in range(n)), degree)
        for k, e, unit in basis
    ]

    def realify(mat: np.ndarray) -> np.ndarray:
        return np.concatenate([mat.real.ravel(), mat.imag.ravel()])

    rows_rhs = []
    rows_lam = []
    rows_fields: list[list[np.ndarray]] = [[] for _ in basis]
    for p in pts:
        m = assemble_metric(profile, p)
        ric = ricci_tensor(profile, p, m)
        h = m.h
        weight = 1.0 / (1.0 + np.linalg.norm(h))
        dg, dgbar = metric_entry_gradients(profile, p.z)
        rows_rhs.append(weight * realify(ric))
        rows_lam.append(weight * realify(h))
        for idx, field in enumerate(fields):
            lie = lie_from_jets(h, dg, dgbar, *field.jet(p.z))
            rows_fields[idx].append(weight * realify(lie))

    rhs = np.concatenate(rows_rhs)
    cols = [np.concatenate(rows_lam)]
    cols.extend(np.concatenate(col) for col in rows_fields)
    design = np.stack(cols, axis=1)
    solution, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = rhs - design @ solution
    per_point = resid.reshape(len(pts), -1)
    rms = float(np.sqrt(np.mean(np.sum(per_point**2, axis=1))))

    lam = float(solution[0])
    comps: list[dict[tuple[int, ...], complex]] = [dict() for _ in range(n)]
    for coeff, (k, e, unit) in zip(solution[1:], basis):
        if coeff != 0.0:
            comps[k][e] = comps[k].get(e, 0.0 + 0.0j) + coeff * unit
    field = HoloVectorField(
        n,
        tuple(tuple((c, e) for e, c in sorted(comp.items())) for comp in comps),
        degree,
    )
    return SweepResult(lam=lam, field=field, residual=rms, samples=len(pts))
