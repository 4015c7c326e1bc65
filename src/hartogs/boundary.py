"""Levi-form analysis on the boundary slice |z_0|^2 < x0.

The boundary piece under study is the graph |z_1|^2 + ... + |z_{n-1}|^2 =
F(|z_0|^2), with global defining function

    rho(z) = |z_1|^2 + ... + |z_{n-1}|^2 - F(|z_0|^2).

Its Levi form is diagonal,

    L(X) = |X_1|^2 + ... + |X_{n-1}|^2 - (F' + F'' |z_0|^2) |X_0|^2,

that is L = I + (d0 - 1) e0 e0* with d0 = -(F' + x F''), x = |z_0|^2, and
strong pseudoconvexity at a boundary point means positivity of L on the
complex tangent space S = w^perp, w = (-F' z_0, z_1, ..., z_{n-1}).  On S,
L is the identity plus a rank-one term along the projection of e0, whose
squared length is F / (F + x F'^2) on the boundary.  So L|S has the
eigenvalue 1 with multiplicity n - 2 and one other,

    mu = det_core(x) / (F + x F'^2) = F^2 m(x) / (F + x F'^2),

with m the radial margin of `profiles`: a positive value at every sampled
point certifies the same margin from the boundary side.  A boundary point
is a `metric.DomainPoint` with margin 0.0, and the certification reads mu
from its radial data; `levi_compression_oracle` checks it by compressing L
onto an orthonormal basis of S and taking the smallest eigenvalue.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, float_faults
from .metric import DomainPoint, point_record, sample_streams, stacked_points, uniforms
from .profiles import Profile, interior_x_max

#: construction tolerance on the defining function at boundary points
BOUNDARY_TOL = 1e-12


def defining_residual(profile: Profile, z) -> float:
    """rho(z) = fiber norm squared - F(|z_0|^2) = -gap; zero on the boundary."""
    return -point_record(profile, z).gap


def boundary_point(profile: Profile, z) -> DomainPoint:
    """Validated constructor of the boundary record of z, whose margin is
    0.0, or of the stacked record of a stack of points; |rho| must not
    exceed BOUNDARY_TOL times max(1, F - x F') at each point, and
    DomainError names the first that misses.  rho is a difference of terms
    of that size: F, and x F' from the rounding of x = |z_0|^2."""
    b = point_record(profile, z, on_boundary=True)
    scale = b.f - b.x * b.d1
    # max(1.0, scale) as Python's max picks it
    misses = np.ravel(abs(b.gap) > BOUNDARY_TOL * np.where(scale > 1.0, scale, 1.0))
    if misses.any():
        gap = float(np.ravel(b.gap)[np.argmax(misses)])
        raise DomainError(f"point misses the boundary graph by {-gap!r}")
    return b


def sample_boundary(profile: Profile, n: int, count: int, seed: int) -> DomainPoint:
    """Deterministic boundary samples, as one stacked record: |z_0|^2
    uniform below the radial clearance bound, uniform phase, and a
    uniformly random fiber direction scaled to radius sqrt(F(|z_0|^2)).
    Point i takes draw i of the uniform stream of `sample_streams` (x) and
    row i of the phase stream (`stacked_points`), so the first K points of
    a sample of N are the sample of K."""
    if count <= 0:
        raise ValueError("sample count must be positive")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    uniform, phase = sample_streams(seed)
    xs = interior_x_max(profile) * uniforms(uniform, np.arange(count))
    z = stacked_points(phase, np.arange(count), n, xs, np.sqrt(profile.eval(xs)))
    return boundary_point(profile, z)


@float_faults
def restricted_levi_min_eigenvalue(profile: Profile, b: DomainPoint):
    """Minimum eigenvalue of the Levi form restricted to the complex tangent
    space, in closed form: mu = det_core / (F + x F'^2), and min(mu, 1) for
    n >= 3, at b or at each point of a stacked record.  Positive certifies
    strong pseudoconvexity at b."""
    denominator = b.f + b.x * b.d1 * b.d1
    # the denominator is 0 only where F underflows to 0, and there
    # mu <= F m(x) reads as 0 too; [()] makes a single point's mu a scalar
    mu = np.divide(b.det_core, denominator, out=np.zeros(np.shape(denominator)),
                   where=denominator != 0.0)[()]
    return mu if b.n == 2 else np.minimum(mu, 1.0)


def levi_matrix(profile: Profile, b: DomainPoint) -> np.ndarray:
    """The Levi form as a diagonal Hermitian matrix."""
    d = np.ones(b.n)
    d[0] = -(b.d1 + b.d2 * b.x)
    return np.diag(d).astype(complex)


def tangent_gradient(profile: Profile, b: DomainPoint) -> np.ndarray:
    """Coefficients c of the tangency functional X -> sum_a c_a X_a."""
    c = np.conj(b.z)
    c[0] *= -b.d1
    return c


def tangent_space_basis(profile: Profile, b: DomainPoint) -> np.ndarray:
    """Orthonormal basis (columns) of the complex tangent space at b, via
    the SVD null space of the tangency functional."""
    c = tangent_gradient(profile, b)
    if np.linalg.norm(c) < 1e-300:
        # the fiber part has norm sqrt(F) on the boundary, so this happens
        # only where F underflows to 0, as on steep profiles (powercap:800)
        raise DomainError("degenerate boundary gradient")
    _, _, vh = np.linalg.svd(c.reshape(1, b.n))
    return vh[1:].conj().T


def levi_compression_oracle(profile: Profile, b: DomainPoint) -> float:
    """Independent oracle for `restricted_levi_min_eigenvalue`: the Levi
    form compressed onto an orthonormal basis of the complex tangent space,
    and its smallest eigenvalue from a dense eigensolve.  It reads F', F''
    and z, never det_core."""
    basis = tangent_space_basis(profile, b)
    compressed = basis.conj().T @ levi_matrix(profile, b) @ basis
    return float(np.linalg.eigvalsh(compressed)[0])
