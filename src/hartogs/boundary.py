"""Levi-form analysis on the boundary slice |z_0|^2 < x0.

The boundary piece under study is the graph |z_1|^2 + ... + |z_{n-1}|^2 =
F(|z_0|^2), with global defining function

    rho(z) = |z_1|^2 + ... + |z_{n-1}|^2 - F(|z_0|^2).

Its Levi form is diagonal,

    L(X) = |X_1|^2 + ... + |X_{n-1}|^2 - (F' + F'' |z_0|^2) |X_0|^2,

and strong pseudoconvexity at a boundary point means positivity of L on
the complex tangent space

    S = { X : -F' zbar_0 X_0 + zbar_1 X_1 + ... + zbar_{n-1} X_{n-1} = 0 }.

Pointwise certification compresses the diagonal form onto an orthonormal
basis of S and reports the minimum eigenvalue; a positive value at every
sampled point is the boundary-side face of the margin criterion in
`profiles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .metric import x_and_gap
from .profiles import Profile, interior_x_max

#: construction tolerance on the defining function at boundary points
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryPoint:
    """Point on the boundary graph, with x = |z_0|^2 cached."""

    z: np.ndarray
    x: float

    @property
    def n(self) -> int:
        return self.z.size


def defining_residual(profile: Profile, z) -> float:
    """rho(z) = fiber norm squared - F(|z_0|^2) = -gap; zero on the boundary."""
    return -x_and_gap(profile, z)[1]


def boundary_point(profile: Profile, z, tol: float = BOUNDARY_TOL) -> BoundaryPoint:
    """Validated constructor; |rho(z)| must not exceed tol."""
    z = np.asarray(z, dtype=complex)
    if z.size < 2:
        raise ValueError("boundary points need at least two complex coordinates")
    x, gap = x_and_gap(profile, z)
    if abs(gap) > tol:
        raise DomainError(f"point misses the boundary graph by {-gap!r}")
    return BoundaryPoint(z, x)


def sample_boundary(profile: Profile, n: int, count: int, seed: int) -> list[BoundaryPoint]:
    """Deterministic boundary samples: |z_0|^2 uniform below the radial
    clearance bound, uniform phase, and a uniformly random fiber direction
    scaled to radius sqrt(F(|z_0|^2))."""
    if count <= 0:
        raise ValueError("sample count must be positive")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    x_top = interior_x_max(profile)
    points = []
    for _ in range(count):
        x = rng.uniform(0.0, x_top)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = np.empty(n, dtype=complex)
        z[0] = math.sqrt(x) * complex(math.cos(theta), math.sin(theta))
        while True:
            direction = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
            norm = np.linalg.norm(direction)
            if norm > 1e-12:
                break
        z[1:] = direction * (math.sqrt(profile.eval(x)) / norm)
        points.append(boundary_point(profile, z))
    return points


def levi_form(profile: Profile, b: BoundaryPoint, vector) -> float:
    """Levi form of the defining function at b applied to a vector."""
    d1 = profile.eval(b.x, 1)
    d2 = profile.eval(b.x, 2)
    x0c = complex(vector[0])
    head = (x0c.real * x0c.real + x0c.imag * x0c.imag) * (d1 + d2 * b.x)
    tail = 0.0
    for k in range(1, b.n):
        c = complex(vector[k])
        tail += c.real * c.real + c.imag * c.imag
    return tail - head


def levi_matrix(profile: Profile, b: BoundaryPoint) -> np.ndarray:
    """The Levi form as a diagonal Hermitian matrix."""
    d = np.ones(b.n)
    d[0] = -(profile.eval(b.x, 1) + profile.eval(b.x, 2) * b.x)
    return np.diag(d).astype(complex)


def tangent_gradient(profile: Profile, b: BoundaryPoint) -> np.ndarray:
    """Coefficients c of the tangency functional X -> sum_a c_a X_a."""
    c = np.conj(b.z)
    c[0] *= -profile.eval(b.x, 1)
    return c


def tangent_space_basis(profile: Profile, b: BoundaryPoint) -> np.ndarray:
    """Orthonormal basis (columns) of the complex tangent space at b, via
    the SVD null space of the tangency functional."""
    c = tangent_gradient(profile, b)
    if np.linalg.norm(c) < 1e-300:
        # F > 0 forces a nonzero fiber part on the boundary, so this cannot
        # happen for a valid profile
        raise DomainError("degenerate boundary gradient")
    _, _, vh = np.linalg.svd(c.reshape(1, b.n))
    return vh[1:].conj().T


def restricted_levi_min_eigenvalue(profile: Profile, b: BoundaryPoint) -> float:
    """Minimum eigenvalue of the Levi form compressed onto the complex
    tangent space; positive certifies strong pseudoconvexity at b."""
    basis = tangent_space_basis(profile, b)
    lev = levi_matrix(profile, b)
    compressed = basis.conj().T @ lev @ basis
    return float(np.linalg.eigvalsh(compressed)[0])


def levi_form_substituted(profile: Profile, b: BoundaryPoint, tail_vector) -> float:
    """Levi form on tangent vectors after eliminating X_0 through the
    tangency relation:

        |X_1|^2 + ... - (F' + F'' x)/(F'^2 x) |zbar_1 X_1 + ...|^2.

    Singular as z_0 -> 0; meant as a cross-check for |z_0|^2 > 1e-3 only.
    """
    if b.x <= 0.0:
        raise DomainError("substituted Levi form undefined at z_0 = 0")
    d1 = profile.eval(b.x, 1)
    d2 = profile.eval(b.x, 2)
    tail = np.asarray(tail_vector, dtype=complex)
    pairing = complex(np.vdot(b.z[1:], tail))
    return float(
        np.vdot(tail, tail).real
        - (d1 + d2 * b.x) / (d1 * d1 * b.x) * (pairing.real**2 + pairing.imag**2)
    )
