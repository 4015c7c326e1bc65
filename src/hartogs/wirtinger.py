"""Wirtinger derivatives of scalar fields on C^n by central finite differences.

No package code calls it: every oracle of the package differentiates
exactly, with jets (`jet`).  The tests use the stencil as an independent
reference for the closed-form and jet derivatives, and the benchmark's
tracer wraps `ComplexStencil`'s methods by name.  For z_k = u_k + i v_k,

    d/dz_k   = (d/du_k - i d/dv_k) / 2
    d/dzbar_k = (d/du_k + i d/dv_k) / 2

and both come from the same four stencil values f(z +/- h e_k),
f(z +/- i h e_k), second-order accurate.  `hessian_z_zbar` nests two first
differences, so roughly half the digits survive; only the tests call it.

Functions may be scalar- or array-valued.  Stencil points must stay inside
the domain of f: callers are expected to supply points whose distance to
the boundary is at least ten steps, and any non-finite stencil value raises
`NumericError`.
"""

from __future__ import annotations

import numpy as np

from .errors import Frozen, NumericError


def _stencil_values(f, z, alpha, h):
    """f at the four displaced points z +/- h e_alpha, z +/- i h e_alpha."""
    out = []
    for delta in (h, -h, 1j * h, -1j * h):
        w = z.copy()
        w[alpha] += delta
        v = f(w)
        if not np.all(np.isfinite(v)):
            raise NumericError(
                f"non-finite value on FD stencil at coordinate {alpha} (offset {delta})"
            )
        out.append(v)
    return out


def _pair_fixed(f, z, alpha, h):
    """(d/dz_alpha f, d/dzbar_alpha f) with an explicit step h."""
    fu_p, fu_m, fv_p, fv_m = _stencil_values(f, z, alpha, h)
    du = (fu_p - fu_m) / (2.0 * h)
    dv = (fv_p - fv_m) / (2.0 * h)
    return 0.5 * (du - 1j * dv), 0.5 * (du + 1j * dv)


class ComplexStencil(Frozen):
    """Second-order central stencil with per-coordinate step scaling.

    The effective step along coordinate k is `step * (1 + |z_k|)`.  A
    stencil is immutable.
    """

    __slots__ = ("step",)

    def __init__(self, step: float = 1e-4):
        if not step > 0:
            raise ValueError(f"stencil step must be positive, got {step}")
        object.__setattr__(self, "step", step)

    def scaled_step(self, z, alpha: int) -> float:
        return self.step * (1.0 + abs(z[alpha]))

    def d_zbar(self, f, point, alpha: int):
        """Anti-holomorphic Wirtinger derivative of f at point."""
        z = np.asarray(point, dtype=complex)
        return _pair_fixed(f, z, alpha, self.scaled_step(z, alpha))[1]

    def d_pair(self, f, point, alpha: int):
        """Both Wirtinger derivatives from one shared stencil (4 evaluations)."""
        z = np.asarray(point, dtype=complex)
        return _pair_fixed(f, z, alpha, self.scaled_step(z, alpha))

    def hessian_z_zbar(self, f, point) -> np.ndarray:
        """Mixed complex Hessian (d^2 f / dz_alpha dzbar_beta), Hermitized.

        The returned matrix is the average of the raw nested-difference
        matrix with its conjugate transpose, hence exactly Hermitian.
        Steps are frozen at the base point so the outer difference never
        differentiates the step-scaling itself.
        """
        z = np.asarray(point, dtype=complex)
        n = z.size
        steps = [self.scaled_step(z, k) for k in range(n)]
        out = np.empty((n, n), dtype=complex)
        for beta in range(n):
            h_inner = steps[beta]

            def dbar(w, _b=beta, _h=h_inner):
                return _pair_fixed(f, w, _b, _h)[1]

            for alpha in range(n):
                out[alpha, beta] = _pair_fixed(dbar, z, alpha, steps[alpha])[0]
        return 0.5 * (out + out.conj().T)
