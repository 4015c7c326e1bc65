"""Second-order forward-mode jets: first and second derivatives, exact to
rounding, with no step to choose.

A `Jet` is a real value together with its gradient and Hessian over m real
input directions.  Arithmetic (`+ - * /`, `**` with a real exponent) and
`exp` / `log` carry all three through the chain rule, so one evaluation of
a formula on jet inputs gives its whole Hessian at once.  This is the
multi-direction form of the hyper-dual numbers of Fike and Alonso, "The
development of hyper-dual numbers for exact second-derivative
calculations" (AIAA 2011-886): there is no truncation error, and rounding
is that of evaluating the formula itself.

`JetPoint` gives jets over the 2n real coordinates z_k = u_k + i v_k of a
point of C^n (u_k in direction k, v_k in direction n + k) of the sums of
|z_k|^2, and turns the real Hessian H of a real function of them into its
mixed complex Hessian

    d^2 f / dz_a dzbar_b = (H_uu + H_vv + i (H_uv - H_uv^T))[a, b] / 4.

`exp` and `log` also take plain numbers and then call `math.exp` and
`math.log`, so a closed form written with them gives the same bits on
floats as before.  Jets are immutable: no operation writes into the arrays
of its operands, which may therefore be shared between jets.
"""

from __future__ import annotations

import math

import numpy as np


class Jet:
    """Value `val`, gradient `grad` (shape (m,)) and Hessian `hess`
    (shape (m, m)) of a real quantity.  Comparisons compare values."""

    __slots__ = ("val", "grad", "hess")

    #: numpy operators defer to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, val: float, grad: np.ndarray, hess: np.ndarray):
        self.val = val
        self.grad = grad
        self.hess = hess

    def _chain(self, f0: float, f1: float, f2: float) -> Jet:
        """f(self), given f, f' and f'' at self.val."""
        g = self.grad
        return Jet(f0, f1 * g, f1 * self.hess + f2 * (g[:, None] * g))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        return Jet(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.val, other.val
            cross = self.grad[:, None] * other.grad
            return Jet(
                a * b,
                a * other.grad + b * self.grad,
                a * other.hess + b * self.hess + (cross + cross.T),
            )
        return Jet(self.val * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.val / other, self.grad / other, self.hess / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> Jet:
        inv = 1.0 / self.val
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, p):
        if isinstance(p, Jet):
            return NotImplemented
        v = self.val
        return self._chain(v**p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    def exp(self) -> Jet:
        e = math.exp(self.val)
        return self._chain(e, e, e)

    def log(self) -> Jet:
        inv = 1.0 / self.val
        return self._chain(math.log(self.val), inv, -inv * inv)

    def __lt__(self, other):
        return self.val < other

    def __le__(self, other):
        return self.val <= other

    def __gt__(self, other):
        return self.val > other

    def __ge__(self, other):
        return self.val >= other

    def __repr__(self):
        return f"Jet({self.val!r}, grad={self.grad!r}, hess={self.hess!r})"


def exp(v):
    """e**v: `math.exp` on a number, the chain rule on a `Jet`."""
    return v.exp() if isinstance(v, Jet) else math.exp(v)


def log(v):
    """Natural logarithm: `math.log` on a number, the chain rule on a `Jet`."""
    return v.log() if isinstance(v, Jet) else math.log(v)


class JetPoint:
    """A point z of C^n, for jets over its 2n real coordinates: u_k = Re z_k
    is direction k and v_k = Im z_k direction n + k."""

    __slots__ = ("z", "n")

    def __init__(self, z):
        self.z = np.asarray(z, dtype=complex)
        self.n = self.z.size

    def norm_sq(self, start: int, stop: int) -> Jet:
        """|z_start|^2 + ... + |z_(stop-1)|^2 as a jet: its gradient is 2 u_k
        and 2 v_k in the directions of u_k and v_k, and its Hessian 2 on
        their diagonal entries."""
        n = self.n
        part = self.z[start:stop]
        grad = np.zeros(2 * n)
        grad[start:stop] = 2.0 * part.real
        grad[n + start : n + stop] = 2.0 * part.imag
        diag = np.zeros(2 * n)
        diag[start:stop] = diag[n + start : n + stop] = 2.0
        return Jet(float(np.vdot(part, part).real), grad, np.diag(diag))

    def hessian_z_zbar(self, f: Jet) -> np.ndarray:
        """Mixed complex Hessian (d^2 f / dz_a dzbar_b) of a real jet f
        over these coordinates; Hermitian, since f.hess is symmetric."""
        n = self.n
        h = f.hess
        h_uv = h[:n, n:]
        return (h[:n, :n] + h[n:, n:] + 1j * (h_uv - h_uv.T)) / 4.0
