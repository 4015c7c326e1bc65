"""Second-order forward-mode jets: first and second derivatives, exact to
rounding, with no step to choose.

A `Jet` is a stack of N real values along a leading point axis, each with
its gradient and Hessian over m real input directions: `val` of shape
(N,), `grad` (N, m) and `hess` (N, m, m); one value is a one-row stack.
Arithmetic (`+ - * /`, `**` with a real exponent) and `exp` / `log` carry
all three through the chain rule, so one evaluation of a formula on jet
inputs gives its whole Hessian at once.  This is the multi-direction form
of the hyper-dual numbers of Fike and Alonso, "The development of
hyper-dual numbers for exact second-derivative calculations" (AIAA
2011-886): there is no truncation error, and rounding is that of
evaluating the formula itself.

Every operation runs on the stack at once and gives each row the bits of
the same operation on Python floats: `**` calls `np.float_power`, the C
library's pow that Python's float ** float calls, and `exp` and `log`
call `math.exp` and `math.log` on each entry.  The other operand of an
operation is a jet of the same stack or a number.

`JetPoint` gives jets over the 2n real coordinates z_k = u_k + i v_k of
each point of a stack (u_k in direction k, v_k in direction n + k), of
the sums of |z_k|^2, and turns the real Hessian H of a real function of
them into its mixed complex Hessian

    d^2 f / dz_a dzbar_b = (H_uu + H_vv + i (H_uv - H_uv^T))[a, b] / 4.

`exp`, `log` and `power` also take floats and arrays, with the bits of
`math.exp`, `math.log` and Python's `**`, so a closed form written with
them takes a float, an array or a jet.  Jets are immutable: no operation
writes into the arrays of its operands, which may therefore be shared
between jets.
"""

from __future__ import annotations

import math

import numpy as np


def _entrywise(fn, v):
    """fn of a number, or of each entry of an array, with fn's bits."""
    if isinstance(v, np.ndarray):
        return np.fromiter(map(fn, v.ravel().tolist()), float, v.size).reshape(v.shape)
    return fn(v)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i b_j over the last axis, for each jet of a stack."""
    return a[..., :, None] * b[..., None, :]


class Jet:
    """Values `val` (shape (N,)), gradients `grad` (N, m) and Hessians
    `hess` (N, m, m) of N real quantities stacked along a leading axis.
    Comparisons compare values."""

    __slots__ = ("val", "grad", "hess")

    #: numpy operators defer to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, val: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.val = val
        self.grad = grad
        self.hess = hess

    def _chain(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> Jet:
        """f(self), given f, f' and f'' at self.val."""
        g, f1, f2 = self.grad, f1[:, None], f2[:, None, None]
        return Jet(f0, f1 * g, f1[..., None] * self.hess + f2 * _outer(g, g))

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
            a, b = self.val[:, None], other.val[:, None]
            cross = _outer(self.grad, other.grad)
            return Jet(
                self.val * other.val, a * other.grad + b * self.grad,
                a[..., None] * other.hess + b[..., None] * self.hess
                + (cross + np.swapaxes(cross, -1, -2)),
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
        v, pw = self.val, np.float_power
        return self._chain(pw(v, p), p * pw(v, p - 1), p * (p - 1) * pw(v, p - 2))

    def exp(self) -> Jet:
        e = _entrywise(math.exp, self.val)
        return self._chain(e, e, e)

    def log(self) -> Jet:
        inv = 1.0 / self.val
        return self._chain(_entrywise(math.log, self.val), inv, -inv * inv)

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
    """e**v: the chain rule on a `Jet`, `math.exp` on a number and on each
    entry of an array (`np.exp` differs from it in about 5% of values)."""
    return v.exp() if isinstance(v, Jet) else _entrywise(math.exp, v)


def power(v, p):
    """v**p: the chain rule on a `Jet`; otherwise `np.float_power`, the C
    library's pow, which Python's float ** float calls too."""
    return v**p if isinstance(v, Jet) else np.float_power(v, p)


def log(v):
    """Natural logarithm: the chain rule on a `Jet`, `math.log` on a number
    and on each entry of an array."""
    return v.log() if isinstance(v, Jet) else _entrywise(math.log, v)


class JetPoint:
    """A stack z of shape (N, n) of points of C^n, a 1-D z being a one-row
    stack, for jets over their 2n real coordinates: u_k = Re z_k is
    direction k and v_k = Im z_k direction n + k."""

    __slots__ = ("z", "n")

    def __init__(self, z):
        z = np.asarray(z, dtype=complex)
        self.n = z.shape[-1]
        self.z = z.reshape(-1, self.n)

    def norm_sq(self, start: int, stop: int) -> Jet:
        """|z_start|^2 + ... + |z_(stop-1)|^2 as a jet: its gradient is 2 u_k
        and 2 v_k in the directions of u_k and v_k, and its Hessian 2 on
        their diagonal entries.  The value adds u_k^2 + v_k^2 one
        coordinate at a time, in order (Python's `sum` over the columns), as
        `metric.point_record` sums |z|^2, so it has the record's bits."""
        n = self.n
        part = self.z[:, start:stop]
        grad = np.zeros((len(part), 2 * n))
        grad[:, start:stop] = 2.0 * part.real
        grad[:, n + start : n + stop] = 2.0 * part.imag
        diag = np.zeros(2 * n)
        diag[start:stop] = diag[n + start : n + stop] = 2.0
        hess = np.broadcast_to(np.diag(diag), grad.shape + (2 * n,))
        return Jet(sum((part.real * part.real + part.imag * part.imag).T), grad, hess)

    def hessian_z_zbar(self, f: Jet) -> np.ndarray:
        """Mixed complex Hessian (d^2 f / dz_a dzbar_b) of a real jet f
        over these coordinates, shape (N, n, n); Hermitian, since f.hess is
        symmetric."""
        n = self.n
        h = f.hess
        h_uv = h[..., :n, n:]
        return (h[..., :n, :n] + h[..., n:, n:] + 1j * (h_uv - np.swapaxes(h_uv, -1, -2))) / 4.0
