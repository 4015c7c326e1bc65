"""Boundary profiles of rotation-invariant domains in C^n.

A profile is a positive, strictly decreasing function F on [0, x0), with
x0 finite or infinite.  It defines the domain

    D = { z in C^n : |z_0|^2 < x0,  |z_1|^2 + ... + |z_{n-1}|^2 < F(|z_0|^2) }.

Profiles form a closed set of families, each carrying closed-form first,
second and third derivatives, the radial determinant factor det_core, and
the radial curvature functionals built from it: the defect
(x (log det_core)')' and the first and second derivatives (`slope_d1`,
`slope_d2`) of the scalar-curvature slope -defect F / det_core.
These involve derivatives of F beyond the second, so arbitrary user
callables are deliberately not supported; extending the zoo means adding a
family here, with its closed forms.

Strong pseudoconvexity of the domain is decided through the scalar margin
m(x) = -(x F'(x)/F(x))', which must stay positive on [0, x0); each CLI
family states it in closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, Frozen, float_faults
from .jet import Jet, exp, power

#: interior grids and samplers stay at least this relative distance from x0
BOUNDARY_CLEARANCE = 1e-3

#: when x0 is infinite, samplers and grids cap |z_0|^2 at this value
UNBOUNDED_X_CAP = 10.0


def _constant(value: float, x):
    """A constant closed form: an array of x's shape at an array x."""
    return np.full(x.shape, value) if isinstance(x, np.ndarray) else value


def _require_domain(profile: Profile, x) -> None:
    """DomainError naming x, or the first x of an array or of the values of
    a jet, as a float, outside [0, x0)."""
    inside = (0.0 <= x) & (x < profile.x0)
    if not (inside is True or np.logical_and.reduce(inside, axis=None)):
        first = float(np.ravel(x.val if isinstance(x, Jet) else x)[np.argmin(inside)])
        raise DomainError(f"x={first!r} outside [0, {profile.x0!r}) for {profile.label()}")


class Profile(Frozen):
    """Base class for profile families.

    A family's `params` name its parameters, in order, and `defaults` gives
    the value of any that may be left out.  Each must be finite and > 0,
    and they alone make up its label `family:f1,f2`, its CLI arity, its
    equality (same family, same values), its hash and its repr, which
    reads like the call that builds it (`PowerCap(p=2.0)`).  A profile is
    immutable: assigning or deleting an attribute raises AttributeError.
    Subclasses provide the closed forms `_f`, `_d1`, `_d2`, `_d3`
    (value and first three derivatives), the domain bound `x0`, optionally
    a simplified `det_core` and a `radial` that shares work between them,
    the pseudoconvexity `margin`, and the radial curvature functionals
    `defect`, `slope_d1` and `slope_d2`.  Written with `jet.power`,
    `jet.exp` and `_constant`, each takes a float or an array of x, and
    gives each entry the bits it has at that float.  `_f` and `det_core`
    also accept a `jet.Jet` for x: the metric and Ricci oracles
    differentiate them, and nothing else of the family.
    """

    __slots__ = params = ()
    defaults: dict[str, float] = {}
    family = "base"

    def __init__(self, *args, **kwargs):
        names = self.params
        given = {**self.defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]) \
                or len(given) < len(names):
            raise TypeError(f"{type(self).__name__} takes {names}, got {args!r} and {kwargs!r}")
        for name in names:
            value = given[name]
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{self.family} profile needs finite {name} > 0, got {value!r}")
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.params)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.params)
        return f"{type(self).__qualname__}({args})"

    def label(self) -> str:
        # `:g` where it reads back as the same float, else every digit, so
        # that parse_profile(label) gives this profile again
        values = self._values()
        params = ",".join(f"{v:g}" if float(f"{v:g}") == v else repr(float(v)) for v in values)
        return f"{self.family}:{params}" if params else self.family

    def eval(self, x, order: int = 0):
        """Evaluate F, F', F'' or F''' at x, or at each x of an array."""
        _require_domain(self, x)
        if order == 0:
            return self._f(x)
        if order == 1:
            return self._d1(x)
        if order == 2:
            return self._d2(x)
        if order == 3:
            return self._d3(x)
        raise ValueError(f"order must be 0, 1, 2 or 3, got {order!r}")

    def radial(self, x):
        """(F, F', F'', det_core) at x, or at each x of an array, with the
        bits of `eval` and `det_core`, from one domain check: the radial
        data of a point record (`metric.point_record`)."""
        _require_domain(self, x)
        return self._f(x), self._d1(x), self._d2(x), self.det_core(x)

    def det_core(self, x):
        """The radial factor of the metric determinant:

            det_core(x) = x F'(x)^2 - F(x) (F'(x) + F''(x) x)

        so that det(metric) = det_core(x) / gap^(n+1).  Unlike `eval` this is
        not domain-guarded; callers pass x in [0, x0).  Families override it
        with an algebraically simplified form.
        """
        d1 = self._d1(x)
        return x * d1 * d1 - self._f(x) * (d1 + self._d2(x) * x)

    def margin(self, x):
        """Pseudoconvexity margin m(x) = -(x F'/F)' = -[(F' + x F'') F - x F'^2] / F^2.
        Families override it with a closed form that does not divide by F^2,
        which underflows where a steep profile nears zero.  Not domain-guarded.
        """
        f, d1, d2 = self._f(x), self._d1(x), self._d2(x)
        return -((d1 + x * d2) * f - x * d1 * d1) / (f * f)

    def defect(self, x):
        """Curvature defect (x (log det_core)')' in closed form; identically
        zero for the affine family only.  Not domain-guarded."""
        raise NotImplementedError

    def slope_d1(self, x):
        """The radial derivative of the scalar-curvature slope
        -defect F / det_core, in closed form.  Not domain-guarded."""
        raise NotImplementedError

    def slope_d2(self, x):
        """Second radial derivative of the slope, in closed form.  Not domain-guarded."""
        raise NotImplementedError


class Affine(Profile):
    """F(x) = c1 - c2 x on [0, c1/c2)."""

    __slots__ = params = ("c1", "c2")
    family = "affine"

    @property
    def x0(self) -> float:
        return self.c1 / self.c2

    def _f(self, x):
        return self.c1 - self.c2 * x

    def _d1(self, x):
        return _constant(-self.c2, x)

    def _d2(self, x):
        return _constant(0.0, x)

    def _d3(self, x):
        return _constant(0.0, x)

    def det_core(self, x):
        return _constant(self.c1 * self.c2, x)

    def margin(self, x):
        # c1 c2 / F^2 one factor at a time: F^2 overflows where the margin
        # only underflows (affine:1e308,1e-308)
        f = self.c1 - self.c2 * x
        return (self.c1 / f) * (self.c2 / f)

    def defect(self, x):
        return _constant(0.0, x)

    def slope_d1(self, x):
        return _constant(0.0, x)

    def slope_d2(self, x):
        return _constant(0.0, x)


class PowerCap(Profile):
    """F(x) = (1 - x)^p on [0, 1)."""

    __slots__ = params = ("p",)
    family = "powercap"
    x0 = 1.0

    def _f(self, x):
        return power(1.0 - x, self.p)

    def _d1(self, x):
        return -self.p * power(1.0 - x, self.p - 1.0)

    def _d2(self, x):
        return self.p * (self.p - 1.0) * power(1.0 - x, self.p - 2.0)

    def _d3(self, x):
        return -self.p * (self.p - 1.0) * (self.p - 2.0) * power(1.0 - x, self.p - 3.0)

    def det_core(self, x):
        return self.p * power(1.0 - x, 2.0 * self.p - 2.0)

    def margin(self, x):
        return self.p / power(1.0 - x, 2)

    def defect(self, x):
        return (2.0 - 2.0 * self.p) / power(1.0 - x, 2)

    def slope_d1(self, x):
        return (2.0 * self.p - 2.0) * power(1.0 - x, -self.p - 1.0)

    def slope_d2(self, x):
        return (2.0 * self.p - 2.0) * (self.p + 1.0) * power(1.0 - x, -self.p - 2.0)


class ExpDecay(Profile):
    """F(x) = exp(-a x) on [0, inf)."""

    __slots__ = params = ("rate",)
    family = "expdecay"
    x0 = math.inf

    def _f(self, x):
        return exp(-self.rate * x)

    def _d1(self, x):
        return -self.rate * exp(-self.rate * x)

    def _d2(self, x):
        return self.rate * self.rate * exp(-self.rate * x)

    def _d3(self, x):
        return -self.rate**3 * exp(-self.rate * x)

    def radial(self, x):
        # F, F' and F'' share one exp(-rate x), a per-entry math.exp; the
        # products are those of _d1 and _d2, so the bits are theirs
        _require_domain(self, x)
        e = exp(-self.rate * x)
        return e, -self.rate * e, self.rate * self.rate * e, self.det_core(x)

    def det_core(self, x):
        return self.rate * exp(-2.0 * self.rate * x)

    def margin(self, x):
        return _constant(self.rate, x)

    def defect(self, x):
        return _constant(-2.0 * self.rate, x)

    def slope_d1(self, x):
        return 2.0 * self.rate * exp(self.rate * x)

    def slope_d2(self, x):
        return 2.0 * self.rate * self.rate * exp(self.rate * x)


class Rational(Profile):
    """F(x) = 1/(1 + x) on [0, inf)."""

    __slots__ = ()
    family = "rational"
    x0 = math.inf

    def _f(self, x):
        return 1.0 / (1.0 + x)

    def _d1(self, x):
        return -1.0 / power(1.0 + x, 2)

    def _d2(self, x):
        return 2.0 / power(1.0 + x, 3)

    def _d3(self, x):
        return -6.0 / power(1.0 + x, 4)

    def det_core(self, x):
        return power(1.0 + x, -4)

    def margin(self, x):
        return 1.0 / power(1.0 + x, 2)

    def defect(self, x):
        return -4.0 / power(1.0 + x, 2)

    def slope_d1(self, x):
        return _constant(4.0, x)

    def slope_d2(self, x):
        return _constant(0.0, x)


class ConstantProbe(Profile):
    """F identically constant.  Violates the decreasing hypothesis on
    purpose: the margin is identically zero, the metric determinant
    vanishes, and the boundary fails strict Levi positivity.  Test-only;
    not reachable from the CLI profile parser."""

    __slots__ = params = ("level",)
    defaults = {"level": 1.0}
    family = "constant-probe"
    x0 = math.inf

    def _f(self, x):
        return _constant(self.level, x)

    def _d1(self, x):
        return _constant(0.0, x)

    def _d2(self, x):
        return _constant(0.0, x)


class MarginScan(NamedTuple):
    ok: bool
    min_margin: float
    x_at_min: float


def pseudoconvexity_margin(profile: Profile, x):
    """Margin m(x) = -(x F'/F)' at x in [0, x0), or at each x of an array,
    from `Profile.margin`.

    Strictly positive margin on [0, x0) is the operational criterion for
    strong pseudoconvexity of the associated domain, and is equivalent to
    positive definiteness of the metric at every interior point.
    """
    _require_domain(profile, x)
    return profile.margin(x)


@float_faults
def is_strongly_pseudoconvex(profile: Profile, grid: Sequence[float], tol: float = 1e-9) -> MarginScan:
    """Scan the margin over a grid; positive everywhere (above tol) passes.

    Returns the verdict together with the worst margin and the first x
    where it occurs.  The margins are reduced in one array call in which
    NaN propagates, so a NaN margin is the worst and fails the scan.
    """
    if len(grid) == 0:
        raise ValueError("pseudoconvexity scan needs a nonempty grid")
    xs = np.asarray(grid, dtype=float)
    margins = pseudoconvexity_margin(profile, xs)
    worst = int(np.argmin(margins))
    return MarginScan(bool(margins[worst] > tol), float(margins[worst]), float(xs[worst]))


def interior_x_max(profile: Profile) -> float:
    """Largest |z_0|^2 that grids and samplers may use."""
    if math.isinf(profile.x0):
        return UNBOUNDED_X_CAP
    return profile.x0 * (1.0 - BOUNDARY_CLEARANCE)


def interior_grid(profile: Profile, count: int) -> np.ndarray:
    """Uniform grid on [0, interior_x_max], endpoints included, as one
    float64 array; point i is `interior_x_max * i / (count - 1)` rounded
    as in scalar arithmetic."""
    if count < 1:
        raise ValueError("grid needs at least one point")
    if count == 1:
        return np.zeros(1)
    return interior_x_max(profile) * np.arange(count) / (count - 1)


_CLI_FAMILIES = {cls.family: cls for cls in (Affine, PowerCap, ExpDecay, Rational)}


def parse_profile(text: str) -> Profile:
    """Parse a CLI profile string `family:param[,param]`.

    Examples: `affine:1,1`, `powercap:2`, `expdecay:0.5`, `rational`.
    """
    name, _, argstr = text.strip().partition(":")
    name = name.lower()
    if name not in _CLI_FAMILIES:
        known = ", ".join(sorted(_CLI_FAMILIES))
        raise ValueError(f"unknown profile family {name!r} (known: {known})")
    cls = _CLI_FAMILIES[name]
    arity = len(cls.params)
    raw = argstr.split(",") if argstr else []
    if len(raw) != arity:
        raise ValueError(f"profile {name!r} takes {arity} parameter(s), got {len(raw)} in {text!r}")
    try:
        params = [float(s) for s in raw]
    except ValueError as exc:
        raise ValueError(f"bad numeric parameter in profile {text!r}") from exc
    return cls(*params)
