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
m(x) = -(x F'(x)/F(x))', which must stay positive on [0, x0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DomainError
from .jet import exp

#: interior grids and samplers stay at least this relative distance from x0
BOUNDARY_CLEARANCE = 1e-3

#: when x0 is infinite, samplers and grids cap |z_0|^2 at this value
UNBOUNDED_X_CAP = 10.0


@dataclass(frozen=True)
class Profile:
    """Base class for profile families.

    Subclasses provide the closed forms `_f`, `_d1`, `_d2`, `_d3` (value and
    first three derivatives), the domain bound `x0`, optionally a simplified
    `det_core`, and the radial curvature functionals `defect`, `slope_d1`
    and `slope_d2`.  `_f` and `det_core` also accept a `jet.Jet` for x
    (through operator arithmetic and `jet.exp`): the metric and Ricci
    oracles differentiate them, and nothing else of the family.
    """

    family = "base"

    @property
    def x0(self) -> float:
        raise NotImplementedError

    def _f(self, x: float) -> float:
        raise NotImplementedError

    def _d1(self, x: float) -> float:
        raise NotImplementedError

    def _d2(self, x: float) -> float:
        raise NotImplementedError

    def _d3(self, x: float) -> float:
        raise NotImplementedError

    def eval(self, x: float, order: int = 0) -> float:
        """Evaluate F, F', F'' or F''' at x by closed form."""
        if not 0.0 <= x < self.x0:
            raise DomainError(f"x={x!r} outside [0, {self.x0!r}) for {self.label()}")
        if order == 0:
            return self._f(x)
        if order == 1:
            return self._d1(x)
        if order == 2:
            return self._d2(x)
        if order == 3:
            return self._d3(x)
        raise ValueError(f"order must be 0, 1, 2 or 3, got {order!r}")

    def det_core(self, x: float) -> float:
        """Radial factor of the metric determinant:

            det_core(x) = x F'(x)^2 - F(x) (F'(x) + F''(x) x)

        so that det(metric) = det_core(x) / gap^(n+1).  Unlike `eval` this is
        not domain-guarded; callers pass x in [0, x0).  Families override it
        with an algebraically simplified form.
        """
        d1 = self._d1(x)
        return x * d1 * d1 - self._f(x) * (d1 + self._d2(x) * x)

    def defect(self, x: float) -> float:
        """Curvature defect (x (log det_core)')' in closed form; identically
        zero for the affine family only.  Not domain-guarded."""
        raise NotImplementedError

    def slope_d1(self, x: float) -> float:
        """Radial derivative of the scalar-curvature slope
        -defect F / det_core, in closed form.  Not domain-guarded."""
        raise NotImplementedError

    def slope_d2(self, x: float) -> float:
        """Second radial derivative of the slope, in closed form.  Not domain-guarded."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Affine(Profile):
    """F(x) = c1 - c2 x on [0, c1/c2)."""

    c1: float
    c2: float

    family = "affine"

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError(f"affine profile needs c1, c2 > 0, got ({self.c1}, {self.c2})")

    @property
    def x0(self) -> float:
        return self.c1 / self.c2

    def _f(self, x):
        return self.c1 - self.c2 * x

    def _d1(self, x):
        return -self.c2

    def _d2(self, x):
        return 0.0

    def _d3(self, x):
        return 0.0

    def det_core(self, x):
        return self.c1 * self.c2

    def defect(self, x):
        return 0.0

    def slope_d1(self, x):
        return 0.0

    def slope_d2(self, x):
        return 0.0

    def label(self):
        return f"affine:{self.c1:g},{self.c2:g}"


@dataclass(frozen=True)
class PowerCap(Profile):
    """F(x) = (1 - x)^p on [0, 1)."""

    p: float

    family = "powercap"

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"powercap profile needs p > 0, got {self.p}")

    @property
    def x0(self) -> float:
        return 1.0

    def _f(self, x):
        return (1.0 - x) ** self.p

    def _d1(self, x):
        return -self.p * (1.0 - x) ** (self.p - 1.0)

    def _d2(self, x):
        return self.p * (self.p - 1.0) * (1.0 - x) ** (self.p - 2.0)

    def _d3(self, x):
        return -self.p * (self.p - 1.0) * (self.p - 2.0) * (1.0 - x) ** (self.p - 3.0)

    def det_core(self, x):
        return self.p * (1.0 - x) ** (2.0 * self.p - 2.0)

    def defect(self, x):
        return (2.0 - 2.0 * self.p) / (1.0 - x) ** 2

    def slope_d1(self, x):
        return (2.0 * self.p - 2.0) * (1.0 - x) ** (-self.p - 1.0)

    def slope_d2(self, x):
        return (2.0 * self.p - 2.0) * (self.p + 1.0) * (1.0 - x) ** (-self.p - 2.0)

    def label(self):
        return f"powercap:{self.p:g}"


@dataclass(frozen=True)
class ExpDecay(Profile):
    """F(x) = exp(-a x) on [0, inf)."""

    rate: float

    family = "expdecay"

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"expdecay profile needs a > 0, got {self.rate}")

    @property
    def x0(self) -> float:
        return math.inf

    def _f(self, x):
        return exp(-self.rate * x)

    def _d1(self, x):
        return -self.rate * math.exp(-self.rate * x)

    def _d2(self, x):
        return self.rate * self.rate * math.exp(-self.rate * x)

    def _d3(self, x):
        return -self.rate**3 * math.exp(-self.rate * x)

    def det_core(self, x):
        return self.rate * exp(-2.0 * self.rate * x)

    def defect(self, x):
        return -2.0 * self.rate

    def slope_d1(self, x):
        return 2.0 * self.rate * math.exp(self.rate * x)

    def slope_d2(self, x):
        return 2.0 * self.rate * self.rate * math.exp(self.rate * x)

    def label(self):
        return f"expdecay:{self.rate:g}"


@dataclass(frozen=True)
class Rational(Profile):
    """F(x) = 1/(1 + x) on [0, inf)."""

    family = "rational"

    @property
    def x0(self) -> float:
        return math.inf

    def _f(self, x):
        return 1.0 / (1.0 + x)

    def _d1(self, x):
        return -1.0 / (1.0 + x) ** 2

    def _d2(self, x):
        return 2.0 / (1.0 + x) ** 3

    def _d3(self, x):
        return -6.0 / (1.0 + x) ** 4

    def det_core(self, x):
        return (1.0 + x) ** -4

    def defect(self, x):
        return -4.0 / (1.0 + x) ** 2

    def slope_d1(self, x):
        return 4.0

    def slope_d2(self, x):
        return 0.0

    def label(self):
        return "rational"


@dataclass(frozen=True)
class ConstantProbe(Profile):
    """F identically constant.  Violates the decreasing hypothesis on
    purpose: the margin is identically zero, the metric determinant
    vanishes, and the boundary fails strict Levi positivity.  Test-only;
    not reachable from the CLI profile parser."""

    level: float = 1.0

    family = "constant-probe"

    def __post_init__(self):
        if not self.level > 0:
            raise ValueError(f"probe level must be positive, got {self.level}")

    @property
    def x0(self) -> float:
        return math.inf

    def _f(self, x):
        return self.level

    def _d1(self, x):
        return 0.0

    def _d2(self, x):
        return 0.0

    def label(self):
        return f"constant-probe:{self.level:g}"


class MarginScan(NamedTuple):
    ok: bool
    min_margin: float
    x_at_min: float


def pseudoconvexity_margin(profile: Profile, x: float) -> float:
    """Margin m(x) = -(x F'/F)' = -[(F' + x F'') F - x F'^2] / F^2.

    Strictly positive margin on [0, x0) is the operational criterion for
    strong pseudoconvexity of the associated domain, and is equivalent to
    positive definiteness of the metric at every interior point.
    """
    f = profile.eval(x, 0)
    d1 = profile.eval(x, 1)
    d2 = profile.eval(x, 2)
    return -((d1 + x * d2) * f - x * d1 * d1) / (f * f)


def is_strongly_pseudoconvex(profile: Profile, grid: Sequence[float], tol: float = 1e-9) -> MarginScan:
    """Scan the margin over a grid; positive everywhere (above tol) passes.

    Returns the verdict together with the worst margin and its location.
    """
    if len(grid) == 0:
        raise ValueError("pseudoconvexity scan needs a nonempty grid")
    worst = math.inf
    worst_x = float(grid[0])
    for x in grid:
        m = pseudoconvexity_margin(profile, x)
        if m < worst:
            worst = m
            worst_x = float(x)
    return MarginScan(worst > tol, worst, worst_x)


def interior_x_max(profile: Profile) -> float:
    """Largest |z_0|^2 that grids and samplers may use."""
    if math.isinf(profile.x0):
        return UNBOUNDED_X_CAP
    return profile.x0 * (1.0 - BOUNDARY_CLEARANCE)


def interior_grid(profile: Profile, count: int) -> list[float]:
    """Uniform grid on [0, interior_x_max], endpoints included."""
    if count < 1:
        raise ValueError("grid needs at least one point")
    if count == 1:
        return [0.0]
    top = interior_x_max(profile)
    return [top * i / (count - 1) for i in range(count)]


_CLI_FAMILIES = {
    "affine": (Affine, 2),
    "powercap": (PowerCap, 1),
    "expdecay": (ExpDecay, 1),
    "rational": (Rational, 0),
}


def parse_profile(text: str) -> Profile:
    """Parse a CLI profile string `family:param[,param]`.

    Examples: `affine:1,1`, `powercap:2`, `expdecay:0.5`, `rational`.
    """
    name, _, argstr = text.strip().partition(":")
    name = name.lower()
    if name not in _CLI_FAMILIES:
        known = ", ".join(sorted(_CLI_FAMILIES))
        raise ValueError(f"unknown profile family {name!r} (known: {known})")
    cls, arity = _CLI_FAMILIES[name]
    raw = [s for s in argstr.split(",") if s.strip()] if argstr else []
    if len(raw) != arity:
        raise ValueError(f"profile {name!r} takes {arity} parameter(s), got {len(raw)} in {text!r}")
    try:
        params = [float(s) for s in raw]
    except ValueError as exc:
        raise ValueError(f"bad numeric parameter in profile {text!r}") from exc
    return cls(*params)
