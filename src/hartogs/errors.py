"""Exception taxonomy shared by all modules, the two settings of numpy's
floating-point faults (`raises_fp_faults`, `float_faults`), and the base
of the package's immutable classes (`Frozen`)."""

import functools

import numpy as np


class HartogsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HartogsError, ValueError):
    """A point or argument lies outside the domain of definition."""


class SingularityError(HartogsError, ArithmeticError):
    """The metric is degenerate (determinant factor vanishes or is negative)."""


class NumericError(HartogsError, ArithmeticError):
    """A numerical routine could not produce a trustworthy value."""


class SamplingError(HartogsError, RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


def _with_faults(**faults):
    """Decorator running a function under np.errstate(**faults)."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with np.errstate(**faults):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


#: the kernel's faults: each is one FloatingPointError, an ArithmeticError,
#: instead of a RuntimeWarning per array operation and a NaN in the result
raises_fp_faults = _with_faults(divide="raise", over="raise", invalid="raise")

#: the faults of Python's floats, for closed forms once evaluated on them: a
#: division by zero raises, an overflow gives inf and an invalid operation NaN
float_faults = _with_faults(divide="raise", over="ignore", invalid="ignore")


class Frozen:
    """Base of the package's immutable `__slots__` classes: `__init__` sets
    each slot once with `object.__setattr__`, and afterwards assigning or
    deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
