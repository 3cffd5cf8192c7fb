"""Exception hierarchy shared by all modules, and one owner for each
argument rule: config objects and numbers, times, time grids and
whole-number counts.

The CLI maps these onto stable exit codes: configuration problems exit 2,
numerical preconditions exit 3, cross-validation tolerance breaches exit 4.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Iterable, Mapping


class RecombError(Exception):
    """Base class for everything raised on purpose by this package."""


class DomainError(RecombError, ValueError):
    """An argument violates an operation's precondition (wrong ground set,
    mismatched spaces, malformed partition, negative mass, and so on)."""


class SizeCapError(DomainError):
    """An exact-lattice method was asked for a ground set beyond the
    configured cap; the number of partitions grows like the Bell numbers
    (B(8) = 4140, B(12) > 4.2e6), so enumerating them becomes infeasible."""


class ConfigError(RecombError, ValueError):
    """Invalid run configuration; the message names the offending field."""


class NonGenericRatesError(RecombError, ArithmeticError):
    """Two exit rates collide, so the exponential-mixture recursion for the
    coefficients is not defined; use the semigroup method instead."""


class MassDriftError(RecombError, ArithmeticError):
    """A state that must be a probability vector drifted away from total
    mass one beyond tolerance; states are never silently renormalized."""


class CrosscheckError(RecombError):
    """Independent solution methods disagree beyond the requested tolerance."""


def expect_mapping(value, path: str) -> Mapping:
    """`value` if it is a JSON object, else a ConfigError naming `path`."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected an object")
    return value


def reject_unknown(data: Mapping, allowed: Iterable[str], path: str) -> None:
    """A ConfigError naming the first key of `data` not in `allowed`."""
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def positive_int(value, path: str) -> int:
    """A count from a parsed config: a JSON int of at least 1; booleans,
    floats (3.0 too) and strings raise a ConfigError naming `path`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected a positive integer")
    if value < 1:
        raise ConfigError(f"{path}: must be >= 1, got {value}")
    return value


def config_real(value, path: str) -> float:
    """A real number from a parsed config: a JSON int or float, finite.

    Refuses booleans, strings, NaN, +-Infinity and ints beyond the float
    range with a ConfigError naming the field at `path`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a real number")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ConfigError(f"{path}: must be finite, got {real}")
    return real


def check_time(t: float) -> None:
    """Refuse a time that is negative, NaN or infinite with a DomainError.

    Written so that NaN fails: ``t < 0`` is false for NaN, and a sampler
    given a NaN or infinite end time never stops.
    """
    if not 0 <= t < math.inf:
        raise DomainError(f"time must be finite and nonnegative, got {t}")


def check_grid(t_grid, from_zero: bool = False) -> list[float]:
    """The times of `t_grid` as floats, else a DomainError: nonempty, each
    passing check_time, strictly increasing and, with from_zero, from 0."""
    times = [float(t) for t in t_grid]
    for t in times:
        check_time(t)
    if not times or any(b <= a for a, b in zip(times, times[1:])):
        raise DomainError(f"times must be nonempty and strictly increasing, got {times}")
    if from_zero and times[0] != 0:
        raise DomainError(f"trajectories start at time 0, got {times[0]}")
    return times


#: replicate streams are numbered by unsigned 64-bit integers, so a batch
#: of replicates ends at this index at the latest.
LAST_REPLICATE = 2 ** 64 - 1


def check_count(value, what: str, minimum: int = 1, maximum: int | None = None) -> int:
    """`value` as an int, else a DomainError: a whole number of at least
    `minimum` and, if given, at most `maximum` (100.0 and numpy integers
    pass; bools, NaN and inf do not)."""
    real = isinstance(value, (int, Real)) and not isinstance(value, bool)
    if not (real and (isinstance(value, (int, Integral)) or float(value).is_integer())):
        raise DomainError(f"{what} must be a whole number, got {value!r}")
    if value < minimum:
        raise DomainError(f"{what} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{what} must be <= {maximum}, got {value!r}")
    return int(value)
