"""Exception types shared across the package, and the checks that raise
them for counts that are not integers or out of range, and numbers numpy
cannot hold.

Each error carries the process exit code the command line layer maps it to.
"""

import operator
import sys


class ShuffleMixError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ParameterError(ShuffleMixError):
    """A caller-supplied parameter is out of domain or inconsistent."""

    exit_code = 2


class DomainError(ParameterError):
    """A derived quantity (matrix entry, probability) left its valid range."""


class CapExceededError(ShuffleMixError):
    """The requested state space or table exceeds the configured cap."""

    exit_code = 3


class HorizonError(ShuffleMixError):
    """A threshold scan ran out of horizon before crossing."""

    exit_code = 3

    def __init__(self, message, last_value=None):
        super().__init__(message)
        self.last_value = last_value


class MassDriftError(ShuffleMixError):
    """Probability mass drifted beyond tolerance during exact evolution."""

    exit_code = 3


def check_int64(name: str, value: int) -> int:
    """``value``, or ParameterError when it does not fit in int64, the type
    numpy holds every count, time and position in."""
    if not -(2**63) <= value < 2**63:
        raise ParameterError(f"{name} must fit in 64 bits, got {value}")
    return value


def check_integer(name: str, value) -> int:
    """``value`` as an int, or ParameterError unless it is one: a Python or
    numpy integer, read through ``operator.index``. Floats are refused, not
    truncated, and so are bools, as the seed check refuses them."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value: int, least: int) -> int:
    """``value`` as an int, or ParameterError unless it is an integer with
    ``least <= value`` that fits in int64: the one rule for every count,
    size and time a run reads."""
    value = check_integer(name, value)
    if value < least:
        raise ParameterError(f"{name} must be at least {least}, got {value}")
    return check_int64(name, value)


def check_array_length(name: str, length: int, bytes_each: int = 8) -> int:
    """``length``, or CapExceededError when an array of ``length`` items of
    ``bytes_each`` bytes is larger than numpy can address. Past that size
    numpy raises ValueError or IndexError, or returns an empty array, where a
    smaller allocation it cannot make raises MemoryError."""
    if length * bytes_each > sys.maxsize:
        raise CapExceededError(f"{name} = {length} needs an array larger than numpy can hold")
    return length
