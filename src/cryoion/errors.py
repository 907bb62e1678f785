"""Exception types shared across the package, its one integer check, its one
real-number check and its one float-range check.

Everything raised on purpose derives from CryoionError so the CLI can map
library failures to a single exit code.
"""
import math
import operator


class CryoionError(Exception):
    """Base class for all errors raised by cryoion."""


class UnitError(CryoionError, TypeError):
    """Unparseable unit string, or a unit of the wrong dimension."""


class DomainError(CryoionError, ValueError):
    """Physically or mathematically invalid input value."""


class SingularFieldError(DomainError):
    """Field evaluation requested on (or numerically at) a source singularity."""


class FitRankError(CryoionError, ValueError):
    """Fewer observations than free parameters."""


class SingularModelError(CryoionError, ArithmeticError):
    """Model returned non-finite values during fitting/differentiation."""


class InsufficientDataError(CryoionError, ValueError):
    """Not enough usable data points for the requested analysis."""


class NoTrapError(CryoionError, RuntimeError):
    """No interior RF field null could be located for the layout."""


class ClippingError(CryoionError, ValueError):
    """Interferometer signal clipped beyond the tolerated fraction."""


class CsvFormatError(CryoionError, ValueError):
    """Malformed tabular input (bad header, bad row, non-finite value)."""


class NonUniformTimeError(CsvFormatError):
    """Time column of an input table is not uniformly sampled."""


class ConfigError(CryoionError, ValueError):
    """Malformed or inconsistent configuration file."""


def integer_at_least(value, minimum: int, what: str) -> int:
    """``value`` as an int, through ``operator.index`` so that no float is
    truncated; anything else, or an integer below ``minimum``, is a DomainError."""
    try:
        n = operator.index(value)
    except TypeError:
        n = minimum - 1
    if n < minimum:
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return n


def real_number(value, what: str) -> float:
    """``value`` as a float; anything but one real number, a string or an
    array included, is a DomainError naming ``what``."""
    if not isinstance(value, (str, bytes)):
        try:
            return float(value)
        except (TypeError, OverflowError):
            pass
    raise DomainError(f"{what} must be one number, got {value!r}")


def in_float_range(value: float, what: str) -> float:
    """``value``, the result of positive finite inputs, checked: one that
    overflowed to inf or underflowed to 0 is a DomainError naming ``what``."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} is beyond the float range")
    return value
