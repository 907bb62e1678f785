"""Exception types shared across the package, its one integer, real-number and
float-range checks, and the base of its frozen records.

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


class Record:
    """Base of the package's frozen records: the fields are the class annotations in
    order, with the class attributes as defaults; the class keyword ``hidden`` names
    fields that repr leaves out.  Each field is given once, by position or keyword,
    then ``__post_init__`` runs.  Records compare and hash as their field tuples."""

    def __init_subclass__(cls, hidden=()):
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._shown = tuple(name for name in cls._fields if name not in hidden)

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        values.update(self._defaults)
        values.update(zip(fields, args))
        values.update(kwargs)
        if (values.keys() != self._field_set or len(args) > len(fields)
                or args and kwargs and not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes each of the fields {fields} once")
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; one is normalized by writing it into ``self.__dict__``."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__
