"""Exception types shared across the package.

Everything raised on purpose derives from CryoionError so the CLI can map
library failures to a single exit code.
"""


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
