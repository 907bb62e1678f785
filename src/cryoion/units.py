"""Unit parsing with dimension checks, SI formatting and physical constants.

All numerical code in this package works on plain floats in strict SI.  Unit
strings such as ``"19.5cm"`` or ``"39GHz/T"`` arrive only at the I/O boundary
(CLI flags, layout files), and ``parse_si`` is the one place that turns them
into SI floats: a bare number is already SI, and any unit symbol, dimensionless
ones such as ``%`` or ``dB`` included, must carry the dimension the value is
for.  ``parse_quantity`` is the unchecked parser beneath it, returning a
``Quantity`` (an SI value with its dimension signature).

A dimension signature is a tuple of integer exponents over the SI base
dimensions used here: (m, kg, s, A, K).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DomainError, UnitError

Dims = tuple  # 5-tuple of int exponents over (m, kg, s, A, K)

DIMENSIONLESS: Dims = (0, 0, 0, 0, 0)
METER: Dims = (1, 0, 0, 0, 0)
KILOGRAM: Dims = (0, 1, 0, 0, 0)
SECOND: Dims = (0, 0, 1, 0, 0)
AMPERE: Dims = (0, 0, 0, 1, 0)
KELVIN: Dims = (0, 0, 0, 0, 1)
HERTZ: Dims = (0, 0, -1, 0, 0)
METER2: Dims = (2, 0, 0, 0, 0)
VOLT: Dims = (2, 1, -3, -1, 0)
TESLA: Dims = (0, 1, -2, -1, 0)
WATT: Dims = (2, 1, -3, 0, 0)
JOULE: Dims = (2, 1, -2, 0, 0)
FARAD: Dims = (-2, -1, 4, 2, 0)
HENRY: Dims = (2, 1, -2, -2, 0)
SIEMENS_PER_METER: Dims = (-3, -1, 3, 2, 0)
HZ_PER_TESLA: Dims = (0, -1, 1, 1, 0)
LITER_PER_HOUR: Dims = (3, 0, -1, 0, 0)
VOLUME: Dims = (3, 0, 0, 0, 0)


@dataclass(frozen=True)
class Quantity:
    """A finite scalar with a dimension signature, value stored in SI."""

    value: float
    dims: Dims = DIMENSIONLESS

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise DomainError(f"Quantity value must be finite, got {self.value!r}")
        object.__setattr__(self, "value", v)


# ---------------------------------------------------------------------------
# unit registry and parsing
# ---------------------------------------------------------------------------

_PREFIXES = {
    "y": 1e-24, "z": 1e-21, "a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9,
    "µ": 1e-6, "u": 1e-6, "m": 1e-3, "c": 1e-2, "d": 1e-1,
    "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12, "P": 1e15,
}

# symbol -> (dims, scale to SI)
_UNITS: dict[str, tuple[Dims, float]] = {
    "m": (METER, 1.0),
    "g": (KILOGRAM, 1e-3),
    "s": (SECOND, 1.0),
    "A": (AMPERE, 1.0),
    "K": (KELVIN, 1.0),
    "Hz": (HERTZ, 1.0),
    "rad": (DIMENSIONLESS, 1.0),
    "N": ((1, 1, -2, 0, 0), 1.0),
    "J": (JOULE, 1.0),
    "eV": (JOULE, 1.602176634e-19),
    "W": (WATT, 1.0),
    "V": (VOLT, 1.0),
    "T": (TESLA, 1.0),
    "F": (FARAD, 1.0),
    "H": (HENRY, 1.0),
    "S": ((-2, -1, 3, 2, 0), 1.0),
    "l": (VOLUME, 1e-3),
    "L": (VOLUME, 1e-3),
    "h": (SECOND, 3600.0),
    "%": (DIMENSIONLESS, 1e-2),
    "dB": (DIMENSIONLESS, 1.0),
    "phonons": (DIMENSIONLESS, 1.0),
}

_NUMBER_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")
_TOKEN_RE = re.compile(r"^(.*?)(?:\^?(\d+))?$")


def _resolve_token(token: str) -> tuple[Dims, float]:
    m = _TOKEN_RE.match(token)
    sym, exp = m.group(1), int(m.group(2) or 1)
    if sym in _UNITS:
        dims, scale = _UNITS[sym]
    elif len(sym) > 1 and sym[0] in _PREFIXES and sym[1:] in _UNITS:
        dims, scale = _UNITS[sym[1:]]
        scale = scale * _PREFIXES[sym[0]]
    else:
        raise UnitError(f"unknown unit {token!r}")
    if exp != 1:
        dims = tuple(x * exp for x in dims)
        try:
            scale = scale ** exp
        except OverflowError:
            scale = math.inf
    return dims, scale


def resolve_unit(symbol: str) -> tuple[Dims, float]:
    """Dims and SI scale for a unit expression like "mm", "GHz/T" or "m2"; a
    scale that over- or underflows ("Pm999") is a UnitError."""
    symbol = symbol.strip()
    if not symbol:
        return DIMENSIONLESS, 1.0
    parts = symbol.split("/")
    dims, scale = _resolve_token(parts[0])
    for den in parts[1:]:
        d, s = _resolve_token(den)
        dims = tuple(x - y for x, y in zip(dims, d))
        scale = scale / s if s else math.inf
    if not 0.0 < scale < math.inf:
        raise UnitError(f"unit {symbol!r} is beyond the float range")
    return dims, scale


def parse_quantity(text: str) -> Quantity:
    """Parse "20mm", "50 Hz", "5.96e7", "-58dB", "39GHz/T" ... into a Quantity.

    A value that overflows to infinity, such as "1e999Hz", is a ``UnitError``.
    """
    m = _NUMBER_RE.match(str(text))
    if not m:
        raise UnitError(f"cannot parse quantity from {text!r}")
    dims, scale = resolve_unit(m.group(2))
    value = float(m.group(1)) * scale
    if not math.isfinite(value):
        raise UnitError(f"{str(text).strip()!r} is beyond the float range")
    return Quantity(value, dims)


def parse_si(text: str, dims: Dims, what: str, unit_label: str) -> float:
    """SI float of a unit string for ``what``, which must carry ``dims``.

    A bare number is read as SI.  Any unit symbol, dimensionless ones such as
    "%", "dB" or "rad" included, must have exactly ``dims``.  Every failure
    is a ``UnitError`` whose message starts with ``what``.
    """
    try:
        q = parse_quantity(text)
    except UnitError as exc:
        raise UnitError(f"{what}: {exc}") from None
    if q.dims != dims and _NUMBER_RE.match(text).group(2):
        raise UnitError(f"{what}: expected a quantity in {unit_label}, got {text!r}")
    return q.value


_PREFIX_BY_EXP = {
    -15: "f", -12: "p", -9: "n", -6: "µ", -3: "m", 0: "", 3: "k", 6: "M", 9: "G", 12: "T",
}


def format_si(value: float, symbol: str, sig: int = 3) -> str:
    """Engineering-notation string, e.g. format_si(9.2196e-3, "m") -> "9.22 mm".

    Only simple (single-token, unprefixed) symbols are given SI prefixes, and
    only from f to T; anything else falls back to plain ``%.{sig}g`` with the
    bare symbol, e.g. format_si(1e-30, "m") -> "1e-30 m".
    """
    if not math.isfinite(value):
        return f"{value} {symbol}".strip()
    if value == 0:
        return f"0 {symbol}".strip()
    exp3 = int(math.floor(math.log10(abs(value)) / 3.0)) * 3
    if "/" not in symbol and symbol in _UNITS and -15 <= exp3 <= 12:
        mant = value / 10.0 ** exp3
        text = f"{mant:.{sig}g}"
        # rounding can push the mantissa to 1000; renormalize
        if abs(float(text)) >= 1000 and exp3 < 12:
            exp3 += 3
            text = f"{value / 10.0 ** exp3:.{sig}g}"
        if "e" in text:
            # g-format went scientific (mantissa wider than sig digits, e.g.
            # 361 at sig=2): round to sig digits, then print fixed-point
            rounded = float(text)
            decimals = max(0, sig - 1 - int(math.floor(math.log10(abs(rounded)))))
            text = f"{rounded:.{decimals}f}"
        return f"{text} {_PREFIX_BY_EXP[exp3]}{symbol}"
    return f"{value:.{sig}g} {symbol}".strip()


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constants:
    """CODATA-2018 constants and fixed ion/laser data used across the package.

    Six-significant-digit values for reference: mu0 = 1.25664e-6 H/m,
    eps0 = 8.85419e-12 F/m, e = 1.60218e-19 C (exact by definition),
    u = 1.66054e-27 kg, m(40Ca+) = 6.63594e-26 kg, m(88Sr+) = 1.45971e-25 kg.
    Ion masses use the neutral isotope mass; the electron-mass difference
    (~1.4e-5 relative) is far below every tolerance in this package.
    """

    mu0: float = 4e-7 * math.pi
    eps0: float = 8.8541878128e-12
    elementary_charge: float = 1.602176634e-19
    atomic_mass: float = 1.66053906660e-27
    m_ca40: float = 39.962590863 * 1.66053906660e-27
    m_sr88: float = 87.905612254 * 1.66053906660e-27
    wavelength_qubit_ca: float = 729e-9
    wavelength_qubit_sr: float = 674e-9
    wavelength_detection: float = 397e-9


CONSTANTS = Constants()
