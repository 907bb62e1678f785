"""Unit parsing, dimension checks and SI formatting."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryoion.errors import DomainError, UnitError
from cryoion.units import (
    CONSTANTS,
    DIMENSIONLESS,
    HERTZ,
    HZ_PER_TESLA,
    METER,
    METER2,
    Quantity,
    SECOND,
    VOLT,
    format_si,
    parse_quantity,
    parse_si,
    resolve_unit,
)


def test_parse_plain_number_is_dimensionless():
    q = parse_quantity("5.96e7")
    assert q.value == 5.96e7
    assert q.dims == DIMENSIONLESS


def test_parse_length_with_prefix():
    assert parse_quantity("19.5cm").value == pytest.approx(0.195, rel=1e-15)
    assert parse_quantity("19.5cm").dims == METER
    assert parse_quantity("20mm").value == pytest.approx(0.020, rel=1e-15)
    assert parse_quantity("52.7um").value == pytest.approx(52.7e-6, rel=1e-15)
    # µ and u are the same prefix
    assert parse_quantity("52.7µm").value == parse_quantity("52.7um").value


def test_parse_compound_unit():
    q = parse_quantity("39GHz/T")
    assert q.value == pytest.approx(39e9, rel=1e-15)
    assert q.dims == HZ_PER_TESLA


def test_parse_frequency_and_negative_db():
    assert parse_quantity("140mHz").value == pytest.approx(0.140, rel=1e-15)
    assert parse_quantity("140mHz").dims == HERTZ
    db = parse_quantity("-58dB")
    assert db.value == -58.0
    assert db.dims == DIMENSIONLESS


def test_parse_volume_rate():
    q = parse_quantity("0.5l/h")
    assert q.dims == (3, 0, -1, 0, 0)
    assert q.value == pytest.approx(0.5e-3 / 3600.0, rel=1e-15)


def test_parse_whitespace_tolerated():
    assert parse_quantity(" 50 Hz ").value == 50.0


def test_parse_rejects_garbage():
    with pytest.raises(UnitError):
        parse_quantity("fifty hertz")
    with pytest.raises(UnitError):
        parse_quantity("50 parsecs")


def test_resolve_unit_exponent():
    dims, scale = resolve_unit("m2")
    assert dims == METER2
    assert scale == 1.0
    dims, scale = resolve_unit("mm2")
    assert dims == METER2
    assert scale == pytest.approx(1e-6, rel=1e-15)


@pytest.mark.parametrize("symbol", ["PHz999", "Hz/ys20", "Hz/Ps99", "ym99"])
def test_unit_scale_beyond_the_float_range_is_unit_error(symbol):
    # such a power raised OverflowError, or its quotient ZeroDivisionError
    with pytest.raises(UnitError, match=f"^unit '{symbol}' is beyond the float range$"):
        resolve_unit(symbol)
    with pytest.raises(UnitError, match=f"^--freq: unit '{symbol}' is beyond the float range$"):
        parse_si("1" + symbol, HERTZ, "--freq", "Hz")


def test_resolve_unit_empty_is_dimensionless():
    assert resolve_unit("") == (DIMENSIONLESS, 1.0)


def test_quantity_requires_finite_value():
    with pytest.raises(DomainError):
        Quantity(float("nan"))
    with pytest.raises(DomainError):
        Quantity(float("inf"), METER)


def test_parse_si_bare_number_is_si():
    assert parse_si("50", HERTZ, "--freq", "Hz") == 50.0
    assert parse_si("-58", DIMENSIONLESS, "--floor", "dB") == -58.0
    assert parse_si(" 2.5e-3 ", METER, "x_min", "m") == 2.5e-3


def test_parse_si_accepts_units_of_the_expected_dimension():
    assert parse_si("49.9MHz", HERTZ, "--freq", "Hz") == pytest.approx(49.9e6, rel=1e-15)
    assert parse_si("39GHz/T", HZ_PER_TESLA, "--sensitivity", "Hz/T") == pytest.approx(39e9)
    assert parse_si("-58dB", DIMENSIONLESS, "--floor", "dB") == -58.0
    assert parse_si("50%", DIMENSIONLESS, "--fraction", "1") == 0.5


@pytest.mark.parametrize("text,dims", [("100%", HERTZ), ("50dB", HERTZ), ("1rad", METER),
                                       ("5dB", VOLT), ("0.01Hz", SECOND), ("49.9mm", HERTZ),
                                       ("2s", DIMENSIONLESS)])
def test_parse_si_rejects_a_unit_of_the_wrong_dimension(text, dims):
    with pytest.raises(UnitError, match=r"^--what: expected a quantity in unit, got "):
        parse_si(text, dims, "--what", "unit")


@pytest.mark.parametrize("text", ["100xyz", "fifty", "", "1e999V", "1e306kV"])
def test_parse_si_names_the_value_on_unparseable_text(text):
    with pytest.raises(UnitError, match=r"^\[trap\] rf_voltage: "):
        parse_si(text, VOLT, "[trap] rf_voltage", "V")


@pytest.mark.parametrize("value,symbol,sig,expected", [
    (9.2196e-3, "m", 2, "9.2 mm"),
    (9.2196e-3, "m", 3, "9.22 mm"),
    (3.5897e-12, "T", 2, "3.6 pT"),
    (49.9e6, "Hz", 3, "49.9 MHz"),
    (0.0, "W", 3, "0 W"),
    (120.0, "V", 3, "120 V"),
    (0.361, "W", 2, "360 mW"),
    (95.2, "Hz", 1, "100 Hz"),
])
def test_format_si(value, symbol, sig, expected):
    assert format_si(value, symbol, sig) == expected


@pytest.mark.parametrize("value,symbol,sig,expected", [
    (2.32e176, "m", 3, "2.32e+176 m"),
    (1e-30, "m", 3, "1e-30 m"),
    (1e20, "W", 2, "1e+20 W"),
    (-4.5e-17, "F", 3, "-4.5e-17 F"),
    (1e-15, "m", 3, "1 fm"),
    (999e12, "Hz", 3, "999 THz"),
])
def test_format_si_beyond_the_prefixes_is_plain_g(value, symbol, sig, expected):
    assert format_si(value, symbol, sig) == expected


def test_format_si_mantissa_renormalizes():
    # 999.96 rounds to 1000 at 3 significant digits; must carry into the prefix
    assert format_si(0.99996, "m", 3) == "1 m"


def test_parse_format_prefix_round_trip():
    for prefix, scale in (("p", 1e-12), ("n", 1e-9), ("µ", 1e-6),
                          ("m", 1e-3), ("k", 1e3), ("M", 1e6)):
        q = parse_quantity(f"2.5{prefix}T")
        assert q.value == pytest.approx(2.5 * scale, rel=1e-12)
        assert format_si(q.value, "T", 3) == f"2.5 {prefix}T"


# magnitudes inside the normal float range: a subnormal value carries fewer
# than 12 significant digits, and rounding near the largest float overflows
_MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=300, deadline=None)
@given(_MAGNITUDES, st.booleans(),
       st.sampled_from(["m", "s", "Hz", "V", "T", "W", "F", "H", "A", "K"]),
       st.integers(min_value=3, max_value=12))
def test_format_parse_round_trip(magnitude, negative, symbol, sig):
    value = -magnitude if negative else magnitude
    back = parse_quantity(format_si(value, symbol, sig))
    assert back.dims == resolve_unit(symbol)[0]
    assert back.value == pytest.approx(value, rel=10.0 ** (1 - sig), abs=0.0)


def test_constants_sanity():
    assert CONSTANTS.mu0 == pytest.approx(4e-7 * math.pi, rel=1e-15)
    assert CONSTANTS.m_ca40 == pytest.approx(6.6359438e-26, rel=1e-6)
    # AME2020 (Wang et al., Chin. Phys. C 45, 030003 (2021)): 87.9056122571 u
    assert CONSTANTS.m_sr88 == pytest.approx(87.9056122571 * 1.66053906660e-27, rel=1e-6,
                                             abs=0.0)
    assert CONSTANTS.wavelength_qubit_ca == 729e-9
    assert CONSTANTS.elementary_charge == 1.602176634e-19
