"""Conductive heat leaks through supports and cryogen boil-off."""
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from cryoion.errors import DomainError
from cryoion.thermal import (
    LIQUID_HELIUM,
    LIQUID_NITROGEN,
    CoolantSpec,
    SupportSpec,
    boiloff_power,
    conduction_load,
    ss316_conductivity,
)

# scipy.integrate.quad of the SS316 conductivity fit (independent oracle)
SS316_INTEGRAL_20_80 = 331.49125910547434
SS316_INTEGRAL_4_300 = 3030.8435830834123


def test_ss316_point_values():
    assert ss316_conductivity(4.0) == pytest.approx(0.2723961889664812, rel=1e-12)
    assert ss316_conductivity(80.0) == pytest.approx(8.114319471397152, rel=1e-12)
    assert ss316_conductivity(300.0) == pytest.approx(15.308653824348747, rel=1e-12)


def test_ss316_vectorized_and_monotone():
    T = np.linspace(4.0, 300.0, 149)
    k = [ss316_conductivity(t) for t in T.tolist()]
    assert np.all(np.diff(k) > 0)  # monotone increasing over the full range


def test_ss316_range_limits():
    with pytest.raises(DomainError):
        ss316_conductivity(3.0)
    with pytest.raises(DomainError):
        ss316_conductivity(301.0)
    with pytest.raises(DomainError, match="one number"):
        ss316_conductivity(np.array([10.0, 20.0]))


def test_conduction_load_against_quadrature_oracle():
    support = SupportSpec(cross_section_m2=1e-4, length_m=0.1, t_cold_k=20.0, t_hot_k=80.0)
    expected = 1e-4 / 0.1 * SS316_INTEGRAL_20_80
    assert conduction_load(support) == pytest.approx(expected, rel=1e-4)
    wide = SupportSpec(cross_section_m2=1e-4, length_m=0.1, t_cold_k=4.0, t_hot_k=300.0)
    assert conduction_load(wide) == pytest.approx(1e-4 / 0.1 * SS316_INTEGRAL_4_300, rel=1e-4)


@pytest.mark.parametrize("t_cold,t_hot", [(20.0, 80.0), (4.0, 300.0), (4.0, 4.5),
                                          (77.3, 77.31), (4.2, 299.9), (10.0, 11.0)])
def test_conduction_load_sum_matches_a_30_digit_trapezoid(t_cold, t_hot):
    # the np.linspace nodes and the float k there; only the sum is taken at 30 digits
    support = SupportSpec(6.283185307179587e-05, 0.12, t_cold, t_hot)
    nodes = np.linspace(t_cold, t_hot, max(2, math.ceil(t_hot - t_cold) + 1)).tolist()
    k = [ss316_conductivity(t) for t in nodes]
    with mpmath.workdps(30):
        integral = mpmath.fsum((mpmath.mpf(k[i]) + k[i + 1]) / 2
                               * (mpmath.mpf(nodes[i + 1]) - nodes[i])
                               for i in range(len(nodes) - 1))
        expected = mpmath.mpf(support.cross_section_m2) / support.length_m * integral
        assert abs(conduction_load(support) - expected) <= 1e-15 * expected


def test_frozen_oracle_matches_live_quadrature():
    # guard the frozen constants themselves against transcription slips
    val = quad(ss316_conductivity, 20.0, 80.0, limit=200)[0]
    assert val == pytest.approx(SS316_INTEGRAL_20_80, rel=1e-10)


def test_shield_mount_cylinder_load():
    # 40 mm diameter, 0.5 mm wall, 120 mm long tube spanning 20 K to 80 K
    mount = SupportSpec.thin_cylinder(0.040, 0.5e-3, 0.120, t_cold_k=20.0, t_hot_k=80.0)
    expected = math.pi * 0.040 * 0.5e-3 / 0.120 * SS316_INTEGRAL_20_80
    got = conduction_load(mount)
    assert got == pytest.approx(expected, rel=1e-4)
    assert got == pytest.approx(0.17356841738916481, rel=1e-4)
    assert got < 0.2  # leaves headroom in a sub-200 mW budget


def test_short_wide_cylinder_load():
    stub = SupportSpec.thin_cylinder(0.060, 0.5e-3, 0.050, t_cold_k=20.0, t_hot_k=80.0)
    assert conduction_load(stub) == pytest.approx(0.6248463026009932, rel=1e-4)


def test_constant_conductivity_is_exact():
    table = (np.array([1.0, 500.0]), np.array([0.25, 0.25]))
    s = SupportSpec(2e-5, 0.3, 15.0, 115.0, k_table=table)
    assert conduction_load(s) == pytest.approx(2e-5 / 0.3 * 0.25 * 100.0, rel=1e-12)


def test_linear_custom_table_is_exact():
    # trapezoid integrates a piecewise-linear k(T) exactly on aligned grids
    table = (np.array([0.0, 400.0]), np.array([1.0, 9.0]))
    s = SupportSpec(1e-4, 0.5, 100.0, 300.0, k_table=table)
    k100, k300 = 3.0, 7.0
    assert conduction_load(s) == pytest.approx(1e-4 / 0.5 * 0.5 * (k100 + k300) * 200.0,
                                               rel=1e-12)


def test_load_splits_additively_at_intermediate_temperature():
    whole = conduction_load(SupportSpec(1e-4, 0.1, 20.0, 80.0))
    parts = (conduction_load(SupportSpec(1e-4, 0.1, 20.0, 50.0))
             + conduction_load(SupportSpec(1e-4, 0.1, 50.0, 80.0)))
    assert parts == pytest.approx(whole, rel=1e-12)


def test_load_linear_in_cross_section_inverse_in_length():
    base = conduction_load(SupportSpec(1e-4, 0.1, 20.0, 80.0))
    assert conduction_load(SupportSpec(0.5e-4, 0.1, 20.0, 80.0)) == pytest.approx(
        0.5 * base, rel=1e-12)
    assert conduction_load(SupportSpec(1e-4, 0.2, 20.0, 80.0)) == pytest.approx(
        0.5 * base, rel=1e-12)


def test_long_span_k_table_costs_its_rows_not_its_kelvins():
    # a k table is integrated over its own nodes, not on a 1 K grid
    support = SupportSpec(1e-4, 0.1, 4.0, 1e9, k_table=([0.0, 1e10], [0.25, 0.25]))
    start = time.perf_counter()
    load = conduction_load(support)
    assert time.perf_counter() - start < 0.1
    assert load == pytest.approx(1e-4 / 0.1 * 0.25 * (1e9 - 4.0), rel=1e-15)


def test_k_table_load_is_the_exact_integral_of_its_interpolant():
    T = [4.5, 10.25, 33.3, 61.7, 100.0]
    k = [0.31, 0.92, 2.71, 5.13, 7.94]
    support = SupportSpec(1e-4, 0.1, 5.0, 90.0, k_table=(T, k))

    def k_of(t):  # the linear interpolant at 30 digits
        j = max(i for i in range(len(T) - 1) if T[i] <= t)
        return k[j] + (mpmath.mpf(k[j + 1]) - k[j]) * (t - T[j]) / (mpmath.mpf(T[j + 1]) - T[j])

    with mpmath.workdps(30):
        # Gauss-Legendre is exact on each linear piece
        integral = mpmath.quad(k_of, [5.0, 10.25, 33.3, 61.7, 90.0])
        expected = mpmath.mpf(1e-4) / 0.1 * integral
        assert abs(conduction_load(support) - expected) <= 1e-13 * expected


def test_support_validation():
    with pytest.raises(DomainError):
        SupportSpec(0.0, 0.1, 20.0, 80.0)
    with pytest.raises(DomainError):
        SupportSpec(1e-4, 0.1, 80.0, 20.0)  # cold end must be colder
    with pytest.raises(DomainError):
        SupportSpec(1e-4, 0.1, 20.0, 80.0, k_table=([300.0, 4.0], [1.0, 2.0]))  # descending T
    with pytest.raises(DomainError):
        SupportSpec.thin_cylinder(0.040, 0.030, 0.1, 20.0, 80.0)  # wall too thick


def test_custom_table_range_enforced():
    table = (np.array([10.0, 100.0]), np.array([1.0, 2.0]))
    s = SupportSpec(1e-4, 0.1, 15.0, 90.0, k_table=table)
    assert conduction_load(s) > 0
    outside = SupportSpec(1e-4, 0.1, 5.0, 90.0, k_table=table)
    with pytest.raises(DomainError):
        conduction_load(outside)


@pytest.mark.parametrize("temperature", [np.array([10.0, 20.0]), [20.0], "20", None])
@pytest.mark.parametrize("k_table", [None, ([1.0, 500.0], [0.25, 0.25])], ids=["ss316", "table"])
def test_conductivity_takes_one_number(k_table, temperature):
    support = SupportSpec(1e-4, 0.1, 20.0, 80.0, k_table=k_table)
    with pytest.raises(DomainError, match="one number"):
        support.conductivity(temperature)
    with pytest.raises(DomainError, match="one number"):
        SupportSpec(1e-4, 0.1, temperature, 80.0, k_table=k_table)


@pytest.mark.parametrize("k_table", [
    ([10.0, math.nan, 100.0], [1.0, 1.0, 1.0]),
    ([10.0, 100.0], [1.0, math.nan]),
    ([10.0, 100.0], [1.0, 2.0], [3.0]),
    (["a", "b"], [1.0, 2.0]),
    ([[10.0, 20.0], [30.0, 40.0]], [[1.0, 1.0], [1.0, 1.0]]),
    5.0,
], ids=["nan_T", "nan_k", "three_rows", "text", "two_dimensional", "number"])
def test_k_table_that_is_not_two_rows_of_numbers_is_domain_error(k_table):
    with pytest.raises(DomainError, match="k_table"):
        SupportSpec(1e-4, 0.1, 20.0, 80.0, k_table=k_table)


@pytest.mark.parametrize("support, what", [
    (SupportSpec(math.pi * 1e200 * 1e199, 0.12, 20.0, 80.0), "A/L"),
    (SupportSpec(6.3e-5, 1e-320, 20.0, 80.0), "A/L"),
    (SupportSpec(1e-4, 0.1, 20.0, 80.0, k_table=([1.0, 500.0], [1e307, 1e307])),
     "conduction load"),
    (SupportSpec(1e-4, 0.1, 20.0, 80.0, k_table=([1.0, 500.0], [1e308, 1e308])),
     "conduction load"),
    (SupportSpec(5e-324, 1.0, 4.0, 4.5), "conduction load"),
], ids=["huge_area", "tiny_length", "partial_sum_overflow", "huge_k", "underflow"])
def test_load_beyond_the_float_range_is_domain_error(support, what):
    with pytest.raises(DomainError, match=f"^{what} is beyond the float range"):
        conduction_load(support)


def test_boiloff_beyond_the_float_range_is_domain_error():
    with pytest.raises(DomainError, match="^boil-off power is beyond the float range"):
        boiloff_power(1e308)
    assert boiloff_power(5e-324, LIQUID_NITROGEN) > 0.0


def test_boiloff_headline_value():
    assert boiloff_power(0.5) == pytest.approx(0.3611111111111111, rel=1e-12)
    assert boiloff_power(0.5, LIQUID_HELIUM) == boiloff_power(0.5)


def test_boiloff_scaling_and_nitrogen():
    assert boiloff_power(1.0) == pytest.approx(2.0 * boiloff_power(0.5), rel=1e-12)
    assert boiloff_power(0.0) == 0.0
    assert boiloff_power(1.0, LIQUID_NITROGEN) == pytest.approx(44.60916666666667, rel=1e-12)
    with pytest.raises(DomainError):
        boiloff_power(-0.1)


def test_coolant_validation():
    with pytest.raises(DomainError):
        CoolantSpec("bad", density_kg_per_l=0.0, latent_heat_j_per_g=20.0)
