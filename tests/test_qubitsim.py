"""Thermal phonon states, Rabi flopping, thermometry and beam optics."""
import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_laguerre

from cryoion.errors import DomainError, InsufficientDataError
from cryoion.metrology import InterferometerCal
from cryoion.qubit import (
    BeamProfile,
    DriveParams,
    PhononState,
    RABI_LAGUERRE,
    RABI_LINEAR,
    RAMSEY_EXPONENTIAL,
    RAMSEY_GAUSSIAN,
    carrier_rabi_signal,
    collection_efficiency,
    diffraction_limited_waist,
    heating_rate_fit,
    nbar_to_sideband_ratio,
    ramsey_contrast_fit,
    sideband_ratio_to_nbar,
    thermal_distribution,
    waist_from_rabi_scan,
    _laguerre_upto,
)
from cryoion.series import seeded_rng
from cryoion.shielding import field_noise_budget, skin_attenuation_db
from cryoion.species import CA40, resonance_frequency, resonator_capacitance, two_ion_spacing
from cryoion.thermal import SupportSpec


# ---------------------------------------------------------------------------
# thermal distribution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nbar", [0.1, 1.0, 14.0])
def test_distribution_normalized_with_correct_mean(nbar):
    state = PhononState(nbar)
    p = thermal_distribution(state)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p >= 0)
    assert state.mean_occupation == pytest.approx(nbar, rel=1e-4)


def test_ground_state_distribution():
    p = thermal_distribution(PhononState(0.0))
    assert p[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(p[1:] == 0.0)


def test_distribution_is_geometric():
    nbar = 2.5
    p = thermal_distribution(PhononState(nbar))
    r = nbar / (1.0 + nbar)
    # successive ratio is constant r for a thermal state
    assert np.allclose(p[1:20] / p[:19], r, rtol=1e-12)
    assert p[0] == pytest.approx(1.0 / (1.0 + nbar), rel=1e-8)


def test_truncation_rule_and_tail():
    state = PhononState(1.7)
    assert state.n_max >= 20 + 10 * 1.7
    r = 1.7 / 2.7
    assert r ** (state.n_max + 1) < 1e-6  # neglected geometric tail
    with pytest.raises(DomainError):
        PhononState(-0.5)


def test_distribution_against_geometric_sampler():
    # 1e6 geometric draws (support shifted to n=0) as an independent oracle
    nbar = 1.7
    state = PhononState(nbar)
    rng = seeded_rng(424242)
    draws = rng.geometric(p=1.0 / (1.0 + nbar), size=1_000_000) - 1
    sem = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - state.mean_occupation) < 3.0 * sem
    p = thermal_distribution(state)
    for n in range(6):
        emp = float((draws == n).mean())
        sigma = math.sqrt(emp * (1.0 - emp) / draws.size)
        assert abs(emp - p[n]) < 3.0 * sigma


# ---------------------------------------------------------------------------
# carrier Rabi signal
# ---------------------------------------------------------------------------


def test_rabi_ideal_two_level_limit():
    # eta -> 0, nbar -> 0: plain sin^2(Omega t / 2)
    omega = 2.0 * math.pi * 100e3
    times = np.linspace(0.0, 40e-6, 257)
    sig = carrier_rabi_signal(PhononState(0.0), DriveParams(omega, 0.0), times)
    assert np.allclose(sig.excitation, np.sin(0.5 * omega * times) ** 2, atol=1e-12)
    assert sig.excitation[0] == 0.0
    assert sig.lamb_dicke_valid


def _laguerre_mpmath(n, x, dps=150):
    """L_n(x) as the explicit sum of C(n,k) (-x)^k / k!, at ``dps`` digits."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        term = total = mpmath.mpf(1)
        for k in range(n):
            term *= -(n - k) * x / (k + 1) ** 2
            total += term
        return float(total)


@pytest.mark.parametrize("x", [1e-6, 0.01, 0.2025, 1.0, 4.0])
def test_laguerre_recurrence_matches_mpmath_sum(x):
    table = _laguerre_upto(2000, x)
    assert table.shape == (2001,)
    for n in (0, 1, 2, 7, 50, 333, 921, 1500, 2000):
        assert table[n] == pytest.approx(_laguerre_mpmath(n, x), abs=1e-13)


@pytest.mark.parametrize("x", [1e-6, 0.2025, 1.0, 4.0])
def test_laguerre_recurrence_matches_scipy_integer_degree(x):
    # scipy's integer-degree path is a recurrence too; its float-degree path
    # is not accurate for large n, so the degrees here are integers
    n = np.arange(2001)
    assert np.allclose(_laguerre_upto(2000, x), eval_laguerre(n, x), rtol=0, atol=1e-12)


def test_laguerre_recurrence_short_tables():
    assert _laguerre_upto(0, 0.3).tolist() == [1.0]
    assert _laguerre_upto(2, 0.3) == pytest.approx([1.0, 0.7, 1.0 - 0.6 + 0.045], abs=1e-15)


@pytest.mark.parametrize("eta", [1.0, 2.0])
def test_laguerre_rabi_signal_matches_mpmath_rates(eta):
    # far outside the Lamb-Dicke regime, so every L_n(eta^2) matters
    state, drive = PhononState(10.0), DriveParams(2.0 * math.pi * 1e5, eta)
    times = np.array([3e-6, 11e-6, 37e-6])
    p = thermal_distribution(state)
    rates = drive.rabi_frequency * math.exp(-0.5 * eta**2) * np.array(
        [_laguerre_mpmath(n, eta**2, dps=50) for n in range(p.size)])
    expected = np.sin(0.5 * np.outer(times, rates)) ** 2 @ p
    sig = carrier_rabi_signal(state, drive, times, model=RABI_LAGUERRE)
    assert np.allclose(sig.excitation, expected, rtol=0, atol=1e-12)


def test_rabi_models_agree_for_small_lamb_dicke():
    omega = 2.0 * math.pi * 100e3
    times = np.linspace(0.0, 60e-6, 400)
    drive = DriveParams(omega, 1e-6)
    state = PhononState(2.0)
    lin = carrier_rabi_signal(state, drive, times, model=RABI_LINEAR).excitation
    lag = carrier_rabi_signal(state, drive, times, model=RABI_LAGUERRE).excitation
    assert np.max(np.abs(lin - lag)) < 1e-9


def test_hot_state_loses_contrast_faster():
    omega = 2.0 * math.pi * 100e3
    times = np.linspace(0.0, 60e-6, 400)
    drive = DriveParams(omega, 0.06)
    hot = carrier_rabi_signal(PhononState(14.0), drive, times).excitation
    cold = carrier_rabi_signal(PhononState(0.1), drive, times).excitation
    period = 2.0 * math.pi / omega
    late = times > times[-1] - period
    contrast_hot = hot[late].max() - hot[late].min()
    contrast_cold = cold[late].max() - cold[late].min()
    assert contrast_hot < 0.6
    assert contrast_cold > 0.95
    assert contrast_hot < contrast_cold


def test_rabi_bounds_and_flags():
    omega = 2.0 * math.pi * 100e3
    times = np.linspace(0.0, 100e-6, 701)
    sig = carrier_rabi_signal(PhononState(5.0), DriveParams(omega, 0.6), times)
    assert np.all(sig.excitation >= 0.0)
    assert np.all(sig.excitation <= 1.0)
    assert not sig.lamb_dicke_valid  # eta=0.6 is out of regime, flagged not raised


def test_rabi_requires_resonance_and_known_model():
    with pytest.raises(DomainError):
        carrier_rabi_signal(PhononState(0.1), DriveParams(1e5, 0.05), [0.0],
                            model="quadratic")
    with pytest.raises(DomainError):
        DriveParams(-1e5, 0.05)


# ---------------------------------------------------------------------------
# sideband thermometry and heating
# ---------------------------------------------------------------------------


def test_sideband_ratio_known_points():
    assert sideband_ratio_to_nbar(0.0) == 0.0
    assert sideband_ratio_to_nbar(0.5) == pytest.approx(1.0, rel=1e-12)
    assert sideband_ratio_to_nbar(0.9) == pytest.approx(9.0, rel=1e-12)
    assert nbar_to_sideband_ratio(0.0) == 0.0


def test_sideband_round_trip_property():
    rng = seeded_rng(8)
    for nbar in rng.uniform(0.0, 50.0, 1000):
        r = nbar_to_sideband_ratio(nbar)
        assert 0.0 <= r < 1.0
        assert sideband_ratio_to_nbar(r) == pytest.approx(nbar, rel=1e-12, abs=1e-12)


def test_sideband_domain():
    with pytest.raises(DomainError):
        sideband_ratio_to_nbar(1.0)
    with pytest.raises(DomainError):
        sideband_ratio_to_nbar(-0.1)
    with pytest.raises(DomainError):
        nbar_to_sideband_ratio(-1.0)


def test_heating_rate_noise_free():
    t = np.linspace(0.0, 1.0, 6)
    res = heating_rate_fit(t, 0.1 + 2.14 * t)
    assert res.converged
    assert res.params["rate"] == pytest.approx(2.14, rel=1e-6)
    assert res.params["intercept"] == pytest.approx(0.1, rel=1e-6)


def test_heating_rate_noisy_within_three_sigma():
    t = np.linspace(0.0, 1.0, 12)
    nbar = 0.1 + 2.14 * t + 0.15 * seeded_rng(31).standard_normal(t.size)
    res = heating_rate_fit(t, np.clip(nbar, 0.0, None))
    assert abs(res.params["rate"] - 2.14) < 3.0 * res.sigma("rate")


def test_heating_rate_needs_three_points():
    with pytest.raises(InsufficientDataError):
        heating_rate_fit([0.0, 1.0], [0.1, 2.2])


# ---------------------------------------------------------------------------
# Ramsey contrast
# ---------------------------------------------------------------------------


def test_ramsey_gaussian_noise_free_round_trip():
    t = np.linspace(0.0, 30e-3, 10)
    c = 0.97 * np.exp(-((t / 18.2e-3) ** 2))
    fit = ramsey_contrast_fit(t, c)
    assert fit.shape == RAMSEY_GAUSSIAN
    assert not fit.unconstrained
    assert fit.t_1e == pytest.approx(18.2e-3, rel=1e-6)
    assert fit.contrast0 == pytest.approx(0.97, rel=1e-6)


def test_ramsey_exponential_shape():
    t = np.linspace(0.0, 50e-3, 12)
    c = 0.9 * np.exp(-t / 12e-3)
    fit = ramsey_contrast_fit(t, c, shape=RAMSEY_EXPONENTIAL)
    assert fit.t_1e == pytest.approx(12e-3, rel=1e-6)
    assert not fit.unconstrained


def test_ramsey_flat_data_flagged_not_raised():
    t = np.linspace(0.0, 30e-3, 8)
    fit = ramsey_contrast_fit(t, np.full(t.size, 0.8))
    assert fit.unconstrained


def test_ramsey_validation():
    t = np.linspace(0.0, 30e-3, 8)
    with pytest.raises(DomainError):
        ramsey_contrast_fit(t, np.full(t.size, 1.2))
    with pytest.raises(InsufficientDataError):
        ramsey_contrast_fit([0.0, 1e-3, 2e-3], [0.9, 0.8, 0.7])
    with pytest.raises(DomainError):
        ramsey_contrast_fit(t, np.full(t.size, 0.5), shape="sinc")


# ---------------------------------------------------------------------------
# addressing beam and collection optics
# ---------------------------------------------------------------------------


def test_waist_scan_noise_free_round_trip():
    x = np.linspace(-8e-6, 8e-6, 17)
    om = 2.0 * math.pi * 1e5 * np.exp(-((x - 0.4e-6) / 3.0e-6) ** 2)
    fit = waist_from_rabi_scan(x, om)
    assert not fit.unconstrained
    assert fit.profile.waist == pytest.approx(3.0e-6, rel=1e-6)
    assert fit.profile.center == pytest.approx(0.4e-6, rel=1e-6)
    assert fit.profile.peak_rabi == pytest.approx(2.0 * math.pi * 1e5, rel=1e-6)


def test_waist_scan_flat_flagged():
    x = np.linspace(-8e-6, 8e-6, 9)
    fit = waist_from_rabi_scan(x, np.full(x.size, 1e5))
    assert fit.unconstrained


def test_waist_scan_needs_four_points():
    with pytest.raises(InsufficientDataError):
        waist_from_rabi_scan([0.0, 1e-6, 2e-6], [1.0, 2.0, 1.0])


def test_collection_efficiency_values():
    assert collection_efficiency(0.23) == pytest.approx(0.013404685595925614, rel=1e-12)
    # about 1.3 % of the full solid angle
    assert 100.0 * collection_efficiency(0.23) == pytest.approx(1.34, rel=1e-2)
    assert collection_efficiency(0.0) == 0.0
    assert collection_efficiency(1.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DomainError):
        collection_efficiency(1.2)


def test_diffraction_limited_waist_values():
    assert diffraction_limited_waist(729e-9, 0.23) == pytest.approx(
        1.0089039435999278e-6, rel=1e-12)
    # scaling in wavelength and NA
    assert diffraction_limited_waist(397e-9, 0.23) == pytest.approx(
        1.0089039435999278e-6 * 397.0 / 729.0, rel=1e-12)
    assert diffraction_limited_waist(729e-9, 0.46) == pytest.approx(
        0.5 * 1.0089039435999278e-6, rel=1e-12)
    with pytest.raises(DomainError):
        diffraction_limited_waist(729e-9, 0.0)
    with pytest.raises(DomainError):
        diffraction_limited_waist(-729e-9, 0.23)


@pytest.mark.parametrize("eta", [-0.1, math.nan])
def test_drive_rejects_negative_or_nan_lamb_dicke(eta):
    with pytest.raises(DomainError, match="lamb_dicke"):
        DriveParams(1e5, eta)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, bad", [
    (lambda: DriveParams(NAN, 0.1), "nan"),
    (lambda: DriveParams(INF, 0.1), "inf"),
    (lambda: DriveParams(1e5, INF), "inf"),
    (lambda: BeamProfile(waist=NAN, center=0.0, peak_rabi=1e5), "nan"),
    (lambda: InterferometerCal(wavelength=NAN, volts_per_fringe=1.0), "nan"),
    (lambda: InterferometerCal(wavelength=633e-9, volts_per_fringe=NAN), "nan"),
    (lambda: InterferometerCal(633e-9, 1.0, quadrature_offset=NAN), "nan"),
    (lambda: InterferometerCal(633e-9, 1.0, quadrature_offset=-INF), "inf"),
    (lambda: field_noise_budget(NAN, 0.14, 3e-4), "nan"),
    (lambda: field_noise_budget(39e9, NAN, 3e-4), "nan"),
    (lambda: field_noise_budget(39e9, 0.14, NAN), "nan"),
    (lambda: diffraction_limited_waist(NAN, 0.23), "nan"),
    (lambda: diffraction_limited_waist(729e-9, NAN), "nan"),
    (lambda: collection_efficiency(NAN), "nan"),
    (lambda: nbar_to_sideband_ratio(NAN), "nan"),
    (lambda: skin_attenuation_db(NAN, 1e-3), "nan"),
    (lambda: skin_attenuation_db(0.02, NAN), "nan"),
    (lambda: two_ion_spacing(CA40, NAN), "nan"),
    (lambda: resonator_capacitance(NAN, 50e6), "nan"),
    (lambda: resonance_frequency(1e-6, NAN), "nan"),
], ids=["rabi_nan", "rabi_inf", "eta_inf", "waist_nan", "wavelength_nan", "fringe_nan",
        "offset_nan", "offset_inf", "sensitivity_nan", "linewidth_nan", "field_nan",
        "optics_wavelength_nan", "optics_na_nan", "collection_na_nan", "nbar_nan",
        "thickness_nan", "skin_depth_nan", "spacing_nan", "inductance_nan", "capacitance_nan"])
def test_non_finite_scalars_are_domain_errors_naming_the_value(call, bad):
    # a comparison with NaN is false, so a validator written as "raise if
    # x <= 0" lets NaN through to a NaN result
    with pytest.raises(DomainError, match=rf"\b{bad}\b") as exc:
        call()
    assert "float range" not in str(exc.value)


@pytest.mark.parametrize("call, what", [
    (lambda: SupportSpec("1e-4", 0.1, 20.0, 80.0), "cross_section_m2"),
    (lambda: SupportSpec(1e-4, None, 20.0, 80.0), "length_m"),
    (lambda: SupportSpec(1e-4, 0.1, 20.0, [80.0]), "t_hot_k"),
    (lambda: SupportSpec.thin_cylinder("40mm", 0.5e-3, 0.12, 20.0, 80.0), "diameter_m"),
    (lambda: SupportSpec.thin_cylinder(0.04, None, 0.12, 20.0, 80.0), "wall_m"),
    (lambda: InterferometerCal("x", 1.0), "wavelength"),
    (lambda: InterferometerCal(633e-9, b"1"), "volts_per_fringe"),
    (lambda: InterferometerCal(633e-9, 1.0, "a"), "quadrature_offset"),
], ids=["cross_section", "length", "t_hot", "diameter", "wall", "wavelength", "fringe",
        "offset"])
def test_field_that_is_not_a_number_is_domain_error_naming_it(call, what):
    # a comparison of text with a number is a raw TypeError without the check
    with pytest.raises(DomainError, match=f"^{what} must be one number, got "):
        call()
