"""Eddy-current shielding: skin depth, cold conductivity, regime fits, budget."""
import math

import numpy as np
import pytest

from cryoion.errors import DomainError, InsufficientDataError
from cryoion.series import seeded_rng
from cryoion.shielding import (
    AttenuationCurve,
    COPPER,
    ConductorSpec,
    DB_PER_SKIN_DEPTH,
    REGIME_CONTACT,
    REGIME_SKIN,
    ShieldLayer,
    attenuation_series,
    attenuation_skin,
    conductivity_at,
    field_noise_budget,
    fit_attenuation_regime,
    skin_attenuation_db,
    skin_depth,
)

# sqrt(2 / (2*pi*50 * mu0 * 5.96e7)) evaluated independently
DELTA_50HZ_293K = 0.00921959830950017


def test_skin_depth_room_temperature_copper():
    assert skin_depth(50.0, COPPER, 293.0) == pytest.approx(DELTA_50HZ_293K, rel=1e-12)
    # headline value: about 9.2 mm
    assert skin_depth(50.0, COPPER, 293.0) == pytest.approx(9.2e-3, rel=3e-3)


def test_skin_depth_cold_copper_brackets():
    cold100 = ConductorSpec(sigma_293k=5.96e7, rrr=100.0)
    cold1000 = ConductorSpec(sigma_293k=5.96e7, rrr=1000.0)
    assert skin_depth(50.0, cold100, 20.0) == pytest.approx(DELTA_50HZ_293K / 10.0, rel=1e-12)
    assert skin_depth(50.0, cold1000, 20.0) == pytest.approx(
        DELTA_50HZ_293K / math.sqrt(1000.0), rel=1e-12)
    # the quoted bracket: 0.92 mm down to 0.29 mm
    assert skin_depth(50.0, cold100, 20.0) == pytest.approx(0.92e-3, rel=3e-3)
    assert skin_depth(50.0, cold1000, 20.0) == pytest.approx(0.29e-3, rel=6e-3)


def test_skin_depth_frequency_scaling():
    assert skin_depth(200.0, COPPER, 293.0) == pytest.approx(
        0.5 * skin_depth(50.0, COPPER, 293.0), rel=1e-12)


def test_skin_depth_rejects_bad_frequency():
    with pytest.raises(DomainError):
        skin_depth(0.0, COPPER, 293.0)
    with pytest.raises(DomainError):
        skin_depth(-50.0, COPPER, 293.0)


def test_conductivity_anchor_points():
    c = ConductorSpec(sigma_293k=5.96e7, rrr=100.0)
    assert conductivity_at(c, 293.0) == pytest.approx(5.96e7, rel=1e-12)
    assert conductivity_at(c, 77.0) == pytest.approx(8.0 * 5.96e7, rel=1e-12)
    assert conductivity_at(c, 20.0) == pytest.approx(100.0 * 5.96e7, rel=1e-12)
    # saturated below 20 K
    assert conductivity_at(c, 4.0) == pytest.approx(100.0 * 5.96e7, rel=1e-12)
    # no gain above room temperature
    assert conductivity_at(c, 350.0) == pytest.approx(5.96e7, rel=1e-12)


def test_conductivity_log_log_interpolation():
    c = ConductorSpec(sigma_293k=5.96e7, rrr=100.0)

    def gain_oracle(t_k):
        if t_k >= 77.0:
            lg = np.interp(math.log(t_k), [math.log(77.0), math.log(293.0)],
                           [math.log(8.0), 0.0])
        else:
            lg = np.interp(math.log(t_k), [math.log(20.0), math.log(77.0)],
                           [math.log(100.0), math.log(8.0)])
        return math.exp(lg)

    for t in (150.0, 40.0, 100.0, 25.0, 290.0):
        assert conductivity_at(c, t) == pytest.approx(
            5.96e7 * gain_oracle(t), rel=1e-9), f"T={t}"


def test_conductivity_gain_capped_at_rrr():
    # rrr below the generic 77 K gain: the cap wins everywhere
    c = ConductorSpec(sigma_293k=1.0e7, rrr=4.0)
    temps = np.linspace(4.0, 293.0, 97)
    gains = np.array([conductivity_at(c, t) for t in temps]) / 1.0e7
    assert np.all(gains <= 4.0 + 1e-12)
    assert np.all(gains >= 1.0 - 1e-12)
    # monotone non-increasing with temperature
    assert np.all(np.diff(gains) <= 1e-12)


def test_conductor_validation():
    with pytest.raises(DomainError):
        ConductorSpec(sigma_293k=-1.0)
    with pytest.raises(DomainError):
        ConductorSpec(sigma_293k=5.96e7, rrr=0.5)
    with pytest.raises(DomainError):
        ConductorSpec(sigma_293k=5.96e7, mu_r=0.0)


def test_attenuation_one_skin_depth():
    assert DB_PER_SKIN_DEPTH == pytest.approx(20.0 / math.log(10.0), rel=1e-15)
    assert skin_attenuation_db(DELTA_50HZ_293K, DELTA_50HZ_293K) == pytest.approx(
        -8.685889638065035, rel=1e-12)


def test_attenuation_20mm_wall_cold_brackets():
    # 20 mm wall, conductivity gain 100 and 1000, 50 Hz
    att100 = skin_attenuation_db(0.020, DELTA_50HZ_293K / 10.0)
    att1000 = skin_attenuation_db(0.020, DELTA_50HZ_293K / math.sqrt(1000.0))
    assert att100 == pytest.approx(-188.42230098278392, rel=1e-12)
    assert att1000 == pytest.approx(-595.84363307538, rel=1e-12)


def test_zero_thickness_no_attenuation():
    layer = ShieldLayer(thickness=0.0, conductor=COPPER, temperature=293.0)
    assert attenuation_skin(layer, 50.0) == 0.0
    # +0.0, not -0.0, which would print as "-0 dB"
    assert math.copysign(1.0, attenuation_skin(layer, 50.0)) == 1.0


def test_series_attenuation_adds():
    inner = ShieldLayer(0.020, ConductorSpec(5.96e7, rrr=100.0), 20.0)
    outer = ShieldLayer(0.010, ConductorSpec(5.96e7, rrr=100.0), 77.0)
    total = attenuation_series([inner, outer], 50.0)
    assert total == pytest.approx(
        attenuation_skin(inner, 50.0) + attenuation_skin(outer, 50.0), rel=1e-12)
    assert total < attenuation_skin(inner, 50.0)
    with pytest.raises(DomainError):
        attenuation_series([], 50.0)


def test_field_noise_budget_headline_numbers():
    budget = field_noise_budget(39e9, 0.140, 0.3e-3)
    assert budget.b_max_t == pytest.approx(3.58974358974359e-12, rel=1e-12)
    assert budget.relative_stability == pytest.approx(1.1965811965811968e-08, rel=1e-12)
    with pytest.raises(DomainError):
        field_noise_budget(-39e9, 0.140, 0.3e-3)
    with pytest.raises(DomainError):
        field_noise_budget(39e9, 0.0, 0.3e-3)


def test_attenuation_curve_validation():
    with pytest.raises(DomainError):
        AttenuationCurve((10.0, 5.0), (-1.0, -2.0), floor_db=-58.0)
    with pytest.raises(DomainError):
        AttenuationCurve((5.0, 10.0), (1.0, -2.0), floor_db=-58.0)
    with pytest.raises(DomainError):
        AttenuationCurve((5.0, 10.0), (-1.0,), floor_db=-58.0)
    with pytest.raises(DomainError):
        AttenuationCurve((5.0, 10.0), (-1.0, -2.0), floor_db=1.0)


def test_regime_fit_skin_with_censored_floor_points():
    a_true = 120.0 / math.sqrt(50.0)
    freqs = (2.0, 4.0, 8.0, 100.0, 200.0, 400.0)
    atten = tuple(-a_true * math.sqrt(f) for f in freqs[:3]) + (-58.0,) * 3
    fit = fit_attenuation_regime(AttenuationCurve(freqs, atten, floor_db=-58.0))
    assert fit.regime == REGIME_SKIN
    assert not fit.ambiguous
    assert fit.n_used == 3
    assert fit.n_censored == 3
    assert fit.skin_fit.params["a"] == pytest.approx(a_true, rel=1e-9)
    assert fit.extrapolated_db == pytest.approx(-120.0, rel=1e-9)
    assert fit.extrapolate_to_hz == 50.0


def test_regime_fit_contact_noise_free():
    freqs = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
    atten = tuple(-10.0 - 16.0 * math.log10(f) for f in freqs)
    fit = fit_attenuation_regime(AttenuationCurve(freqs, atten, floor_db=-58.0))
    assert fit.regime == REGIME_CONTACT
    assert not fit.ambiguous
    assert fit.contact_fit.params["s"] == pytest.approx(0.8, rel=1e-9)
    assert fit.extrapolated_db == pytest.approx(-10.0 - 16.0 * math.log10(50.0), rel=1e-9)


def test_regime_fit_contact_under_noise():
    freqs = np.array([5.0, 10.0, 20.0, 50.0, 100.0, 200.0])
    hits = 0
    for seed in range(100):
        noisy = -10.0 - 16.0 * np.log10(freqs) + 0.5 * seeded_rng(seed).standard_normal(6)
        noisy = np.minimum(noisy, -0.01)
        fit = fit_attenuation_regime(AttenuationCurve(tuple(freqs), tuple(noisy), -58.0))
        hits += fit.regime == REGIME_CONTACT
    assert hits == 100


def test_regime_fit_flags_ambiguous_mixture():
    f = np.array([2.0, 5.0, 12.0, 30.0, 80.0, 200.0])
    mix = 0.5 * (-3.0 * np.sqrt(f)) + 0.5 * (-2.0 - 12.0 * np.log10(f))
    fit = fit_attenuation_regime(AttenuationCurve(tuple(f), tuple(mix), floor_db=-70.0))
    assert fit.ambiguous
    lo = min(fit.skin_fit.residual_rms, fit.contact_fit.residual_rms)
    hi = max(fit.skin_fit.residual_rms, fit.contact_fit.residual_rms)
    assert hi <= 2.0 * lo


@pytest.mark.parametrize("freq", [0.0, -5.0, math.inf, math.nan])
def test_regime_fit_rejects_non_positive_or_non_finite_extrapolation(freq):
    curve = AttenuationCurve((2.0, 4.0, 8.0), (-24.0, -33.9, -48.0), floor_db=-58.0)
    with pytest.raises(DomainError, match="extrapolation frequency"):
        fit_attenuation_regime(curve, extrapolate_to_hz=freq)


def test_regime_fit_needs_three_points_above_floor():
    freqs = (2.0, 4.0, 100.0, 200.0)
    atten = (-24.0, -33.9, -58.0, -58.0)
    with pytest.raises(InsufficientDataError):
        fit_attenuation_regime(AttenuationCurve(freqs, atten, floor_db=-58.0))
