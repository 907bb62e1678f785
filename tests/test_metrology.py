"""Allan deviation, linewidth, fringe inversion, spectra, excursions, images."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryoion.errors import ClippingError, DomainError, InsufficientDataError
from cryoion.fitting import lorentzian_model
from cryoion.metrology import (
    AXIS_COLUMN,
    AXIS_ROW,
    FrequencyRecord,
    ImageProfile,
    InterferometerCal,
    KIND_FRACTIONAL,
    KIND_PHASE,
    allan_deviation,
    excursion_stats,
    fringe_to_displacement,
    gaussian_profile_fit,
    lorentzian_linewidth_fit,
    peak_find,
    power_spectrum,
    _window_max,
)
from cryoion.series import TimeSeries, seeded_rng


# ---------------------------------------------------------------------------
# Allan deviation
# ---------------------------------------------------------------------------


def test_allan_alternating_frequency_is_sqrt2():
    # y = +a, -a, +a, ... has sigma_y(tau0) = sqrt(2)*a exactly
    a = 3e-13
    y = a * (-1.0) ** np.arange(2000)
    rec = FrequencyRecord(KIND_FRACTIONAL, TimeSeries(0.0, 0.5, y))
    _, sigma = allan_deviation(rec, [0.5])
    assert sigma[0] == pytest.approx(math.sqrt(2.0) * a, rel=1e-12)


def test_allan_constant_frequency_is_zero():
    rec = FrequencyRecord(KIND_FRACTIONAL, TimeSeries(0.0, 1.0, np.full(1000, 4e-14)))
    _, sigma = allan_deviation(rec, [1.0, 2.0, 5.0])
    assert np.all(sigma < 1e-25)


def test_allan_white_fm_level_and_slope():
    dt, sig0 = 0.01, 2e-15
    y = sig0 * seeded_rng(99).standard_normal(40000)
    rec = FrequencyRecord(KIND_FRACTIONAL, TimeSeries(0.0, dt, y))
    taus = dt * np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    _, sigma = allan_deviation(rec, taus)
    # sigma_y(tau) = sig0*sqrt(dt/tau): -1/2 log-log slope at the sample level
    slope = np.polyfit(np.log10(taus), np.log10(sigma), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)
    assert sigma[0] == pytest.approx(sig0, rel=0.05)


def test_allan_accepts_equivalent_phase_record():
    # a frequency record is integrated about its mean, so the phase record
    # integrated the same way gives the same bits, and the plain integral,
    # a linear ramp away from it, the same deviation to rounding
    dt = 0.01
    y = 1e-15 * seeded_rng(5).standard_normal(5000)
    from_freq = FrequencyRecord(KIND_FRACTIONAL, TimeSeries(0.0, dt, y))
    taus = dt * np.array([1.0, 4.0, 16.0])
    _, s1 = allan_deviation(from_freq, taus)
    for x, rtol in ((np.cumsum(y - y.mean()) * dt, 0.0), (np.cumsum(y) * dt, 1e-12)):
        from_phase = FrequencyRecord(KIND_PHASE, TimeSeries(0.0, dt, np.concatenate(([0.0], x))))
        _, s2 = allan_deviation(from_phase, taus)
        assert np.allclose(s2, s1, rtol=rtol, atol=0.0)


def test_allan_of_an_offset_record_matches_exact_arithmetic():
    # y = y0 + white noise 1e-15 with y0 = 1e-9: the offset drops out of the
    # Allan variance exactly, and the deviation matches the one computed
    # in exact rational arithmetic from the same float samples.  Integrated
    # as it stands, the record's phase ramp cost it up to 1.6e-10 relative
    dt = 0.5
    y = 1e-9 + 1e-15 * seeded_rng(3).standard_normal(64)
    taus = dt * np.array([1.0, 2.0, 5.0, 21.0])
    _, sigma = allan_deviation(FrequencyRecord(KIND_FRACTIONAL, TimeSeries(0.0, dt, y)), taus)
    x = [Fraction(0)]
    for v in y.tolist():
        x.append(x[-1] + Fraction(v) * Fraction(dt))
    for tau, got in zip(taus.tolist(), sigma.tolist()):
        m = round(tau / dt)
        d2 = sum((x[i + 2 * m] - 2 * x[i + m] + x[i]) ** 2 for i in range(len(x) - 2 * m))
        exact = d2 / (2 * (len(x) - 2 * m) * Fraction(tau) ** 2)
        assert got == pytest.approx(math.sqrt(exact), rel=1e-13, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(1e-3, 1e3), negate=st.booleans(),
       kind=st.sampled_from([KIND_FRACTIONAL, KIND_PHASE]), n=st.integers(20, 400),
       seed=st.integers(0, 2**16))
def test_allan_scales_with_the_record(c, negate, kind, n, seed):
    # sigma_y(c y) = |c| sigma_y(y), for frequency and phase records alike
    c = -c if negate else c
    dt = 0.25
    y = 1e-14 * seeded_rng(seed).standard_normal(n)
    taus = dt * np.arange(1, (n - 1) // 2 + 1, max(1, n // 10))
    _, base = allan_deviation(FrequencyRecord(kind, TimeSeries(0.0, dt, y)), taus)
    _, scaled = allan_deviation(FrequencyRecord(kind, TimeSeries(0.0, dt, c * y)), taus)
    assert np.allclose(scaled, abs(c) * base, rtol=1e-12, atol=0.0)


def test_allan_tau_validation():
    rec = FrequencyRecord(KIND_FRACTIONAL, TimeSeries(0.0, 0.01, np.zeros(100) + 1e-15))
    with pytest.raises(DomainError):
        allan_deviation(rec, [0.015])  # not a multiple of dt
    with pytest.raises(DomainError):
        allan_deviation(rec, [0.0])
    with pytest.raises(InsufficientDataError):
        allan_deviation(rec, [0.6])  # needs 2m+1 = 121 phase samples, have 101


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 17, 100, 6002])
def test_allan_default_taus_are_the_octave_ladder(n):
    # tau = m dt for m = 1, 2, 4, ... while 2m + 1 <= N phase samples, the
    # same bits as the ladder passed explicitly
    dt = 0.01
    x = 1e-15 * seeded_rng(n).standard_normal(n)
    rec = FrequencyRecord(KIND_PHASE, TimeSeries(0.0, dt, x))
    ladder, m = [], 1
    while 2 * m + 1 <= n:
        ladder.append(m * dt)
        m *= 2
    taus, sigma = allan_deviation(rec)
    assert taus.tolist() == ladder
    explicit = allan_deviation(rec, ladder)
    assert sigma.tolist() == explicit[1].tolist()


@pytest.mark.parametrize("kind, samples", [(KIND_PHASE, [0.0, 1e-15]), (KIND_PHASE, [0.0]),
                                           (KIND_FRACTIONAL, [1e-15])])
def test_allan_record_too_short_for_any_tau_is_insufficient_data(kind, samples):
    # tau = dt needs 3 phase samples; the default ladder was empty instead
    rec = FrequencyRecord(kind, TimeSeries(0.0, 0.5, samples))
    with pytest.raises(InsufficientDataError, match="need at least 3 phase samples for tau=0.5"):
        allan_deviation(rec)


def test_allan_tau_and_excursion_window_follow_one_sample_rule(monkeypatch):
    import cryoion.metrology as metrology

    seen = []
    rule = metrology._whole_samples
    monkeypatch.setattr(metrology, "_whole_samples",
                        lambda *args: seen.append(args[2:]) or rule(*args))
    ts = TimeSeries(0.0, 0.5, np.arange(10.0))
    allan_deviation(FrequencyRecord(KIND_PHASE, ts), [0.5, 1.0])
    excursion_stats(ts, 1.0)
    assert seen == [(1, "tau"), (1, "tau"), (2, "excursion window")]


def test_allan_tau_messages_name_the_rule():
    rec = FrequencyRecord(KIND_FRACTIONAL, TimeSeries(0.0, 0.01, np.zeros(100) + 1e-15))
    with pytest.raises(DomainError, match=re.escape(
            "tau of 0.015 s is 1.5 samples at dt = 0.01 s; it must be a whole number")):
        allan_deviation(rec, [0.015])
    with pytest.raises(DomainError, match=re.escape(
            "tau of 0.004 s spans 0 sample(s) at dt = 0.01 s; it needs at least 1 sample")):
        allan_deviation(rec, [0.004])
    with pytest.raises(DomainError, match=re.escape(
            "tau must be a positive finite number of samples, got -0.01 s at dt = 0.01 s")):
        allan_deviation(rec, [-0.01])
    # a count beyond the float range, not an OverflowError
    with pytest.raises(DomainError, match="tau must be a positive finite number of samples"):
        allan_deviation(FrequencyRecord(KIND_PHASE, TimeSeries(0.0, 1e-300, [0.0] * 5)), [1e10])


NUMBERS = np.arange(20.0)


@pytest.mark.parametrize("call", [
    lambda: TimeSeries(0.0, "abc", NUMBERS),
    lambda: TimeSeries(None, 0.1, NUMBERS),
    lambda: TimeSeries(0.0, "0.5", NUMBERS),
    lambda: TimeSeries("0", 0.1, NUMBERS),
    lambda: TimeSeries(0.0, 0.1, ["a", "b", "c"]),
    lambda: TimeSeries(0.0, 0.1, ["1.5", "2.5"]),
    lambda: TimeSeries(0.0, 0.1, [1.0, None]),
    lambda: allan_deviation(FrequencyRecord(KIND_PHASE, TimeSeries(0.0, 0.1, NUMBERS)), ["x"]),
    lambda: allan_deviation(FrequencyRecord(KIND_PHASE, TimeSeries(0.0, 0.1, NUMBERS)), [None]),
    lambda: excursion_stats(TimeSeries(0.0, 0.1, NUMBERS), "x"),
    lambda: excursion_stats(TimeSeries(0.0, 0.1, NUMBERS), "0.2"),
    lambda: excursion_stats(TimeSeries(0.0, 0.1, NUMBERS), None),
], ids=["dt_text", "t0_none", "dt_numeric_text", "t0_numeric_text", "samples_text",
        "samples_numeric_text", "samples_none", "tau_text", "tau_none", "window_text",
        "window_numeric_text", "window_none"])
def test_series_and_sample_rule_reject_what_is_not_a_number(call):
    # each raised a raw ValueError or TypeError, or was silently parsed
    with pytest.raises(DomainError):
        call()


def test_frequency_record_validation():
    ts = TimeSeries(0.0, 1.0, np.zeros(10) + 1e-15)
    with pytest.raises(DomainError):
        FrequencyRecord("wavelength", ts)


# ---------------------------------------------------------------------------
# beat-note linewidth
# ---------------------------------------------------------------------------


def test_linewidth_noise_free_round_trip():
    f = np.linspace(100.0, 200.0, 60)
    power = lorentzian_model(f, [2.0, 180.0, 1.58, 0.01])[0]
    fit = lorentzian_linewidth_fit(f, power)
    assert not fit.unconstrained
    assert fit.center_hz == pytest.approx(180.0, rel=1e-9)
    assert fit.fwhm_hz == pytest.approx(1.58, rel=1e-6)


def test_linewidth_flat_spectrum_flagged():
    f = np.linspace(100.0, 200.0, 60)
    fit = lorentzian_linewidth_fit(f, np.full(f.size, 0.5))
    assert fit.unconstrained


def test_linewidth_needs_five_points():
    with pytest.raises(InsufficientDataError):
        lorentzian_linewidth_fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 1.0])


# ---------------------------------------------------------------------------
# fringe inversion
# ---------------------------------------------------------------------------


def test_fringe_round_trip_within_a_fringe():
    lam = 633e-9
    cal = InterferometerCal(wavelength=lam, volts_per_fringe=2.0, quadrature_offset=0.3)
    t = np.arange(4000) / 2000.0
    x_true = 40e-9 * np.sin(2.0 * np.pi * 37.0 * t)  # well inside lambda/8
    v = 2.0 * np.sin(4.0 * np.pi * x_true / lam) + 0.3
    inv = fringe_to_displacement(TimeSeries(0.0, 1 / 2000.0, v), cal)
    assert inv.clipped_fraction == 0.0
    assert not inv.clipped.any()
    assert np.allclose(inv.displacement.samples, x_true, atol=1e-15)


def test_fringe_small_signal_is_linear():
    lam = 633e-9
    cal = InterferometerCal(wavelength=lam, volts_per_fringe=1.5)
    x_true = np.linspace(-2e-9, 2e-9, 101)  # lambda/300 regime
    v = 1.5 * np.sin(4.0 * np.pi * x_true / lam)
    inv = fringe_to_displacement(TimeSeries(0.0, 1.0, v), cal)
    assert np.allclose(inv.displacement.samples, x_true, atol=1e-12 * 2e-9 + 1e-18)


def test_fringe_clipping_flagged_then_fatal():
    cal = InterferometerCal(wavelength=633e-9, volts_per_fringe=1.0)
    v = np.zeros(1000)
    v[:5] = 1.2  # 0.5 % of samples beyond the fringe
    inv = fringe_to_displacement(TimeSeries(0.0, 1.0, v), cal)
    assert inv.clipped_fraction == pytest.approx(0.005)
    assert inv.clipped.sum() == 5
    # clamped to the quarter-wavelength inversion bound
    assert inv.displacement.samples[0] == pytest.approx(633e-9 / 8.0, rel=1e-12)
    v[:50] = 1.2  # 5 % clipped: beyond the default 1 % tolerance
    with pytest.raises(ClippingError):
        fringe_to_displacement(TimeSeries(0.0, 1.0, v), cal)


def test_interferometer_cal_validation():
    with pytest.raises(DomainError):
        InterferometerCal(wavelength=0.0, volts_per_fringe=1.0)
    with pytest.raises(DomainError):
        InterferometerCal(wavelength=633e-9, volts_per_fringe=-1.0)


# ---------------------------------------------------------------------------
# power spectrum and peaks
# ---------------------------------------------------------------------------


def test_power_spectrum_is_normalized_by_the_hann_window_power():
    # sum(psd) * df = sum((w x)^2) / sum(w^2) for the Hann window w and the
    # mean-removed record x, by Parseval's theorem
    x = seeded_rng(3).standard_normal(1024)
    ts = TimeSeries(0.0, 1 / 500.0, x)
    freqs, psd = power_spectrum(ts)
    w = np.hanning(x.size)
    df = freqs[1] - freqs[0]
    assert psd.sum() * df == pytest.approx(np.sum((w * (x - x.mean())) ** 2) / np.sum(w * w),
                                           rel=1e-12)
    assert freqs[0] == 0.0
    assert freqs[-1] == pytest.approx(250.0)


def test_power_spectrum_hann_preserves_variance_approximately():
    x = seeded_rng(17).standard_normal(4096)
    ts = TimeSeries(0.0, 1 / 500.0, x)
    freqs, psd = power_spectrum(ts)
    df = freqs[1] - freqs[0]
    # windowing scatters power between bins but the normalization keeps the
    # total close for broadband input
    assert psd.sum() * df == pytest.approx(x.var(), rel=0.1)


def test_power_spectrum_sine_lands_in_its_bin():
    # the Hann main lobe of a bin-centred tone spans bins k-1..k+1
    n, fs, k = 2048, 2000.0, 120
    f0 = k * fs / n
    t = np.arange(n) / fs
    ts = TimeSeries(0.0, 1 / fs, 5e-9 * np.sin(2 * np.pi * f0 * t + 0.7))
    freqs, psd = power_spectrum(ts)
    assert psd[k - 1:k + 2].sum() / psd.sum() >= 0.99
    assert freqs[np.argmax(psd)] == pytest.approx(f0, rel=1e-12)


def test_power_spectrum_guards():
    with pytest.raises(InsufficientDataError):
        power_spectrum(TimeSeries(0.0, 1.0, np.zeros(8)))


def test_peak_find_three_tones():
    fs = 2000.0
    t = np.arange(4000) / fs
    x = (8e-9 * np.sin(2 * np.pi * 30.0 * t) + 7e-9 * np.sin(2 * np.pi * 45.0 * t)
         + 3e-9 * np.sin(2 * np.pi * 95.0 * t))
    freqs, psd = power_spectrum(TimeSeries(0.0, 1 / fs, x))
    peaks = peak_find(freqs, psd, count=3, min_separation=5.0)
    assert sorted(peaks) == pytest.approx([30.0, 45.0, 95.0], abs=0.5)
    # descending power order
    assert peaks[0] == pytest.approx(30.0, abs=0.5)
    assert peaks[2] == pytest.approx(95.0, abs=0.5)


def test_peak_find_respects_separation_and_endpoints():
    f = np.arange(10.0)
    p = np.array([5.0, 1.0, 4.0, 1.0, 3.5, 1.0, 0.5, 0.2, 0.1, 9.0])
    # endpoints (5.0 and 9.0) are not strict interior maxima
    peaks = peak_find(f, p, count=5, min_separation=0.0)
    assert list(peaks) == [2.0, 4.0]
    # min_separation suppresses the nearby weaker peak
    peaks = peak_find(f, p, count=5, min_separation=3.0)
    assert list(peaks) == [2.0]


@pytest.mark.parametrize("separation", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_peak_find_rejects_negative_or_non_finite_separation(separation):
    f = np.arange(10.0)
    p = np.array([5.0, 1.0, 4.0, 1.0, 3.5, 1.0, 0.5, 0.2, 0.1, 9.0])
    with pytest.raises(DomainError, match="min_separation must be finite and >= 0"):
        peak_find(f, p, count=5, min_separation=separation)


@pytest.mark.parametrize("count", [1.5, 2.0, -1, 0, "3", None])
def test_peak_find_requires_a_positive_integer_count(count):
    f = np.arange(10.0)
    p = np.array([5.0, 1.0, 4.0, 1.0, 3.5, 1.0, 0.5, 0.2, 0.1, 9.0])
    with pytest.raises(DomainError, match="count must be an integer >= 1"):
        peak_find(f, p, count=count)
    assert list(peak_find(f, p, count=np.int64(1))) == [2.0]


# ---------------------------------------------------------------------------
# excursion statistics
# ---------------------------------------------------------------------------


def test_excursions_constant_record():
    ts = TimeSeries(0.0, 0.001, np.full(3000, 2.2e-9))
    ex = excursion_stats(ts, 0.05)
    assert ex.max_abs == 0.0
    assert ex.peak_to_peak == 0.0
    assert ex.drift == 0.0


def test_excursions_linear_ramp():
    n, dt, slope = 2001, 0.001, 100e-9
    ts = TimeSeries(0.0, dt, slope * dt * np.arange(n))
    ex = excursion_stats(ts, 0.05)
    m = round(0.05 / dt)
    assert ex.max_abs == pytest.approx(slope * (m - 1) * dt / 2.0, rel=1e-9)
    assert ex.peak_to_peak == pytest.approx(slope * (n - 1) * dt, rel=1e-12)
    assert ex.drift == pytest.approx(slope * (n - 1) * dt, rel=1e-12)


def test_excursions_sine_band():
    fs, amp = 2000.0, 20e-9
    t = np.arange(8001) / fs  # ends on an exact 30 Hz period boundary
    ts = TimeSeries(0.0, 1 / fs, amp * np.sin(2 * np.pi * 30.0 * t))
    ex = excursion_stats(ts, 1.0)  # windows cover many periods
    assert ex.max_abs == pytest.approx(amp, rel=1e-3)
    assert ex.peak_to_peak == pytest.approx(2 * amp, rel=1e-3)
    assert abs(ex.drift) < 1e-18


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
                | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                min_size=2, max_size=60), st.data())
@example([0.0, -0.0, 0.0, -0.0, -0.0], None)
@example([-0.0, 0.0], None)
def test_excursion_windows_match_the_direct_windows(values, data):
    # the O(N) running maximum gives every window's maximum and minimum of
    # the direct O(N m) windows, ties and zeros of either sign included,
    # and excursion_stats the direct result to the bit, at m = 2, m = N
    # and between
    x = np.array(values)
    n = x.size
    m = data.draw(st.sampled_from([2, n]) | st.integers(2, n)) if data else 2
    windows = np.lib.stride_tricks.sliding_window_view(x, m)
    assert np.array_equal(_window_max(x, m), windows.max(axis=1))
    assert np.array_equal(-_window_max(-x, m), windows.min(axis=1))
    direct = float((0.5 * (windows.max(axis=1) - windows.min(axis=1))).max())
    ex = excursion_stats(TimeSeries(0.0, 1.0, x), float(m))
    assert repr(ex.max_abs) == repr(direct)
    assert (repr(ex.peak_to_peak), repr(ex.drift)) == (repr(float(x.max() - x.min())),
                                                      repr(float(x[-1] - x[0])))


def test_excursions_window_guards():
    ts = TimeSeries(0.0, 0.001, np.zeros(100))
    with pytest.raises(DomainError):
        excursion_stats(ts, 0.0)
    with pytest.raises(DomainError):
        excursion_stats(ts, -1.0)
    with pytest.raises(DomainError):
        excursion_stats(ts, 0.2)  # longer than the record
    # exactly the record length is allowed
    ex = excursion_stats(ts, 0.099)
    assert ex.window_s == 0.099
    with pytest.raises(DomainError, match="at least 2 samples"):
        excursion_stats(TimeSeries(0.0, 1.0, [1.0]), 1.0)


@pytest.mark.parametrize("window_s", [0.001, 0.0014])
def test_excursions_reject_a_window_of_one_sample(window_s):
    # a one-sample window was silently widened to two while window_s still
    # reported the narrower request
    ts = TimeSeries(0.0, 0.001, np.arange(100.0))
    with pytest.raises(DomainError, match="at least 2 samples"):
        excursion_stats(ts, window_s)
    assert excursion_stats(ts, 0.002).max_abs == 0.5


@pytest.mark.parametrize("window_s, samples", [(0.0015, "1.5"), (0.0025001, "2.5001")])
def test_excursion_window_is_a_whole_number_of_samples(window_s, samples):
    # a 1.5 ms window on a 1 ms record slid 2-sample (2 ms) windows while
    # window_s reported 1.5 ms; tau of allan_deviation follows the same rule
    ts = TimeSeries(0.0, 0.001, np.arange(100.0))
    with pytest.raises(DomainError, match=re.escape(
            f"excursion window of {window_s:g} s is {samples} samples at dt = 0.001 s")):
        excursion_stats(ts, window_s)
    # within 1e-9 of a whole number, as 0.003 / 0.001 is
    assert excursion_stats(ts, 0.003).window_s == 0.003
    assert excursion_stats(ts, 0.003 * (1.0 + 5e-10)).max_abs == 1.0


# ---------------------------------------------------------------------------
# ion images
# ---------------------------------------------------------------------------


def make_profile(sigma_m, pitch=16e-6, mag=15.0, n=33, amp=1000.0, offset=50.0):
    scale = pitch / mag
    px = np.arange(n, dtype=float)
    counts = offset + amp * np.exp(-0.5 * ((px - n // 2) * scale / sigma_m) ** 2)
    return ImageProfile(counts, pixel_pitch=pitch, magnification=mag)


def test_image_fit_noise_free_round_trip():
    profile = make_profile(1.84e-6)
    fit = gaussian_profile_fit(profile)
    assert not fit.unconstrained
    assert fit.width_m == pytest.approx(1.84e-6, rel=1e-6)
    assert fit.center_m == pytest.approx(16 * 16e-6 / 15.0, rel=1e-6)
    assert fit.amplitude == pytest.approx(1000.0, rel=1e-6)
    assert fit.offset == pytest.approx(50.0, rel=1e-5)


def test_image_fit_magnification_rescales_width():
    counts = make_profile(1.84e-6).pixel_counts
    doubled = ImageProfile(counts, pixel_pitch=16e-6, magnification=30.0)
    fit = gaussian_profile_fit(doubled)
    assert fit.width_m == pytest.approx(0.92e-6, rel=1e-6)


def test_image_fit_poisson_noise_within_three_sigma():
    profile = make_profile(1.84e-6)
    noisy = seeded_rng(808).poisson(profile.pixel_counts).astype(float)
    fit = gaussian_profile_fit(ImageProfile(noisy))
    sigma_px_err = fit.fit.sigma("sigma")
    scale = 16e-6 / 15.0
    assert abs(fit.width_m - 1.84e-6) < 3.0 * sigma_px_err * scale


def test_image_fit_from_2d_frame():
    profile = make_profile(1.84e-6)
    row = profile.pixel_counts
    frame = np.outer(row, np.ones(7)) / 7.0
    img = ImageProfile(frame, pixel_pitch=16e-6, magnification=15.0)
    fit_row = gaussian_profile_fit(img, axis=AXIS_ROW)
    assert fit_row.width_m == pytest.approx(1.84e-6, rel=1e-6)
    # the column direction is flat: flagged unconstrained
    fit_col = gaussian_profile_fit(img, axis=AXIS_COLUMN)
    assert fit_col.unconstrained


def test_image_fit_guards():
    with pytest.raises(InsufficientDataError):
        gaussian_profile_fit(ImageProfile(np.array([1.0, 2.0, 3.0, 2.0])))
    with pytest.raises(DomainError):
        ImageProfile(np.zeros((3, 3, 3)))
    frame = ImageProfile(np.outer(make_profile(1.84e-6).pixel_counts, np.ones(5)))
    with pytest.raises(DomainError):
        gaussian_profile_fit(frame, axis="diagonal")


def test_image_fit_rejects_unknown_axis_on_a_1d_profile():
    profile = make_profile(1.84e-6)
    assert profile.pixel_counts.ndim == 1
    with pytest.raises(DomainError, match="unknown axis 'diagonal'"):
        profile.axis_profile("diagonal")
    with pytest.raises(DomainError, match="unknown axis 'diagonal'"):
        gaussian_profile_fit(profile, axis="diagonal")
    # both known names give the 1-d profile as it is
    assert (gaussian_profile_fit(profile, axis=AXIS_COLUMN).width_m
            == gaussian_profile_fit(profile, axis=AXIS_ROW).width_m)


@pytest.mark.parametrize("pitch,mag", [(math.nan, 15.0), (16e-6, math.nan), (16e-6, 0.0),
                                       (-16e-6, 15.0)])
def test_image_profile_rejects_non_positive_or_nan_scale(pitch, mag):
    with pytest.raises(DomainError, match="positive"):
        ImageProfile(np.ones(8), pixel_pitch=pitch, magnification=mag)
