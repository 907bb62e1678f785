"""Instrument characterization: frequency stability, interferometry, spectra.

Four measurement pipelines share this module:

* overlapping Allan deviation of a frequency record (phase or fractional),
* Lorentzian linewidth fits of a beat-note spectrum,
* Michelson quadrature inversion of fringe voltage to displacement, with
  windowed periodograms, peak finding and excursion statistics downstream,
* Gaussian fits of ion-image row/column profiles in object-plane units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ClippingError, DomainError, InsufficientDataError, integer_at_least,
                     real_number)
from .fitting import FitResult, gaussian_model, lm_fit, lorentzian_model, scan_arrays
from .series import TimeSeries

KIND_FRACTIONAL = "fractional_frequency"
KIND_PHASE = "phase_seconds"

WINDOW_RECT = "rect"
WINDOW_HANN = "hann"

AXIS_ROW = "row"
AXIS_COLUMN = "column"

#: largest fraction of fringe samples that may clip before inversion fails
MAX_CLIPPED_FRACTION = 0.01


@dataclass(frozen=True)
class FrequencyRecord:
    """A clock comparison record: either fractional frequency y(t) or phase x(t) in s."""

    kind: str
    series: TimeSeries

    def __post_init__(self):
        if self.kind not in (KIND_FRACTIONAL, KIND_PHASE):
            raise DomainError(f"unknown record kind {self.kind!r}")

    def phase_seconds(self) -> np.ndarray:
        """Phase-time data x(t); fractional frequency is integrated about its
        mean, x(0)=0, since an offset would cost the Allan variance digits."""
        if self.kind == KIND_PHASE:
            return self.series.samples
        y = self.series.samples
        return np.concatenate(([0.0], np.cumsum(y - y.mean()) * self.series.dt))


def allan_deviation(record: FrequencyRecord, taus) -> tuple[np.ndarray, np.ndarray]:
    """Overlapping Allan deviation at the requested averaging times.

    sigma_y^2(tau) = sum_i (x[i+2m] - 2 x[i+m] + x[i])^2 / (2 (N-2m) tau^2)
    on phase data x with tau = m*dt.  Returns (taus, sigma_y) arrays.
    """
    x = record.phase_seconds()
    dt = record.series.dt
    n = x.size
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    sigmas = np.empty(taus.size)
    for k, tau in enumerate(taus):
        m_real = tau / dt
        m = int(round(m_real))
        if m < 1 or abs(m_real - m) > 1e-9 * max(m, 1):
            raise DomainError(f"tau={tau} is not a positive integer multiple of dt={dt}")
        if n < 2 * m + 1:
            raise InsufficientDataError(
                f"need at least {2 * m + 1} phase samples for tau={tau}, have {n}")
        d = x[2 * m:] - 2.0 * x[m:-m] + x[:-2 * m]
        sigmas[k] = math.sqrt(float(d @ d) / (2.0 * (n - 2 * m) * tau * tau))
    return taus, sigmas


# ---------------------------------------------------------------------------
# beat-note linewidth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinewidthFit:
    center_hz: float
    fwhm_hz: float
    fit: FitResult
    unconstrained: bool


def lorentzian_linewidth_fit(freq_hz, power, weights=None) -> LinewidthFit:
    """Fit S(f) = A (G/2)^2 / ((f-f0)^2 + (G/2)^2) + b and report FWHM = G.

    Peakless spectra do not raise; the result is flagged ``unconstrained``
    when the fit does not converge, which includes the ``off_range`` stop of
    a peak that leaves the scanned band (center more than one band width
    outside it, or FWHM above two band widths), or when the 1-sigma
    uncertainty on the width exceeds the width.
    """
    f, p = scan_arrays(freq_hz, power, "linewidth fit")
    if f.size < 5:
        raise InsufficientDataError("linewidth fit needs at least 5 points")
    b0 = float(p.min())
    a0 = (float(p.max()) - b0) or 1.0
    f0 = float(f[p.argmax()])
    above = np.nonzero(p - b0 > 0.5 * a0)[0]
    g0 = float(f[above[-1]] - f[above[0]]) if above.size >= 2 else 0.0
    if g0 <= 0:
        g0 = float(f.max() - f.min()) / 5.0 or 1.0
    res = lm_fit(lorentzian_model, f, p, np.array([a0, f0, g0, b0]), weights=weights,
                 names=("amplitude", "center", "fwhm", "offset"), peak=(1, 2))
    return LinewidthFit(center_hz=res.params["center"], fwhm_hz=abs(res.params["fwhm"]),
                        fit=res, unconstrained=res.is_unconstrained("fwhm"))


# ---------------------------------------------------------------------------
# Michelson fringe inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterferometerCal:
    """Quadrature-point calibration of a Michelson fringe signal."""

    wavelength: float
    volts_per_fringe: float
    quadrature_offset: float = 0.0

    def __post_init__(self):
        for name in ("wavelength", "volts_per_fringe", "quadrature_offset"):
            real_number(getattr(self, name), name)
        if not (0 < self.wavelength < math.inf and 0 < self.volts_per_fringe < math.inf):
            raise DomainError("wavelength and volts_per_fringe must be finite and positive, "
                              f"got {self.wavelength!r} and {self.volts_per_fringe!r}")
        if not math.isfinite(self.quadrature_offset):
            raise DomainError(f"quadrature_offset must be finite, got {self.quadrature_offset!r}")


@dataclass(frozen=True)
class FringeInversion:
    displacement: TimeSeries
    clipped: np.ndarray = field(repr=False)
    clipped_fraction: float


def fringe_to_displacement(signal: TimeSeries, cal: InterferometerCal) -> FringeInversion:
    """Invert fringe voltage to arm-length change near the quadrature point.

    x(t) = (wavelength / 4 pi) asin((V - offset) / volts_per_fringe); the 4 pi
    reflects the doubled path of a Michelson, so |x| <= wavelength/4 at the
    inversion bound.  Samples outside the fringe (|argument| > 1) are clamped
    and flagged; more than ``MAX_CLIPPED_FRACTION`` (1 %) of them is an error.
    No phase unwrapping is attempted: excursions must stay within one fringe.
    """
    arg = (signal.samples - cal.quadrature_offset) / cal.volts_per_fringe
    clipped = np.abs(arg) > 1.0
    fraction = float(clipped.mean())
    if fraction > MAX_CLIPPED_FRACTION:
        raise ClippingError(
            f"{100 * fraction:.2f} % of samples clip the fringe "
            f"(limit {100 * MAX_CLIPPED_FRACTION:.2f} %)")
    x = (cal.wavelength / (4.0 * math.pi)) * np.arcsin(np.clip(arg, -1.0, 1.0))
    return FringeInversion(displacement=signal.with_samples(x), clipped=clipped,
                           clipped_fraction=fraction)


# ---------------------------------------------------------------------------
# spectra of displacement records
# ---------------------------------------------------------------------------


def power_spectrum(series: TimeSeries, window: str = WINDOW_HANN):
    """One-sided windowed periodogram of a mean-removed record.

    Normalized so that sum(psd) * df equals the time-domain variance
    (window-power corrected); exact for the rect window.  Returns (freq, psd).
    """
    n = len(series)
    if n < 16:
        raise InsufficientDataError("power spectrum needs at least 16 samples")
    if window == WINDOW_RECT:
        w = np.ones(n)
    elif window == WINDOW_HANN:
        w = np.hanning(n)
    else:
        raise DomainError(f"unknown window {window!r}")
    x = series.samples - series.samples.mean()
    coeffs = np.fft.rfft(w * x)
    fs = series.sample_rate
    psd = 2.0 * np.abs(coeffs) ** 2 / (fs * float(w @ w))
    psd[0] *= 0.5
    if n % 2 == 0:
        psd[-1] *= 0.5
    freqs = np.fft.rfftfreq(n, series.dt)
    return freqs, psd


def peak_find(freqs, psd, count: int, min_separation: float = 0.0) -> np.ndarray:
    """Frequencies of the ``count`` strongest strict local maxima.

    A peak must exceed both immediate neighbours (endpoints never qualify),
    and accepted peaks are kept at least ``min_separation`` apart, scanning in
    descending power.  Returns the peak frequencies in descending power order.
    A ``count`` that is not an integer >= 1, or a negative or non-finite
    ``min_separation``, is a DomainError.
    """
    n_peaks = integer_at_least(count, 1, "count")
    if not (min_separation >= 0 and math.isfinite(min_separation)):
        raise DomainError(f"min_separation must be finite and >= 0, got {min_separation:g}")
    f = np.asarray(freqs, dtype=float)
    p = np.asarray(psd, dtype=float)
    if p.size == 0:
        raise DomainError("empty spectrum")
    interior = np.arange(1, p.size - 1)
    local = interior[(p[interior] > p[interior - 1]) & (p[interior] > p[interior + 1])]
    order = local[np.argsort(p[local])[::-1]]
    kept: list[float] = []
    for idx in order:
        if len(kept) >= n_peaks:
            break
        if all(abs(f[idx] - fk) >= min_separation for fk in kept):
            kept.append(float(f[idx]))
    return np.array(kept)


@dataclass(frozen=True)
class ExcursionStats:
    """Short-window and whole-record displacement excursions."""

    max_abs: float
    peak_to_peak: float
    drift: float
    window_s: float


def excursion_stats(displacement: TimeSeries, window_s: float) -> ExcursionStats:
    """Excursion statistics of a displacement record.

    ``max_abs`` is the worst half peak-to-peak over any sliding window of
    ``window_s`` — the tightest +/- band containing the signal on that time
    scale, insensitive to slow drift.  ``peak_to_peak`` is global and
    ``drift`` is the signed last-minus-first sample difference.  The window
    must be a whole number of samples, at least 2 and at most the record
    length: window_s / dt within 1e-9 relative of an integer, the rule that
    ``allan_deviation`` applies to tau; anything else is a DomainError.
    """
    x = displacement.samples
    if x.size < 2:
        raise DomainError("excursion statistics need at least 2 samples")
    # a window that is not positive and finite counts as longer than any record
    m_real = window_s / displacement.dt
    m = int(round(m_real)) if 0 < window_s < math.inf else x.size + 1
    if m > x.size:
        raise DomainError("window must be positive and no longer than the record")
    if m < 2:
        raise DomainError(f"excursion window of {window_s:g} s spans {m} sample(s) "
                          f"at dt = {displacement.dt:g} s; it needs at least 2 samples")
    if abs(m_real - m) > 1e-9 * m:
        raise DomainError(f"excursion window of {window_s:g} s is {m_real:g} samples at "
                          f"dt = {displacement.dt:g} s; it must be a whole number of samples")
    windows = np.lib.stride_tricks.sliding_window_view(x, m)
    half_p2p = 0.5 * (windows.max(axis=1) - windows.min(axis=1))
    return ExcursionStats(max_abs=float(half_p2p.max()),
                          peak_to_peak=float(x.max() - x.min()),
                          drift=float(x[-1] - x[0]),
                          window_s=window_s)


# ---------------------------------------------------------------------------
# ion-image profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageProfile:
    """Camera counts along one axis, or a 2-d frame to be summed on demand."""

    pixel_counts: np.ndarray = field(repr=False)
    pixel_pitch: float = 16e-6
    magnification: float = 15.0

    def __post_init__(self):
        arr = np.array(self.pixel_counts, dtype=float, copy=True)
        if arr.ndim not in (1, 2) or arr.size == 0:
            raise DomainError("pixel_counts must be a non-empty 1-d or 2-d array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("pixel counts must be finite")
        for name in ("pixel_pitch", "magnification"):
            real_number(getattr(self, name), name)
        if not (self.pixel_pitch > 0 and self.magnification > 0):
            raise DomainError("pixel pitch and magnification must be positive")
        arr.flags.writeable = False
        object.__setattr__(self, "pixel_counts", arr)

    def axis_profile(self, axis: str) -> np.ndarray:
        """Row profile (summed across columns) or column profile; 1-d input as
        is, once the axis name is known."""
        if axis not in (AXIS_ROW, AXIS_COLUMN):
            raise DomainError(f"unknown axis {axis!r}")
        if self.pixel_counts.ndim == 1:
            return self.pixel_counts
        return self.pixel_counts.sum(axis=1 if axis == AXIS_ROW else 0)

    @property
    def object_plane_pitch(self) -> float:
        return self.pixel_pitch / self.magnification


@dataclass(frozen=True)
class ImageFit:
    center_m: float
    width_m: float
    amplitude: float
    offset: float
    fit: FitResult
    unconstrained: bool


def gaussian_profile_fit(profile: ImageProfile, axis: str = AXIS_ROW,
                         weights=None) -> ImageFit:
    """Gaussian + offset fit of an image profile, in object-plane meters.

    The fit runs in pixel space; center and width (the Gaussian standard
    deviation) are scaled by pixel_pitch/magnification.  A flat profile is
    flagged ``unconstrained`` rather than raising: its fit is degenerate, or
    stops as ``off_range`` once the center leaves the profile by more than
    its length or the width exceeds twice that length, or its width has a
    1-sigma uncertainty above the width.
    """
    counts = profile.axis_profile(axis)
    if counts.size < 5:
        raise InsufficientDataError("profile fit needs at least 5 pixels")
    px = np.arange(counts.size, dtype=float)
    b0 = float(counts.min())
    a0 = float(counts.max() - counts.min()) or 1.0
    c0 = float(counts.argmax())
    above = np.nonzero(counts - b0 > 0.5 * a0)[0]
    s0 = max(float(above[-1] - above[0]) / 2.355, 0.5) if above.size >= 2 else counts.size / 4.0
    res = lm_fit(gaussian_model, px, counts, np.array([a0, c0, s0, b0]), weights=weights,
                 names=("amplitude", "center", "sigma", "offset"), peak=(1, 2))
    scale = profile.object_plane_pitch
    return ImageFit(center_m=res.params["center"] * scale,
                    width_m=abs(res.params["sigma"]) * scale,
                    amplitude=res.params["amplitude"], offset=res.params["offset"],
                    fit=res, unconstrained=res.is_unconstrained("sigma"))
