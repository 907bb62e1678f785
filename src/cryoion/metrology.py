"""Instrument characterization: frequency stability, interferometry, spectra.

Four measurement pipelines share this module:

* overlapping Allan deviation of a frequency record (phase or fractional),
* Lorentzian linewidth fits of a beat-note spectrum,
* Michelson quadrature inversion of fringe voltage to displacement, with
  Hann-windowed periodograms, peak finding and excursion statistics downstream,
* Gaussian fits of ion-image row/column profiles in object-plane units.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (ClippingError, DomainError, InsufficientDataError, Record,
                     integer_at_least, real_number)
from .fitting import FitResult, gaussian_model, lm_fit, lorentzian_model, scan_arrays
from .series import TimeSeries

KIND_FRACTIONAL = "fractional_frequency"
KIND_PHASE = "phase_seconds"

AXIS_ROW = "row"
AXIS_COLUMN = "column"

#: largest fraction of fringe samples that may clip before inversion fails
MAX_CLIPPED_FRACTION = 0.01


class FrequencyRecord(Record):
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


def _whole_samples(duration, dt: float, minimum: int, what: str) -> int:
    """``duration`` in samples of ``dt``: duration / dt within 1e-9 relative
    of an integer of at least ``minimum``.  A duration that is not one
    number, is not a positive finite number of samples, spans fewer than
    ``minimum`` or falls between two whole numbers of samples is a
    DomainError naming ``what``."""
    duration = real_number(duration, what)
    m_real = duration / dt
    if not 0.0 < m_real < math.inf:
        raise DomainError(f"{what} must be a positive finite number of samples, "
                          f"got {duration!r} s at dt = {dt:g} s")
    m = round(m_real)
    if m < minimum:
        raise DomainError(f"{what} of {duration:g} s spans {m} sample(s) at dt = {dt:g} s; "
                          f"it needs at least {minimum} sample{'s' * (minimum > 1)}")
    if abs(m_real - m) > 1e-9 * m:
        raise DomainError(f"{what} of {duration:g} s is {m_real:g} samples at dt = {dt:g} s; "
                          "it must be a whole number of samples")
    return m


def allan_deviation(record: FrequencyRecord, taus=None) -> tuple[np.ndarray, np.ndarray]:
    """Overlapping Allan deviation at the averaging times ``taus``.

    sigma_y^2(tau) = sum_i (x[i+2m] - 2 x[i+m] + x[i])^2 / (2 (N-2m) tau^2)
    on N phase samples x with tau = m*dt, m >= 1 whole, and 2m + 1 <= N.
    The default is tau = 2^k dt while 2m + 1 <= N, so fewer than 3 phase
    samples are an InsufficientDataError either way.  The sum is exact
    (``math.fsum``), the same bits on any host.  Returns (taus, sigma_y).
    """
    x = record.phase_seconds()
    dt = record.series.dt
    n = x.size
    if taus is None:
        # every power of two m <= (N - 1) // 2, or m = 1 alone, to fail below
        taus = [dt * 2 ** k for k in range(max(1, ((n - 1) // 2).bit_length()))]
    try:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
    except (TypeError, ValueError):
        raise DomainError(f"taus must be numbers, got {taus!r}") from None
    sigmas = np.empty(taus.size)
    for k, tau in enumerate(taus):
        m = _whole_samples(tau, dt, 1, "tau")
        if n < 2 * m + 1:
            raise InsufficientDataError(
                f"need at least {2 * m + 1} phase samples for tau={tau}, have {n}")
        d = x[2 * m:] - 2.0 * x[m:-m] + x[:-2 * m]
        sigmas[k] = math.sqrt(math.fsum((d * d).tolist()) / (2.0 * (n - 2 * m) * tau * tau))
    return taus, sigmas


# ---------------------------------------------------------------------------
# beat-note linewidth
# ---------------------------------------------------------------------------


class LinewidthFit(Record):
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


class InterferometerCal(Record):
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


class FringeInversion(Record, hidden=("clipped",)):
    displacement: TimeSeries
    clipped: np.ndarray
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


def power_spectrum(series: TimeSeries):
    """One-sided Hann-windowed periodogram of a mean-removed record x,
    normalized by the power of the window w: sum(psd) * df = sum((w x)^2) /
    sum(w^2), close to the variance for broadband input.  Returns (freq, psd).
    """
    n = len(series)
    if n < 16:
        raise InsufficientDataError("power spectrum needs at least 16 samples")
    w = np.hanning(n)
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


class ExcursionStats(Record):
    """Short-window and whole-record displacement excursions."""

    max_abs: float
    peak_to_peak: float
    drift: float
    window_s: float


def _window_max(x: np.ndarray, m: int) -> np.ndarray:
    """Maximum of each window of ``m`` consecutive samples of ``x``, for the
    len(x) - m + 1 windows in order, in O(len(x)) whatever ``m``: the van
    Herk / Gil-Werman running maximum (van Herk, Pattern Recognit. Lett. 13,
    517 (1992); Gil & Werman, IEEE TPAMI 15, 504 (1993)).  Cut x into blocks
    of m; the window from i ends in the block after i's or in i's own, so its
    maximum is that of the running maximum from i to its block's end and of
    the one from the next block's start to i + m - 1.  A maximum is exact,
    so each window's value is the direct one's."""
    n = x.size
    blocks = np.full(-(-n // m) * m, -np.inf)
    blocks[:n] = x
    blocks = blocks.reshape(-1, m)
    ahead = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    behind = np.maximum.accumulate(blocks, axis=1).ravel()
    return np.maximum(ahead[:n - m + 1], behind[m - 1:n])


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
    m = _whole_samples(window_s, displacement.dt, 2, "excursion window")
    if m > x.size:
        raise DomainError(f"excursion window of {window_s:g} s is longer than the record")
    # max - min is max + max(-x), exactly; + 0.0 makes a zero +0.0 whatever
    # sign the tied zeros of a constant record leave
    half_p2p = 0.5 * (_window_max(x, m) + _window_max(-x, m))
    return ExcursionStats(max_abs=float(half_p2p.max()) + 0.0,
                          peak_to_peak=float(x.max() - x.min()),
                          drift=float(x[-1] - x[0]),
                          window_s=window_s)


# ---------------------------------------------------------------------------
# ion-image profiles
# ---------------------------------------------------------------------------


class ImageProfile(Record, hidden=("pixel_counts",)):
    """Camera counts along one axis, or a 2-d frame to be summed on demand."""

    pixel_counts: np.ndarray
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
        self.__dict__["pixel_counts"] = arr

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


class ImageFit(Record):
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
