"""Trapped-ion qubit dynamics and measurement fits.

Covers the standard single-ion toolbox: thermal phonon distributions, carrier
Rabi flopping with the lowest-order Lamb-Dicke correction, red/blue sideband
thermometry, heating-rate and Ramsey-contrast fits, addressing-beam waist
extraction, and the photon-collection / diffraction-limit optics budget.

The motional state is modeled as a single effective thermal mode.  Rabi decay
from a hot radial mode and thermometry along the axial mode are therefore
described by the same ``PhononState`` with different ``nbar``.

numpy (and ``cryoion.fitting``) is imported inside the functions that
build arrays, so a command that needs only scalars starts without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DomainError, InsufficientDataError

RABI_LINEAR = "linear"      # Omega_n = Omega * (1 - eta^2 * n)
RABI_LAGUERRE = "laguerre"  # Omega_n = Omega * exp(-eta^2/2) * L_n(eta^2)

RAMSEY_GAUSSIAN = "gaussian"
RAMSEY_EXPONENTIAL = "exponential"

_TAIL_CUTOFF = 1e-8


def _default_n_max(nbar: float) -> int:
    floor = math.ceil(20.0 + 10.0 * nbar)
    if nbar <= 0:
        return floor
    # geometric tail (nbar/(1+nbar))^(N+1) <= cutoff
    ratio = nbar / (1.0 + nbar)
    tail = math.ceil(math.log(_TAIL_CUTOFF) / math.log(ratio)) - 1
    return max(floor, tail)


@dataclass(frozen=True)
class PhononState:
    """Thermal motional state with mean occupation ``nbar``."""

    nbar: float

    def __post_init__(self):
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise DomainError("nbar must be finite and >= 0")

    @property
    def n_max(self) -> int:
        """The Fock-space truncation, set by ``nbar``: at least 20 + 10*nbar
        levels, extended until the neglected geometric tail is below 1e-8, so
        the truncated distribution always covers >= 1 - 1e-6."""
        return _default_n_max(self.nbar)

    @property
    def probabilities(self) -> np.ndarray:
        return thermal_distribution(self)

    @property
    def mean_occupation(self) -> float:
        import numpy as np

        p = self.probabilities
        return float(np.arange(p.size) @ p)


def thermal_distribution(state: PhononState) -> np.ndarray:
    """P(n) = nbar^n / (1+nbar)^(n+1) for n = 0..n_max, renormalized."""
    import numpy as np

    n = np.arange(state.n_max + 1, dtype=float)
    if state.nbar == 0:
        p = np.zeros(n.size)
        p[0] = 1.0
        return p
    ratio = state.nbar / (1.0 + state.nbar)
    p = np.exp(n * math.log(ratio)) / (1.0 + state.nbar)
    return p / p.sum()


@dataclass(frozen=True)
class DriveParams:
    """Resonant laser drive: carrier Rabi frequency (rad/s) and Lamb-Dicke parameter."""

    rabi_frequency: float
    lamb_dicke: float

    def __post_init__(self):
        if not 0 <= self.rabi_frequency < math.inf:
            raise DomainError(f"rabi_frequency must be finite and >= 0, "
                              f"got {self.rabi_frequency!r}")
        if not 0 <= self.lamb_dicke < math.inf:
            raise DomainError(f"lamb_dicke must be finite and >= 0, got {self.lamb_dicke!r}")

    @property
    def lamb_dicke_valid(self) -> bool:
        """True when eta < 0.5, the regime where the linear correction holds."""
        return self.lamb_dicke < 0.5


@dataclass(frozen=True)
class RabiSignal:
    times: np.ndarray = field(repr=False)
    excitation: np.ndarray = field(repr=False)
    lamb_dicke_valid: bool = True


def _laguerre_upto(n_max: int, x: float) -> np.ndarray:
    """L_0(x) .. L_n_max(x) by the three-term recurrence (Abramowitz & Stegun 22.7.12).

    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1} is carried in the differences
    D_k = L_{k+1} - L_k, which obey (k+1) D_k = k D_{k-1} - x L_k with
    D_0 = -x; near x = 0, where every L_k is close to 1, this keeps the
    rounding error at the level of one ulp instead of growing with k.
    """
    import numpy as np

    vals = [1.0]
    step = -x
    for k in range(1, n_max + 1):
        vals.append(vals[-1] + step)
        step = (k * step - x * vals[-1]) / (k + 1)
    return np.array(vals)


def carrier_rabi_signal(state: PhononState, drive: DriveParams, times,
                        model: str = RABI_LINEAR) -> RabiSignal:
    """Thermally averaged resonant carrier flopping.

    P_e(t) = sum_n P(n) sin^2(Omega_n t / 2).  The default rate law is
    Omega_n = Omega (1 - eta^2 n); ``model="laguerre"`` uses the exact matrix
    element Omega exp(-eta^2/2) L_n(eta^2) instead.  The drive is on
    resonance: detuned flopping is not modeled.  An out-of-regime Lamb-Dicke
    parameter does not raise; it clears the ``lamb_dicke_valid`` flag on the
    result.
    """
    import numpy as np

    t = np.asarray(times, dtype=float)
    p = thermal_distribution(state)
    eta2 = drive.lamb_dicke**2
    if model == RABI_LINEAR:
        omega_n = drive.rabi_frequency * (1.0 - eta2 * np.arange(p.size))
    elif model == RABI_LAGUERRE:
        omega_n = (drive.rabi_frequency * math.exp(-0.5 * eta2)
                   * _laguerre_upto(p.size - 1, eta2))
    else:
        raise DomainError(f"unknown Rabi model {model!r}")
    signal = np.sin(0.5 * np.outer(t, omega_n)) ** 2 @ p
    return RabiSignal(times=t, excitation=signal,
                      lamb_dicke_valid=drive.lamb_dicke_valid)


# ---------------------------------------------------------------------------
# thermometry
# ---------------------------------------------------------------------------


def sideband_ratio_to_nbar(ratio: float) -> float:
    """Invert the red/blue sideband excitation ratio: nbar = r / (1 - r)."""
    r = float(ratio)
    if not (0.0 <= r < 1.0):
        raise DomainError("sideband ratio must satisfy 0 <= r < 1")
    return r / (1.0 - r)


def nbar_to_sideband_ratio(nbar: float) -> float:
    """Forward map r = nbar / (1 + nbar); exact inverse of the ratio inversion."""
    if not 0 <= nbar < math.inf:
        raise DomainError(f"nbar must be finite and >= 0, got {nbar!r}")
    return nbar / (1.0 + nbar)


def heating_rate_fit(wait_s, nbars, weights=None) -> FitResult:
    """Linear fit nbar(t) = intercept + rate * t; rate in phonons per second.

    The fit starts at the closed-form (weighted) least-squares line, so
    ``lm_fit`` confirms that minimum in one iteration and reports its
    covariance and stop reason.
    """
    from .fitting import line_lstsq, line_model, lm_fit, scan_arrays

    t, n = scan_arrays(wait_s, nbars, "heating-rate fit")
    if t.size < 3:
        raise InsufficientDataError("heating-rate fit needs at least 3 points")
    return lm_fit(line_model, t, n, line_lstsq(t, n, weights), weights=weights,
                  names=("rate", "intercept"))


# ---------------------------------------------------------------------------
# Ramsey contrast decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RamseyFit:
    t_1e: float
    contrast0: float
    shape: str
    fit: FitResult
    unconstrained: bool


def ramsey_contrast_fit(wait_s, contrasts, weights=None,
                        shape: str = RAMSEY_GAUSSIAN) -> RamseyFit:
    """Fit C(t) = C0 exp(-(t/t_1e)^2) (or exp(-t/t_1e) for ``shape="exponential"``).

    Non-decaying data does not raise: the result is flagged ``unconstrained``
    when the 1-sigma uncertainty on t_1e exceeds t_1e itself, or when the
    fitted t_1e runs past ten times the record span (flat data converges to
    an arbitrarily long decay with a deceptively finite uncertainty).
    """
    import numpy as np

    from .fitting import lm_fit, scan_arrays

    t, c = scan_arrays(wait_s, contrasts, "Ramsey fit")
    if t.size < 4:
        raise InsufficientDataError("Ramsey fit needs at least 4 points")
    if ((c < 0) | (c > 1)).any():
        raise DomainError("contrast values must lie in [0, 1]")
    if shape not in (RAMSEY_GAUSSIAN, RAMSEY_EXPONENTIAL):
        raise DomainError(f"unknown Ramsey shape {shape!r}")

    if shape == RAMSEY_GAUSSIAN:
        def model(x, theta):
            c0, t1e = theta
            v = x / t1e
            e = np.exp(-(v**2))
            return c0 * e, np.array([e, 2.0 * c0 * e * v * v / t1e]).T
    else:
        def model(x, theta):
            c0, t1e = theta
            e = np.exp(-x / t1e)
            return c0 * e, np.array([e, c0 * e * (x / t1e) / t1e]).T

    c_max = float(c.max())
    c0 = c_max if c_max > 0 else 1.0
    below = np.nonzero(c < c0 / math.e)[0]
    span = float(t[-1] - t[0]) or 1.0
    t0 = float(t[below[0]]) if below.size and t[below[0]] > 0 else span
    res = lm_fit(model, t, c, np.array([c0, t0]), weights=weights,
                 names=("contrast0", "t_1e"))
    t_1e = abs(res.params["t_1e"])
    unconstrained = res.is_unconstrained("t_1e") or t_1e > 10.0 * span
    return RamseyFit(t_1e=t_1e, contrast0=res.params["contrast0"], shape=shape,
                     fit=res, unconstrained=unconstrained)


# ---------------------------------------------------------------------------
# addressing beam and collection optics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamProfile:
    """Gaussian beam at the ion: 1/e^2 intensity radius, center, peak Rabi rate."""

    waist: float
    center: float
    peak_rabi: float

    def __post_init__(self):
        if not self.waist > 0:  # inf stands for a fit that found no waist
            raise DomainError(f"waist must be positive, got {self.waist!r}")


@dataclass(frozen=True)
class WaistFit:
    profile: BeamProfile
    fit: FitResult
    unconstrained: bool


def waist_from_rabi_scan(positions_m, rabi_rad_s, weights=None) -> WaistFit:
    """Extract the beam waist from Rabi frequency versus ion position.

    The Rabi rate follows the field, so Omega(x) = Omega0 exp(-(x-x0)^2/w^2)
    and the fitted w is directly the 1/e^2 intensity radius.  Scans without a
    bell shape are flagged ``unconstrained`` instead of raising: the fit does
    not converge (it is degenerate, or stops as ``off_range`` once the center
    leaves the scan by more than its span or the waist exceeds two spans), or
    the 1-sigma uncertainty on the waist exceeds the waist.
    """
    import numpy as np

    from .fitting import lm_fit, scan_arrays

    x, om = scan_arrays(positions_m, rabi_rad_s, "waist scan")
    if x.size < 4:
        raise InsufficientDataError("waist scan needs at least 4 points")

    def model(xv, theta):
        peak, center, waist = theta
        u = (xv - center) / waist
        e = np.exp(-(u**2))
        slope = 2.0 * peak * e * u / waist
        return peak * e, np.array([e, slope, slope * u]).T

    i0 = int(om.argmax())
    span = float(x.max() - x.min()) or 1.0
    theta0 = np.array([float(om[i0]) or 1.0, float(x[i0]), span / 4.0])
    res = lm_fit(model, x, om, theta0, weights=weights,
                 names=("peak_rabi", "center", "waist"), peak=(1, 2))
    w = abs(res.params["waist"])
    profile = BeamProfile(waist=w if w > 0 else math.inf,
                          center=res.params["center"],
                          peak_rabi=res.params["peak_rabi"])
    return WaistFit(profile=profile, fit=res, unconstrained=res.is_unconstrained("waist"))


def collection_efficiency(numerical_aperture: float) -> float:
    """Fraction of 4 pi collected by a lens of given NA (isotropic emitter)."""
    na = float(numerical_aperture)
    if not (0.0 <= na <= 1.0):
        raise DomainError(f"numerical aperture must lie in [0, 1], got {na!r}")
    return 0.5 * (1.0 - math.sqrt(1.0 - na * na))


def diffraction_limited_waist(wavelength_m: float, numerical_aperture: float) -> float:
    """Smallest Gaussian 1/e^2 waist a lens can address: w0 = lambda/(pi*NA)."""
    na = float(numerical_aperture)
    if not (0.0 < na <= 1.0):
        raise DomainError(f"numerical aperture must lie in (0, 1], got {na!r}")
    if not 0 < wavelength_m < math.inf:
        raise DomainError(f"wavelength must be finite and positive, got {wavelength_m!r}")
    return wavelength_m / (math.pi * na)
