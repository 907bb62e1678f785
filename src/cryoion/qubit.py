"""Trapped-ion qubit dynamics and measurement fits.

Covers the standard single-ion toolbox: thermal phonon distributions, carrier
Rabi flopping with the lowest-order Lamb-Dicke correction, red/blue sideband
thermometry, heating-rate and Ramsey-contrast fits, addressing-beam waist
extraction, and the photon-collection / diffraction-limit optics budget.

The motional state is modeled as a single effective thermal mode.  Rabi decay
from a hot radial mode and thermometry along the axial mode are therefore
described by the same ``PhononState`` with different ``nbar``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError
from .fitting import FitResult, line_model, lm_fit

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
    """Thermal motional state with mean occupation ``nbar``.

    ``n_max`` is the Fock-space truncation; the default keeps at least
    20 + 10*nbar levels and extends until the neglected geometric tail is
    below 1e-8, so the truncated distribution always covers >= 1 - 1e-6.
    """

    nbar: float
    n_max: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise DomainError("nbar must be finite and >= 0")
        if self.n_max is None:
            object.__setattr__(self, "n_max", _default_n_max(self.nbar))
        elif self.n_max < 20.0 + 10.0 * self.nbar:
            raise DomainError("n_max below the documented truncation rule 20 + 10*nbar")

    @property
    def probabilities(self) -> np.ndarray:
        return thermal_distribution(self)

    @property
    def mean_occupation(self) -> float:
        p = self.probabilities
        return float(np.arange(p.size) @ p)


def thermal_distribution(state: PhononState) -> np.ndarray:
    """P(n) = nbar^n / (1+nbar)^(n+1) for n = 0..n_max, renormalized."""
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
    """Laser drive: carrier Rabi frequency (rad/s), Lamb-Dicke parameter, detuning."""

    rabi_frequency: float
    lamb_dicke: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.rabi_frequency < 0:
            raise DomainError("rabi_frequency must be >= 0")
        if not (self.lamb_dicke >= 0):
            raise DomainError("lamb_dicke must be >= 0")

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
    element Omega exp(-eta^2/2) L_n(eta^2) instead.  Requires zero detuning.
    An out-of-regime Lamb-Dicke parameter does not raise; it clears the
    ``lamb_dicke_valid`` flag on the result.
    """
    if drive.detuning != 0.0:
        raise DomainError("carrier signal is defined on resonance (detuning=0)")
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
    if nbar < 0:
        raise DomainError("nbar must be >= 0")
    return nbar / (1.0 + nbar)


def heating_rate_fit(wait_s, nbars, weights=None) -> FitResult:
    """Linear fit nbar(t) = intercept + rate * t; rate in phonons per second."""
    t = np.asarray(wait_s, dtype=float)
    n = np.asarray(nbars, dtype=float)
    if t.size < 3:
        raise InsufficientDataError("heating-rate fit needs at least 3 points")
    slope0 = (n[-1] - n[0]) / (t[-1] - t[0]) if t[-1] != t[0] else 0.0
    theta0 = np.array([slope0, n[0]])
    return lm_fit(line_model, t, n, theta0, weights=weights,
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
    t = np.asarray(wait_s, dtype=float)
    c = np.asarray(contrasts, dtype=float)
    if t.size < 4:
        raise InsufficientDataError("Ramsey fit needs at least 4 points")
    if np.any((c < 0) | (c > 1)):
        raise DomainError("contrast values must lie in [0, 1]")
    if shape not in (RAMSEY_GAUSSIAN, RAMSEY_EXPONENTIAL):
        raise DomainError(f"unknown Ramsey shape {shape!r}")

    if shape == RAMSEY_GAUSSIAN:
        def model(x, theta):
            return theta[0] * np.exp(-((x / theta[1]) ** 2))
    else:
        def model(x, theta):
            return theta[0] * np.exp(-x / theta[1])

    c0 = float(c.max()) if c.max() > 0 else 1.0
    below = np.nonzero(c < c0 / math.e)[0]
    span = float(t[-1] - t[0]) or 1.0
    t0 = float(t[below[0]]) if below.size and t[below[0]] > 0 else span
    res = lm_fit(model, t, c, np.array([c0, t0]), weights=weights,
                 names=("contrast0", "t_1e"))
    t_1e = abs(res.params["t_1e"])
    sig = res.sigma("t_1e")
    unconstrained = ((not res.converged) or not math.isfinite(sig) or sig > t_1e
                     or t_1e > 10.0 * span)
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
        if self.waist <= 0:
            raise DomainError("waist must be positive")


@dataclass(frozen=True)
class WaistFit:
    profile: BeamProfile
    fit: FitResult
    unconstrained: bool


def waist_from_rabi_scan(positions_m, rabi_rad_s, weights=None) -> WaistFit:
    """Extract the beam waist from Rabi frequency versus ion position.

    The Rabi rate follows the field, so Omega(x) = Omega0 exp(-(x-x0)^2/w^2)
    and the fitted w is directly the 1/e^2 intensity radius.  Scans without a
    bell shape are flagged ``unconstrained`` instead of raising.
    """
    x = np.asarray(positions_m, dtype=float)
    om = np.asarray(rabi_rad_s, dtype=float)
    if x.size < 4:
        raise InsufficientDataError("waist scan needs at least 4 points")

    def model(xv, theta):
        return theta[0] * np.exp(-((xv - theta[1]) / theta[2]) ** 2)

    i0 = int(np.argmax(om))
    span = float(x.max() - x.min()) or 1.0
    theta0 = np.array([float(om[i0]) or 1.0, float(x[i0]), span / 4.0])
    res = lm_fit(model, x, om, theta0, weights=weights,
                 names=("peak_rabi", "center", "waist"))
    w = abs(res.params["waist"])
    sig = res.sigma("waist")
    unconstrained = (not res.converged) or not math.isfinite(sig) or sig > w
    profile = BeamProfile(waist=w if w > 0 else math.inf,
                          center=res.params["center"],
                          peak_rabi=res.params["peak_rabi"])
    return WaistFit(profile=profile, fit=res, unconstrained=unconstrained)


def collection_efficiency(numerical_aperture: float) -> float:
    """Fraction of 4 pi collected by a lens of given NA (isotropic emitter)."""
    na = float(numerical_aperture)
    if not (0.0 <= na <= 1.0):
        raise DomainError("numerical aperture must lie in [0, 1]")
    return 0.5 * (1.0 - math.sqrt(1.0 - na * na))


def diffraction_limited_waist(wavelength_m: float, numerical_aperture: float) -> float:
    """Smallest Gaussian 1/e^2 waist a lens can address: w0 = lambda/(pi*NA)."""
    na = float(numerical_aperture)
    if not (0.0 < na <= 1.0):
        raise DomainError("numerical aperture must lie in (0, 1]")
    if wavelength_m <= 0:
        raise DomainError("wavelength must be positive")
    return wavelength_m / (math.pi * na)
