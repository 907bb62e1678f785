"""Eddy-current shielding of conductive enclosures.

A wall of thickness t attenuates an oscillating field by exp(-t/delta) once
the skin depth delta = sqrt(2/(omega*sigma*mu)) is smaller than the wall, i.e.
by -20*log10(e) * t/delta decibels.  Cooling the wall raises the conductivity
and deepens the attenuation; measured curves can instead be limited by joint
contact resistance, which this module classifies by competing model fits.

numpy (and ``cryoion.fitting``) is imported inside the functions that
build arrays, so a command that needs only scalars starts without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InsufficientDataError
from .units import CONSTANTS

DB_PER_SKIN_DEPTH = 20.0 / math.log(10.0)  # 8.6859 dB of attenuation per t=delta

ROOM_TEMPERATURE_K = 293.0
LN2_TEMPERATURE_K = 77.0
SATURATION_TEMPERATURE_K = 20.0
DEFAULT_LN2_RATIO = 8.0  # typical OFHC conductivity gain at 77 K, used for every conductor


@dataclass(frozen=True)
class ConductorSpec:
    """Bulk conductor: room-temperature conductivity, residual ratio, permeability."""

    sigma_293k: float
    rrr: float = 1.0
    mu_r: float = 1.0

    def __post_init__(self):
        if not (self.sigma_293k > 0 and math.isfinite(self.sigma_293k)):
            raise DomainError("sigma_293k must be positive")
        if not (self.rrr >= 1.0 and math.isfinite(self.rrr)):
            raise DomainError("rrr must be >= 1")
        if not (self.mu_r >= 1.0 and math.isfinite(self.mu_r)):
            raise DomainError("mu_r must be >= 1")


#: Annealed OFHC copper at room temperature.
COPPER = ConductorSpec(sigma_293k=5.96e7)


@dataclass(frozen=True)
class ShieldLayer:
    """One conductive wall. Zero thickness is allowed (degenerate: no attenuation)."""

    thickness: float
    conductor: ConductorSpec
    temperature: float

    def __post_init__(self):
        if not (self.thickness >= 0 and math.isfinite(self.thickness)):
            raise DomainError("thickness must be >= 0")
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise DomainError("temperature must be positive")


@dataclass(frozen=True)
class AttenuationCurve:
    """Measured attenuation points (dB <= 0) on a strictly increasing frequency grid."""

    freqs_hz: tuple
    atten_db: tuple
    floor_db: float

    def __post_init__(self):
        f = tuple(float(v) for v in self.freqs_hz)
        a = tuple(float(v) for v in self.atten_db)
        if len(f) != len(a) or not f:
            raise DomainError("need equal, non-zero numbers of frequencies and attenuations")
        if any(not math.isfinite(v) or v <= 0 for v in f):
            raise DomainError("frequencies must be positive and finite")
        if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
            raise DomainError("frequencies must be strictly increasing")
        if any(not math.isfinite(v) or v > 0 for v in a):
            raise DomainError("attenuations must be <= 0 dB and finite")
        if not (math.isfinite(self.floor_db) and self.floor_db <= 0):
            raise DomainError("floor_db must be <= 0")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "atten_db", a)
        object.__setattr__(self, "floor_db", float(self.floor_db))


def conductivity_at(conductor: ConductorSpec, temperature: float) -> float:
    """Conductivity in S/m at a temperature, interpolating the cooldown gain.

    The gain over the room-temperature value is modeled log-log linearly
    through (293 K, 1) and (77 K, DEFAULT_LN2_RATIO), continuing to (20 K,
    rrr); below 20 K phonon scattering is frozen out and the gain saturates
    at rrr.  The gain is clamped to at most rrr everywhere and to 1 above
    293 K.
    """
    T = float(temperature)
    if not (T > 0 and math.isfinite(T)):
        raise DomainError("temperature must be positive")
    if T >= ROOM_TEMPERATURE_K:
        gain = 1.0
    elif T >= LN2_TEMPERATURE_K:
        frac = math.log(ROOM_TEMPERATURE_K / T) / math.log(ROOM_TEMPERATURE_K / LN2_TEMPERATURE_K)
        gain = math.exp(frac * math.log(DEFAULT_LN2_RATIO))
    elif T > SATURATION_TEMPERATURE_K:
        frac = math.log(LN2_TEMPERATURE_K / T) / math.log(LN2_TEMPERATURE_K / SATURATION_TEMPERATURE_K)
        ln2 = math.log(DEFAULT_LN2_RATIO)
        gain = math.exp(ln2 + frac * (math.log(conductor.rrr) - ln2))
    else:
        gain = conductor.rrr
    return conductor.sigma_293k * min(conductor.rrr, gain)


def skin_depth(frequency: float, conductor: ConductorSpec, temperature: float) -> float:
    """Skin depth in m: sqrt(2 / (2*pi*f * sigma(T) * mu_r*mu0))."""
    f = float(frequency)
    if not (f > 0 and math.isfinite(f)):
        raise DomainError("frequency must be positive")
    sigma = conductivity_at(conductor, temperature)
    mu = conductor.mu_r * CONSTANTS.mu0
    return math.sqrt(2.0 / (2.0 * math.pi * f * sigma * mu))


def skin_attenuation_db(thickness: float, delta: float) -> float:
    """Attenuation in dB (<= 0) of a wall of given thickness at skin depth delta."""
    if not (0 <= thickness < math.inf and 0 < delta < math.inf):
        raise DomainError("thickness must be finite and >= 0 and skin depth finite and > 0, "
                          f"got {thickness!r} and {delta!r}")
    return 0.0 - DB_PER_SKIN_DEPTH * thickness / delta  # 0.0, not -0.0, for a bare wall


def attenuation_skin(layer: ShieldLayer, frequency: float) -> float:
    """Skin-effect attenuation of one wall in dB at a frequency."""
    return skin_attenuation_db(layer.thickness, skin_depth(frequency, layer.conductor, layer.temperature))


def attenuation_series(layers: Sequence[ShieldLayer], frequency: float) -> float:
    """Total dB of nested walls (attenuations add in dB)."""
    layers = list(layers)
    if not layers:
        raise DomainError("need at least one layer")
    return sum(attenuation_skin(layer, frequency) for layer in layers)


@dataclass(frozen=True)
class NoiseBudget:
    b_max_t: float
    relative_stability: float


def field_noise_budget(sensitivity_hz_per_t: float, linewidth_hz: float,
                       quantization_field_t: float) -> NoiseBudget:
    """Largest tolerable field excursion for a transition of given sensitivity.

    b_max = linewidth / sensitivity; relative_stability = b_max / bias field.
    """
    values = (sensitivity_hz_per_t, linewidth_hz, quantization_field_t)
    if not all(0 < v < math.inf for v in values):
        raise DomainError("sensitivity, linewidth and field must be finite and positive, "
                          f"got {values!r}")
    b_max = linewidth_hz / sensitivity_hz_per_t
    return NoiseBudget(b_max_t=b_max, relative_stability=b_max / quantization_field_t)


# ---------------------------------------------------------------------------
# regime classification of measured attenuation curves
# ---------------------------------------------------------------------------

REGIME_SKIN = "skin_limited"
REGIME_CONTACT = "contact_limited"


def _skin_model(f, theta):
    import numpy as np

    root = np.sqrt(f)
    return -theta[0] * root, -root[:, None]


def _contact_model(f, theta):
    import numpy as np

    decades = np.log10(f)
    jac = np.empty((2,) + decades.shape)
    jac[0] = 1.0
    jac[1] = -20.0 * decades
    return theta[0] - 20.0 * theta[1] * decades, jac.T


@dataclass(frozen=True)
class RegimeFit:
    """Competing-model fit of an attenuation curve.

    ``regime`` is the lower-residual model; ``ambiguous`` is set when the two
    residual RMS values are within a factor of two of each other, in which
    case both extrapolations deserve attention.
    """

    regime: str
    extrapolated_db: float
    extrapolate_to_hz: float
    skin_db: float
    contact_db: float
    skin_fit: FitResult
    contact_fit: FitResult
    n_used: int
    n_censored: int
    ambiguous: bool


def fit_attenuation_regime(curve: AttenuationCurve, extrapolate_to_hz: float = 50.0) -> RegimeFit:
    """Classify a curve as skin- or contact-limited and extrapolate in frequency.

    Points at or below the measurement floor are censored (the sensor cannot
    resolve deeper attenuation); at least 3 points must survive.  The skin
    model is dB = -a*sqrt(f); the contact model is dB = b - 20*s*log10(f)
    with the slope s left free.  Both are linear in their parameters, so each
    fit starts at its closed-form least-squares minimum and ``lm_fit``
    confirms it in one iteration and reports the covariance.  The
    extrapolation frequency must be positive and finite.
    """
    import numpy as np

    from .fitting import line_lstsq, lm_fit

    if not 0 < extrapolate_to_hz < math.inf:
        raise DomainError("extrapolation frequency must be positive and finite, "
                          f"got {extrapolate_to_hz:g} Hz")
    f = np.array(curve.freqs_hz, dtype=float)
    a = np.array(curve.atten_db, dtype=float)
    usable = a > curve.floor_db
    n_used = int(usable.sum())
    n_censored = f.size - n_used
    if n_used < 3:
        raise InsufficientDataError(
            f"only {n_used} points above the {curve.floor_db} dB floor; need >= 3")
    fu, au = f[usable], a[usable]

    root = np.sqrt(fu)
    skin = lm_fit(_skin_model, fu, au, [-float(root @ au) / float(root @ root)], names=["a"])
    slope, b0 = line_lstsq(np.log10(fu), au)
    contact = lm_fit(_contact_model, fu, au, [b0, -slope / 20.0], names=["b", "s"])

    at = np.array([extrapolate_to_hz], dtype=float)
    skin_db = float(_skin_model(at, skin.theta)[0][0])
    contact_db = float(_contact_model(at, contact.theta)[0][0])
    if skin.residual_rms <= contact.residual_rms:
        regime, chosen = REGIME_SKIN, skin_db
    else:
        regime, chosen = REGIME_CONTACT, contact_db
    lo = min(skin.residual_rms, contact.residual_rms)
    hi = max(skin.residual_rms, contact.residual_rms)
    ambiguous = hi <= 2.0 * lo or hi < 1e-12
    return RegimeFit(regime=regime, extrapolated_db=chosen, extrapolate_to_hz=float(extrapolate_to_hz),
                     skin_db=skin_db, contact_db=contact_db, skin_fit=skin, contact_fit=contact,
                     n_used=n_used, n_censored=n_censored, ambiguous=ambiguous)
