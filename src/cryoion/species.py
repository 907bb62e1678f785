"""Ion species and the trap's scalar closed forms: LC resonator arithmetic and
the two-ion spacing.

Plain ``math`` only, so ``cryoion trap resonator`` and ``cryoion trap
spacing`` answer without loading numpy or the trap solver.  ``cryoion.trap``
imports every name here back, so ``cryoion.trap.CA40`` and ``cryoion.CA40``
are these objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, in_float_range
from .units import CONSTANTS


@dataclass(frozen=True)
class IonSpecies:
    mass_kg: float
    charge_c: float
    label: str

    def __post_init__(self):
        if not (0 < self.mass_kg < math.inf and math.isfinite(self.charge_c) and self.charge_c):
            raise DomainError("species needs a finite positive mass and a finite non-zero "
                              f"charge, got {self.mass_kg} kg and {self.charge_c} C")


CA40 = IonSpecies(CONSTANTS.m_ca40, CONSTANTS.elementary_charge, "Ca40")
SR88 = IonSpecies(CONSTANTS.m_sr88, CONSTANTS.elementary_charge, "Sr88")
SPECIES = {"Ca40": CA40, "Sr88": SR88}


def _square(x: float) -> float:
    """x**2, or inf where it overflows (a float ``**`` raises OverflowError there)."""
    return x**2 if abs(x) < 1e154 else math.inf


def _quotient(num: float, den: float, what: str) -> float:
    """num/den for num > 0, checked by ``in_float_range``."""
    return in_float_range(num / den if 0.0 < den < math.inf else math.nan, what)


def resonator_capacitance(inductance_h: float, resonance_hz: float) -> float:
    """Load capacitance of an LC resonator: C = 1/(L*(2*pi*f0)^2)."""
    if not (inductance_h > 0 and resonance_hz > 0):
        raise DomainError("inductance and resonance frequency must be positive, "
                          f"got {inductance_h!r} and {resonance_hz!r}")
    return _quotient(1.0, inductance_h * _square(2.0 * math.pi * resonance_hz),
                     "load capacitance")


def resonance_frequency(inductance_h: float, capacitance_f: float) -> float:
    """f0 = 1/(2*pi*sqrt(L*C))."""
    if not (inductance_h > 0 and capacitance_f > 0):
        raise DomainError("inductance and capacitance must be positive, "
                          f"got {inductance_h!r} and {capacitance_f!r}")
    return _quotient(1.0, 2.0 * math.pi * math.sqrt(inductance_h * capacitance_f),
                     "resonance frequency")


def two_ion_spacing(species: IonSpecies, secular_frequency_hz: float) -> float:
    """Equilibrium spacing of two ions sharing a harmonic well, in m.

    Balance of Coulomb repulsion and restoring force:
    s = (q^2 / (2*pi*eps0*m*omega^2))^(1/3).
    """
    f = float(secular_frequency_hz)
    if not f > 0:
        raise DomainError(f"secular frequency must be positive, got {f!r}")
    omega = 2.0 * math.pi * f
    s3 = _quotient(species.charge_c**2,
                   2.0 * math.pi * CONSTANTS.eps0 * species.mass_kg * _square(omega),
                   "two-ion spacing")
    return s3 ** (1.0 / 3.0)
