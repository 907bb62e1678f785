"""Conductive heat leaks and cryogen boil-off.

Steady-state conduction through a support of constant cross section is
Q = (A/L) * integral of k(T) dT between the cold and hot ends.  The built-in
k(T) for 316 stainless steel is the NIST cryogenic materials log-polynomial
fit (valid 4-300 K); custom materials supply a (T, k) table interpolated
linearly.

The SS316 fit and the conduction integral are scalar ``math``, so ``cryoion
cryo load`` answers without numpy; numpy is imported only for array inputs
and custom k tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# NIST cryogenic material properties fit for 316 stainless:
# log10(k / (W/m/K)) = sum_i a_i * (log10 T)^i, 4 K <= T <= 300 K.
_SS316_LOG10_COEFFS = (-1.4087, 1.3982, 0.2543, -0.6260, 0.2334, 0.4256, -0.4658, 0.1650, -0.0199)
_SS316_RANGE_K = (4.0, 300.0)

MATERIAL_SS316 = "SS316"
MATERIAL_CUSTOM = "custom"


def _ss316(temperature_k: float) -> float:
    """The SS316 log-polynomial at one temperature."""
    if not _SS316_RANGE_K[0] <= temperature_k <= _SS316_RANGE_K[1]:
        raise DomainError(f"SS316 table covers {_SS316_RANGE_K[0]}-{_SS316_RANGE_K[1]} K")
    L = math.log10(temperature_k)
    acc = 0.0
    for i, c in enumerate(_SS316_LOG10_COEFFS):
        acc = acc + c * L**i
    return 10.0**acc


def ss316_conductivity(temperature_k):
    """Thermal conductivity of 316 stainless in W/(m K), valid 4-300 K.

    A float gives a float; an array gives an array of the same evaluation.
    """
    if isinstance(temperature_k, (int, float)):
        return _ss316(float(temperature_k))
    import numpy as np

    T = np.asarray(temperature_k, dtype=float)
    out = np.array([_ss316(t) for t in T.ravel().tolist()]).reshape(T.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SupportSpec:
    """A conduction path of constant cross section between two heat baths."""

    cross_section_m2: float
    length_m: float
    t_cold_k: float
    t_hot_k: float
    material: str = MATERIAL_SS316
    k_table: tuple | None = None  # (T array ascending, k array) for material="custom"

    def __post_init__(self):
        if not (self.cross_section_m2 > 0 and self.length_m > 0):
            raise DomainError("cross section and length must be positive")
        if not (0 < self.t_cold_k < self.t_hot_k):
            raise DomainError("need 0 < t_cold < t_hot")
        if self.material == MATERIAL_CUSTOM:
            if self.k_table is None:
                raise DomainError("custom material requires a k_table")
            import numpy as np

            T, k = (np.asarray(v, dtype=float) for v in self.k_table)
            if T.size != k.size or T.size < 2 or np.any(np.diff(T) <= 0) or np.any(k <= 0):
                raise DomainError("k_table must be ascending in T with positive k")
            object.__setattr__(self, "k_table", (T, k))
        elif self.material != MATERIAL_SS316:
            raise DomainError(f"unknown material {self.material!r}")

    @classmethod
    def thin_cylinder(cls, diameter_m: float, wall_m: float, length_m: float,
                      t_cold_k: float, t_hot_k: float, material: str = MATERIAL_SS316,
                      k_table=None) -> "SupportSpec":
        """Thin-walled tube: cross section = pi * diameter * wall."""
        if not (diameter_m > 0 and 0 < wall_m < diameter_m / 2):
            raise DomainError("need a thin wall: 0 < wall < diameter/2")
        return cls(cross_section_m2=math.pi * diameter_m * wall_m, length_m=length_m,
                   t_cold_k=t_cold_k, t_hot_k=t_hot_k, material=material, k_table=k_table)

    def conductivity(self, temperature_k):
        if self.material == MATERIAL_SS316:
            return ss316_conductivity(temperature_k)
        import numpy as np

        T_tab, k_tab = self.k_table
        T = np.asarray(temperature_k, dtype=float)
        if np.any(T < T_tab[0]) or np.any(T > T_tab[-1]):
            raise DomainError("temperature outside the custom k table range")
        out = np.interp(T, T_tab, k_tab)
        return float(out) if out.ndim == 0 else out


def conduction_load(support: SupportSpec) -> float:
    """Heat leak in W: (A/L) * integral k(T) dT, trapezoid on a <= 1 K grid."""
    lo, hi = support.t_cold_k, support.t_hot_k
    k_lo, k_hi = support.conductivity(lo), support.conductivity(hi)  # range checks first
    n = max(2, int(math.ceil(hi - lo)) + 1)
    # the nodes of np.linspace: lo + i*step, the last one exactly hi
    step = (hi - lo) / (n - 1)
    T = [lo + i * step for i in range(n - 1)] + [hi]
    k = [k_lo] + [support.conductivity(t) for t in T[1:-1]] + [k_hi]
    integral = math.fsum(0.5 * (k[i + 1] + k[i]) * (T[i + 1] - T[i]) for i in range(n - 1))
    return support.cross_section_m2 / support.length_m * integral


@dataclass(frozen=True)
class CoolantSpec:
    """Liquid cryogen: density in kg/l and latent heat of vaporization in J/g."""

    name: str
    density_kg_per_l: float
    latent_heat_j_per_g: float

    def __post_init__(self):
        if not (self.density_kg_per_l > 0 and self.latent_heat_j_per_g > 0):
            raise DomainError("density and latent heat must be positive")


LIQUID_HELIUM = CoolantSpec("LHe", density_kg_per_l=0.125, latent_heat_j_per_g=20.8)
LIQUID_NITROGEN = CoolantSpec("LN2", density_kg_per_l=0.807, latent_heat_j_per_g=199.0)


def boiloff_power(rate_l_per_h: float, coolant: CoolantSpec = LIQUID_HELIUM) -> float:
    """Steady heat load in W implied by a liquid consumption rate in l/h."""
    rate = float(rate_l_per_h)
    if rate < 0 or not math.isfinite(rate):
        raise DomainError("boil-off rate must be >= 0")
    grams_per_hour = rate * coolant.density_kg_per_l * 1000.0
    return grams_per_hour * coolant.latent_heat_j_per_g / 3600.0
