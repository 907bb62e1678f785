"""Conductive heat leaks and cryogen boil-off.

Steady-state conduction through a support of constant cross section is
Q = (A/L) * integral of k(T) dT between the cold and hot ends.  The built-in
k(T) for 316 stainless steel is the NIST cryogenic materials log-polynomial
fit (valid 4-300 K); a support with its own (T, k) table interpolates it
linearly instead.

Conductivities are taken at one temperature.  The SS316 fit and the
conduction integral are scalar ``math``, so ``cryoion cryo load`` answers
without numpy; numpy is imported only for a k table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, in_float_range, real_number

# NIST cryogenic material properties fit for 316 stainless:
# log10(k / (W/m/K)) = sum_i a_i * (log10 T)^i, 4 K <= T <= 300 K.
_SS316_LOG10_COEFFS = (-1.4087, 1.3982, 0.2543, -0.6260, 0.2334, 0.4256, -0.4658, 0.1650, -0.0199)
_SS316_RANGE_K = (4.0, 300.0)


def ss316_conductivity(temperature_k: float) -> float:
    """Thermal conductivity of 316 stainless in W/(m K) at one temperature, 4-300 K."""
    t = real_number(temperature_k, "a temperature")
    if not _SS316_RANGE_K[0] <= t <= _SS316_RANGE_K[1]:
        raise DomainError(f"SS316 table covers {_SS316_RANGE_K[0]}-{_SS316_RANGE_K[1]} K")
    L = math.log10(t)
    acc = 0.0
    for i, c in enumerate(_SS316_LOG10_COEFFS):
        acc = acc + c * L**i
    return 10.0**acc


@dataclass(frozen=True)
class SupportSpec:
    """A conduction path of constant cross section between two heat baths.

    ``k_table`` is the material's conductivity, a pair (T ascending, k > 0)
    interpolated linearly; None means 316 stainless (``ss316_conductivity``).
    """

    cross_section_m2: float
    length_m: float
    t_cold_k: float
    t_hot_k: float
    k_table: tuple | None = None

    def __post_init__(self):
        if not (real_number(self.cross_section_m2, "cross_section_m2") > 0
                and real_number(self.length_m, "length_m") > 0):
            raise DomainError("cross section and length must be positive")
        if not (0 < real_number(self.t_cold_k, "t_cold_k") < real_number(self.t_hot_k, "t_hot_k")):
            raise DomainError("need 0 < t_cold < t_hot")
        if self.k_table is not None:
            import numpy as np

            try:
                T, k = (np.asarray(v, dtype=float) for v in self.k_table)
            except (TypeError, ValueError):  # not two rows of numbers
                T = k = np.empty(0)
            if not (T.ndim == k.ndim == 1 and T.size == k.size >= 2
                    and np.all(np.diff(T) > 0) and np.all(k > 0)):
                raise DomainError("k_table must be two rows, T ascending and k positive")
            object.__setattr__(self, "k_table", (T, k))

    @classmethod
    def thin_cylinder(cls, diameter_m: float, wall_m: float, length_m: float,
                      t_cold_k: float, t_hot_k: float, k_table=None) -> "SupportSpec":
        """Thin-walled tube: cross section = pi * diameter * wall."""
        diameter_m, wall_m = real_number(diameter_m, "diameter_m"), real_number(wall_m, "wall_m")
        if not (diameter_m > 0 and 0 < wall_m < diameter_m / 2):
            raise DomainError("need a thin wall: 0 < wall < diameter/2")
        return cls(cross_section_m2=math.pi * diameter_m * wall_m, length_m=length_m,
                   t_cold_k=t_cold_k, t_hot_k=t_hot_k, k_table=k_table)

    def conductivity(self, temperature_k: float) -> float:
        """k in W/(m K) at one temperature, inside the k table's range."""
        if self.k_table is None:
            return ss316_conductivity(temperature_k)
        import numpy as np

        t = real_number(temperature_k, "a temperature")
        T_tab, k_tab = self.k_table
        if not T_tab[0] <= t <= T_tab[-1]:
            raise DomainError("temperature outside the custom k table range")
        return float(np.interp(t, T_tab, k_tab))


def conduction_load(support: SupportSpec) -> float:
    """Heat leak in W: (A/L) * integral k(T) dT.

    A k table's linear interpolant is integrated exactly, by a trapezoid over
    the two ends and the table nodes strictly between them.  SS316 takes a
    trapezoid on a <= 1 K grid.  An A/L or a load beyond the float range is a
    DomainError."""
    lo, hi = support.t_cold_k, support.t_hot_k
    k_lo, k_hi = support.conductivity(lo), support.conductivity(hi)  # range checks first
    if support.k_table is None:
        n = max(2, int(math.ceil(hi - lo)) + 1)
        # the inner nodes of np.linspace: lo + i*step
        step = (hi - lo) / (n - 1)
        inner = [lo + i * step for i in range(1, n - 1)]
        k_inner = [ss316_conductivity(t) for t in inner]
    else:
        T_tab, k_tab = support.k_table
        inside = (T_tab > lo) & (T_tab < hi)
        inner, k_inner = T_tab[inside].tolist(), k_tab[inside].tolist()
    T, k = [lo, *inner, hi], [k_lo, *k_inner, k_hi]
    try:
        integral = math.fsum(0.5 * (k[i + 1] + k[i]) * (T[i + 1] - T[i])
                             for i in range(len(T) - 1))
    except OverflowError:  # a partial sum beyond the float range
        integral = math.inf
    area_per_length = in_float_range(support.cross_section_m2 / support.length_m, "A/L")
    return in_float_range(area_per_length * integral, "conduction load")


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
    power = grams_per_hour * coolant.latent_heat_j_per_g / 3600.0
    return in_float_range(power, "boil-off power") if rate else power
