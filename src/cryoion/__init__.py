"""Models and measurement pipelines for a cryogenic surface-trap ion setup.

The package covers the quantitative design chain of such an apparatus:
conductive magnetic shielding and its temperature dependence, bias-field
coil homogeneity, cryogenic heat budgets, surface-electrode trap
electrostatics, thermal qubit dynamics with the associated fits, and the
metrology pipelines (Allan deviation, linewidth, vibration, imaging) used
to characterize the machine.
"""

__version__ = "0.1.0"

from .errors import (ClippingError, ConfigError, CryoionError, CsvFormatError,
                     DomainError, FitRankError, InsufficientDataError, NoTrapError,
                     NonUniformTimeError, SingularFieldError, SingularModelError,
                     UnitError)
from .units import CONSTANTS, Constants, Quantity, format_si, parse_quantity, parse_si
from .series import TimeSeries, seeded_rng
from .fitting import FitResult, lm_fit
from .shielding import (AttenuationCurve, ConductorSpec, COPPER, NoiseBudget, RegimeFit,
                        ShieldLayer, attenuation_series, attenuation_skin,
                        conductivity_at, field_noise_budget, fit_attenuation_regime,
                        skin_depth)
from .coils import CoilPair, coil_field, coil_homogeneity, helmholtz_center_field
from .thermal import (CoolantSpec, LIQUID_HELIUM, LIQUID_NITROGEN, SupportSpec,
                      boiloff_power, conduction_load, ss316_conductivity)
from .trap import (CA40, SR88, ElectrodeLayout, FiveWireGeometry, IonSpecies, Strip,
                   TrapSolution, find_rf_null, five_wire_layout, load_layout,
                   pseudopotential, rect_potential, resonator_capacitance,
                   resonance_frequency, secular_spectrum, two_ion_spacing)
from .qubit import (BeamProfile, DriveParams, PhononState, carrier_rabi_signal,
                    collection_efficiency, diffraction_limited_waist, heating_rate_fit,
                    ramsey_contrast_fit, sideband_ratio_to_nbar, thermal_distribution,
                    waist_from_rabi_scan)
from .metrology import (ExcursionStats, FrequencyRecord, ImageProfile, InterferometerCal,
                        allan_deviation, excursion_stats, fringe_to_displacement,
                        gaussian_profile_fit, lorentzian_linewidth_fit, peak_find,
                        power_spectrum)

__all__ = [name for name in dir() if not name.startswith("_")]
