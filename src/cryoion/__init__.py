"""Models and measurement pipelines for a cryogenic surface-trap ion setup.

The package covers the quantitative design chain of such an apparatus:
conductive magnetic shielding and its temperature dependence, bias-field
coil homogeneity, cryogenic heat budgets, surface-electrode trap
electrostatics, thermal qubit dynamics with the associated fits, and the
metrology pipelines (Allan deviation, linewidth, vibration, imaging) used
to characterize the machine.

``import cryoion`` is lazy: it loads only ``__version__`` and the error
types, and does not import numpy.  Every other public name, and every
submodule, is imported on first access through a module ``__getattr__``
(PEP 562), so ``cryoion.lm_fit`` always reads the current binding in
``cryoion.fitting``.  The ``cryoion`` command likewise imports only the
modules the chosen subcommand uses.
"""

__version__ = "0.1.0"

from .errors import (ClippingError, ConfigError, CryoionError, CsvFormatError,
                     DomainError, FitRankError, InsufficientDataError, NoTrapError,
                     NonUniformTimeError, SingularFieldError, SingularModelError,
                     UnitError)

#: submodule -> the public names it defines, served on first access
_EXPORTS = {
    "units": ("CONSTANTS", "Constants", "Quantity", "format_si", "parse_quantity",
              "parse_si"),
    "series": ("TimeSeries", "seeded_rng"),
    "fitting": ("FitResult", "lm_fit"),
    "shielding": ("AttenuationCurve", "ConductorSpec", "COPPER", "NoiseBudget", "RegimeFit",
                  "ShieldLayer", "attenuation_series", "attenuation_skin", "conductivity_at",
                  "field_noise_budget", "fit_attenuation_regime", "skin_depth"),
    "coils": ("CoilPair", "coil_field", "coil_homogeneity", "helmholtz_center_field"),
    "thermal": ("CoolantSpec", "LIQUID_HELIUM", "LIQUID_NITROGEN", "SupportSpec",
                "boiloff_power", "conduction_load", "ss316_conductivity"),
    "trap": ("CA40", "SR88", "ElectrodeLayout", "FiveWireGeometry", "IonSpecies", "Strip",
             "TrapSolution", "find_rf_null", "five_wire_layout", "load_layout",
             "pseudopotential", "rect_potential", "resonator_capacitance",
             "resonance_frequency", "secular_spectrum", "two_ion_spacing"),
    "qubit": ("BeamProfile", "DriveParams", "PhononState", "carrier_rabi_signal",
              "collection_efficiency", "diffraction_limited_waist", "heating_rate_fit",
              "ramsey_contrast_fit", "sideband_ratio_to_nbar", "thermal_distribution",
              "waist_from_rabi_scan"),
    "metrology": ("ExcursionStats", "FrequencyRecord", "ImageProfile", "InterferometerCal",
                  "allan_deviation", "excursion_stats", "fringe_to_displacement",
                  "gaussian_profile_fit", "lorentzian_linewidth_fit", "peak_find",
                  "power_spectrum"),
}

#: public name -> defining submodule; a submodule name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update({module: module for module in _EXPORTS})

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_MODULE_OF))


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is listed by -X importtime
    loaded = __import__(f"{__name__}.{module}", fromlist=[name])
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
