"""Lazy start-up: what ``import cryoion`` and one CLI call load, and that the
per-group parser reads exactly like the parser built with every group."""
import argparse
import subprocess
import sys

import pytest

import cryoion
from cryoion import cli

#: ``cryoion.__all__`` as it was when the package imported every module eagerly
PUBLIC_NAMES = [
    "AttenuationCurve", "BeamProfile", "CA40", "CONSTANTS", "COPPER", "ClippingError",
    "CoilPair", "ConductorSpec", "ConfigError", "Constants", "CoolantSpec", "CryoionError",
    "CsvFormatError", "DomainError", "DriveParams", "ElectrodeLayout", "ExcursionStats",
    "FitRankError", "FitResult", "FiveWireGeometry", "FrequencyRecord", "ImageProfile",
    "InsufficientDataError", "InterferometerCal", "IonSpecies", "LIQUID_HELIUM",
    "LIQUID_NITROGEN", "NoTrapError", "NoiseBudget", "NonUniformTimeError", "PhononState",
    "Quantity", "RegimeFit", "SR88", "ShieldLayer", "SingularFieldError",
    "SingularModelError", "Strip", "SupportSpec", "TimeSeries", "TrapSolution", "UnitError",
    "allan_deviation", "attenuation_series", "attenuation_skin", "boiloff_power",
    "carrier_rabi_signal", "coil_field", "coil_homogeneity", "coils",
    "collection_efficiency", "conduction_load", "conductivity_at",
    "diffraction_limited_waist", "errors", "excursion_stats", "field_noise_budget",
    "find_rf_null", "fit_attenuation_regime", "fitting", "five_wire_layout", "format_si",
    "fringe_to_displacement", "gaussian_profile_fit", "heating_rate_fit",
    "helmholtz_center_field", "lm_fit", "load_layout", "lorentzian_linewidth_fit",
    "metrology", "parse_quantity", "parse_si", "peak_find", "power_spectrum",
    "pseudopotential", "qubit", "ramsey_contrast_fit", "rect_potential",
    "resonance_frequency", "resonator_capacitance", "secular_spectrum", "seeded_rng",
    "series", "shielding", "sideband_ratio_to_nbar", "skin_depth", "ss316_conductivity",
    "thermal", "thermal_distribution", "trap", "two_ion_spacing", "units",
    "waist_from_rabi_scan",
]


def imported_modules(stderr: str) -> list[str]:
    # -X importtime lists every module the call imports, one per stderr line
    return [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")]


def test_skin_depth_call_imports_only_what_it_uses():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cryoion",
         "shield", "skin-depth", "--freq", "50Hz"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "skin depth = 9.2 mm (0.0092195983095 m)\n"
    modules = imported_modules(proc.stderr)
    # the lazily imported module is listed, so an absence below means something
    assert "cryoion.shielding" in modules
    unused = {"cryoion.trap", "cryoion.qubit", "cryoion.metrology", "cryoion.coils",
              "cryoion.thermal", "configparser", "hashlib"}
    assert unused.isdisjoint(modules)


def test_import_cryoion_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cryoion; print('numpy' in sys.modules, cryoion.__version__)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == f"False {cryoion.__version__}\n"


def test_public_names_are_unchanged_and_resolve():
    assert sorted(cryoion.__all__) == PUBLIC_NAMES
    for name in cryoion.__all__:
        assert getattr(cryoion, name) is not None, name
    assert set(PUBLIC_NAMES) <= set(dir(cryoion))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cryoion.no_such_name


def test_package_names_follow_the_defining_module(monkeypatch):
    # nothing is cached in the package, so a patched binding shows through it
    from cryoion import fitting

    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(fitting, "lm_fit", patched)
    assert cryoion.lm_fit is patched
    assert "lm_fit" not in vars(cryoion)


def _leaves(parser: argparse.ArgumentParser) -> list[list[str]]:
    def choices(p):
        action = next(a for a in p._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    return [[group, op] for group, group_parser in choices(parser).items()
            for op in choices(group_parser)]


def _full_parser_output(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code or 0, out.out, out.err


FULL_LEAVES = _leaves(cli.build_parser())
HELP_AND_ERROR_ARGV = (
    [["--help"], ["--version"], ["bogus"], []]
    + [[group, "--help"] for group in cli.GROUPS]
    + [[group, "bogus"] for group in cli.GROUPS]
    + [leaf + ["--help"] for leaf in FULL_LEAVES]
)


def test_every_leaf_is_listed():
    assert len(cli.GROUPS) == 7
    assert len(FULL_LEAVES) == 23


@pytest.mark.parametrize("argv", HELP_AND_ERROR_ARGV, ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    expected = _full_parser_output(capsys, argv)
    code = cli.main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == expected
