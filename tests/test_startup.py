"""Lazy start-up: what ``import cryoion`` and one CLI call load, and that the
per-group parser reads exactly like the parser built with every group."""
import argparse
import os
import subprocess
import sys
from pathlib import Path

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
              "cryoion.thermal", "configparser", "hashlib", "numpy"}
    assert unused.isdisjoint(modules)


#: commands whose answer is a few scalars, with their stdout; none loads numpy
#: or the trap solver
SCALAR_COMMANDS = {
    "shield skin-depth --freq 50Hz":
        b"skin depth = 9.2 mm (0.0092195983095 m)\n",
    "shield attenuation --freq 50Hz --thickness 20mm --temp 20K --rrr 10":
        b"skin-effect attenuation = -59.5843633075 dB at 50 Hz (skin depth 2.92 mm)\n",
    "shield budget --linewidth 140mHz --sensitivity 39GHz/T --field 0.5mT":
        b"field noise budget = 3.6 pT (3.58974358974e-12 T)\n"
        b"relative stability = 7.2e-09 (7.17948717949e-09)\n",
    "cryo boiloff --rate 0.5l/h --coolant helium":
        b"boil-off heat load = 360 mW (0.361111111111 W) for 0.5 l/h of LHe\n",
    "qubit thermometry --ratio 0.3":
        b"nbar = 0.428571428571 (sideband ratio 0.3)\n",
    "qubit optics --na 0.4":
        b"collection efficiency = 4.2 % (0.0417424305044)\n"
        b"diffraction-limited waist = 580 nm (5.8011976757e-07 m)\n",
    "coil field --radius 19.5cm --z 1cm --turns 50":
        b"B = (0, 0, 0.000230556190291) T\n"
        b"|B| = 231 \xc2\xb5T (0.000230556190291 T)\n",
    "coil homogeneity --radius 19.5cm --extent 1cm":
        b"center field = 4.61 \xc2\xb5T (4.61116043884e-06 T)\n"
        b"max relative deviation over 10 mm axial extent = 4.97601076761e-07\n",
    "cryo load":
        b"assumed geometry: tube diameter 40 mm, wall 500 \xc2\xb5m, length 120 mm, "
        b"material SS316\n"
        b"conduction load 20 K to 80 K = 174 mW (0.173565435433 W)\n",
    "trap resonator --inductance 1uH --freq 50MHz":
        b"load capacitance = 10.1 pF (1.01321183642e-11 F)\n",
    "trap spacing --freq 1MHz":
        b"two-ion spacing = 5.61 \xc2\xb5m (5.60544255316e-06 m)\n",
}

ARRAY_MODULES = {"numpy", "cryoion.fitting", "cryoion.series", "cryoion.trap"}
SRC = Path(__file__).resolve().parent.parent / "src"


def _call_modules(argv: list[str], isolated: bool = False) -> tuple[bytes, list[str]]:
    """stdout and imported modules of one call; ``isolated`` runs it under
    ``python -S`` with only ``src`` on the path, so site-packages (numpy
    included) cannot be imported at all."""
    flags, env = ["-X", "importtime"], None
    if isolated:
        flags, env = ["-S", *flags], {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *flags, "-m", "cryoion", *argv],
                          capture_output=True, check=True, env=env)
    return proc.stdout, imported_modules(proc.stderr.decode())


def test_import_cli_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cryoion.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("command", SCALAR_COMMANDS)
def test_scalar_command_loads_no_numpy(command):
    stdout, modules = _call_modules(command.split(), isolated=True)
    assert stdout == SCALAR_COMMANDS[command]
    assert "cryoion.cli" in modules
    assert ARRAY_MODULES.isdisjoint(modules)


def test_fit_command_still_loads_numpy():
    # the positive control for the absence checks above
    demo = Path(__file__).resolve().parent.parent / "demo"
    stdout, modules = _call_modules(["qubit", "heating-fit", "--in", str(demo / "heating.csv")])
    assert stdout.startswith(b"heating rate = ")
    assert {"numpy", "cryoion.fitting"} <= set(modules)


def test_import_cryoion_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cryoion; print('numpy' in sys.modules, cryoion.__version__)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == f"False {cryoion.__version__}\n"


def test_species_names_load_no_solver():
    # the species and the trap's scalar closed forms come from the math-only
    # module, and are the objects that cryoion.trap serves
    names = ("CA40", "SR88", "IonSpecies", "resonator_capacitance", "resonance_frequency",
             "two_ion_spacing")
    code = ("import sys, cryoion; "
            f"values = [getattr(cryoion, n) for n in {names!r}]; "
            "print(sorted({'numpy', 'cryoion.trap'} & set(sys.modules))); "
            "from cryoion import trap; "
            f"print(all(v is getattr(trap, n) for n, v in zip({names!r}, values)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\nTrue\n"


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
