"""End-to-end command-line tests: output text, exit codes, determinism."""
import argparse
import functools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from cryoion.cli import main
from test_startup import FULL_LEAVES, SCALAR_COMMANDS

DEMO = Path(__file__).resolve().parent.parent / "demo"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# unit-suffixed flags and headline strings
# ---------------------------------------------------------------------------


def test_skin_depth_headline(capsys):
    code, out, _ = run(capsys, "shield", "skin-depth", "--freq", "50Hz")
    assert code == 0
    assert out == "skin depth = 9.2 mm (0.0092195983095 m)\n"


def test_unit_joined_or_spaced_reads_the_same(capsys):
    _, a, _ = run(capsys, "shield", "skin-depth", "--freq", "50Hz")
    _, b, _ = run(capsys, "shield", "skin-depth", "--freq", "50 Hz")
    _, c, _ = run(capsys, "shield", "skin-depth", "--freq", "50")  # bare => SI
    assert a == b == c
    # a unit has no flag of its own
    code, out, err = run(capsys, "shield", "skin-depth", "--freq", "50", "--freq-unit", "Hz")
    assert (code, out) == (2, "")
    assert err.endswith("cryoion shield skin-depth: error: unrecognized arguments: "
                        "--freq-unit Hz\n")


def test_optics_headline(capsys):
    code, out, _ = run(capsys, "qubit", "optics", "--na", "0.23")
    assert code == 0
    assert "collection efficiency = 1.3 % (0.0134046855959)" in out
    assert "diffraction-limited waist = 1.01 µm" in out


def test_budget_headline(capsys):
    code, out, _ = run(capsys, "shield", "budget", "--linewidth", "140mHz",
                       "--sensitivity", "39GHz/T", "--field", "0.5mT")
    assert code == 0
    assert "field noise budget = 3.6 pT (3.58974358974e-12 T)" in out
    assert "relative stability = 7.2e-09" in out


def test_boiloff_headline(capsys):
    code, out, _ = run(capsys, "cryo", "boiloff", "--rate", "0.5l/h", "--coolant", "helium")
    assert code == 0
    assert out == "boil-off heat load = 360 mW (0.361111111111 W) for 0.5 l/h of LHe\n"


def test_cryo_load_defaults_document_geometry(capsys):
    code, out, _ = run(capsys, "cryo", "load")
    assert code == 0
    assert "assumed geometry: tube diameter 40 mm, wall 500 µm, length 120 mm" in out
    load = json.loads(run(capsys, "cryo", "load", "--json")[1])["load_w"]
    assert load < 0.2


def test_json_mode(capsys):
    code, out, _ = run(capsys, "shield", "budget", "--json", "--linewidth", "140mHz",
                       "--sensitivity", "39GHz/T", "--field", "0.5mT")
    assert code == 0
    payload = json.loads(out)
    assert payload["b_max_t"] == pytest.approx(3.58974358974359e-12, rel=1e-12)
    assert payload["relative_stability"] == pytest.approx(7.17948717948718e-09, rel=1e-12)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_wrong_dimension_is_usage_error(capsys):
    code, _, err = run(capsys, "shield", "skin-depth", "--freq", "50cm")
    assert code == 2
    assert "expected a quantity in Hz" in err


def assert_usage_error(result, leaf, flag: str, reason: str) -> None:
    """A per-flag usage error: the leaf's usage, then one line naming the flag once."""
    code, out, err = result
    prog = "cryoion " + " ".join(leaf)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {prog} ")
    last = err.splitlines()[-1]
    assert last.startswith(f"{prog}: error: argument {flag}: {reason}"), err
    assert last.count(flag) == 1


@pytest.mark.parametrize("argv,reason", [
    (["shield", "skin-depth", "--freq", "100%"], "expected a quantity in Hz, got '100%'"),
    (["shield", "skin-depth", "--freq", "50dB"], "expected a quantity in Hz, got '50dB'"),
    (["met", "allan", "--in", str(DEMO / "beat_fractional.csv"), "--taus", "0.01Hz"],
     "expected a quantity in s, got '0.01Hz'"),
    # the flag is checked before the (missing) input file is opened
    (["met", "vib", "--in", "/nonexistent/fringe.csv", "--window", "2Hz"],
     "expected a quantity in s, got '2Hz'"),
    # a plain float flag and --set report theirs in the same form
    (["shield", "skin-depth", "--freq", "50Hz", "--rrr", "nan"], "must be finite, got 'nan'"),
    (["trap", "spectrum", "--layout", str(DEMO / "trap_layout.cfg"), "--set", "0=5dB"],
     "expected IDX=VOLTS, got '0=5dB'"),
], ids=["freq_percent", "freq_db", "taus_hz", "window_hz_before_missing_file", "rrr_nan",
        "set_db"])
def test_dimensionless_or_wrong_unit_is_usage_error_naming_the_flag(capsys, argv, reason):
    assert_usage_error(run(capsys, *argv), argv[:2], argv[-2], reason)


@pytest.mark.parametrize("value", ["1e999Hz", "1e999", "1e306GHz"])
def test_overflowing_value_is_usage_error_naming_the_flag(capsys, value):
    assert_usage_error(run(capsys, "shield", "skin-depth", "--freq", value),
                       ["shield", "skin-depth"], "--freq", f"'{value}' is beyond the float range")


def test_unknown_unit_names_the_flag(capsys):
    result = run(capsys, "shield", "skin-depth", "--freq", "50xyz")
    assert_usage_error(result, ["shield", "skin-depth"], "--freq", "unknown unit 'xyz'")
    assert result[2].endswith(
        "\ncryoion shield skin-depth: error: argument --freq: unknown unit 'xyz'\n")


def test_dimensionless_flag_takes_db_or_a_bare_number(capsys):
    curve = str(DEMO / "attenuation_along.csv")
    default = run(capsys, "shield", "fit", "--in", curve)
    assert default[0] == 0
    assert run(capsys, "shield", "fit", "--in", curve, "--floor=-58dB") == default
    assert run(capsys, "shield", "fit", "--in", curve, "--floor=-58") == default


@pytest.mark.parametrize("argv,flag,value", [
    (["coil", "field", "--radius", "19.5cm"], "--x", "-1cm"),
    (["met", "vib", "--in", str(DEMO / "vibration_fringe.csv")], "--offset", "-0.1V"),
], ids=["coil_x", "vib_offset"])
def test_negative_unit_value_after_its_flag_reads_like_the_joined_form(capsys, argv, flag,
                                                                       value):
    joined = run(capsys, *argv, f"{flag}={value}")
    assert joined[0] == 0 and joined[2] == ""
    assert run(capsys, *argv, flag, value) == joined


def test_taus_take_bare_seconds_and_time_units(capsys):
    beat = str(DEMO / "beat_fractional.csv")
    code, out, _ = run(capsys, "met", "allan", "--in", beat, "--taus", "0.01,20ms")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == ["tau 0.01 s", "tau 0.02 s"]
    assert run(capsys, "met", "allan", "--in", beat, "--taus", "0.01,0.02")[1] == out


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "shield", "skin-depth", "--freq", "50Hz", "--bogus")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, "shield")[0] == 2


def test_missing_file_is_data_error(capsys):
    code, _, err = run(capsys, "met", "allan", "--in", "/nonexistent/beat.csv")
    assert code == 1
    assert "cannot open" in err


def test_resonator_needs_exactly_one_unknown(capsys):
    code, _, err = run(capsys, "trap", "resonator", "--inductance", "2.2uH")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run(capsys, "trap", "resonator", "--inductance", "2.2uH",
                     "--freq", "42.58MHz", "--capacitance", "6.4pF")
    assert code == 2


@pytest.mark.parametrize("argv,what", [
    (["trap", "spacing", "--freq", "1e-150Hz"], "two-ion spacing"),
    (["trap", "spacing", "--freq", "1e300Hz"], "two-ion spacing"),
    (["trap", "resonator", "--inductance", "1e-200H", "--freq", "1e-200Hz"],
     "load capacitance"),
    (["trap", "resonator", "--inductance", "1e300H", "--freq", "1e300Hz"], "load capacitance"),
    (["trap", "resonator", "--inductance", "1e-200H", "--capacitance", "1e-200F"],
     "resonance frequency"),
])
def test_closed_form_beyond_the_float_range_is_data_error(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {what} is beyond the float range\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv,what", [
    (["cryo", "load", "--diameter", "1e200m", "--wall", "1e199m"], "A/L"),
    (["cryo", "load", "--length", "1e-320m"], "A/L"),
    (["cryo", "boiloff", "--rate", "1e308l/h"], "boil-off power"),
], ids=["wide_tube", "short_tube", "boiloff"])
def test_heat_load_beyond_the_float_range_is_data_error(capsys, argv, what, json_flag):
    code, out, err = run(capsys, *argv, *json_flag)
    assert (code, out) == (1, "")
    assert err == f"error: {what} is beyond the float range\n"


def _coil_json(capsys, *argv):
    code, out, err = run(capsys, "coil", *argv, "--json")
    assert (code, err) == (0, "")
    return json.loads(out, parse_constant=_no_constants)


@pytest.mark.parametrize("x", [0.0, 0.3])
@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e148, 1e300])
def test_coil_field_scales_as_one_over_the_radius(capsys, scale, x):
    unit = _coil_json(capsys, "field", "--radius", "1m", "--z", "1m", "--x", f"{x}m")
    got = _coil_json(capsys, "field", "--radius", f"{scale}m", "--z", f"{scale}m",
                     "--x", f"{x * scale}m")
    assert got["b_mag_t"] == pytest.approx(unit["b_mag_t"] / scale, rel=1e-12)
    assert got["b_t"] == pytest.approx([b / scale for b in unit["b_t"]], rel=1e-12)


def test_tiny_coil_homogeneity_is_scale_free(capsys):
    unit = _coil_json(capsys, "homogeneity", "--radius", "1m", "--extent", "1e-2m")
    tiny = _coil_json(capsys, "homogeneity", "--radius", "1e-300m", "--extent", "1e-302m")
    assert tiny["center_field_t"] == pytest.approx(unit["center_field_t"] * 1e300, rel=1e-12)
    assert tiny["max_relative_deviation"] == pytest.approx(unit["max_relative_deviation"],
                                                           rel=1e-15)


@pytest.mark.parametrize("separation,exact", [("50.05mm", 7.9939746245484727508e-07),
                                              ("5cm", 2.9439551362534684387e-06)])
def test_coil_homogeneity_is_the_exact_worst_deviation(capsys, separation, exact):
    # 40-digit maxima over the segment: 50.05 mm peaks inside it, at z = 1.44 mm
    argv = ["--radius", "5cm", "--separation", separation, "--extent", "4mm"]
    got = _coil_json(capsys, "homogeneity", *argv)
    assert got["max_relative_deviation"] == pytest.approx(exact, rel=1e-13)
    code, out, _ = run(capsys, "coil", "homogeneity", *argv)
    assert code == 0 and out.endswith(f"extent = {exact:.12g}\n")


def test_coil_homogeneity_takes_no_sample_count(capsys):
    code, out, err = run(capsys, "coil", "homogeneity", "--radius", "19.5cm", "--extent", "1cm",
                         "--samples", "201")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --samples 201" in err


def test_large_current_gives_a_finite_magnitude(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = _coil_json(capsys, "field", "--radius", "19.5cm", "--z", "1cm")
        big = _coil_json(capsys, "field", "--radius", "19.5cm", "--z", "1cm",
                         "--current", "1e300A")
    assert big["b_mag_t"] == pytest.approx(unit["b_mag_t"] * 1e300, rel=1e-12)
    code, out, _ = run(capsys, "coil", "field", "--radius", "19.5cm", "--z", "1cm",
                       "--current", "1e300A")
    assert code == 0 and "inf" not in out


def test_coil_field_beyond_the_float_range_is_data_error(capsys):
    code, out, err = run(capsys, "coil", "field", "--radius", "1e-300m", "--current", "1e300A")
    assert (code, out) == (1, "")
    assert err == "error: coil field is beyond the float range\n"


RABI = ["qubit", "rabi", "--nbar", "5", "--rabi", "100kHz", "--tmax", "50us"]
IMAGE_FIT = ["met", "image-fit", "--in", str(DEMO / "ion_image.csv")]
VIB = ["met", "vib", "--in", str(DEMO / "vibration_fringe.csv")]


@pytest.mark.parametrize("argv", [
    RABI + ["--eta", "nan"],
    RABI + ["--eta", "inf"],
    ["qubit", "rabi", "--rabi", "100kHz", "--tmax", "50us", "--nbar", "nan"],
    ["qubit", "thermometry", "--ratio", "nan"],
    ["qubit", "optics", "--na", "inf"],
    IMAGE_FIT + ["--magnification", "nan"],
    ["shield", "skin-depth", "--freq", "50Hz", "--rrr", "inf"],
    ["report", "table1", "--measured", str(DEMO / "attenuation_50hz_measured.csv"),
     "--mu-r", "nan"],
], ids=["eta_nan", "eta_inf", "nbar", "ratio", "na", "magnification", "rrr", "mu_r"])
def test_non_finite_plain_float_is_usage_error_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: argument {argv[-2]}: must be finite, got '{argv[-1]}'\n" in err


def test_malformed_plain_float_keeps_its_usage_message(capsys):
    code, _, err = run(capsys, "shield", "skin-depth", "--freq", "50Hz", "--rrr", "abc")
    assert code == 2
    assert err.endswith("error: argument --rrr: invalid float value: 'abc'\n")


@pytest.mark.parametrize("argv", [
    RABI + ["--points", "-3"],
    RABI + ["--points", "0"],
    VIB + ["--peaks", "0"],
    VIB + ["--peaks", "-1"],
    # the count is checked before the (missing) input file is opened
    ["met", "vib", "--in", "/nonexistent/fringe.csv", "--peaks", "0"],
    ["coil", "field", "--radius", "19.5cm", "--turns", "0"],
], ids=["points_negative", "points_zero", "peaks_zero", "peaks_negative", "peaks_no_file",
        "turns_zero"])
def test_count_below_one_is_data_error_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {argv[-2]} must be a positive integer, got {argv[-1]}\n"


def test_count_below_one_writes_no_file(capsys, tmp_path):
    out_csv = tmp_path / "rabi.csv"
    assert run(capsys, *RABI, "--points", "0", "--out", str(out_csv))[0] == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("tmax", ["-1s", "0s"])
def test_non_positive_tmax_is_data_error_and_writes_no_file(capsys, tmp_path, tmax):
    out_csv = tmp_path / "rabi.csv"
    code, out, err = run(capsys, *RABI[:-1], tmax, "--out", str(out_csv))
    assert code == 1
    assert out == ""
    assert err == f"error: --tmax must be positive, got {tmax[:-1]} s\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("freq", ["0Hz", "-5Hz"])
def test_non_positive_extrapolation_frequency_is_data_error(capsys, freq):
    code, out, err = run(capsys, "shield", "fit", "--in", str(DEMO / "attenuation_along.csv"),
                         "--extrapolate-to", freq)
    assert code == 1
    assert out == ""
    assert err == ("error: extrapolation frequency must be positive and finite, "
                   f"got {freq[:-2]} Hz\n")


@pytest.mark.parametrize("flag", [["--min-separation=-1Hz"], ["--min-separation", "-1Hz"]])
def test_negative_min_separation_is_data_error_and_writes_no_file(capsys, tmp_path, flag):
    out_csv = tmp_path / "vib.csv"
    code, out, err = run(capsys, *VIB, *flag, "--out", str(out_csv))
    assert code == 1
    assert out == ""
    assert err == "error: min_separation must be finite and >= 0, got -1\n"
    assert not out_csv.exists()


def test_zero_thickness_wall_prints_zero_not_negative_zero(capsys, tmp_path):
    argv = ["shield", "attenuation", "--freq", "50Hz", "--thickness", "0m"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "skin-effect attenuation = 0 dB at 50 Hz (skin depth 9.22 mm)\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert '"attenuation_db": 0.0,' in out
    assert json.loads(out, parse_constant=_no_constants)["attenuation_db"] == 0.0
    table = tmp_path / "table1.csv"
    argv = ["report", "table1", "--measured", str(DEMO / "attenuation_50hz_measured.csv"),
            "--thickness", "0m"]
    code, out, _ = run(capsys, *argv, "--out", str(table))
    assert code == 0
    assert [line.split()[2] for line in out.splitlines()[1:-1]] == ["0"] * 4
    assert "-0" not in table.read_text()
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out, parse_constant=_no_constants)["modeled_skin_db"] == [0.0] * 4
    assert "-0.0" not in out


def test_domain_error_is_data_error(capsys):
    code, _, err = run(capsys, "qubit", "thermometry", "--ratio", "1.5")
    assert code == 1
    assert "sideband ratio" in err


def test_internal_value_error_is_not_reported_as_data_error(monkeypatch, capsys):
    # a bug inside a handler must surface as a traceback, not as exit 1
    import cryoion.cli as cli

    def broken(args):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "cmd_shield_skin_depth", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["shield", "skin-depth", "--freq", "50Hz"])
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"[trap]\nrf_voltage = 100\xff\n",
                                  b"[trap]\nrf_voltage = 100\n[trap]\n",
                                  b"rf_voltage = 100\n"],
                         ids=["not_utf8", "duplicate_section", "no_section"])
def test_unreadable_layout_is_data_error(capsys, tmp_path, text):
    layout = tmp_path / "layout.cfg"
    layout.write_bytes(text)
    code, out, err = run(capsys, "trap", "solve", "--layout", str(layout))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot parse layout file {str(layout)!r}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("line,value", [("rf_voltage = 120V", "100%"),
                                        ("rf_voltage = 120V", "100xyz"),
                                        ("rf_frequency = 49.9MHz", "49.9mm"),
                                        ("x_min = -55.2um", "5V"),
                                        ("rf_voltage = 120V", "1e999V")],
                         ids=["percent", "unknown_unit", "wrong_dimension", "strip_extent",
                              "overflow"])
def test_bad_layout_unit_is_data_error_naming_the_key(capsys, tmp_path, line, value):
    text = (DEMO / "trap_layout.cfg").read_text()
    key = line.split(" = ")[0]
    layout = tmp_path / "layout.cfg"
    layout.write_text(text.replace(line, f"{key} = {value}", 1))
    code, out, err = run(capsys, "trap", "solve", "--layout", str(layout))
    assert code == 1
    assert out == ""
    section = "[strip center]" if key == "x_min" else "[trap]"
    assert err.startswith(f"error: {section} {key}: ")
    assert len(err.splitlines()) == 1


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("cryoion ")


# ---------------------------------------------------------------------------
# CSV input validation
# ---------------------------------------------------------------------------


def test_malformed_csv_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "heating.csv"
    bad.write_text("wait_s,nbar\n0,0.1\n0.2,not-a-number\n")
    code, _, err = run(capsys, "qubit", "heating-fit", "--in", str(bad))
    assert code == 1
    assert "line 3" in err


def test_non_utf8_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "heating.csv"
    bad.write_bytes(b"wait_s,nbar\n0,0.1\n0.2,0.5\xff\n")
    code, _, err = run(capsys, "qubit", "heating-fit", "--in", str(bad))
    assert code == 1
    assert err.startswith(f"error: {bad}: not UTF-8 text:")


def test_wrong_header_is_rejected(tmp_path, capsys):
    bad = tmp_path / "heating.csv"
    bad.write_text("time,n\n0,0.1\n0.2,0.5\n")
    code, _, err = run(capsys, "qubit", "heating-fit", "--in", str(bad))
    assert code == 1
    assert "wait_s" in err


def test_header_only_csv_is_rejected(tmp_path, capsys):
    bad = tmp_path / "heating.csv"
    bad.write_text("wait_s,nbar\n")
    code, _, err = run(capsys, "qubit", "heating-fit", "--in", str(bad))
    assert code == 1
    assert "no data rows" in err


def test_non_uniform_timebase_is_rejected(tmp_path, capsys):
    bad = tmp_path / "beat.csv"
    rows = ["t_s,y", "0,1e-15", "0.01,2e-15", "0.02,1e-15", "0.05,3e-15"]
    bad.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "met", "allan", "--in", str(bad))
    assert code == 1
    assert "non-uniform" in err


# ---------------------------------------------------------------------------
# demo-driven pipelines
# ---------------------------------------------------------------------------


def test_trap_solve_demo_layout(capsys):
    code, out, _ = run(capsys, "trap", "solve", "--layout", str(DEMO / "trap_layout.cfg"))
    assert code == 0
    assert "height = 85.8 µm" in out


def test_trap_spectrum_demo_layout(capsys):
    code, out, _ = run(capsys, "trap", "spectrum", "--layout", str(DEMO / "trap_layout.cfg"))
    assert code == 0
    assert "3.15 MHz, 3.15 MHz" in out
    assert "0.1786" in out
    assert "trap depth = 0.0403579560127 eV" in out


def test_trap_spectrum_dc_splits_radials(capsys):
    code, out, _ = run(capsys, "trap", "spectrum", "--layout",
                       str(DEMO / "trap_layout.cfg"), "--set", "0=1.5", "--set", "1=1.5")
    assert code == 0
    assert "2.83 MHz, 3.44 MHz" in out
    # a bare number is volts
    assert run(capsys, "trap", "spectrum", "--layout", str(DEMO / "trap_layout.cfg"),
               "--set", "0=1.5V", "--set", "1=1500mV")[1] == out


def test_trap_spectrum_rejects_unknown_dc_index(capsys):
    code, out, err = run(capsys, "trap", "spectrum", "--layout",
                         str(DEMO / "trap_layout.cfg"), "--set", "99=5V")
    assert code == 1
    assert out == ""
    assert "DC indices are [0, 1]" in err


def test_trap_spectrum_overflowing_voltage_is_data_error(capsys):
    code, out, err = run(capsys, "trap", "spectrum", "--layout",
                         str(DEMO / "trap_layout.cfg"), "--set", "0=1e308")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_trap_spectrum_underflowing_drive_frequency_is_data_error(capsys, tmp_path):
    # Omega^2 underflows to 0: the pseudopotential factor is a typed error
    layout = tmp_path / "layout.cfg"
    layout.write_text((DEMO / "trap_layout.cfg").read_text().replace(
        "rf_frequency = 49.9MHz", "rf_frequency = 1e-200Hz", 1))
    code, out, err = run(capsys, "trap", "spectrum", "--layout", str(layout))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "rf_frequency = 1e-200 Hz" in err


@pytest.mark.parametrize("setting", ["x=5V", "5V", "0=5Hz", "0=volts", "0=5dB"])
def test_trap_spectrum_malformed_set_is_usage_error(capsys, setting):
    code, out, err = run(capsys, "trap", "spectrum", "--layout",
                         str(DEMO / "trap_layout.cfg"), "--set", setting)
    assert code == 2
    assert out == ""
    assert "--set" in err


@pytest.mark.parametrize("settings", [("0=1V", "0=2V"), ("0=1V", "1=3V", "0=1V")])
def test_trap_spectrum_repeated_set_index_is_usage_error(capsys, settings):
    # a second voltage for the same DC strip used to replace the first silently
    argv = ["trap", "spectrum", "--layout", str(DEMO / "trap_layout.cfg")]
    for setting in settings:
        argv += ["--set", setting]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --set") and err.count("\n") == 1
    assert "DC index 0" in err


def test_trap_layout_non_integer_dc_index_names_section(capsys, tmp_path):
    text = (DEMO / "trap_layout.cfg").read_text()
    layout = tmp_path / "layout.cfg"
    layout.write_text(text.replace("dc_index = 0", "dc_index = zero", 1))
    code, out, err = run(capsys, "trap", "solve", "--layout", str(layout))
    assert code == 1
    assert out == ""
    assert "[strip dc_left]" in err
    assert "dc_index" in err


def test_trap_layout_dc_index_on_the_rf_strip_names_section(capsys, tmp_path):
    text = (DEMO / "trap_layout.cfg").read_text()
    layout = tmp_path / "layout.cfg"
    layout.write_text(text.replace("role = rf\n", "role = rf\ndc_index = 0\n", 1))
    code, out, err = run(capsys, "trap", "solve", "--layout", str(layout))
    assert code == 1
    assert out == ""
    assert err == "error: [strip rf_left]: only dc strips take a dc_index, not rf\n"


def test_shield_fit_demo_curve(capsys):
    code, out, _ = run(capsys, "shield", "fit", "--in", str(DEMO / "attenuation_along.csv"))
    assert code == 0
    assert "regime = skin_limited" in out
    assert "ambiguous" not in out
    assert "points used = 4, censored at floor = 6" in out
    payload = json.loads(run(capsys, "shield", "fit", "--json", "--in",
                             str(DEMO / "attenuation_along.csv"))[1])
    assert payload["extrapolated_db"] == pytest.approx(-120.0, abs=1.0)


def test_met_linewidth_demo_spectrum(capsys):
    code, out, _ = run(capsys, "met", "linewidth", "--in", str(DEMO / "beat_spectrum.csv"))
    assert code == 0
    assert "lorentzian fwhm = 1.55377408265 Hz" in out
    assert "UNCONSTRAINED" not in out


def test_met_vib_demo_record(capsys):
    code, out, _ = run(capsys, "met", "vib", "--in", str(DEMO / "vibration_fringe.csv"),
                       "--volts-per-fringe", "2V", "--window", "2s")
    assert code == 0
    assert "peaks: 30 Hz, 45 Hz, 95 Hz" in out
    assert "clipped fraction = 0" in out


def test_met_vib_window_of_one_sample_is_data_error(capsys):
    # the demo record is sampled at 2 kHz, so 0.5 ms is one sample
    code, out, err = run(capsys, *VIB, "--window", "0.5ms")
    assert code == 1
    assert out == ""
    assert err.startswith("error: excursion window of 0.0005 s spans 1 sample")


def test_met_image_fit_has_no_axis_flag(capsys):
    code, out, err = run(capsys, *IMAGE_FIT, "--axis", "row")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --axis row" in err


def test_met_vib_has_no_window_fn_flag(capsys):
    # the spectrum is always Hann-windowed
    code, out, err = run(capsys, *VIB, "--window-fn", "hann")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --window-fn hann" in err


def test_met_allan_demo_record(capsys):
    code, out, _ = run(capsys, "met", "allan", "--in", str(DEMO / "beat_fractional.csv"))
    assert code == 0
    assert out.splitlines()[0] == "tau 0.01 s: sigma_y = 1.15489899996e-14"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_met_allan_record_too_short_for_any_tau_is_data_error(tmp_path, capsys, json_flag):
    # two phase samples printed an empty table with exit 0
    short = tmp_path / "phase.csv"
    short.write_text("t_s,y\n0,0\n0.01,1e-15\n")
    code, out, err = run(capsys, "met", "allan", "--in", str(short), "--kind", "phase_seconds",
                         *json_flag)
    assert (code, out) == (1, "")
    assert err.startswith("error: need at least 3 phase samples for tau=0.01, have 2")


def test_met_allan_bits_do_not_depend_on_the_host_blas(tmp_path):
    """The Allan deviation's sums of squares are exact (``math.fsum``), so its
    --json and --out bytes are the same whichever BLAS core numpy runs on.
    Each output is made in subprocesses with and without
    OPENBLAS_CORETYPE=Prescott, OpenBLAS's oldest x86-64 kernels; where
    numpy's BLAS ignores the variable the test passes trivially."""
    def outputs(prescott):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if prescott:
            env["OPENBLAS_CORETYPE"] = "Prescott"
        out = []
        for kind in ("fractional_frequency", "phase_seconds"):
            csv = tmp_path / "adev.csv"
            proc = subprocess.run([sys.executable, "-m", "cryoion", "met", "allan", "--in",
                                   str(DEMO / "beat_fractional.csv"), "--kind", kind, "--json",
                                   "--out", str(csv)], cwd=DEMO.parent, env=env,
                                  capture_output=True, timeout=60)
            assert proc.returncode == 0, proc.stderr.decode()
            out += [proc.stdout, csv.read_bytes()]
        return out

    assert outputs(False) == outputs(True)


def test_met_image_fit_demo_profile(capsys):
    code, out, _ = run(capsys, "met", "image-fit", "--in", str(DEMO / "ion_image.csv"))
    assert code == 0
    assert "gaussian width = 1.85 µm" in out


def test_qubit_fits_on_demo_data(capsys):
    code, out, _ = run(capsys, "qubit", "ramsey-fit", "--in", str(DEMO / "ramsey.csv"))
    assert code == 0 and "contrast 1/e time = 18.1 ms" in out
    code, out, _ = run(capsys, "qubit", "heating-fit", "--in", str(DEMO / "heating.csv"))
    assert code == 0 and "heating rate = 2.17069139017 +/-" in out
    code, out, _ = run(capsys, "qubit", "waist-fit", "--in", str(DEMO / "waist_scan.csv"))
    assert code == 0 and "beam waist = 3 µm" in out


def _waist_scan(tmp_path, positions, rates):
    scan = tmp_path / "waist.csv"
    scan.write_text("position_m,rabi_rad_s\n"
                    + "".join(f"{x!r},{r!r}\n" for x, r in zip(positions, rates)))
    return str(scan)


def test_waist_fit_of_a_flat_scan_stops_off_range(capsys, tmp_path):
    scan = _waist_scan(tmp_path, [(k - 4) * 2e-6 for k in range(9)], [1e5] * 9)
    code, out, err = run(capsys, "qubit", "waist-fit", "--in", scan, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["reason"] == "off_range"
    assert payload["converged"] is False and payload["unconstrained"] is True
    code, out, _ = run(capsys, "qubit", "waist-fit", "--in", scan)
    assert code == 0 and out.endswith(" [UNCONSTRAINED]\n")


def test_waist_fit_at_one_position_is_flagged_unconstrained(capsys, tmp_path):
    scan = _waist_scan(tmp_path, [1e-6] * 5, [1.0, 2.0, 3.0, 2.0, 1.0])
    code, out, err = run(capsys, "qubit", "waist-fit", "--in", scan)
    assert (code, err) == (0, "")
    assert out == "beam waist = 250 mm (0.25 m) at 1 µm [UNCONSTRAINED]\n"


def test_report_table1_demo(capsys):
    code, out, _ = run(capsys, "report", "table1", "--measured",
                       str(DEMO / "attenuation_50hz_measured.csv"), "--rrr", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["T", "[K]", "measured", "[dB]", "skin", "model", "[dB]", "note"]
    assert lines[1].endswith("measured")
    assert lines[-1].endswith("extrapolated")


def test_qubit_rabi_writes_table(tmp_path, capsys):
    out_csv = tmp_path / "rabi.csv"
    code, out, _ = run(capsys, "qubit", "rabi", "--nbar", "6", "--rabi", "100kHz",
                       "--tmax", "50us", "--points", "11", "--out", str(out_csv))
    assert code == 0
    assert f"wrote {out_csv}" in out
    text = out_csv.read_text()
    assert text.startswith("# cryoion ")
    assert "t_s,p_excited" in text
    # stdout mode renders the same table inline
    code, out, _ = run(capsys, "qubit", "rabi", "--nbar", "6", "--rabi", "100kHz",
                       "--tmax", "50us", "--points", "11")
    assert "t_s,p_excited" in out


def test_qubit_rabi_beyond_the_fock_bound_is_one_error_line():
    # --nbar 1e5 at the default 500 points would be a 7.4 GB table; under a
    # 1 GiB address-space limit the command still answers, with one error
    # line naming nbar and exit 1, before any array is built
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "cryoion", "qubit", "rabi", "--nbar", "1e5",
                           "--rabi", "100kHz", "--tmax", "50us"],
                          capture_output=True, text=True, preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: nbar = 100000 over 500 time(s) needs at least 500 x ")
    assert proc.stderr.count("\n") == 1


def test_met_allan_out_file_has_provenance(tmp_path, capsys):
    out_csv = tmp_path / "adev.csv"
    code, out, _ = run(capsys, "met", "allan", "--in", str(DEMO / "beat_fractional.csv"),
                       "--taus", "0.01,0.02,0.04", "--out", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    assert "# input beat_fractional.csv sha256=" in text
    assert text.count("\n") == 3 + 3 + 1  # three comments, header, three rows


def test_qubit_rabi_json_prints_the_columns(capsys):
    code, out, _ = run(capsys, *RABI, "--points", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["n", "p_excited", "t_s"]
    assert payload["n"] == 3
    assert payload["t_s"] == pytest.approx([0.0, 25e-6, 50e-6], rel=1e-15)
    assert len(payload["p_excited"]) == 3


def test_qubit_rabi_json_with_out_reports_the_file(capsys, tmp_path):
    out_csv = tmp_path / "rabi.csv"
    code, out, _ = run(capsys, *RABI, "--points", "3", "--json", "--out", str(out_csv))
    assert code == 0
    assert json.loads(out) == {"n": 3, "out": str(out_csv)}
    assert out_csv.read_text().count("\n") == 2 + 1 + 3


@pytest.mark.parametrize("argv", [
    ["met", "allan", "--in", str(DEMO / "beat_fractional.csv")],
    VIB,
    ["report", "table1", "--measured", str(DEMO / "attenuation_50hz_measured.csv")],
], ids=["allan", "vib", "table1"])
def test_table_command_json_names_the_written_file(capsys, tmp_path, argv):
    out_csv = tmp_path / "table.csv"
    without = json.loads(run(capsys, *argv, "--json")[1])
    code, out, _ = run(capsys, *argv, "--json", "--out", str(out_csv))
    assert code == 0
    assert json.loads(out) == {**without, "out": str(out_csv)}
    assert out_csv.read_text().startswith("# cryoion ")


def _no_constants(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def test_json_prints_a_non_finite_value_as_null(capsys, tmp_path):
    # equal wait times leave the slope undetermined: its sigma is infinite
    flat = tmp_path / "flat.csv"
    flat.write_text("wait_s,nbar\n1,0.5\n1,0.7\n1,0.6\n")
    code, out, _ = run(capsys, "qubit", "heating-fit", "--in", str(flat), "--json")
    assert code == 0
    payload = json.loads(out, parse_constant=_no_constants)
    assert payload["rate_sigma"] is None
    assert payload["converged"] is False
    code, out, _ = run(capsys, "qubit", "heating-fit", "--in", str(flat))
    assert code == 0 and "+/- inf phonons/s" in out


# ---------------------------------------------------------------------------
# report contract: every leaf, in text and JSON form
# ---------------------------------------------------------------------------

FIT_KEYS = {"converged", "reason"}

#: one demo invocation per leaf and the JSON keys it must carry at least
LEAVES = {
    ("shield", "skin-depth"): (["--freq", "50Hz"], {"skin_depth_m"}),
    ("shield", "attenuation"): (["--freq", "50Hz", "--thickness", "20mm", "--temp", "20K",
                                 "--rrr", "10"], {"attenuation_db", "skin_depth_m"}),
    ("shield", "fit"): (["--in", str(DEMO / "attenuation_along.csv")],
                        {"ambiguous", "contact_db", "extrapolate_to_hz", "extrapolated_db",
                         "n_censored", "n_used", "regime", "skin_db"}),
    ("shield", "budget"): (["--linewidth", "140mHz", "--sensitivity", "39GHz/T",
                            "--field", "0.3mT"], {"b_max_t", "relative_stability"}),
    ("coil", "field"): (["--radius", "19.5cm", "--z", "1cm", "--turns", "50"],
                        {"b_t", "b_mag_t"}),
    ("coil", "homogeneity"): (["--radius", "19.5cm", "--extent", "1cm"],
                              {"center_field_t", "max_relative_deviation"}),
    ("cryo", "load"): ([], {"load_w", "cross_section_m2", "t_cold_k", "t_hot_k"}),
    ("cryo", "boiloff"): (["--rate", "0.5l/h"], {"power_w", "rate_l_per_h", "coolant"}),
    ("trap", "solve"): (["--layout", str(DEMO / "trap_layout.cfg")],
                        {"null_x_m", "height_m", "species"}),
    ("trap", "spectrum"): (["--layout", str(DEMO / "trap_layout.cfg")],
                           {"height_m", "secular_freqs_hz", "q_params", "trap_depth_ev",
                            "unstable_axes", "species"}),
    ("trap", "resonator"): (["--inductance", "1uH", "--freq", "50MHz"], {"capacitance_f"}),
    ("trap", "spacing"): (["--freq", "1MHz"], {"spacing_m", "species"}),
    ("qubit", "rabi"): (RABI[2:], {"n", "t_s", "p_excited"}),
    ("qubit", "thermometry"): (["--ratio", "0.3"], {"nbar"}),
    ("qubit", "heating-fit"): (["--in", str(DEMO / "heating.csv")],
                               {"rate_phonons_per_s", "rate_sigma", "intercept"} | FIT_KEYS),
    ("qubit", "ramsey-fit"): (["--in", str(DEMO / "ramsey.csv")],
                              {"t_1e_s", "t_1e_sigma_s", "contrast0", "shape",
                               "unconstrained"} | FIT_KEYS),
    ("qubit", "waist-fit"): (["--in", str(DEMO / "waist_scan.csv")],
                             {"waist_m", "waist_sigma_m", "center_m", "peak_rabi_rad_s",
                              "unconstrained"} | FIT_KEYS),
    ("qubit", "optics"): (["--na", "0.23"],
                          {"collection_efficiency", "diffraction_waist_m", "na"}),
    ("met", "allan"): (["--in", str(DEMO / "beat_fractional.csv")], {"tau_s", "sigma_y"}),
    ("met", "linewidth"): (["--in", str(DEMO / "beat_spectrum.csv")],
                           {"fwhm_hz", "fwhm_sigma_hz", "center_hz",
                            "unconstrained"} | FIT_KEYS),
    ("met", "vib"): (VIB[2:], {"max_abs_m", "peak_to_peak_m", "drift_m", "peaks_hz",
                               "window_s", "clipped_fraction"}),
    ("met", "image-fit"): (IMAGE_FIT[2:], {"width_m", "width_sigma_m", "center_m",
                                           "unconstrained"} | FIT_KEYS),
    ("report", "table1"): (["--measured", str(DEMO / "attenuation_50hz_measured.csv")],
                           {"temperature_k", "measured_db", "modeled_skin_db"}),
}


def test_contract_covers_every_leaf():
    assert sorted(LEAVES) == sorted(tuple(leaf) for leaf in FULL_LEAVES)


@pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
def test_every_leaf_reports_in_text_and_strict_json(capsys, leaf):
    argv, keys = LEAVES[leaf]
    code, out, err = run(capsys, *leaf, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("\n") and "{" not in out
    code, out, err = run(capsys, *leaf, *argv, "--json")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1
    assert keys <= set(json.loads(out, parse_constant=_no_constants))


@pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
def test_unknown_flag_gets_the_leaf_usage(capsys, leaf):
    # the leaf's own parser reports it, so the usage shows the flags it takes
    prog = "cryoion " + " ".join(leaf)
    code, out, err = run(capsys, *leaf, *LEAVES[leaf][0], "--bogus", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"\n{prog}: error: unrecognized arguments: --bogus 1\n")


@pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
def test_every_option_of_a_leaf_is_in_its_help(leaf):
    # no hidden option: each one a leaf takes is one its --help shows
    parser = _leaf_parser(leaf)
    shown = parser.format_help()
    options = [option for action in parser._actions for option in action.option_strings]
    assert "--json" in options
    assert [option for option in options
            if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", shown)] == []


# ---------------------------------------------------------------------------
# contract sweep: extreme values on every quantity flag of the scalar leaves
# ---------------------------------------------------------------------------

#: the leaves whose answer is a few scalars, the ones run without numpy
SCALAR_LEAVES = sorted({tuple(command.split()[:2]) for command in SCALAR_COMMANDS})
SWEEP_VALUES = ("0", "-1", "1e150", "1e-150", "1e300", "1e-300")


def _leaf_parser(leaf):
    from cryoion import cli

    parser = cli.build_parser(leaf[0])
    for name in leaf:
        subparsers, = [action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        parser = subparsers.choices[name]
    return parser


def _quantity_flags(leaf) -> list[tuple[str, str]]:
    """(flag, unit label) of every unit-suffixed flag of one leaf: the options
    whose argparse type is the quantity converter."""
    from cryoion import cli

    return [(action.option_strings[0], action.type.args[2])
            for action in sorted(_leaf_parser(leaf)._actions, key=lambda action: action.dest)
            if isinstance(action.type, functools.partial) and action.type.func is cli._si_value]


def _with_flag(argv: list[str], flag: str, value: str) -> list[str]:
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


SWEEP = [(leaf, flag, value + unit, as_json) for leaf in SCALAR_LEAVES
         for flag, unit in _quantity_flags(leaf) for value in SWEEP_VALUES
         for as_json in (False, True)]


def test_sweep_covers_every_scalar_leaf_with_a_quantity_flag():
    # qubit thermometry takes only the plain --ratio
    assert len(SCALAR_LEAVES) == 11
    assert {leaf for leaf, *_ in SWEEP} == set(SCALAR_LEAVES) - {("qubit", "thermometry")}


@pytest.mark.parametrize("leaf,flag,value,as_json", SWEEP,
                         ids=[f"{' '.join(leaf)} {flag}={value}{' json' if as_json else ''}"
                              for leaf, flag, value, as_json in SWEEP])
def test_scalar_leaf_contract_at_extreme_values(capsys, leaf, flag, value, as_json):
    argv = [*leaf, *_with_flag(LEAVES[leaf][0], flag, value)] + (["--json"] if as_json else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert code == 0 or err.splitlines()[-1].startswith(("error: ", "cryoion ")), err
    assert all(len(line) <= 120 for line in out.splitlines()), out
    if as_json and code == 0:
        json.loads(out, parse_constant=_no_constants)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_cli_call_does_not_import_scipy():
    # -X importtime lists every module the call imports, one per stderr line
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cryoion",
         "shield", "skin-depth", "--freq", "50Hz"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "skin depth = 9.2 mm (0.0092195983095 m)\n"
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "cryoion.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_repeated_runs_are_byte_identical(tmp_path):
    out = tmp_path / "table.csv"

    def once():
        proc = subprocess.run(
            [sys.executable, "-m", "cryoion", "report", "table1",
             "--measured", str(DEMO / "attenuation_50hz_measured.csv"),
             "--rrr", "10", "--out", str(out)],
            capture_output=True, check=True)
        return proc.stdout, out.read_bytes()

    stdout_a, file_a = once()
    stdout_b, file_b = once()
    assert stdout_a == stdout_b
    assert file_a == file_b
    assert b"cryoion" in file_a  # provenance comment, no timestamps
