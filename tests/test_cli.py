"""End-to-end command-line tests: output text, exit codes, determinism."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cryoion.cli import main

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


def test_unit_suffix_matches_separate_unit_flag(capsys):
    _, a, _ = run(capsys, "shield", "skin-depth", "--freq", "50Hz")
    _, b, _ = run(capsys, "shield", "skin-depth", "--freq", "50", "--freq-unit", "Hz")
    _, c, _ = run(capsys, "shield", "skin-depth", "--freq", "50")  # bare => SI
    assert a == b == c


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


@pytest.mark.parametrize("argv", [
    ["shield", "skin-depth", "--freq", "100%"],
    ["shield", "skin-depth", "--freq", "50dB"],
    ["met", "allan", "--in", str(DEMO / "beat_fractional.csv"), "--taus", "0.01Hz"],
    # the flag is checked before the (missing) input file is opened
    ["met", "vib", "--in", "/nonexistent/fringe.csv", "--window", "2Hz"],
], ids=["freq_percent", "freq_db", "taus_hz", "window_hz_before_missing_file"])
def test_dimensionless_or_wrong_unit_is_usage_error_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    flag = argv[-2]
    assert err.startswith(f"error: {flag}: expected a quantity in ")


@pytest.mark.parametrize("value", ["1e999Hz", "1e999", "1e306GHz"])
def test_overflowing_value_is_usage_error_naming_the_flag(capsys, value):
    code, out, err = run(capsys, "shield", "skin-depth", "--freq", value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --freq: ")
    assert len(err.splitlines()) == 1


def test_unknown_unit_names_the_flag(capsys):
    code, _, err = run(capsys, "shield", "skin-depth", "--freq", "50xyz")
    assert code == 2
    assert err == "error: --freq: unknown unit 'xyz'\n"


def test_dimensionless_flag_takes_db_or_a_bare_number(capsys):
    curve = str(DEMO / "attenuation_along.csv")
    default = run(capsys, "shield", "fit", "--in", curve)
    assert default[0] == 0
    assert run(capsys, "shield", "fit", "--in", curve, "--floor=-58dB") == default
    assert run(capsys, "shield", "fit", "--in", curve, "--floor=-58") == default


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
], ids=["points_negative", "points_zero", "peaks_zero", "peaks_negative", "peaks_no_file"])
def test_count_below_one_is_data_error_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {argv[-2]} must be a positive integer, got {argv[-1]}\n"


def test_count_below_one_writes_no_file(capsys, tmp_path):
    out_csv = tmp_path / "rabi.csv"
    assert run(capsys, *RABI, "--points", "0", "--out", str(out_csv))[0] == 1
    assert not out_csv.exists()


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


@pytest.mark.parametrize("setting", ["x=5V", "5V", "0=5Hz", "0=volts", "0=5dB"])
def test_trap_spectrum_malformed_set_is_usage_error(capsys, setting):
    code, out, err = run(capsys, "trap", "spectrum", "--layout",
                         str(DEMO / "trap_layout.cfg"), "--set", setting)
    assert code == 2
    assert out == ""
    assert "--set" in err


def test_trap_layout_non_integer_dc_index_names_section(capsys, tmp_path):
    text = (DEMO / "trap_layout.cfg").read_text()
    layout = tmp_path / "layout.cfg"
    layout.write_text(text.replace("dc_index = 0", "dc_index = zero", 1))
    code, out, err = run(capsys, "trap", "solve", "--layout", str(layout))
    assert code == 1
    assert out == ""
    assert "[strip dc_left]" in err
    assert "dc_index" in err


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
    assert "lorentzian fwhm = 1.55377408266 Hz" in out
    assert "UNCONSTRAINED" not in out


def test_met_vib_demo_record(capsys):
    code, out, _ = run(capsys, "met", "vib", "--in", str(DEMO / "vibration_fringe.csv"),
                       "--volts-per-fringe", "2V", "--window", "2s")
    assert code == 0
    assert "peaks: 30 Hz, 45 Hz, 95 Hz" in out
    assert "clipped fraction = 0" in out


def test_met_allan_demo_record(capsys):
    code, out, _ = run(capsys, "met", "allan", "--in", str(DEMO / "beat_fractional.csv"))
    assert code == 0
    assert out.splitlines()[0] == "tau 0.01 s: sigma_y = 1.15489899996e-14"


def test_met_image_fit_demo_profile(capsys):
    code, out, _ = run(capsys, "met", "image-fit", "--in", str(DEMO / "ion_image.csv"))
    assert code == 0
    assert "gaussian width = 1.85 µm" in out


def test_qubit_fits_on_demo_data(capsys):
    code, out, _ = run(capsys, "qubit", "ramsey-fit", "--in", str(DEMO / "ramsey.csv"))
    assert code == 0 and "contrast 1/e time = 18.1 ms" in out
    code, out, _ = run(capsys, "qubit", "heating-fit", "--in", str(DEMO / "heating.csv"))
    assert code == 0 and "heating rate = 2.17069139008" in out
    code, out, _ = run(capsys, "qubit", "waist-fit", "--in", str(DEMO / "waist_scan.csv"))
    assert code == 0 and "beam waist = 3 µm" in out


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


def test_met_allan_out_file_has_provenance(tmp_path, capsys):
    out_csv = tmp_path / "adev.csv"
    code, out, _ = run(capsys, "met", "allan", "--in", str(DEMO / "beat_fractional.csv"),
                       "--taus", "0.01,0.02,0.04", "--out", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    assert "# input beat_fractional.csv sha256=" in text
    assert text.count("\n") == 3 + 3 + 1  # three comments, header, three rows


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
