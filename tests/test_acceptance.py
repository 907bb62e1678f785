"""Acceptance gate: twelve headline requirements, one PASS/FAIL line each.

Each test prints ``criterion NN PASS|FAIL  <title>`` (visible with ``pytest -s``
or in the captured output of a failure).  Stated runtime budgets are asserted
with ``time.monotonic()``.  Tolerances are pinned in the asserts and must not
be loosened ad hoc.
"""
import contextlib
import functools
import io
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cryoion import coils, metrology, qubit, shielding, thermal, trap
from cryoion.cli import main as cli_main
from cryoion.csvio import read_timeseries
from cryoion.fitting import gaussian_model, lorentzian_model
from cryoion.series import TimeSeries, seeded_rng
from cryoion.units import CONSTANTS, format_si

DEMO = Path(__file__).resolve().parent.parent / "demo"


def criterion(number, title, budget_s=None):
    """Wrap a test so it always prints exactly one PASS/FAIL line."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            ok = False
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - start
                if budget_s is not None and elapsed >= budget_s:
                    raise AssertionError(
                        f"runtime {elapsed:.2f} s exceeds the {budget_s:g} s budget")
                ok = True
            finally:
                verdict = "PASS" if ok else "FAIL"
                print(f"criterion {number:2d} {verdict}  {title}")
        return wrapper
    return deco


@criterion(1, "skin-depth and wall-attenuation chain", budget_s=1.0)
def test_criterion_01_skin_attenuation_chain():
    delta = shielding.skin_depth(50.0, shielding.COPPER, 293.0)
    assert abs(delta - 9.2e-3) <= 0.01 * 9.2e-3
    # conductivity x100 / x1000 skin depths, quoted to display precision
    cold100 = shielding.ConductorSpec(sigma_293k=5.96e7, rrr=100.0)
    cold1000 = shielding.ConductorSpec(sigma_293k=5.96e7, rrr=1000.0)
    d100 = shielding.skin_depth(50.0, cold100, 20.0)
    d1000 = shielding.skin_depth(50.0, cold1000, 20.0)
    assert d100 == pytest.approx(0.92e-3, rel=5e-3)
    assert d1000 == pytest.approx(0.292e-3, rel=5e-3)
    # 20 mm wall at the quoted depths
    assert shielding.skin_attenuation_db(0.020, 0.92e-3) == pytest.approx(-188.8, abs=0.5)
    assert shielding.skin_attenuation_db(0.020, 0.292e-3) == pytest.approx(-595.0, abs=0.5)
    # the unrounded library chain, frozen
    assert shielding.skin_attenuation_db(0.020, d100) == pytest.approx(
        -188.42230098278392, rel=1e-12)
    assert shielding.skin_attenuation_db(0.020, d1000) == pytest.approx(
        -595.84363307538, rel=1e-12)


@criterion(2, "regime fit: censored skin recovery and contact classification",
           budget_s=10.0)
def test_criterion_02_regime_fit():
    # skin-limited wall, -120 dB at 50 Hz, measurable only below the -58 dB
    # floor; the 100-400 Hz points sit at the floor and must be censored
    a_true = 120.0 / math.sqrt(50.0)
    freqs = np.array([1.0, 2.0, 4.0, 8.0, 100.0, 200.0, 400.0])
    for seed in range(100):
        atten = -a_true * np.sqrt(freqs) + 0.1 * seeded_rng(seed).standard_normal(7)
        atten = np.maximum(atten, -58.0)
        fit = shielding.fit_attenuation_regime(
            shielding.AttenuationCurve(tuple(freqs), tuple(atten), floor_db=-58.0))
        assert fit.regime == shielding.REGIME_SKIN
        assert fit.n_censored == 3
        assert fit.extrapolated_db == pytest.approx(-120.0, abs=2.0)
    # contact-limited curves classified correctly in >= 99/100 seeded trials
    cfreq = np.array([5.0, 10.0, 20.0, 50.0, 100.0, 200.0])
    hits = 0
    for seed in range(100):
        noisy = -10.0 - 16.0 * np.log10(cfreq) + 0.5 * seeded_rng(seed).standard_normal(6)
        noisy = np.minimum(noisy, -0.01)
        fit = shielding.fit_attenuation_regime(
            shielding.AttenuationCurve(tuple(cfreq), tuple(noisy), floor_db=-58.0))
        hits += fit.regime == shielding.REGIME_CONTACT
    assert hits >= 99


@criterion(3, "field-noise budget displays 3.6 pT and 1.2e-08")
def test_criterion_03_noise_budget():
    budget = shielding.field_noise_budget(sensitivity_hz_per_t=39e9,
                                          linewidth_hz=0.140,
                                          quantization_field_t=0.3e-3)
    assert format_si(budget.b_max_t, "T", 2) == "3.6 pT"
    assert f"{budget.relative_stability:.2g}" == "1.2e-08"


def bs_loop(radius, z0, amp_turns, point, n=4096):
    """Biot-Savart midpoint quadrature around the filament (independent oracle)."""
    th = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    src = np.stack([radius * np.cos(th), radius * np.sin(th), np.full(n, z0)], axis=1)
    dl = np.stack([-radius * np.sin(th), radius * np.cos(th), np.zeros(n)],
                  axis=1) * (2.0 * np.pi / n)
    r = np.asarray(point, dtype=float) - src
    rn = np.linalg.norm(r, axis=1)
    integrand = np.cross(dl, r) / rn[:, None] ** 3
    return CONSTANTS.mu0 * amp_turns / (4.0 * np.pi) * integrand.sum(axis=0)


@criterion(4, "Helmholtz homogeneity < 1.2e-8 and quadrature oracle", budget_s=5.0)
def test_criterion_04_helmholtz():
    pair = coils.CoilPair(radius=0.195, separation=0.195, turns=100, current=1.0)
    worst = coils.coil_homogeneity(pair, extent=1.5e-3)
    assert worst < 1.2e-8
    rng = np.random.default_rng(11)
    for _ in range(10):
        point = np.array([rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08),
                          rng.uniform(-0.08, 0.08)])
        oracle = (bs_loop(0.195, -0.0975, 100.0, point)
                  + bs_loop(0.195, 0.0975, 100.0, point))
        got = coils.coil_field(pair, point)
        assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)


@criterion(5, "five-wire trap solve, harmonicity, conformal scaling", budget_s=30.0)
def test_criterion_05_trap_solve():
    layout, geom = trap.five_wire_layout(52.7e-6)
    sol = trap.find_rf_null(layout)
    assert abs(sol.height - 100e-6) <= 0.15 * 100e-6
    assert abs(geom.ion_edge_distance(sol.height) - 113e-6) <= 0.15 * 113e-6

    # Laplace harmonicity of the basis potential (Richardson-extrapolated FD)
    rng = np.random.default_rng(31)
    for _ in range(6):
        p = np.array([rng.uniform(-150e-6, 150e-6), rng.uniform(-1e-3, 1e-3),
                      rng.uniform(30e-6, 200e-6)])
        h = p[2] / 50.0

        def second_derivs(step):
            f0 = trap.rf_basis_potential(layout, p)
            out = []
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = step
                out.append((trap.rf_basis_potential(layout, p + dp) - 2.0 * f0
                            + trap.rf_basis_potential(layout, p - dp)) / step**2)
            return np.array(out)

        d2 = (4.0 * second_derivs(0.5 * h) - second_derivs(h)) / 3.0
        assert abs(d2.sum()) < 1e-6 * np.abs(d2).max()

    # conformal scaling: doubling every length doubles the null height
    doubled, _ = trap.five_wire_layout(2 * 52.7e-6, rail_width=120e-6, gap=20e-6,
                                       dc_width=400e-6, length=12e-3)
    assert trap.find_rf_null(doubled).height == pytest.approx(
        2.0 * sol.height, rel=1e-6)


@criterion(6, "LC resonator arithmetic and round trip")
def test_criterion_06_resonator():
    cap = trap.resonator_capacitance(1.6e-6, 49.9e6)
    assert abs(cap - 6.36e-12) <= 0.005 * 6.36e-12
    assert trap.resonance_frequency(1.6e-6, cap) == pytest.approx(49.9e6, rel=1e-12)


@criterion(7, "fit round trips at 1e-6 and 3-sigma coverage >= 99 %", budget_s=60.0)
def test_criterion_07_fit_round_trips_and_coverage():
    # noise-free round trips
    t = np.linspace(0.0, 1.0, 11)
    res = qubit.heating_rate_fit(t, 0.1 + 2.14 * t)
    assert res.params["rate"] == pytest.approx(2.14, rel=1e-6)

    tw = np.linspace(0.0, 0.030, 21)
    ram = qubit.ramsey_contrast_fit(tw, 0.97 * np.exp(-((tw / 0.0182) ** 2)))
    assert ram.t_1e == pytest.approx(0.0182, rel=1e-6)

    x = np.linspace(-6e-6, 6e-6, 25)
    waist = qubit.waist_from_rabi_scan(x, 2e5 * np.exp(-((x / 3e-6) ** 2)))
    assert waist.profile.waist == pytest.approx(3e-6, rel=1e-6)

    f = np.linspace(150.0, 210.0, 121)
    lw = metrology.lorentzian_linewidth_fit(f, lorentzian_model(f, [2.0, 180.0, 1.58, 0.01])[0])
    assert lw.fwhm_hz == pytest.approx(1.58, rel=1e-6)

    px = np.arange(33, dtype=float)
    scale = 16e-6 / 15.0
    img = metrology.gaussian_profile_fit(
        metrology.ImageProfile(gaussian_model(px, [1000.0, 16.0, 1.725, 50.0])[0]))
    assert img.width_m == pytest.approx(1.725 * scale, rel=1e-6)

    # Monte-Carlo coverage: report 3-sigma intervals that contain the truth in
    # >= 990 of 1000 seeded trials per fit (noise variance passed as weights)
    n_trials = 1000

    rng = seeded_rng(711)
    w = np.full(t.size, 1.0 / 0.05**2)
    hits = 0
    for _ in range(n_trials):
        n = 0.1 + 2.14 * t + 0.05 * rng.standard_normal(t.size)
        res = qubit.heating_rate_fit(t, n, weights=w)
        hits += abs(res.params["rate"] - 2.14) <= 3.0 * res.sigma("rate")
    assert hits >= 990, f"heating coverage {hits}/1000"

    rng = seeded_rng(722)
    w = np.full(tw.size, 1.0 / 0.008**2)
    hits = 0
    for _ in range(n_trials):
        c = 0.9 * np.exp(-((tw / 0.0182) ** 2)) + 0.008 * rng.standard_normal(tw.size)
        res = qubit.ramsey_contrast_fit(tw, np.clip(c, 0.0, 1.0), weights=w)
        hits += abs(res.t_1e - 0.0182) <= 3.0 * res.fit.sigma("t_1e")
    assert hits >= 990, f"ramsey coverage {hits}/1000"

    rng = seeded_rng(733)
    w = np.full(x.size, 1.0 / (2 * np.pi * 1e3) ** 2)
    hits = 0
    for _ in range(n_trials):
        om = (2 * np.pi * 1e5 * np.exp(-((x / 3e-6) ** 2))
              + 2 * np.pi * 1e3 * rng.standard_normal(x.size))
        res = qubit.waist_from_rabi_scan(x, om, weights=w)
        hits += abs(res.profile.waist - 3e-6) <= 3.0 * res.fit.sigma("waist")
    assert hits >= 990, f"waist coverage {hits}/1000"

    rng = seeded_rng(744)
    w = np.full(f.size, 1.0 / 0.02**2)
    hits = 0
    for _ in range(n_trials):
        p = lorentzian_model(f, [2.0, 180.0, 1.58, 0.01])[0] + 0.02 * rng.standard_normal(f.size)
        res = metrology.lorentzian_linewidth_fit(f, p, weights=w)
        hits += abs(res.fwhm_hz - 1.58) <= 3.0 * res.fit.sigma("fwhm")
    assert hits >= 990, f"linewidth coverage {hits}/1000"

    rng = seeded_rng(755)
    truth = gaussian_model(px, [1000.0, 16.0, 1.725, 50.0])[0]
    w = np.full(px.size, 1.0 / 8.0**2)
    hits = 0
    for _ in range(n_trials):
        counts = truth + 8.0 * rng.standard_normal(px.size)
        res = metrology.gaussian_profile_fit(metrology.ImageProfile(counts), weights=w)
        hits += abs(res.width_m - 1.725 * scale) <= 3.0 * res.fit.sigma("sigma") * scale
    assert hits >= 990, f"image coverage {hits}/1000"


@criterion(8, "thermometry inversion, hot-vs-cold contrast, MC agreement")
def test_criterion_08_thermometry_and_rabi():
    rng = seeded_rng(88)
    for nbar in 10.0 ** rng.uniform(-3, 3, size=1000):
        r = qubit.nbar_to_sideband_ratio(nbar)
        assert qubit.sideband_ratio_to_nbar(r) == pytest.approx(nbar, rel=1e-12)

    drive = qubit.DriveParams(rabi_frequency=2 * np.pi * 5e4, lamb_dicke=0.1)
    late = np.linspace(10 / 5e4, 20 / 5e4, 400)
    cold = qubit.carrier_rabi_signal(qubit.PhononState(nbar=0.1), drive, late).excitation
    hot = qubit.carrier_rabi_signal(qubit.PhononState(nbar=14.0), drive, late).excitation
    assert hot.max() - hot.min() < cold.max() - cold.min()

    # truncated thermal sum against a Monte-Carlo phonon average
    state = qubit.PhononState(nbar=6.0)
    times = np.array([3e-6, 11e-6, 27e-6, 60e-6])
    model = qubit.carrier_rabi_signal(state, drive, times).excitation
    draws = seeded_rng(424242).geometric(p=1.0 / (1.0 + state.nbar), size=20000) - 1
    omega_n = drive.rabi_frequency * (1.0 - drive.lamb_dicke**2 * draws)
    mc = np.sin(0.5 * np.outer(times, omega_n)) ** 2
    err = mc.std(axis=1, ddof=1) / math.sqrt(draws.size)
    assert np.all(np.abs(mc.mean(axis=1) - model) <= 3.0 * err)


@criterion(9, "Allan deviation: closed forms and white-FM slope")
def test_criterion_09_allan():
    a = 3e-13
    rec = metrology.FrequencyRecord(
        metrology.KIND_FRACTIONAL, TimeSeries(0.0, 0.5, a * (-1.0) ** np.arange(2000)))
    _, sigma = metrology.allan_deviation(rec, [0.5])
    assert sigma[0] == pytest.approx(math.sqrt(2.0) * a, rel=1e-12)

    rec = metrology.FrequencyRecord(
        metrology.KIND_FRACTIONAL, TimeSeries(0.0, 1.0, np.full(1000, 4e-14)))
    _, sigma = metrology.allan_deviation(rec, [1.0, 4.0])
    assert np.all(sigma < 1e-25)

    dt, sig0 = 0.01, 2e-15
    y = sig0 * seeded_rng(99).standard_normal(40000)
    rec = metrology.FrequencyRecord(metrology.KIND_FRACTIONAL, TimeSeries(0.0, dt, y))
    taus = dt * np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    _, sigma = metrology.allan_deviation(rec, taus)
    slope = np.polyfit(np.log10(taus), np.log10(sigma), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)

    # the bundled demo record shows a stability minimum near 0.33 s
    series = read_timeseries(DEMO / "beat_fractional.csv", "t_s", "y")
    rec = metrology.FrequencyRecord(metrology.KIND_FRACTIONAL, series)
    taus = series.dt * 2.0 ** np.arange(0, 9)
    taus, sigma = metrology.allan_deviation(rec, taus)
    assert 0.15 <= taus[int(np.argmin(sigma))] <= 0.7


@criterion(10, "vibration pipeline: inversion, peaks, excursions")
def test_criterion_10_vibration_pipeline():
    fs = 2000.0
    t = np.arange(8001) / fs
    x = (8e-9 * np.sin(2 * np.pi * 30.0 * t) + 7e-9 * np.sin(2 * np.pi * 45.0 * t)
         + 3e-9 * np.sin(2 * np.pi * 95.0 * t))
    lam = 633e-9
    cal = metrology.InterferometerCal(wavelength=lam, volts_per_fringe=1.7,
                                      quadrature_offset=0.1)
    volts = 1.7 * np.sin(4.0 * np.pi * x / lam) + 0.1
    inv = metrology.fringe_to_displacement(TimeSeries(0.0, 1 / fs, volts), cal)
    rel_rms = (np.sqrt(np.mean((inv.displacement.samples - x) ** 2))
               / np.sqrt(np.mean(x**2)))
    assert rel_rms < 0.01

    freqs, psd = metrology.power_spectrum(inv.displacement)
    df = freqs[1] - freqs[0]
    peaks = np.sort(metrology.peak_find(freqs, psd, count=3, min_separation=5.0))
    assert np.all(np.abs(peaks - np.array([30.0, 45.0, 95.0])) <= df)

    stats = metrology.excursion_stats(inv.displacement, 2.0)
    assert stats.max_abs <= 20e-9


@criterion(11, "thermal budget: boil-off power and mount conduction")
def test_criterion_11_thermal_budget():
    power = thermal.boiloff_power(0.5, thermal.LIQUID_HELIUM)
    assert abs(power - 0.36) <= 0.03 * 0.36

    support = thermal.SupportSpec.thin_cylinder(diameter_m=0.040, wall_m=0.5e-3,
                                                length_m=0.120, t_cold_k=20.0,
                                                t_hot_k=80.0)
    assert thermal.conduction_load(support) < 0.2

    # the geometry assumption is printed in the report
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["cryo", "load"])
    assert code == 0
    assert "assumed geometry" in buf.getvalue()


DRIVER = """\
import sys
from cryoion.cli import main
demo, out = sys.argv[1], sys.argv[2]
cmds = [
    ["shield", "skin-depth", "--freq", "50Hz"],
    ["shield", "fit", "--in", demo + "/attenuation_along.csv"],
    ["shield", "budget", "--linewidth", "140mHz", "--sensitivity", "39GHz/T",
     "--field", "0.3mT"],
    ["coil", "homogeneity", "--radius", "19.5cm", "--turns", "100", "--extent", "1.5mm"],
    ["cryo", "load"],
    ["cryo", "load", "--k-table", demo + "/constant_ktable.csv"],
    ["cryo", "boiloff", "--rate", "0.5l/h"],
    ["trap", "solve", "--layout", demo + "/trap_layout.cfg"],
    ["trap", "spectrum", "--layout", demo + "/trap_layout.cfg"],
    ["trap", "resonator", "--inductance", "1.6uH", "--freq", "49.9MHz"],
    ["trap", "spacing", "--freq", "1.3MHz"],
    ["qubit", "thermometry", "--ratio", "0.5"],
    ["qubit", "heating-fit", "--in", demo + "/heating.csv"],
    ["qubit", "ramsey-fit", "--in", demo + "/ramsey.csv"],
    ["qubit", "waist-fit", "--in", demo + "/waist_scan.csv"],
    ["qubit", "optics", "--na", "0.23"],
    ["qubit", "rabi", "--nbar", "6", "--rabi", "100kHz", "--tmax", "50us",
     "--points", "101", "--out", out + "/rabi.csv"],
    ["met", "allan", "--in", demo + "/beat_fractional.csv", "--out", out + "/adev.csv"],
    ["met", "linewidth", "--in", demo + "/beat_spectrum.csv"],
    ["met", "vib", "--in", demo + "/vibration_fringe.csv", "--volts-per-fringe", "2V",
     "--window", "2s", "--out", out + "/psd.csv"],
    ["met", "image-fit", "--in", demo + "/ion_image.csv"],
    ["report", "table1", "--measured", demo + "/attenuation_50hz_measured.csv",
     "--rrr", "10", "--out", out + "/table1.csv"],
]
for cmd in cmds:
    code = main(cmd)
    assert code == 0, (code, cmd)
"""


@criterion(12, "CLI determinism over the demo dataset", budget_s=300.0)
def test_criterion_12_cli_determinism(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_names = ["rabi.csv", "adev.csv", "psd.csv", "table1.csv"]

    def once():
        proc = subprocess.run([sys.executable, "-c", DRIVER, str(DEMO), str(out_dir)],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout, {n: (out_dir / n).read_bytes() for n in out_names}

    stdout_a, files_a = once()
    stdout_b, files_b = once()
    assert stdout_a == stdout_b
    assert files_a == files_b
