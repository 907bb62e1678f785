#!/usr/bin/env python3
"""Regenerate the bundled demo dataset in demo/.

Every record is synthetic, produced with fixed seeds so reruns are
byte-identical.  The values are chosen to look like plausible bench data for
a cryogenic surface-trap apparatus; generation parameters are recorded in the
CSV comment headers.
"""
from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cryoion.csvio import write_table  # noqa: E402
from cryoion.series import seeded_rng  # noqa: E402

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")


def vibration_fringe() -> None:
    """Michelson fringe voltage of a 3-tone nm-scale vibration record."""
    fs, duration = 2000.0, 2.0
    t = np.arange(int(fs * duration)) / fs
    tones = ((30.0, 8e-9, 0.3), (45.0, 7e-9, 1.1), (95.0, 3e-9, 2.0))
    x = sum(a * np.sin(2 * math.pi * f * t + ph) for f, a, ph in tones)
    rng = seeded_rng(101)
    x = x + rng.normal(scale=0.15e-9, size=t.size)
    wavelength, vpf, offset = 633e-9, 1.0, 0.0
    v = offset + vpf * np.sin(4 * math.pi * x / wavelength)
    write_table(os.path.join(DEMO, "vibration_fringe.csv"), {"t_s": t, "v": v},
                ["synthetic fringe record: tones 30/45/95 Hz, amplitudes 8/7/3 nm",
                 "HeNe 633 nm, 1 V per fringe, quadrature offset 0 V, fs 2 kHz, seed 101"])


def beat_fractional() -> None:
    """Fractional-frequency beat record: white FM plus linear drift.

    The Allan deviation of this mix has a minimum near 0.33 s at the few-1e-15
    level: white FM falls as tau^-1/2, the drift term rises as tau.
    """
    dt, n = 0.01, 6000
    t = np.arange(n) * dt
    h = 1.149e-15   # white FM: sigma_y(tau) = h / sqrt(tau)
    drift = 6.06e-15  # 1/s of fractional frequency
    rng = seeded_rng(202)
    y = rng.normal(scale=h / math.sqrt(dt), size=n) + drift * (t - t.mean())
    write_table(os.path.join(DEMO, "beat_fractional.csv"), {"t_s": t, "y": y},
                ["synthetic beat record: white FM h=1.149e-15/sqrt(tau) "
                 "plus 6.06e-15/s drift, fs 100 Hz, seed 202"])


def attenuation_along() -> None:
    """Skin-limited attenuation curve censored by a -58 dB sensor floor."""
    a = 120.0 / math.sqrt(50.0)
    freqs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 400.0])
    rng = seeded_rng(303)
    atten = -a * np.sqrt(freqs) + rng.normal(scale=0.1, size=freqs.size)
    atten = np.maximum(atten, -58.0)
    atten = np.minimum(atten, 0.0)
    write_table(os.path.join(DEMO, "attenuation_along.csv"),
                {"freq_hz": freqs, "atten_db": atten},
                ["synthetic skin-limited shielding curve, -120 dB at 50 Hz,",
                 "sensor floor -58 dB, 0.1 dB noise, seed 303"])


def heating() -> None:
    rng = seeded_rng(404)
    t = np.linspace(0.0, 1.0, 6)
    nbar = 0.1 + 2.14 * t + rng.normal(scale=0.2, size=t.size)
    nbar = np.maximum(nbar, 0.0)
    write_table(os.path.join(DEMO, "heating.csv"), {"wait_s": t, "nbar": nbar},
                ["synthetic heating measurement: nbar = 0.1 + 2.14/s * t,",
                 "0.2 phonon read-out noise, seed 404"])


def ramsey() -> None:
    rng = seeded_rng(505)
    t = np.linspace(0.0, 30e-3, 10)
    c = 0.97 * np.exp(-((t / 18.2e-3) ** 2)) + rng.normal(scale=0.02, size=t.size)
    c = np.clip(c, 0.0, 1.0)
    write_table(os.path.join(DEMO, "ramsey.csv"), {"wait_s": t, "contrast": c},
                ["synthetic Ramsey contrast: C0=0.97, Gaussian 1/e time 18.2 ms,",
                 "2 % noise, seed 505"])


def waist_scan() -> None:
    rng = seeded_rng(606)
    x = np.linspace(-8e-6, 8e-6, 17)
    omega = 2 * math.pi * 1e5 * np.exp(-((x / 3.0e-6) ** 2))
    omega = omega * (1.0 + rng.normal(scale=0.01, size=x.size))
    write_table(os.path.join(DEMO, "waist_scan.csv"),
                {"position_m": x, "rabi_rad_s": omega},
                ["synthetic addressing-beam scan: waist 3.0 um, peak 2pi*100 kHz,",
                 "1 % noise, seed 606"])


def beat_spectrum() -> None:
    rng = seeded_rng(707)
    f = np.arange(150.0, 210.0, 0.2)
    gamma, f0 = 1.58, 180.0
    s = 1.0 * (gamma / 2) ** 2 / ((f - f0) ** 2 + (gamma / 2) ** 2) + 0.01
    s = s * (1.0 + rng.normal(scale=0.03, size=f.size))
    write_table(os.path.join(DEMO, "beat_spectrum.csv"), {"freq_hz": f, "power": s},
                ["synthetic beat-note spectrum: Lorentzian FWHM 1.58 Hz at 180 Hz,",
                 "3 % multiplicative noise, seed 707"])


def ion_image() -> None:
    rng = seeded_rng(808)
    px = np.arange(33, dtype=float)
    pitch_obj = 16e-6 / 15.0
    sigma_px = 1.84e-6 / pitch_obj
    ideal = 50.0 + 1000.0 * np.exp(-0.5 * ((px - 16.0) / sigma_px) ** 2)
    counts = rng.poisson(ideal).astype(float)
    write_table(os.path.join(DEMO, "ion_image.csv"), {"pixel": px, "counts": counts},
                ["synthetic ion-image row profile: 1.84 um object-plane sigma,",
                 "16 um pixels, magnification 15, Poisson noise, seed 808"])


def measured_50hz() -> None:
    temps = np.array([294.0, 97.0, 40.0, 20.0])
    measured = np.array([-21.0, -46.0, -85.0, -120.0])
    extrapolated = np.array([0.0, 0.0, 1.0, 1.0])
    write_table(os.path.join(DEMO, "attenuation_50hz_measured.csv"),
                {"temperature_k": temps, "measured_db": measured,
                 "extrapolated": extrapolated},
                ["50 Hz shielding vs inner-shield temperature;",
                 "extrapolated=1 marks values beyond the sensor floor"])


def k_table() -> None:
    """A constant-conductivity reference table for ``cryo load --k-table``."""
    temps = np.array([4.0, 20.0, 80.0, 150.0, 300.0])
    k = np.full(temps.size, 0.25)
    write_table(os.path.join(DEMO, "constant_ktable.csv"),
                {"temperature_k": temps, "k_w_per_m_k": k},
                ["constant k = 0.25 W/(m K) reference table"])


LAYOUT = """\
# symmetric five-wire surface trap, gapless-plane model
# gaps are split half-half onto the neighbouring electrodes
[trap]
rf_voltage = 120V
rf_frequency = 49.9MHz
species = Ca40

[strip center]
role = center
x_min = -55.2um
x_max = 55.2um
y_min = -3mm
y_max = 3mm

[strip rf_left]
role = rf
x_min = -127.7um
x_max = -57.7um
y_min = -3mm
y_max = 3mm

[strip rf_right]
role = rf
x_min = 57.7um
x_max = 127.7um
y_min = -3mm
y_max = 3mm

[strip dc_left]
role = dc
dc_index = 0
x_min = -332.7um
x_max = -132.7um
y_min = -3mm
y_max = 3mm

[strip dc_right]
role = dc
dc_index = 1
x_min = 132.7um
x_max = 332.7um
y_min = -3mm
y_max = 3mm
"""


def trap_layout() -> None:
    with open(os.path.join(DEMO, "trap_layout.cfg"), "w", encoding="utf-8") as handle:
        handle.write(LAYOUT)


def main() -> None:
    os.makedirs(DEMO, exist_ok=True)
    vibration_fringe()
    beat_fractional()
    attenuation_along()
    heating()
    ramsey()
    waist_scan()
    beat_spectrum()
    ion_image()
    measured_50hz()
    k_table()
    trap_layout()
    print(f"demo data written to {os.path.abspath(DEMO)}")


if __name__ == "__main__":
    main()
