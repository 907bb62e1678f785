"""Seeded inputs for the benchmark workloads.

Everything here runs before the timed region and depends only on the seed.
Files are written in the CSV dialect cryoion reads (``#`` comments, header
row, ``%.12g`` numbers) without calling cryoion, so that input generation
cannot change when the program does.

* ``cli_inputs``: demo/-shaped files for the cold CLI workload.
* ``trap_designs``: five-wire trap parameters with DC settings.
* ``scans``: a sequence of short measurement scans with their true parameters.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

SCAN_FAMILIES = ("waist", "ramsey", "heating", "image", "linewidth", "regime")

#: one scan in NOSIGNAL_EVERY carries no signal (pure noise)
NOSIGNAL_EVERY = 20
#: distinct signal and no-signal scans per seed; see scans()
SIGNAL_SCANS = 1200
NOSIGNAL_SCANS = 1500


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input kind)."""
    return np.random.default_rng([seed, sum(ord(c) << (8 * i) for i, c in enumerate(stream))])


def write_csv(path: str, columns: dict, comments=()) -> None:
    """Write named columns."""
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    lines = [f"# {c}" for c in comments] + [",".join(names)]
    lines += [",".join("%.12g" % a[i] for a in arrays) for i in range(arrays[0].size)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def strata(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one from each of n equal strata, in random order.

    Stratified draws give every seed nearly the same spread of input sizes,
    so seeds differ in the details of their inputs but not in their cost.
    """
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def _between(u, lo, hi):
    return lo + u * (hi - lo)


# ---------------------------------------------------------------------------
# cold CLI inputs: the shapes of demo/
# ---------------------------------------------------------------------------


def five_wire_strips(center_half_width, rail_width, gap, dc_width=200e-6, length=6e-3,
                     dc_segments=1):
    """Strips of a symmetric five-wire cross-section with gaps split half-half.

    Returns (name, role, dc_index, x_min, x_max, y_min, y_max) tuples in
    metres, the same geometry as ``cryoion.trap.five_wire_layout``.
    """
    g, wg, wr, wd = center_half_width, gap, rail_width, dc_width
    half = 0.5 * length
    center = g + 0.5 * wg
    rf_in, rf_out = g + 0.5 * wg, g + 1.5 * wg + wr
    dc_in, dc_out = rf_out, g + 2.0 * wg + wr + wd
    strips = [("center", "center", None, -center, center, -half, half),
              ("rf_right", "rf", None, rf_in, rf_out, -half, half),
              ("rf_left", "rf", None, -rf_out, -rf_in, -half, half)]
    edges = np.linspace(-half, half, dc_segments + 1)
    for k in range(dc_segments):
        strips.append((f"dc_right{k}", "dc", k, dc_in, dc_out, edges[k], edges[k + 1]))
        strips.append((f"dc_left{k}", "dc", dc_segments + k, -dc_out, -dc_in,
                       edges[k], edges[k + 1]))
    return strips


def layout_ini(strips, rf_voltage: float, rf_frequency: float) -> str:
    out = ["[trap]", f"rf_voltage = {rf_voltage:.6g}V",
           f"rf_frequency = {rf_frequency / 1e6:.6g}MHz", "species = Ca40", ""]
    for name, role, dc_index, x0, x1, y0, y1 in strips:
        out.append(f"[strip {name}]")
        out.append(f"role = {role}")
        if dc_index is not None:
            out.append(f"dc_index = {dc_index}")
        out += [f"x_min = {x0 * 1e6:.6f}um", f"x_max = {x1 * 1e6:.6f}um",
                f"y_min = {y0 * 1e3:.6f}mm", f"y_max = {y1 * 1e3:.6f}mm", ""]
    return "\n".join(out)


def cli_inputs(seed: int, directory: str) -> None:
    """Write the CLI workload's input files into ``directory``."""
    rng = rng_for(seed, "cli")
    join = lambda name: os.path.join(directory, name)  # noqa: E731

    # 6000-row fractional-frequency beat record: white FM plus drift
    dt, n = 0.01, 6000
    t = np.arange(n) * dt
    h = rng.uniform(0.8e-15, 1.5e-15)
    drift = rng.uniform(3e-15, 9e-15)
    y = rng.normal(scale=h / math.sqrt(dt), size=n) + drift * (t - t.mean())
    write_csv(join("beat_fractional.csv"), {"t_s": t, "y": y}, ["synthetic beat record"])

    # 4000-row Michelson fringe record of a three-tone nm-scale vibration
    fs = 2000.0
    t = np.arange(4000) / fs
    x = sum(rng.uniform(2e-9, 8e-9) * np.sin(2 * math.pi * f * t + rng.uniform(0, 2 * math.pi))
            for f in rng.choice(np.arange(20.0, 200.0, 5.0), size=3, replace=False))
    x = x + rng.normal(scale=0.15e-9, size=t.size)
    v = np.sin(4 * math.pi * x / 633e-9)
    write_csv(join("vibration_fringe.csv"), {"t_s": t, "v": v}, ["synthetic fringe record"])

    a = rng.uniform(12.0, 20.0)
    freqs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 400.0])
    atten = np.clip(-a * np.sqrt(freqs) + rng.normal(scale=0.1, size=freqs.size), -58.0, 0.0)
    write_csv(join("attenuation_along.csv"), {"freq_hz": freqs, "atten_db": atten})

    t = np.linspace(0.0, 1.0, 6)
    nbar = np.maximum(0.1 + rng.uniform(1.0, 4.0) * t + rng.normal(scale=0.2, size=t.size), 0)
    write_csv(join("heating.csv"), {"wait_s": t, "nbar": nbar})

    t1e = rng.uniform(12e-3, 25e-3)
    t = np.linspace(0.0, 1.6 * t1e, 10)
    c = np.clip(0.97 * np.exp(-((t / t1e) ** 2)) + rng.normal(scale=0.02, size=t.size), 0, 1)
    write_csv(join("ramsey.csv"), {"wait_s": t, "contrast": c})

    w = rng.uniform(2.5e-6, 4e-6)
    x = np.linspace(-8e-6, 8e-6, 17)
    om = 2 * math.pi * 1e5 * np.exp(-((x / w) ** 2)) * (1 + rng.normal(scale=0.01, size=x.size))
    write_csv(join("waist_scan.csv"), {"position_m": x, "rabi_rad_s": om})

    f = np.arange(150.0, 210.0, 0.2)
    gamma = rng.uniform(1.0, 3.0)
    s = (gamma / 2) ** 2 / ((f - 180.0) ** 2 + (gamma / 2) ** 2) + 0.01
    s = s * (1.0 + rng.normal(scale=0.03, size=f.size))
    write_csv(join("beat_spectrum.csv"), {"freq_hz": f, "power": s})

    px = np.arange(33, dtype=float)
    sigma_px = rng.uniform(1.5, 3.0) * 15.0 / 16.0
    counts = rng.poisson(50.0 + 1000.0 * np.exp(-0.5 * ((px - 16.0) / sigma_px) ** 2))
    write_csv(join("ion_image.csv"), {"pixel": px, "counts": counts})

    write_csv(join("attenuation_50hz_measured.csv"),
              {"temperature_k": [294.0, 97.0, 40.0, 20.0],
               "measured_db": np.round([-21.0, -46.0, -85.0, -120.0]
                                       + rng.normal(scale=1.0, size=4), 1),
               "extrapolated": [0.0, 0.0, 1.0, 1.0]})
    write_csv(join("constant_ktable.csv"),
              {"temperature_k": [4.0, 20.0, 80.0, 150.0, 300.0], "k_w_per_m_k": [0.25] * 5})

    strips = five_wire_strips(rng.uniform(45e-6, 65e-6), rng.uniform(60e-6, 80e-6), 5e-6)
    with open(join("trap_layout.cfg"), "w", encoding="utf-8") as handle:
        handle.write(layout_ini(strips, rng.uniform(100.0, 140.0), rng.uniform(40e6, 55e6)))


def cli_commands(seed: int) -> list[list[str]]:
    """The README's demo command set over the generated files, seed-shuffled.

    Includes the ``--out`` writes of ``met allan``, ``met vib``,
    ``report table1`` and ``qubit rabi`` and some ``--json`` calls.
    """
    commands = [
        ["shield", "skin-depth", "--freq", "50Hz"],
        ["shield", "attenuation", "--freq", "50Hz", "--thickness", "20mm", "--temp", "20K",
         "--rrr", "10"],
        ["shield", "budget", "--linewidth", "140mHz", "--sensitivity", "39GHz/T",
         "--field", "0.3mT"],
        ["shield", "fit", "--in", "attenuation_along.csv"],
        ["coil", "field", "--radius", "19.5cm", "--z", "1cm", "--turns", "50", "--json"],
        ["coil", "homogeneity", "--radius", "19.5cm", "--extent", "1cm"],
        ["cryo", "load"],
        ["cryo", "load", "--k-table", "constant_ktable.csv", "--json"],
        ["cryo", "boiloff", "--rate", "0.5l/h", "--coolant", "helium"],
        ["trap", "spectrum", "--layout", "trap_layout.cfg"],
        ["trap", "solve", "--layout", "trap_layout.cfg", "--json"],
        ["trap", "resonator", "--inductance", "1uH", "--freq", "50MHz"],
        ["trap", "spacing", "--freq", "1MHz"],
        ["qubit", "rabi", "--nbar", "5", "--rabi", "100kHz", "--tmax", "50us",
         "--out", "rabi.csv"],
        ["qubit", "thermometry", "--ratio", "0.3"],
        ["qubit", "heating-fit", "--in", "heating.csv"],
        ["qubit", "ramsey-fit", "--in", "ramsey.csv", "--json"],
        ["qubit", "waist-fit", "--in", "waist_scan.csv"],
        ["qubit", "optics", "--na", "0.4"],
        ["met", "allan", "--in", "beat_fractional.csv", "--out", "allan.csv"],
        ["met", "linewidth", "--in", "beat_spectrum.csv", "--json"],
        ["met", "vib", "--in", "vibration_fringe.csv", "--window", "0.5s", "--out", "vib.csv"],
        ["met", "image-fit", "--in", "ion_image.csv"],
        ["report", "table1", "--measured", "attenuation_50hz_measured.csv", "--rrr", "10",
         "--out", "table1.csv"],
    ]
    order = rng_for(seed, "cli-order").permutation(len(commands))
    return [commands[i] for i in order]


def out_file(command: list[str]) -> str | None:
    """The ``--out`` path of a command, if it has one."""
    return command[command.index("--out") + 1] if "--out" in command else None


# ---------------------------------------------------------------------------
# trap design sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapDesign:
    center_half_width: float
    rail_width: float
    gap: float
    rf_voltage: float
    rf_omega: float
    dc_segments: int
    dc_voltages: dict | None


#: designs per block; see trap_designs
TRAP_BLOCK = 16


def trap_designs(seed: int, count: int) -> list[TrapDesign]:
    """``count`` trap designs in blocks of TRAP_BLOCK.

    Each block spreads every parameter evenly over its range (a Latin
    hypercube) and holds half designs without DC, a quarter with symmetric
    and a quarter with asymmetric DC within +/-5 V, each kind split evenly
    between 1 and 3 segments.  Design cost varies about twofold with the
    geometry, so a run sees nearly the same mix however many blocks it
    reaches.
    """
    rng = rng_for(seed, "trap")
    designs = []
    while len(designs) < count:
        designs += _design_block(rng)
    return designs[:count]


def _design_block(rng) -> list[TrapDesign]:
    n = TRAP_BLOCK
    kinds = ["none"] * (n // 2) + ["symmetric"] * (n // 4) + ["asymmetric"] * (n // 4)
    segments = [1, 3] * (n // 2)
    u = {name: strata(rng, n) for name in ("g", "rail", "gap", "volts", "freq")}
    block = []
    for i in rng.permutation(n):
        kind, n_dc = kinds[i], 2 * segments[i]
        if kind == "none":
            volts = None
        elif kind == "symmetric":
            # mirror pairs share a voltage: index k (right) and segments+k (left)
            side = rng.uniform(-5.0, 5.0, size=segments[i])
            volts = {k: float(side[k % segments[i]]) for k in range(n_dc)}
        else:
            volts = {k: float(v) for k, v in enumerate(rng.uniform(-5.0, 5.0, size=n_dc))}
        block.append(TrapDesign(
            center_half_width=float(_between(u["g"][i], 20e-6, 150e-6)),
            rail_width=float(_between(u["rail"][i], 40e-6, 120e-6)),
            gap=float(_between(u["gap"][i], 5e-6, 15e-6)),
            rf_voltage=float(_between(u["volts"][i], 50.0, 250.0)),
            rf_omega=float(2 * math.pi * _between(u["freq"][i], 20e6, 60e6)),
            dc_segments=segments[i], dc_voltages=volts))
    return block


# ---------------------------------------------------------------------------
# measurement scans with known truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scan:
    family: str        # one of SCAN_FAMILIES
    path: str
    columns: tuple
    signal: bool
    truth: dict        # true parameters; empty for no-signal scans


def _scan_data(rng, family: str, rows: int, signal: bool):
    """Columns and true parameters of one scan."""
    if family == "waist":
        w = rng.uniform(2e-6, 10e-6)
        x = np.linspace(-2.5 * w, 2.5 * w, rows) + rng.uniform(-0.3, 0.3) * w
        peak = 2 * math.pi * rng.uniform(50e3, 200e3)
        if signal:
            om = peak * np.exp(-((x / w) ** 2)) * (1 + rng.normal(scale=0.01, size=rows))
        else:
            om = np.abs(rng.normal(loc=0.05 * peak, scale=0.01 * peak, size=rows))
        return {"position_m": x, "rabi_rad_s": om}, {"waist": w}
    if family == "ramsey":
        t1e = rng.uniform(5e-3, 50e-3)
        t = np.linspace(0.0, 1.7 * t1e, rows)
        if signal:
            c = rng.uniform(0.85, 0.97) * np.exp(-((t / t1e) ** 2))
            c = c + rng.normal(scale=0.01, size=rows)
        else:
            c = rng.normal(loc=0.5, scale=0.02, size=rows)
        return {"wait_s": t, "contrast": np.clip(c, 0.0, 1.0)}, {"t_1e": t1e}
    if family == "heating":
        rate = rng.uniform(0.5, 20.0)
        t = np.linspace(0.0, rng.uniform(2.0, 10.0) / rate, rows)
        n0 = rng.uniform(0.05, 0.5)
        slope = rate if signal else 0.0
        n = n0 + slope * t + rng.normal(scale=0.01 * rate * t[-1], size=rows)
        return {"wait_s": t, "nbar": n}, {"rate": rate}
    if family == "image":
        sigma_px = rng.uniform(1.5, 4.0)
        px = np.arange(rows, dtype=float)
        center = 0.5 * (rows - 1) + rng.uniform(-0.2, 0.2) * (rows - 6 * sigma_px)
        amp = rng.uniform(500.0, 2000.0) if signal else 0.0
        counts = rng.poisson(50.0 + amp * np.exp(-0.5 * ((px - center) / sigma_px) ** 2))
        return ({"pixel": px, "counts": counts.astype(float)},
                {"width_m": sigma_px * 16e-6 / 15.0})
    if family == "linewidth":
        fwhm = rng.uniform(0.5, 5.0)
        f0 = rng.uniform(150.0, 250.0)
        span = 6.0 * fwhm
        f = np.linspace(f0 - span, f0 + span, rows) + rng.uniform(-0.3, 0.3) * fwhm
        amp = 1.0 if signal else 0.0
        s = amp * (fwhm / 2) ** 2 / ((f - f0) ** 2 + (fwhm / 2) ** 2) + 0.01
        return ({"freq_hz": f, "power": s * (1.0 + rng.normal(scale=0.02, size=rows))},
                {"fwhm_hz": fwhm})
    if family == "regime":
        # the top of the band sits near -70 dB, so the -58 dB floor censors the end
        if not signal:
            f = np.geomspace(1.0, 400.0, rows)
            return ({"freq_hz": f, "atten_db": rng.normal(loc=-1.0, scale=0.1, size=rows)},
                    {})
        if rng.uniform() < 0.5:
            a = rng.uniform(3.0, 12.0)
            f = np.geomspace(1.0, (70.0 / a) ** 2, rows)
            db = -a * np.sqrt(f)
            truth = {"regime": "skin_limited", "a": a}
        else:
            s, b = rng.uniform(0.5, 2.0), rng.uniform(-30.0, -5.0)
            f = np.geomspace(1.0, 10.0 ** ((b + 70.0) / (20.0 * s)), rows)
            db = b - 20.0 * s * np.log10(f)
            truth = {"regime": "contact_limited", "s": s}
        db = np.clip(db + rng.normal(scale=0.1, size=rows), -58.0, 0.0)
        return {"freq_hz": f, "atten_db": db}, truth
    raise ValueError(family)


#: rows per scan by family, drawn log-uniformly; together they span 5-400
SCAN_ROWS = {"waist": (5, 60), "ramsey": (5, 60), "heating": (5, 40),
             "image": (24, 400), "linewidth": (25, 400), "regime": (8, 16)}


def _scan_pool(rng, count: int, signal: bool, directory: str) -> list[Scan]:
    """``count`` scans split evenly over the families, in random order."""
    families = [SCAN_FAMILIES[i % len(SCAN_FAMILIES)] for i in range(count)]
    u = np.empty(count)
    for family in SCAN_FAMILIES:
        members = [i for i, f in enumerate(families) if f == family]
        u[members] = strata(rng, len(members))
    pool = []
    for i, family in enumerate(families):
        lo, hi = SCAN_ROWS[family]
        rows = int(round(math.exp(_between(u[i], math.log(lo), math.log(hi)))))
        columns, truth = _scan_data(rng, family, rows, signal)
        path = os.path.join(directory, f"{'scan' if signal else 'noise'}{i:04d}_{family}.csv")
        write_csv(path, columns)
        pool.append(Scan(family=family, path=path, columns=tuple(columns), signal=signal,
                         truth=truth if signal else {}))
    return [pool[i] for i in rng.permutation(count)]


def scans(seed: int, directory: str) -> list[Scan]:
    """The scan workload's op sequence, with its CSV files in ``directory``.

    Every NOSIGNAL_EVERY-th op is a no-signal scan.  Signal ops cycle through
    SIGNAL_SCANS distinct scans.  The sequence holds NOSIGNAL_SCANS distinct
    no-signal scans, each once: their cost varies tenfold from scan to scan,
    and the slowest ops set the tail latency, so repeating a few of them
    would make the tail depend on which few the seed drew.
    """
    rng = rng_for(seed, "scans")
    signal = _scan_pool(rng, SIGNAL_SCANS, True, directory)
    nosignal = _scan_pool(rng, NOSIGNAL_SCANS, False, directory)
    sequence = []
    for k in range(NOSIGNAL_EVERY * NOSIGNAL_SCANS):
        if k % NOSIGNAL_EVERY == NOSIGNAL_EVERY - 1:
            sequence.append(nosignal[k // NOSIGNAL_EVERY])
        else:
            sequence.append(signal[(k - k // NOSIGNAL_EVERY) % SIGNAL_SCANS])
    return sequence
