"""Command-line frontend.

Every numeric flag accepts a unit suffix ("--freq 50Hz", "--radius 19.5cm");
the same unit can be given separately ("--freq 50 --freq-unit Hz"), and bare
numbers are read as SI base units; a negative value may follow its flag
("--x -1cm").  ``main`` turns every such flag into an SI
float before the handler runs.  Exit codes: 0 success, 1 computation or
input-data error, 2 usage error (unknown flags, malformed units, or a unit of
the wrong dimension, "%" and "dB" included).

Reports are deterministic: no timestamps, numbers rendered with %.12g, and
file outputs carry ``#`` provenance comments (tool version, input hashes).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .csvio import fmt, provenance_lines, read_table, read_timeseries, render_table, write_table
from .errors import CryoionError, DomainError, UnitError
from .units import (CONSTANTS, DIMENSIONLESS, HENRY, HERTZ, HZ_PER_TESLA, KELVIN,
                    LITER_PER_HOUR, METER, SECOND, SIEMENS_PER_METER, TESLA, VOLT,
                    format_si, parse_si)

#: documented mount geometry for the default conduction-load report: the thin
#: stainless cylinder between the inner (20 K) and outer (80 K) shields must
#: stay below 0.2 W, which a 40 mm diameter, 0.5 mm wall, 120 mm long tube
#: satisfies.  Only the 0.5 mm wall is a published number; the rest is a
#: documented plausible assumption and is echoed in the report.
DEFAULT_MOUNT = {"diameter": 40e-3, "wall": 0.5e-3, "length": 120e-3,
                 "t_cold": 20.0, "t_hot": 80.0}


# ---------------------------------------------------------------------------
# unit-suffixed flags
# ---------------------------------------------------------------------------


def add_quantity_flag(parser, flag: str, dims, unit_label: str, help_text: str,
                      default: float | None = None, required: bool = False) -> None:
    """Register ``--flag`` plus a hidden ``--flag-unit`` companion.

    The expected dimension and the SI default travel through the parser
    defaults, so the same flag name may carry different meanings on
    different subcommands; ``main`` turns the flag into its SI float before
    the handler runs.
    """
    parser.add_argument(flag, default=None, required=required, metavar="VALUE",
                        help=f"{help_text} [{unit_label}]"
                             + (f" (default {default:g})" if default is not None else ""))
    parser.add_argument(flag + "-unit", default=None, help=argparse.SUPPRESS)
    dest = flag.lstrip("-").replace("-", "_")
    parser.set_defaults(**{dest + "_spec": (dims, unit_label, default)})


#: a token that starts like a negative number ("-1cm", "-0.1V", "-1e-3"): no
#: option of this CLI starts with a digit, so such a token is always a value
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1cm`` into ``--flag=-1cm``.

    argparse reads a token that starts with "-" and is not a plain number
    as an option, so without this a negative unit-suffixed value after its
    flag would be a usage error unless written with "=".
    """
    out = []
    for token in argv:
        last = out[-1] if out else ""
        if (last.startswith("--") and last != "--" and "=" not in last
                and _NEGATIVE_VALUE.match(token)):
            out[-1] = f"{last}={token}"
        else:
            out.append(token)
    return out


def _resolve_quantity_flags(args) -> None:
    """Replace each registered flag's string, or its default, by an SI float."""
    for spec in [key for key in vars(args) if key.endswith("_spec")]:
        dest = spec[:-len("_spec")]
        dims, unit_label, default = getattr(args, spec)
        raw, unit = getattr(args, dest), getattr(args, dest + "_unit")
        flag = "--" + dest.replace("_", "-")
        if raw is not None and unit is not None:
            try:
                float(raw)
            except ValueError as exc:
                raise UnitError(f"{flag}: with {flag}-unit the value must be a bare number") from exc
            raw = f"{raw} {unit}"
        setattr(args, dest, default if raw is None else parse_si(raw, dims, flag, unit_label))


def _emit(args, lines, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _maybe_write(args, columns, comments) -> list[str]:
    out = getattr(args, "out", None)
    if out is None:
        return []
    write_table(out, columns, comments)
    return [f"wrote {out}"]


# ---------------------------------------------------------------------------
# shield
# ---------------------------------------------------------------------------


def _conductor_from(args):
    from . import shielding

    return shielding.ConductorSpec(sigma_293k=args.sigma, rrr=args.rrr, mu_r=args.mu_r)


def cmd_shield_skin_depth(args) -> int:
    from . import shielding

    delta = shielding.skin_depth(args.freq, _conductor_from(args), args.temp)
    _emit(args, [f"skin depth = {format_si(delta, 'm', 2)} ({fmt(delta)} m)"],
          {"skin_depth_m": delta})
    return 0


def cmd_shield_attenuation(args) -> int:
    from . import shielding

    layer = shielding.ShieldLayer(thickness=args.thickness, conductor=_conductor_from(args),
                                  temperature=args.temp)
    freq = args.freq
    db = shielding.attenuation_skin(layer, freq)
    delta = shielding.skin_depth(freq, layer.conductor, layer.temperature)
    _emit(args, [f"skin-effect attenuation = {fmt(db)} dB at {fmt(freq)} Hz "
                 f"(skin depth {format_si(delta, 'm')})"],
          {"attenuation_db": db, "skin_depth_m": delta})
    return 0


def cmd_shield_fit(args) -> int:
    from . import shielding

    table = read_table(args.infile, ["freq_hz", "atten_db"])
    curve = shielding.AttenuationCurve(freqs_hz=tuple(table["freq_hz"]),
                                       atten_db=tuple(table["atten_db"]),
                                       floor_db=args.floor)
    fit = shielding.fit_attenuation_regime(curve, extrapolate_to_hz=args.extrapolate_to)
    lines = [f"regime = {fit.regime}" + (" (ambiguous)" if fit.ambiguous else ""),
             f"extrapolated attenuation at {fmt(fit.extrapolate_to_hz)} Hz = "
             f"{fmt(fit.extrapolated_db)} dB",
             f"skin model: {fmt(fit.skin_db)} dB, contact model: {fmt(fit.contact_db)} dB",
             f"points used = {fit.n_used}, censored at floor = {fit.n_censored}"]
    payload = {"regime": fit.regime, "ambiguous": fit.ambiguous,
               "extrapolate_to_hz": fit.extrapolate_to_hz,
               "extrapolated_db": fit.extrapolated_db,
               "skin_db": fit.skin_db, "contact_db": fit.contact_db,
               "n_used": fit.n_used, "n_censored": fit.n_censored}
    _emit(args, lines, payload)
    return 0


def cmd_shield_budget(args) -> int:
    from . import shielding

    budget = shielding.field_noise_budget(sensitivity_hz_per_t=args.sensitivity,
                                          linewidth_hz=args.linewidth,
                                          quantization_field_t=args.field)
    _emit(args, [f"field noise budget = {format_si(budget.b_max_t, 'T', 2)} "
                 f"({fmt(budget.b_max_t)} T)",
                 f"relative stability = {budget.relative_stability:.2g} "
                 f"({fmt(budget.relative_stability)})"],
          {"b_max_t": budget.b_max_t, "relative_stability": budget.relative_stability})
    return 0


# ---------------------------------------------------------------------------
# coil
# ---------------------------------------------------------------------------


def _pair_from(args):
    from . import coils

    _check_count(args.turns, "--turns")
    separation = args.radius if args.separation is None else args.separation
    return coils.CoilPair(radius=args.radius, separation=separation,
                          turns=args.turns, current=args.current)


def cmd_coil_field(args) -> int:
    from . import coils

    pair = _pair_from(args)
    b = coils.coil_field(pair, (args.x, args.y, args.z))
    mag = float(np.linalg.norm(b))
    _emit(args, [f"B = ({fmt(b[0])}, {fmt(b[1])}, {fmt(b[2])}) T",
                 f"|B| = {format_si(mag, 'T')} ({fmt(mag)} T)"],
          {"b_t": [float(v) for v in b], "b_mag_t": mag})
    return 0


def cmd_coil_homogeneity(args) -> int:
    from . import coils

    pair = _pair_from(args)
    worst = coils.coil_homogeneity(pair, args.extent, args.samples)
    center = float(np.linalg.norm(coils.coil_field(pair, (0.0, 0.0, 0.0))))
    _emit(args, [f"center field = {format_si(center, 'T')} ({fmt(center)} T)",
                 f"max relative deviation over {format_si(args.extent, 'm')} "
                 f"axial extent = {fmt(worst)}"],
          {"center_field_t": center, "max_relative_deviation": worst})
    return 0


# ---------------------------------------------------------------------------
# cryo
# ---------------------------------------------------------------------------


def cmd_cryo_load(args) -> int:
    from . import thermal

    k_table = None
    material = thermal.MATERIAL_SS316
    if args.k_table is not None:
        tab = read_table(args.k_table, ["temperature_k", "k_w_per_m_k"])
        k_table = (tab["temperature_k"], tab["k_w_per_m_k"])
        material = thermal.MATERIAL_CUSTOM
    support = thermal.SupportSpec.thin_cylinder(
        diameter_m=args.diameter, wall_m=args.wall, length_m=args.length,
        t_cold_k=args.t_cold, t_hot_k=args.t_hot, material=material, k_table=k_table)
    load = thermal.conduction_load(support)
    geom = (f"assumed geometry: tube diameter {format_si(args.diameter, 'm')}, "
            f"wall {format_si(args.wall, 'm')}, "
            f"length {format_si(args.length, 'm')}, "
            f"material {'custom table' if k_table is not None else 'SS316'}")
    _emit(args, [geom,
                 f"conduction load {fmt(support.t_cold_k)} K to {fmt(support.t_hot_k)} K = "
                 f"{format_si(load, 'W')} ({fmt(load)} W)"],
          {"load_w": load, "cross_section_m2": support.cross_section_m2,
           "t_cold_k": support.t_cold_k, "t_hot_k": support.t_hot_k})
    return 0


def cmd_cryo_boiloff(args) -> int:
    from . import thermal

    coolant = {"helium": thermal.LIQUID_HELIUM, "nitrogen": thermal.LIQUID_NITROGEN}[args.coolant]
    rate_l_per_h = args.rate * 1000.0 * 3600.0  # args.rate is in m^3/s
    power = thermal.boiloff_power(rate_l_per_h, coolant)
    _emit(args, [f"boil-off heat load = {format_si(power, 'W', 2)} ({fmt(power)} W) "
                 f"for {fmt(rate_l_per_h)} l/h of {coolant.name}"],
          {"power_w": power, "rate_l_per_h": rate_l_per_h, "coolant": coolant.name})
    return 0


# ---------------------------------------------------------------------------
# trap
# ---------------------------------------------------------------------------


def cmd_trap_solve(args) -> int:
    from . import trap

    layout, species = trap.load_layout(args.layout)
    sol = trap.find_rf_null(layout, species)
    _emit(args, [f"rf null at x = {format_si(sol.null_position[0], 'm')}, "
                 f"height = {format_si(sol.height, 'm')} ({fmt(sol.height)} m)"],
          {"null_x_m": float(sol.null_position[0]), "height_m": sol.height,
           "species": species.label})
    return 0


def _dc_setting(text: str) -> tuple[int, float]:
    """Parse one ``--set IDX=VOLTS``; a malformed one is a usage error (exit 2)."""
    key, _, val = text.partition("=")
    try:
        return int(key), parse_si(val, VOLT, "--set", "V")
    except (ValueError, UnitError):
        raise argparse.ArgumentTypeError(f"expected IDX=VOLTS, got {text!r}") from None


def cmd_trap_spectrum(args) -> int:
    from . import trap

    layout, species = trap.load_layout(args.layout)
    voltages = dict(args.set or [])
    sol = trap.secular_spectrum(layout, species, dc_voltages=voltages or None)
    lines = [f"height = {format_si(sol.height, 'm')}",
             "secular frequencies = "
             + ", ".join(format_si(f, "Hz") for f in sol.secular_freqs_hz),
             "stability q = " + ", ".join(f"{q:.4g}" for q in sol.q_params),
             f"trap depth = {fmt(sol.trap_depth_ev)} eV"]
    if sol.unstable_axes:
        lines.append(f"UNSTABLE axes: {list(sol.unstable_axes)}")
    _emit(args, lines,
          {"height_m": sol.height, "secular_freqs_hz": list(sol.secular_freqs_hz),
           "q_params": list(sol.q_params), "trap_depth_ev": sol.trap_depth_ev,
           "unstable_axes": list(sol.unstable_axes), "species": species.label})
    return 0


def cmd_trap_resonator(args) -> int:
    from . import trap

    cap, freq = args.capacitance, args.freq
    if (cap is None) == (freq is None):
        raise UnitError("give exactly one of --capacitance or --freq")
    if cap is None:
        cap = trap.resonator_capacitance(args.inductance, freq)
        _emit(args, [f"load capacitance = {format_si(cap, 'F')} ({fmt(cap)} F)"],
              {"capacitance_f": cap})
    else:
        freq = trap.resonance_frequency(args.inductance, cap)
        _emit(args, [f"resonance frequency = {format_si(freq, 'Hz')} ({fmt(freq)} Hz)"],
              {"resonance_hz": freq})
    return 0


def cmd_trap_spacing(args) -> int:
    from . import trap

    species = trap.SPECIES[args.species]
    spacing = trap.two_ion_spacing(species, args.freq)
    _emit(args, [f"two-ion spacing = {format_si(spacing, 'm')} ({fmt(spacing)} m)"],
          {"spacing_m": spacing, "species": species.label})
    return 0


# ---------------------------------------------------------------------------
# qubit
# ---------------------------------------------------------------------------


def cmd_qubit_rabi(args) -> int:
    from . import qubit

    _check_count(args.points, "--points")
    state = qubit.PhononState(nbar=args.nbar)
    drive = qubit.DriveParams(rabi_frequency=2.0 * math.pi * args.rabi,
                              lamb_dicke=args.eta)
    times = np.linspace(0.0, args.tmax, args.points)
    signal = qubit.carrier_rabi_signal(state, drive, times, model=args.model)
    comments = provenance_lines(__version__) + [
        f"carrier flopping: nbar={fmt(args.nbar)} eta={fmt(args.eta)} "
        f"rabi={fmt(args.rabi)} Hz model={args.model}"]
    if not signal.lamb_dicke_valid:
        comments.append("warning: Lamb-Dicke parameter outside validity range (eta >= 0.5)")
    columns = {"t_s": signal.times, "p_excited": signal.excitation}
    if args.out is not None:
        write_table(args.out, columns, comments)
        _emit(args, [f"wrote {args.out}"], {"out": args.out, "n": int(times.size)})
    else:
        sys.stdout.write(render_table(columns, comments))
    return 0


def cmd_qubit_thermometry(args) -> int:
    from . import qubit

    nbar = qubit.sideband_ratio_to_nbar(args.ratio)
    _emit(args, [f"nbar = {fmt(nbar)} (sideband ratio {fmt(args.ratio)})"], {"nbar": nbar})
    return 0


def cmd_qubit_heating_fit(args) -> int:
    from . import qubit

    table = read_table(args.infile, ["wait_s", "nbar"])
    res = qubit.heating_rate_fit(table["wait_s"], table["nbar"])
    rate, sig = res.params["rate"], res.sigma("rate")
    _emit(args, [f"heating rate = {fmt(rate)} +/- {fmt(sig)} phonons/s "
                 f"(intercept {fmt(res.params['intercept'])}, "
                 f"converged={res.converged})"],
          {"rate_phonons_per_s": rate, "rate_sigma": sig,
           "intercept": res.params["intercept"], "converged": res.converged})
    return 0


def cmd_qubit_ramsey_fit(args) -> int:
    from . import qubit

    table = read_table(args.infile, ["wait_s", "contrast"])
    res = qubit.ramsey_contrast_fit(table["wait_s"], table["contrast"], shape=args.shape)
    _emit(args, [f"contrast 1/e time = {format_si(res.t_1e, 's')} ({fmt(res.t_1e)} s), "
                 f"shape {res.shape}"
                 + (" [UNCONSTRAINED]" if res.unconstrained else "")],
          {"t_1e_s": res.t_1e, "contrast0": res.contrast0, "shape": res.shape,
           "unconstrained": res.unconstrained})
    return 0


def cmd_qubit_waist_fit(args) -> int:
    from . import qubit

    table = read_table(args.infile, ["position_m", "rabi_rad_s"])
    res = qubit.waist_from_rabi_scan(table["position_m"], table["rabi_rad_s"])
    _emit(args, [f"beam waist = {format_si(res.profile.waist, 'm')} "
                 f"({fmt(res.profile.waist)} m) at "
                 f"{format_si(res.profile.center, 'm')}"
                 + (" [UNCONSTRAINED]" if res.unconstrained else "")],
          {"waist_m": res.profile.waist, "center_m": res.profile.center,
           "peak_rabi_rad_s": res.profile.peak_rabi, "unconstrained": res.unconstrained})
    return 0


def cmd_qubit_optics(args) -> int:
    from . import qubit

    eff = qubit.collection_efficiency(args.na)
    waist = qubit.diffraction_limited_waist(args.wavelength, args.na)
    _emit(args, [f"collection efficiency = {100.0 * eff:.2g} % ({fmt(eff)})",
                 f"diffraction-limited waist = {format_si(waist, 'm')} ({fmt(waist)} m)"],
          {"collection_efficiency": eff, "diffraction_waist_m": waist, "na": args.na})
    return 0


# ---------------------------------------------------------------------------
# met
# ---------------------------------------------------------------------------


def _default_taus(dt: float, n_phase: int) -> np.ndarray:
    taus = []
    m = 1
    while 2 * m + 1 <= n_phase:
        taus.append(m * dt)
        m *= 2
    return np.array(taus)


def cmd_met_allan(args) -> int:
    from . import metrology

    taus = None
    if args.taus is not None:
        taus = np.array([parse_si(tok, SECOND, "--taus", "s") for tok in args.taus.split(",")])
    series = read_timeseries(args.infile, "t_s", "y")
    record = metrology.FrequencyRecord(kind=args.kind, series=series)
    if taus is None:
        taus = _default_taus(series.dt, record.phase_seconds().size)
    taus, sigmas = metrology.allan_deviation(record, taus)
    comments = provenance_lines(__version__, [args.infile]) + [
        f"overlapping allan deviation, kind={args.kind}"]
    lines = [f"tau {fmt(t)} s: sigma_y = {fmt(s)}" for t, s in zip(taus, sigmas)]
    lines += _maybe_write(args, {"tau_s": taus, "sigma_y": sigmas}, comments)
    _emit(args, lines, {"tau_s": [float(v) for v in taus],
                        "sigma_y": [float(v) for v in sigmas]})
    return 0


def cmd_met_linewidth(args) -> int:
    from . import metrology

    table = read_table(args.infile, ["freq_hz", "power"])
    res = metrology.lorentzian_linewidth_fit(table["freq_hz"], table["power"])
    _emit(args, [f"lorentzian fwhm = {fmt(res.fwhm_hz)} Hz "
                 f"+/- {fmt(res.fit.sigma('fwhm'))} Hz at "
                 f"{fmt(res.center_hz)} Hz"
                 + (" [UNCONSTRAINED]" if res.unconstrained else "")],
          {"fwhm_hz": res.fwhm_hz, "center_hz": res.center_hz,
           "unconstrained": res.unconstrained})
    return 0


def cmd_met_vib(args) -> int:
    from . import metrology

    _check_count(args.peaks, "--peaks")
    series = read_timeseries(args.infile, "t_s", "v")
    cal = metrology.InterferometerCal(wavelength=args.wavelength,
                                      volts_per_fringe=args.volts_per_fringe,
                                      quadrature_offset=args.offset)
    inv = metrology.fringe_to_displacement(series, cal)
    stats = metrology.excursion_stats(inv.displacement, args.window)
    freqs, psd = metrology.power_spectrum(inv.displacement, window=args.window_fn)
    peaks = metrology.peak_find(freqs, psd, count=args.peaks,
                                min_separation=args.min_separation)
    comments = provenance_lines(__version__, [args.infile]) + [
        f"displacement spectrum, window={args.window_fn}"]
    lines = [f"max |x| over {fmt(stats.window_s)} s windows = "
             f"{format_si(stats.max_abs, 'm')} ({fmt(stats.max_abs)} m)",
             f"peak-to-peak = {format_si(stats.peak_to_peak, 'm')}",
             f"drift = {format_si(stats.drift, 'm')}",
             "peaks: " + ", ".join(format_si(p, "Hz") for p in peaks),
             f"clipped fraction = {fmt(inv.clipped_fraction)}"]
    lines += _maybe_write(args, {"freq_hz": freqs, "psd": psd}, comments)
    _emit(args, lines,
          {"max_abs_m": stats.max_abs, "peak_to_peak_m": stats.peak_to_peak,
           "drift_m": stats.drift, "peaks_hz": [float(p) for p in peaks],
           "clipped_fraction": inv.clipped_fraction})
    return 0


def cmd_met_image_fit(args) -> int:
    from . import metrology

    table = read_table(args.infile, ["pixel", "counts"])
    profile = metrology.ImageProfile(pixel_counts=table["counts"],
                                     pixel_pitch=args.pitch,
                                     magnification=args.magnification)
    res = metrology.gaussian_profile_fit(profile, axis=args.axis)
    _emit(args, [f"gaussian width = {format_si(res.width_m, 'm')} ({fmt(res.width_m)} m) "
                 f"at {format_si(res.center_m, 'm')}"
                 + (" [UNCONSTRAINED]" if res.unconstrained else "")],
          {"width_m": res.width_m, "center_m": res.center_m,
           "unconstrained": res.unconstrained})
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report_table1(args) -> int:
    from . import shielding

    table = read_table(args.measured, ["temperature_k", "measured_db", "extrapolated"])
    conductor = _conductor_from(args)
    freq = args.freq
    thickness = args.thickness
    modeled = np.array([shielding.attenuation_skin(
        shielding.ShieldLayer(thickness=thickness, conductor=conductor, temperature=t), freq)
        for t in table["temperature_k"]])
    comments = provenance_lines(__version__, [args.measured]) + [
        f"skin-effect model: wall {format_si(thickness, 'm')}, "
        f"sigma(293K)={fmt(conductor.sigma_293k)} S/m, rrr={fmt(conductor.rrr)}",
        f"attenuation of {format_si(freq, 'Hz')} fields vs inner-shield temperature",
        "measured column: extrapolated=1 marks values beyond the sensor floor"]
    columns = {"temperature_k": table["temperature_k"],
               "measured_db": table["measured_db"],
               "modeled_skin_db": modeled,
               "extrapolated": table["extrapolated"]}
    lines = [f"{'T [K]':>8}  {'measured [dB]':>14}  {'skin model [dB]':>16}  note"]
    for t, meas, mod, ex in zip(table["temperature_k"], table["measured_db"], modeled,
                                table["extrapolated"]):
        note = "extrapolated" if ex else "measured"
        lines.append(f"{fmt(t):>8}  {fmt(meas):>14}  {fmt(mod):>16}  {note}")
    lines += _maybe_write(args, columns, comments)
    _emit(args, lines,
          {"temperature_k": [float(v) for v in table["temperature_k"]],
           "measured_db": [float(v) for v in table["measured_db"]],
           "modeled_skin_db": [float(v) for v in modeled]})
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type for a plain float flag; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _check_count(value: int, flag: str) -> None:
    if value < 1:
        raise DomainError(f"{flag} must be a positive integer, got {value}")


def _leaf(ops, name, func, help_text):
    p = ops.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return p


def _add_conductor_flags(p) -> None:
    add_quantity_flag(p, "--sigma", SIEMENS_PER_METER, "S/m",
                      "room-temperature conductivity", default=5.96e7)
    p.add_argument("--rrr", type=_finite_float, default=1.0,
                   help="residual resistivity ratio (default 1)")
    p.add_argument("--mu-r", type=_finite_float, default=1.0,
                   help="relative permeability (default 1)")


def _build_shield(ops) -> None:
    p = _leaf(ops, "skin-depth", cmd_shield_skin_depth, "skin depth of a conductor")
    add_quantity_flag(p, "--freq", HERTZ, "Hz", "field frequency", required=True)
    add_quantity_flag(p, "--temp", KELVIN, "K", "wall temperature", default=293.0)
    _add_conductor_flags(p)
    p = _leaf(ops, "attenuation", cmd_shield_attenuation, "skin-effect wall attenuation")
    add_quantity_flag(p, "--freq", HERTZ, "Hz", "field frequency", required=True)
    add_quantity_flag(p, "--thickness", METER, "m", "wall thickness", required=True)
    add_quantity_flag(p, "--temp", KELVIN, "K", "wall temperature", default=293.0)
    _add_conductor_flags(p)
    p = _leaf(ops, "fit", cmd_shield_fit, "classify a measured attenuation curve")
    p.add_argument("--in", dest="infile", required=True, help="CSV with freq_hz,atten_db")
    add_quantity_flag(p, "--floor", DIMENSIONLESS, "dB", "sensor floor", default=-58.0)
    add_quantity_flag(p, "--extrapolate-to", HERTZ, "Hz", "extrapolation frequency",
                      default=50.0)
    p = _leaf(ops, "budget", cmd_shield_budget, "field-noise budget for a transition")
    add_quantity_flag(p, "--linewidth", HERTZ, "Hz", "transition linewidth", required=True)
    add_quantity_flag(p, "--sensitivity", HZ_PER_TESLA, "Hz/T", "field sensitivity",
                      required=True)
    add_quantity_flag(p, "--field", TESLA, "T", "quantization bias field", required=True)


def _build_coil(ops) -> None:
    for name, func, help_text in (("field", cmd_coil_field, "field of a coaxial pair"),
                                  ("homogeneity", cmd_coil_homogeneity,
                                   "axial field homogeneity")):
        p = _leaf(ops, name, func, help_text)
        add_quantity_flag(p, "--radius", METER, "m", "loop radius", required=True)
        add_quantity_flag(p, "--separation", METER, "m",
                          "loop separation (default: radius, Helmholtz)")
        p.add_argument("--turns", type=int, default=1, help="turns per loop (default 1)")
        add_quantity_flag(p, "--current", (0, 0, 0, 1, 0), "A", "loop current", default=1.0)
        if name == "field":
            add_quantity_flag(p, "--x", METER, "m", "field point x", default=0.0)
            add_quantity_flag(p, "--y", METER, "m", "field point y", default=0.0)
            add_quantity_flag(p, "--z", METER, "m", "field point z", default=0.0)
        else:
            add_quantity_flag(p, "--extent", METER, "m", "axial segment length",
                              required=True)
            p.add_argument("--samples", type=int, default=201,
                           help="axial sample count (default 201)")


def _build_cryo(ops) -> None:
    p = _leaf(ops, "load", cmd_cryo_load, "conduction load of the trap mount")
    add_quantity_flag(p, "--diameter", METER, "m", "tube diameter",
                      default=DEFAULT_MOUNT["diameter"])
    add_quantity_flag(p, "--wall", METER, "m", "tube wall thickness",
                      default=DEFAULT_MOUNT["wall"])
    add_quantity_flag(p, "--length", METER, "m", "tube length",
                      default=DEFAULT_MOUNT["length"])
    add_quantity_flag(p, "--t-cold", KELVIN, "K", "cold end", default=DEFAULT_MOUNT["t_cold"])
    add_quantity_flag(p, "--t-hot", KELVIN, "K", "hot end", default=DEFAULT_MOUNT["t_hot"])
    p.add_argument("--k-table", default=None,
                   help="CSV temperature_k,k_w_per_m_k overriding the SS316 fit")
    p = _leaf(ops, "boiloff", cmd_cryo_boiloff, "heat load from cryogen consumption")
    add_quantity_flag(p, "--rate", LITER_PER_HOUR, "l/h", "boil-off rate", required=True)
    p.add_argument("--coolant", choices=("helium", "nitrogen"), default="helium")


def _build_trap(ops) -> None:
    from . import trap

    p = _leaf(ops, "solve", cmd_trap_solve, "locate the RF null")
    p.add_argument("--layout", required=True, help="INI layout file")
    p = _leaf(ops, "spectrum", cmd_trap_spectrum, "secular frequencies and depth")
    p.add_argument("--layout", required=True, help="INI layout file")
    p.add_argument("--set", action="append", type=_dc_setting, metavar="IDX=VOLTS",
                   help="DC electrode voltage, repeatable")
    p = _leaf(ops, "resonator", cmd_trap_resonator, "LC resonator arithmetic")
    add_quantity_flag(p, "--inductance", HENRY, "H", "coil inductance", required=True)
    add_quantity_flag(p, "--capacitance", (-2, -1, 4, 2, 0), "F", "load capacitance")
    add_quantity_flag(p, "--freq", HERTZ, "Hz", "resonance frequency")
    p = _leaf(ops, "spacing", cmd_trap_spacing, "two-ion equilibrium spacing")
    add_quantity_flag(p, "--freq", HERTZ, "Hz", "axial secular frequency", required=True)
    p.add_argument("--species", choices=sorted(trap.SPECIES), default="Ca40")


def _build_qubit(ops) -> None:
    from . import qubit

    p = _leaf(ops, "rabi", cmd_qubit_rabi, "thermal carrier flopping curve")
    p.add_argument("--nbar", type=_finite_float, required=True, help="mean phonon occupation")
    add_quantity_flag(p, "--rabi", HERTZ, "Hz", "carrier Rabi frequency Omega/2pi",
                      required=True)
    p.add_argument("--eta", type=_finite_float, default=0.0, help="Lamb-Dicke parameter")
    add_quantity_flag(p, "--tmax", SECOND, "s", "trace length", required=True)
    p.add_argument("--points", type=int, default=500, help="samples (default 500)")
    p.add_argument("--model", choices=(qubit.RABI_LINEAR, qubit.RABI_LAGUERRE),
                   default=qubit.RABI_LINEAR)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p = _leaf(ops, "thermometry", cmd_qubit_thermometry, "sideband-ratio thermometry")
    p.add_argument("--ratio", type=_finite_float, required=True, help="red/blue sideband ratio")
    p = _leaf(ops, "heating-fit", cmd_qubit_heating_fit, "linear heating-rate fit")
    p.add_argument("--in", dest="infile", required=True, help="CSV with wait_s,nbar")
    p = _leaf(ops, "ramsey-fit", cmd_qubit_ramsey_fit, "Ramsey contrast decay fit")
    p.add_argument("--in", dest="infile", required=True, help="CSV with wait_s,contrast")
    p.add_argument("--shape", choices=(qubit.RAMSEY_GAUSSIAN, qubit.RAMSEY_EXPONENTIAL),
                   default=qubit.RAMSEY_GAUSSIAN)
    p = _leaf(ops, "waist-fit", cmd_qubit_waist_fit, "addressing-beam waist fit")
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV with position_m,rabi_rad_s")
    p = _leaf(ops, "optics", cmd_qubit_optics, "collection and addressing budgets")
    p.add_argument("--na", type=_finite_float, required=True, help="numerical aperture")
    add_quantity_flag(p, "--wavelength", METER, "m", "addressing wavelength",
                      default=CONSTANTS.wavelength_qubit_ca)


def _build_met(ops) -> None:
    from . import metrology

    p = _leaf(ops, "allan", cmd_met_allan, "overlapping Allan deviation")
    p.add_argument("--in", dest="infile", required=True, help="CSV with t_s,y")
    p.add_argument("--kind", choices=(metrology.KIND_FRACTIONAL, metrology.KIND_PHASE),
                   default=metrology.KIND_FRACTIONAL)
    p.add_argument("--taus", default=None,
                   help="comma list of averaging times (default: powers of two)")
    p.add_argument("--out", default=None, help="write tau_s,sigma_y CSV here")
    p = _leaf(ops, "linewidth", cmd_met_linewidth, "Lorentzian beat-note linewidth")
    p.add_argument("--in", dest="infile", required=True, help="CSV with freq_hz,power")
    p = _leaf(ops, "vib", cmd_met_vib, "fringe record to displacement, spectrum, peaks")
    p.add_argument("--in", dest="infile", required=True, help="CSV with t_s,v")
    add_quantity_flag(p, "--wavelength", METER, "m", "interferometer wavelength",
                      default=633e-9)
    add_quantity_flag(p, "--volts-per-fringe", VOLT, "V", "fringe amplitude", default=1.0)
    add_quantity_flag(p, "--offset", VOLT, "V", "quadrature offset", default=0.0)
    add_quantity_flag(p, "--window", SECOND, "s", "excursion window", default=2.0)
    p.add_argument("--window-fn", choices=(metrology.WINDOW_HANN, metrology.WINDOW_RECT),
                   default=metrology.WINDOW_HANN, help="spectral window (default hann)")
    p.add_argument("--peaks", type=int, default=3, help="number of peaks to report")
    add_quantity_flag(p, "--min-separation", HERTZ, "Hz", "peak separation", default=5.0)
    p.add_argument("--out", default=None, help="write freq_hz,psd CSV here")
    p = _leaf(ops, "image-fit", cmd_met_image_fit, "ion-image Gaussian profile fit")
    p.add_argument("--in", dest="infile", required=True, help="CSV with pixel,counts")
    add_quantity_flag(p, "--pitch", METER, "m", "camera pixel pitch", default=16e-6)
    p.add_argument("--magnification", type=_finite_float, default=15.0)
    p.add_argument("--axis", choices=(metrology.AXIS_ROW, metrology.AXIS_COLUMN),
                   default=metrology.AXIS_ROW)


def _build_report(ops) -> None:
    p = _leaf(ops, "table1", cmd_report_table1,
              "measured vs modeled 50 Hz attenuation by shield temperature")
    p.add_argument("--measured", required=True,
                   help="CSV with temperature_k,measured_db,extrapolated")
    add_quantity_flag(p, "--thickness", METER, "m", "wall thickness", default=20e-3)
    add_quantity_flag(p, "--freq", HERTZ, "Hz", "line frequency", default=50.0)
    _add_conductor_flags(p)
    p.add_argument("--out", default=None, help="write the table as CSV here")


#: group -> (help text, builder of its subcommands)
GROUPS = {
    "shield": ("magnetic shielding", _build_shield),
    "coil": ("bias-field coils", _build_coil),
    "cryo": ("cryogenic heat budget", _build_cryo),
    "trap": ("surface trap electrostatics", _build_trap),
    "qubit": ("qubit dynamics and fits", _build_qubit),
    "met": ("metrology pipelines", _build_met),
    "report": ("composite reports", _build_report),
}


def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The ``cryoion`` parser with every group registered.

    Only ``group``'s subcommands are built, or every group's when ``group``
    is None; top-level help and group errors read the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="cryoion",
        description="Models and measurement pipelines for a cryogenic ion-trap apparatus.")
    parser.add_argument("--version", action="version", version=f"cryoion {__version__}")
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")
    for name, (help_text, build) in GROUPS.items():
        ops = groups.add_parser(name, help=help_text).add_subparsers(
            dest="op", required=True, metavar="OP")
        if group is None or group == name:
            build(ops)
    return parser


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser(argv[0] if argv and argv[0] in GROUPS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _resolve_quantity_flags(args)
        return args.func(args)
    except UnitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CryoionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
