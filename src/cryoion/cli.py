"""Command-line frontend.

Every numeric flag accepts a unit, joined to or spaced from its number inside
one argument ("--freq 50Hz", "--radius '19.5 cm'"); bare numbers are read as
SI base units; a negative value may follow its flag ("--x -1cm").  argparse
turns each value into an SI float, so a malformed one is a usage error printed
with the leaf's usage.  Exit codes: 0 success, 1 computation or input-data
error, 2 usage error (unknown flags, malformed units, or a unit of the wrong
dimension, "%" and "dB" included).

Reports are deterministic: no timestamps, numbers rendered with %.12g, and
file outputs carry ``#`` provenance comments (tool version, input hashes).
``--json`` prints one strict JSON object: a non-finite value is ``null``.

numpy and ``json`` are imported only where an array or JSON is made, so
a command that needs only scalars starts without numpy.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import __version__
from .csvio import fmt, provenance_lines, read_table, read_timeseries, render_table, write_table
from .errors import CryoionError, DomainError, UnitError
from .units import (AMPERE, CONSTANTS, DIMENSIONLESS, FARAD, HENRY, HERTZ, HZ_PER_TESLA,
                    KELVIN, LITER_PER_HOUR, METER, SECOND, SIEMENS_PER_METER, TESLA, VOLT,
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


def _si_value(flag: str, dims, unit_label: str, text: str) -> float:
    """argparse type of a quantity flag: ``text`` as an SI float; a failure
    is a usage error with ``parse_si``'s reason."""
    try:
        return parse_si(text, dims, flag, unit_label)
    except UnitError as exc:
        raise argparse.ArgumentTypeError(str(exc).removeprefix(f"{flag}: ")) from None


def add_quantity_flag(parser, flag: str, dims, unit_label: str, help_text: str,
                      default: float | None = None, required: bool = False) -> None:
    """Register ``--flag``, whose value argparse turns into an SI float of
    ``dims``; the default is already SI.  The same flag name may carry
    different dimensions on different subcommands."""
    parser.add_argument(flag, type=functools.partial(_si_value, flag, dims, unit_label),
                        default=default, required=required, metavar="VALUE",
                        help=f"{help_text} [{unit_label}]"
                             + (f" (default {default:g})" if default is not None else ""))


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


class _Text:
    """A report value in a text template: ``{key}`` is %.12g for a float and
    str() otherwise; a spec ending in a type letter (``{key:.4g}``) formats
    the float, any other (``{key:>8}``) aligns that text; ``{key:si:UNIT:SIG}``
    is ``format_si`` (SIG optional).  Lists join their elements with ", ";
    ``{key[i]}`` picks one."""

    def __init__(self, value):
        self.value = value.tolist() if hasattr(value, "tolist") else value

    def __getitem__(self, index):
        return _Text(self.value[index])

    def __format__(self, spec: str) -> str:
        value = self.value
        if isinstance(value, (list, tuple)):
            return ", ".join(format(_Text(v), spec) for v in value)
        if spec.startswith("si:"):
            unit, _, sig = spec[3:].partition(":")
            return format_si(value, unit, int(sig or 3))
        if not isinstance(value, float):
            value = str(value)
        elif not spec[-1:].isalpha():
            value = fmt(value)
        return format(value, spec)


def _plain(value):
    """A report value as strict JSON data: arrays to lists, non-finite floats to None."""
    value = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _render(args, payload: dict, text: list[str], table=None) -> None:
    """Print one command's report; every output decision is made here.

    ``payload`` is the ``--json`` object.  ``text`` holds ``format_map``
    templates (see ``_Text``) over the payload and, for echoed inputs, the
    flags.  ``table`` is ``(columns, comments)``: ``--out`` writes it and adds
    ``out`` and a ``wrote PATH`` line; a command without text lines prints it
    instead, as CSV or as JSON columns.
    """
    if table is not None:
        if args.out is not None:
            write_table(args.out, *table)
            payload, text = {**payload, "out": args.out}, [*text, "wrote {out}"]
        elif not text:
            if not args.json:
                sys.stdout.write(render_table(*table))
                return
            payload = {**payload, **table[0]}
    if args.json:
        import json

        print(json.dumps({key: _plain(v) for key, v in payload.items()},
                         sort_keys=True, allow_nan=False))
    else:
        fields = {key: _Text(v) for key, v in {**vars(args), **payload}.items()}
        print("\n".join(line.format_map(fields) for line in text))


def _fit_report(res, payload: dict, line: str):
    """A single-fit report: the fit's flags join the payload and mark the text."""
    payload.update(unconstrained=res.unconstrained, converged=res.fit.converged,
                   reason=res.fit.reason)
    return payload, [line + (" [UNCONSTRAINED]" if res.unconstrained else "")]


# ---------------------------------------------------------------------------
# shield
# ---------------------------------------------------------------------------


def _conductor_from(args):
    from . import shielding

    return shielding.ConductorSpec(sigma_293k=args.sigma, rrr=args.rrr, mu_r=args.mu_r)


def cmd_shield_skin_depth(args):
    from . import shielding

    delta = shielding.skin_depth(args.freq, _conductor_from(args), args.temp)
    return {"skin_depth_m": delta}, ["skin depth = {skin_depth_m:si:m:2} ({skin_depth_m} m)"]


def cmd_shield_attenuation(args):
    from . import shielding

    layer = shielding.ShieldLayer(thickness=args.thickness, conductor=_conductor_from(args),
                                  temperature=args.temp)
    return ({"attenuation_db": shielding.attenuation_skin(layer, args.freq),
             "skin_depth_m": shielding.skin_depth(args.freq, layer.conductor, layer.temperature)},
            ["skin-effect attenuation = {attenuation_db} dB at {freq} Hz "
             "(skin depth {skin_depth_m:si:m})"])


def cmd_shield_fit(args):
    from . import shielding

    table = read_table(args.infile, ["freq_hz", "atten_db"])
    curve = shielding.AttenuationCurve(freqs_hz=tuple(table["freq_hz"]),
                                       atten_db=tuple(table["atten_db"]), floor_db=args.floor)
    fit = shielding.fit_attenuation_regime(curve, extrapolate_to_hz=args.extrapolate_to)
    payload = {"regime": fit.regime, "ambiguous": fit.ambiguous,
               "extrapolate_to_hz": fit.extrapolate_to_hz,
               "extrapolated_db": fit.extrapolated_db,
               "skin_db": fit.skin_db, "contact_db": fit.contact_db,
               "n_used": fit.n_used, "n_censored": fit.n_censored}
    return payload, ["regime = {regime}" + (" (ambiguous)" if fit.ambiguous else ""),
                     "extrapolated attenuation at {extrapolate_to_hz} Hz = {extrapolated_db} dB",
                     "skin model: {skin_db} dB, contact model: {contact_db} dB",
                     "points used = {n_used}, censored at floor = {n_censored}"]


def cmd_shield_budget(args):
    from . import shielding

    budget = shielding.field_noise_budget(sensitivity_hz_per_t=args.sensitivity,
                                          linewidth_hz=args.linewidth,
                                          quantization_field_t=args.field)
    return ({"b_max_t": budget.b_max_t, "relative_stability": budget.relative_stability},
            ["field noise budget = {b_max_t:si:T:2} ({b_max_t} T)",
             "relative stability = {relative_stability:.2g} ({relative_stability})"])


# ---------------------------------------------------------------------------
# coil
# ---------------------------------------------------------------------------


def _pair_from(args):
    from . import coils

    _check_count(args.turns, "--turns")
    separation = args.radius if args.separation is None else args.separation
    return coils.CoilPair(radius=args.radius, separation=separation,
                          turns=args.turns, current=args.current)


def cmd_coil_field(args):
    from . import coils

    b = coils.coil_field(_pair_from(args), (args.x, args.y, args.z))
    return ({"b_t": b, "b_mag_t": math.hypot(*b)},
            ["B = ({b_t}) T", "|B| = {b_mag_t:si:T} ({b_mag_t} T)"])


def cmd_coil_homogeneity(args):
    from . import coils

    pair = _pair_from(args)
    return ({"center_field_t": math.hypot(*coils.coil_field(pair, (0.0, 0.0, 0.0))),
             "max_relative_deviation": coils.coil_homogeneity(pair, args.extent)},
            ["center field = {center_field_t:si:T} ({center_field_t} T)",
             "max relative deviation over {extent:si:m} axial extent = "
             "{max_relative_deviation}"])


# ---------------------------------------------------------------------------
# cryo
# ---------------------------------------------------------------------------


def cmd_cryo_load(args):
    from . import thermal

    k_table = None
    if args.k_table is not None:
        tab = read_table(args.k_table, ["temperature_k", "k_w_per_m_k"])
        k_table = (tab["temperature_k"], tab["k_w_per_m_k"])
    support = thermal.SupportSpec.thin_cylinder(
        diameter_m=args.diameter, wall_m=args.wall, length_m=args.length,
        t_cold_k=args.t_cold, t_hot_k=args.t_hot, k_table=k_table)
    return ({"load_w": thermal.conduction_load(support),
             "cross_section_m2": support.cross_section_m2,
             "t_cold_k": support.t_cold_k, "t_hot_k": support.t_hot_k},
            ["assumed geometry: tube diameter {diameter:si:m}, wall {wall:si:m}, "
             "length {length:si:m}, material "
             + ("custom table" if k_table is not None else "SS316"),
             "conduction load {t_cold_k} K to {t_hot_k} K = {load_w:si:W} ({load_w} W)"])


def cmd_cryo_boiloff(args):
    from . import thermal

    coolant = {"helium": thermal.LIQUID_HELIUM, "nitrogen": thermal.LIQUID_NITROGEN}[args.coolant]
    rate_l_per_h = args.rate * 1000.0 * 3600.0  # args.rate is in m^3/s
    return ({"power_w": thermal.boiloff_power(rate_l_per_h, coolant),
             "rate_l_per_h": rate_l_per_h, "coolant": coolant.name},
            ["boil-off heat load = {power_w:si:W:2} ({power_w} W) "
             "for {rate_l_per_h} l/h of {coolant}"])


# ---------------------------------------------------------------------------
# trap
# ---------------------------------------------------------------------------


def cmd_trap_solve(args):
    from . import trap

    layout, species = trap.load_layout(args.layout)
    sol = trap.find_rf_null(layout)
    return ({"null_x_m": sol.null_position[0], "height_m": sol.height,
             "species": species.label},
            ["rf null at x = {null_x_m:si:m}, height = {height_m:si:m} ({height_m} m)"])


def _dc_setting(text: str) -> tuple[int, float]:
    """Parse one ``--set IDX=VOLTS``; a malformed one is a usage error (exit 2)."""
    key, _, val = text.partition("=")
    try:
        return int(key), parse_si(val, VOLT, "--set", "V")
    except (ValueError, UnitError):
        raise argparse.ArgumentTypeError(f"expected IDX=VOLTS, got {text!r}") from None


def cmd_trap_spectrum(args):
    from . import trap

    voltages = {}
    for index, volts in args.set or []:
        if index in voltages:
            raise UnitError(f"--set: DC index {index} is given more than once")
        voltages[index] = volts
    layout, species = trap.load_layout(args.layout)
    sol = trap.secular_spectrum(layout, species, dc_voltages=voltages or None)
    text = ["height = {height_m:si:m}", "secular frequencies = {secular_freqs_hz:si:Hz}",
            "stability q = {q_params:.4g}", "trap depth = {trap_depth_ev} eV"]
    if sol.unstable_axes:
        text.append("UNSTABLE axes: [{unstable_axes}]")
    return ({"height_m": sol.height, "secular_freqs_hz": sol.secular_freqs_hz,
             "q_params": sol.q_params, "trap_depth_ev": sol.trap_depth_ev,
             "unstable_axes": sol.unstable_axes, "species": species.label}, text)


def cmd_trap_resonator(args):
    from . import species

    cap, freq = args.capacitance, args.freq
    if (cap is None) == (freq is None):
        raise UnitError("give exactly one of --capacitance or --freq")
    if cap is None:
        return ({"capacitance_f": species.resonator_capacitance(args.inductance, freq)},
                ["load capacitance = {capacitance_f:si:F} ({capacitance_f} F)"])
    return ({"resonance_hz": species.resonance_frequency(args.inductance, cap)},
            ["resonance frequency = {resonance_hz:si:Hz} ({resonance_hz} Hz)"])


def cmd_trap_spacing(args):
    from . import species

    ion = species.SPECIES[args.species]
    return ({"spacing_m": species.two_ion_spacing(ion, args.freq), "species": ion.label},
            ["two-ion spacing = {spacing_m:si:m} ({spacing_m} m)"])


# ---------------------------------------------------------------------------
# qubit
# ---------------------------------------------------------------------------


def cmd_qubit_rabi(args):
    import numpy as np

    from . import qubit

    _check_count(args.points, "--points")
    if not args.tmax > 0:
        raise DomainError(f"--tmax must be positive, got {args.tmax:g} s")
    state = qubit.PhononState(nbar=args.nbar)
    drive = qubit.DriveParams(rabi_frequency=2.0 * math.pi * args.rabi, lamb_dicke=args.eta)
    times = np.linspace(0.0, args.tmax, args.points)
    signal = qubit.carrier_rabi_signal(state, drive, times, model=args.model)
    comments = provenance_lines(__version__) + [
        f"carrier flopping: nbar={fmt(args.nbar)} eta={fmt(args.eta)} "
        f"rabi={fmt(args.rabi)} Hz model={args.model}"]
    if not signal.lamb_dicke_valid:
        comments.append("warning: Lamb-Dicke parameter outside validity range (eta >= 0.5)")
    columns = {"t_s": signal.times, "p_excited": signal.excitation}
    return {"n": times.size}, [], (columns, comments)


def cmd_qubit_thermometry(args):
    from . import qubit

    return ({"nbar": qubit.sideband_ratio_to_nbar(args.ratio)},
            ["nbar = {nbar} (sideband ratio {ratio})"])


def cmd_qubit_heating_fit(args):
    from . import qubit

    table = read_table(args.infile, ["wait_s", "nbar"])
    res = qubit.heating_rate_fit(table["wait_s"], table["nbar"])
    return ({"rate_phonons_per_s": res.params["rate"], "rate_sigma": res.sigma("rate"),
             "intercept": res.params["intercept"], "converged": res.converged,
             "reason": res.reason},
            ["heating rate = {rate_phonons_per_s} +/- {rate_sigma} phonons/s "
             "(intercept {intercept}, converged={converged})"])


def cmd_qubit_ramsey_fit(args):
    from . import qubit

    table = read_table(args.infile, ["wait_s", "contrast"])
    res = qubit.ramsey_contrast_fit(table["wait_s"], table["contrast"], shape=args.shape)
    return _fit_report(res, {"t_1e_s": res.t_1e, "t_1e_sigma_s": res.fit.sigma("t_1e"),
                             "contrast0": res.contrast0, "shape": res.shape},
                       "contrast 1/e time = {t_1e_s:si:s} ({t_1e_s} s), shape {shape}")


def cmd_qubit_waist_fit(args):
    from . import qubit

    table = read_table(args.infile, ["position_m", "rabi_rad_s"])
    res = qubit.waist_from_rabi_scan(table["position_m"], table["rabi_rad_s"])
    return _fit_report(res, {"waist_m": res.profile.waist,
                             "waist_sigma_m": res.fit.sigma("waist"),
                             "center_m": res.profile.center,
                             "peak_rabi_rad_s": res.profile.peak_rabi},
                       "beam waist = {waist_m:si:m} ({waist_m} m) at {center_m:si:m}")


def cmd_qubit_optics(args):
    from . import qubit

    eff = qubit.collection_efficiency(args.na)
    return ({"collection_efficiency": eff, "na": args.na,
             "diffraction_waist_m": qubit.diffraction_limited_waist(args.wavelength, args.na)},
            [f"collection efficiency = {100.0 * eff:.2g} % ({{collection_efficiency}})",
             "diffraction-limited waist = {diffraction_waist_m:si:m} ({diffraction_waist_m} m)"])


# ---------------------------------------------------------------------------
# met
# ---------------------------------------------------------------------------


def _default_taus(dt: float, n_phase: int) -> np.ndarray:
    import numpy as np

    taus = []
    m = 1
    while 2 * m + 1 <= n_phase:
        taus.append(m * dt)
        m *= 2
    return np.array(taus)


def cmd_met_allan(args):
    import numpy as np

    from . import metrology

    series = read_timeseries(args.infile, "t_s", "y")
    record = metrology.FrequencyRecord(kind=args.kind, series=series)
    taus = (_default_taus(series.dt, record.phase_seconds().size) if args.taus is None
            else np.array(args.taus))
    taus, sigmas = metrology.allan_deviation(record, taus)
    comments = provenance_lines(__version__, [args.infile]) + [
        f"overlapping allan deviation, kind={args.kind}"]
    columns = {"tau_s": taus, "sigma_y": sigmas}
    text = [f"tau {{tau_s[{i}]}} s: sigma_y = {{sigma_y[{i}]}}" for i in range(len(taus))]
    return columns, text, (columns, comments)


def cmd_met_linewidth(args):
    from . import metrology

    table = read_table(args.infile, ["freq_hz", "power"])
    res = metrology.lorentzian_linewidth_fit(table["freq_hz"], table["power"])
    return _fit_report(res, {"fwhm_hz": res.fwhm_hz, "fwhm_sigma_hz": res.fit.sigma("fwhm"),
                             "center_hz": res.center_hz},
                       "lorentzian fwhm = {fwhm_hz} Hz +/- {fwhm_sigma_hz} Hz at {center_hz} Hz")


def cmd_met_vib(args):
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
    return ({"max_abs_m": stats.max_abs, "peak_to_peak_m": stats.peak_to_peak,
             "drift_m": stats.drift, "peaks_hz": peaks, "window_s": stats.window_s,
             "clipped_fraction": inv.clipped_fraction},
            ["max |x| over {window_s} s windows = {max_abs_m:si:m} ({max_abs_m} m)",
             "peak-to-peak = {peak_to_peak_m:si:m}", "drift = {drift_m:si:m}",
             "peaks: {peaks_hz:si:Hz}", "clipped fraction = {clipped_fraction}"],
            ({"freq_hz": freqs, "psd": psd}, comments))


def cmd_met_image_fit(args):
    from . import metrology

    table = read_table(args.infile, ["pixel", "counts"])
    profile = metrology.ImageProfile(pixel_counts=table["counts"], pixel_pitch=args.pitch,
                                     magnification=args.magnification)
    res = metrology.gaussian_profile_fit(profile)
    return _fit_report(res, {"width_m": res.width_m, "center_m": res.center_m,
                             "width_sigma_m": res.fit.sigma("sigma") * profile.object_plane_pitch},
                       "gaussian width = {width_m:si:m} ({width_m} m) at {center_m:si:m}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report_table1(args):
    import numpy as np

    from . import shielding

    table = read_table(args.measured, ["temperature_k", "measured_db", "extrapolated"])
    conductor = _conductor_from(args)
    modeled = np.array([shielding.attenuation_skin(shielding.ShieldLayer(
        thickness=args.thickness, conductor=conductor, temperature=t), args.freq)
        for t in table["temperature_k"]])
    comments = provenance_lines(__version__, [args.measured]) + [
        f"skin-effect model: wall {format_si(args.thickness, 'm')}, "
        f"sigma(293K)={fmt(conductor.sigma_293k)} S/m, rrr={fmt(conductor.rrr)}",
        f"attenuation of {format_si(args.freq, 'Hz')} fields vs inner-shield temperature",
        "measured column: extrapolated=1 marks values beyond the sensor floor"]
    payload = {"temperature_k": table["temperature_k"], "measured_db": table["measured_db"],
               "modeled_skin_db": modeled}
    text = [f"{'T [K]':>8}  {'measured [dB]':>14}  {'skin model [dB]':>16}  note"]
    text += [f"{{temperature_k[{i}]:>8}}  {{measured_db[{i}]:>14}}  {{modeled_skin_db[{i}]:>16}}  "
             + ("extrapolated" if ex else "measured")
             for i, ex in enumerate(table["extrapolated"])]
    return payload, text, ({**payload, "extrapolated": table["extrapolated"]}, comments)


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
        add_quantity_flag(p, "--current", AMPERE, "A", "loop current", default=1.0)
        if name == "field":
            add_quantity_flag(p, "--x", METER, "m", "field point x", default=0.0)
            add_quantity_flag(p, "--y", METER, "m", "field point y", default=0.0)
            add_quantity_flag(p, "--z", METER, "m", "field point z", default=0.0)
        else:
            add_quantity_flag(p, "--extent", METER, "m", "axial segment length",
                              required=True)


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
    from . import species

    p = _leaf(ops, "solve", cmd_trap_solve, "locate the RF null")
    p.add_argument("--layout", required=True, help="INI layout file")
    p = _leaf(ops, "spectrum", cmd_trap_spectrum, "secular frequencies and depth")
    p.add_argument("--layout", required=True, help="INI layout file")
    p.add_argument("--set", action="append", type=_dc_setting, metavar="IDX=VOLTS",
                   help="DC electrode voltage, repeatable")
    p = _leaf(ops, "resonator", cmd_trap_resonator, "LC resonator arithmetic")
    add_quantity_flag(p, "--inductance", HENRY, "H", "coil inductance", required=True)
    add_quantity_flag(p, "--capacitance", FARAD, "F", "load capacitance")
    add_quantity_flag(p, "--freq", HERTZ, "Hz", "resonance frequency")
    p = _leaf(ops, "spacing", cmd_trap_spacing, "two-ion equilibrium spacing")
    add_quantity_flag(p, "--freq", HERTZ, "Hz", "axial secular frequency", required=True)
    p.add_argument("--species", choices=sorted(species.SPECIES), default="Ca40")


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
    p.add_argument("--taus", type=lambda text: [_si_value("--taus", SECOND, "s", token)
                                                for token in text.split(",")],
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


class _LeafParser(argparse.ArgumentParser):
    """The parser of one ``GROUP OP`` leaf.  It reports an argument it does
    not know itself, with its own usage, where argparse would leave it to the
    top-level parser, whose usage names no flag of the leaf."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


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
            dest="op", required=True, metavar="OP", parser_class=_LeafParser)
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
        _render(args, *args.func(args))
        return 0
    except UnitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CryoionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
