#!/usr/bin/env python3
"""cryoion benchmark: three seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

* ``cli_cold``: each op is a fresh ``python -m cryoion ...`` subprocess,
  cycling through the README's demo commands over generated inputs.
* ``trap_design``: each op is an in-process ``trap.secular_spectrum`` on a
  seeded five-wire layout.
* ``scan_fits``: each op is an in-process ``csvio.read_table`` of a short
  scan plus its public fit.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs every input untraced and traced, in alternating order, and reports
per-layer metrics from spans around cryoion's public functions.  Untraced
op and set-up times are scaled to a reference host speed by speed probes run
beside them; see scaled_latencies().  The last line of stdout is one JSON
object; the exit code is 0 only when every op passed its correctness check.
See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_cold", "trap_design", "scan_fits")
clock = time.perf_counter

SETUP_REPEATS = 5        # set-up probes per run; setup_s is their median
MAX_WINDOWS = 6          # see windows()
WINDOW_OPS = 500
IMPORTTIME_REPEATS = 3   # -X importtime probes per traced run
CHILD_TIMEOUT_S = 60.0
#: distinct trap designs per seed, eight Latin-hypercube blocks: about as
#: many as a run has ops, so that the median and tail op are not set by the
#: cost of a few designs that differ from seed to seed
TRAP_POOL = 128
#: calls per in-process speed probe, and the op time between probes; see
#: probe_time() and warm_loop()
PROBE_CALLS = 80
PROBE_EVERY_S = 0.1
#: about the probe kernel's fastest time on a two-core x86-64 VM (Python
#: 3.11.7, numpy 2.4.6); any fixed value would do, as it only sets the scale
PROBE_REFERENCE_S = 44e-6
#: the reference child, speed probe of cli_cold's ops and of every set-up
#: time, and about its fastest time on that VM
REFERENCE_CHILD = ("-c", "import numpy")
REFERENCE_CHILD_S = 0.115
#: fit iterations are averaged over this many leading scan ops, which every
#: traced run completes, so that they repeat exactly for a seed
ITERATION_OPS = 2000
#: a signal scan must recover its true parameter within this relative error
SCAN_TOLERANCE = 0.10
#: first Mathieu stability region for a = 0 ends at q = 0.908
MATHIEU_Q_MAX = 0.908

FIT_FAMILIES = gen.SCAN_FAMILIES + ("nosignal",)
CLI_FAMILIES = {("qubit", "waist-fit"): "waist", ("qubit", "ramsey-fit"): "ramsey",
                ("qubit", "heating-fit"): "heating", ("met", "image-fit"): "image",
                ("met", "linewidth"): "linewidth", ("shield", "fit"): "regime"}

END_TO_END = {"ops_per_s": "op/s", "latency_p50_s": "s", "latency_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"import.{k}_s": "s" for k in
             ("total", "scipy", "numpy", "cryoion", "other", "cryoion.trap", "cryoion.qubit")}
    units.update({"cli.main.self_s": "s", "cli.process_s": "s"})
    for name in ("trap.find_rf_null", "trap.secular_spectrum", "trap.pseudopotential",
                 "fitting.lm_fit", "csvio.read_table", "csvio.write_table"):
        units[name + ".calls"] = "calls/op"
        units[name + ".self_s"] = "s"
    units.update({"trap.load_layout.self_s": "s", "trap.rf_field.per_point_s": "s",
                  "trap.unstable_ratio": "ratio", "trap.mathieu_unstable_ratio": "ratio"})
    for family in FIT_FAMILIES:
        units[f"fitting.{family}.self_s"] = "s"
        units[f"fitting.{family}.iterations_mean"] = "iterations"
    units["fitting.unconstrained_ratio"] = "ratio"
    units.update({"csvio.read_table.rows": "rows", "csvio.write_table.rows": "rows",
                  "csvio.read_timeseries.self_s": "s", "csvio.render_table.self_s": "s"})
    for name in ("metrology.allan_deviation", "metrology.power_spectrum",
                 "metrology.fringe_to_displacement", "metrology.excursion_stats",
                 "qubit.carrier_rabi_signal", "coils.coil_homogeneity",
                 "shielding.fit_attenuation_regime"):
        units[name + ".self_s"] = "s"
    units.update({"units.parse_quantity.calls": "calls/op", "trace.overhead_ratio": "ratio",
                  "trace.target_layer_share": "ratio", "trace.spans_per_op": "spans/op"})
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha()}


def import_cryoion() -> None:
    """Import cryoion from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cryoion

    if Path(cryoion.__file__).resolve().parent != (SRC / "cryoion").resolve():
        raise SystemExit(f"error: imported cryoion from {cryoion.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(latencies) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, i.e. the 11th largest latency (the largest if there are fewer)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def best_times(latencies, inputs) -> tuple[list[float], float]:
    """Each input's least op time over a run, and the passes made over them.

    A run that cycles through a fixed list of inputs meets each several
    times, some seconds apart.  The host's speed wanders, sometimes for
    seconds at a time; an input's best time is the one such a spell of load
    missed, as with ``timeit``.
    """
    best: dict = {}
    for key, t in zip(inputs, latencies):
        best[key] = min(t, best.get(key, t))
    return list(best.values()), len(inputs) / len(best)


def probe_time() -> float:
    """How fast the host runs this process now: the mean time of
    PROBE_CALLS calls of a fixed kernel of about 50 us.

    On a shared host the CPU this process gets slows by up to twofold for
    seconds or minutes at a time, so that one trap op reads anything from
    0.3 to 0.7 s, and even its fastest moments differ from one spell to the
    next by a fifth.  An op's time divided by the kernel's mean time around
    it (see warm_loop()) is the op's cost in kernel units, which
    PROBE_REFERENCE_S turns back into seconds.  The kernel does what the
    trap solver's inner loop does, arctangents of small numpy arrays, but is
    the benchmark's own, so no change to cryoion moves it.
    """
    import numpy as np

    u = np.linspace(-6e-5, 4e-5, 64)
    v = u + 3e-5
    z = 6e-5
    times = []
    for _ in range(PROBE_CALLS):
        t0 = clock()
        for _ in range(8):
            np.arctan(u * v / (z * np.sqrt(u * u + v * v + z * z))).sum()
        times.append(clock() - t0)
    return statistics.fmean(times)


def windows(latencies) -> list[list[float]]:
    """Consecutive runs of ops, as many (up to MAX_WINDOWS) as leave each at
    least WINDOW_OPS ops.

    The host's speed wanders, sometimes for seconds at a time.  A median over
    windows keeps such a burst out of throughput and tail latency when a run
    has ops enough to split; the 11th largest of a whole long run would be
    set by whichever slow ops a burst happened to hit.
    """
    n = len(latencies)
    count = max(1, min(MAX_WINDOWS, n // WINDOW_OPS))
    bounds = [round(i * n / count) for i in range(count + 1)]
    return [latencies[a:b] for a, b in zip(bounds, bounds[1:])]


class LayerStats:
    """Per-layer aggregates over traced ops: calls per op, self time per call."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.info = defaultdict(list)
        self.family_self = defaultdict(float)
        self.family_calls = defaultdict(int)
        self.family_iterations = defaultdict(list)
        self.ops = 0
        self.spans = 0

    def add(self, span_list, family_of, iteration_ops=None):
        """Add spans; iterations count only for ops before ``iteration_ops``."""
        for s, own in zip(span_list, spans.self_times(span_list)):
            name = s[spans.NAME]
            self.calls[name] += 1
            self.self_s[name] += own
            if s[spans.INFO] is not None:
                self.info[name].append(s[spans.INFO])
            family = family_of(s[spans.OP])
            if name == "fitting.lm_fit" and family:
                self.family_self[family] += own
                self.family_calls[family] += 1
                if iteration_ops is None or s[spans.OP] < iteration_ops:
                    self.family_iterations[family].append(s[spans.INFO])
        self.spans += len(span_list)

    def metrics(self) -> dict:
        out = {}
        ops = max(self.ops, 1)
        for name in self.calls:
            out[name + ".calls"] = self.calls[name] / ops
            out[name + ".self_s"] = self.self_s[name] / self.calls[name]
        for name in ("csvio.read_table", "csvio.write_table"):
            if self.info[name]:
                out[name + ".rows"] = statistics.fmean(self.info[name])
        for family in self.family_calls:
            out[f"fitting.{family}.self_s"] = self.family_self[family] / self.family_calls[family]
            if self.family_iterations[family]:
                out[f"fitting.{family}.iterations_mean"] = statistics.fmean(
                    self.family_iterations[family])
        out["trace.spans_per_op"] = self.spans / ops
        return out


def importtime_metrics(work: Path) -> dict:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cryoion.cli"],
                              cwd=work, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import cryoion.cli failed: {proc.stderr[-400:]}")
        runs.append(spans.import_breakdown(proc.stderr))
    return {f"import.{k}_s": statistics.median(r[k] for r in runs) for k in runs[0]}


def rf_field_per_point() -> float:
    """Median seconds per ``trap.rf_field`` call over a fixed 16x16 x-z grid."""
    from cryoion import trap

    layout, _ = trap.five_wire_layout(55e-6, rail_width=70e-6, gap=5e-6)
    points = [(x, 0.0, z) for x in [i * 12e-6 - 90e-6 for i in range(16)]
              for z in [20e-6 + j * 12e-6 for j in range(16)]]
    times = []
    for _ in range(7):
        t0 = clock()
        for p in points:
            trap.rf_field(layout, p)
        times.append((clock() - t0) / len(points))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------


def run_child(argv, **popen_args) -> int:
    """Run a child process to its end and return its exit code.

    The wait blocks in waitpid, so a timed child ends when it exits; waiting
    with a timeout would poll, in sleeps of up to 50 ms.  A timer kills a
    child that outlives CHILD_TIMEOUT_S, and a child still running when the
    wait is interrupted is killed too.
    """
    proc = subprocess.Popen(argv, **popen_args)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def reference_child(work: Path) -> float:
    """Wall time of a fresh interpreter importing numpy, which no cryoion
    code can reach: the speed probe of child processes (see
    scaled_latencies())."""
    t0 = clock()
    code = run_child([sys.executable, *REFERENCE_CHILD], cwd=work,
                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"reference child exited {code}")
    return clock() - t0


def setup_cold(work: Path) -> list[tuple[float, float]]:
    """Wall time of fresh ``python -c "import cryoion.cli"`` processes, each
    with the time of a reference child run right after it."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = clock()
        code = run_child([sys.executable, "-c", "import cryoion.cli"], cwd=work,
                         env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"python -c 'import cryoion.cli' exited {code}")
        if i:  # the first one may compile bytecode; users do not pay that each time
            times.append((clock() - t0, reference_child(work)))
    return times


def setup_warm(work: Path) -> list[tuple[float, float]]:
    """Time from starting a fresh interpreter to being ready for a first op,
    i.e. to having imported cryoion, each with the time of a reference child
    run right after it."""
    code = "import sys, cryoion; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = clock()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=work, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            elapsed = clock() - t0
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not import cryoion")
        if i:
            times.append((elapsed, reference_child(work)))
    return times


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Outcome:
    """What a workload leaves: op times, failures, set-up times, memory and,
    when traced, spans and per-layer numbers."""

    def __init__(self):
        self.latencies: list[float] = []         # untraced op times
        self.inputs: list[int] = []              # the input of each untraced op
        self.best_of_passes = False              # see best_times()
        self.reference_s: float | None = None    # see scaled_latencies()
        self.probe_means: list[float] = []       # speed probe's time around each op
        self.traced_latencies: list[float] = []  # traced op times, same inputs
        self.failed = 0
        self.setup: list[tuple[float, float]] = []  # (set-up time, reference child time)
        self.peak_rss_mb = 0.0
        self.spans: list[list] = []
        self.layers = LayerStats()
        self.layer_metrics: dict = {}  # per-layer numbers not taken from spans

    def fail(self, what: str) -> bool:
        if self.failed < 5:
            print(f"op failed: {what}", file=sys.stderr)
        self.failed += 1
        return False


def closed_loop(items, seconds: float, trace: bool, run, out: Outcome) -> int:
    """One client: each op starts when the previous one has ended.

    ``run(k, item, traced)`` performs op ``k`` and returns its time.  Traced,
    each input runs once with and once without the span wrappers, in
    alternating order, so the overhead ratio compares the same inputs under
    the same host conditions.  Returns the number of inputs used.
    """
    deadline = clock() + seconds
    k = 0
    while clock() < deadline:
        item = items[k % len(items)]
        modes = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        for traced in modes:
            (out.traced_latencies if traced else out.latencies).append(run(k, item, traced))
            if not traced:
                out.inputs.append(k % len(items))
        k += 1
    return k


def cli_cold(seed: int, seconds: float, trace: bool, work: Path, out: Outcome) -> None:
    gen.cli_inputs(seed, str(work))
    commands = gen.cli_commands(seed)
    env = child_env()
    stdout_path, stderr_path, spans_path = work / "stdout", work / "stderr", work / "spans.json"
    reference: dict = {}
    families, process, import_share = {}, [], []
    out.setup = setup_cold(work)
    out.best_of_passes = True
    out.reference_s = None if trace else REFERENCE_CHILD_S
    probes: list[float] = []

    def execute(command, traced) -> tuple[float, bool]:
        out_name = gen.out_file(command)
        out_path = work / out_name if out_name else None
        if out_path and out_path.exists():
            out_path.unlink()
        argv = ([sys.executable, str(BENCH / "cli_driver.py"), str(spans_path), *command]
                if traced else [sys.executable, "-m", "cryoion", *command])
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            t0 = clock()
            code = run_child(argv, cwd=work, env=env, stdout=so, stderr=se)
            wall = clock() - t0
        output = (stdout_path.read_bytes(),
                  out_path.read_bytes() if out_path and out_path.exists() else None)
        what = " ".join(command)
        if code != 0 or not output[0] or (out_path and output[1] is None):
            return wall, out.fail(f"{what}: exit {code}, "
                                  f"{stderr_path.read_text(errors='replace')[-300:]}")
        if "--json" in command:
            try:
                json.loads(output[0])
            except ValueError:
                return wall, out.fail(f"{what}: stdout is not JSON")
        if reference.setdefault(tuple(command), output) != output:
            return wall, out.fail(f"{what}: output differs from its first run")
        return wall, True

    def run(k, command, traced) -> float:
        if out.reference_s:
            probes.append(reference_child(work))
        wall, ok = execute(command, traced)
        if traced and ok:
            record = json.loads(spans_path.read_text())
            base = len(out.spans)
            for span in record["spans"]:
                span[spans.OP] = k
                if span[spans.PARENT] >= 0:
                    span[spans.PARENT] += base
            out.spans.extend(record["spans"])
            families[k] = CLI_FAMILIES.get(tuple(command[:2]))
            process.append(wall - record["import_s"] - record["install_s"]
                           - record["main_s"] - record["dump_s"])
            import_share.append(record["import_s"] / wall)
        return wall

    closed_loop(commands, seconds, trace, run, out)
    if out.reference_s:
        probes.append(reference_child(work))
        out.probe_means = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if trace and families:
        out.layers.ops = len(families)
        out.layers.add(out.spans, families.get)
        out.layer_metrics = {"cli.process_s": statistics.median(process),
                             "trace.target_layer_share": statistics.median(import_share)}


def mathieu_q(trap, layout, species, point) -> list[float]:
    """Mathieu q of each principal axis, 2 e sigma_i / (m Omega^2), from the
    singular values sigma_i of the RF field Jacobian at ``point``; the
    Jacobian is a central difference of the public ``trap.rf_field``."""
    import numpy as np

    h = 1e-3 * point[2]
    jac = np.empty((3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        jac[:, j] = (trap.rf_field(layout, point + step)
                     - trap.rf_field(layout, point - step)) / (2 * h)
    sigma = np.sort(np.linalg.svd(jac, compute_uv=False))
    return [2 * species.charge_c * s / (species.mass_kg * layout.rf_omega ** 2) for s in sigma]


def trap_design(seed: int, seconds: float, trace: bool, work: Path, out: Outcome) -> None:
    import numpy as np
    from cryoion import trap

    items = [(d, trap.five_wire_layout(d.center_half_width, rail_width=d.rail_width,
                                       gap=d.gap, rf_voltage=d.rf_voltage,
                                       rf_omega=d.rf_omega, dc_segments=d.dc_segments)[0])
             for d in gen.trap_designs(seed, TRAP_POOL)]
    unstable, mathieu = [], []
    out.reference_s = None if trace else PROBE_REFERENCE_S

    def op(item):
        design, layout = item
        return trap.secular_spectrum(layout, trap.CA40, dc_voltages=design.dc_voltages)

    def check(item, sol) -> str | None:
        design, layout = item
        null = sol.null_position
        if abs(null[0]) > 1e-9:
            return f"null at x = {null[0]:.3g} m, off the axis"
        if np.linalg.norm(trap.rf_field(layout, null)) * sol.height / design.rf_voltage >= 1e-6:
            return "field at the null is not zero"
        if not all(math.isfinite(f) for f in sol.secular_freqs_hz):
            return f"non-finite secular frequencies {sol.secular_freqs_hz}"
        reference = mathieu_q(trap, layout, trap.CA40, null)
        if any(abs(q - r) > 1e-3 * max(reference) for q, r in zip(sol.q_params, reference)):
            return f"q {sol.q_params} disagrees with the field Jacobian's {reference}"
        stable = [q for i, q in enumerate(sol.q_params) if i not in sol.unstable_axes]
        if any(q < 0 for q in stable):
            return f"negative q on a stable axis: {sol.q_params}"
        unstable.append(bool(sol.unstable_axes))
        mathieu.append(any(q >= MATHIEU_Q_MAX for q in stable))
        return None

    warm_loop(items, op, check, lambda item: None, lambda name: name.startswith("trap."),
              seconds, trace, out)
    if trace and unstable:
        out.layer_metrics["trap.unstable_ratio"] = statistics.fmean(unstable)
        out.layer_metrics["trap.mathieu_unstable_ratio"] = statistics.fmean(mathieu)


def scan_fits(seed: int, seconds: float, trace: bool, work: Path, out: Outcome) -> None:
    from cryoion import csvio, metrology, qubit, shielding

    fits = {
        "waist": lambda t: qubit.waist_from_rabi_scan(t["position_m"], t["rabi_rad_s"]),
        "ramsey": lambda t: qubit.ramsey_contrast_fit(t["wait_s"], t["contrast"]),
        "heating": lambda t: qubit.heating_rate_fit(t["wait_s"], t["nbar"]),
        "image": lambda t: metrology.gaussian_profile_fit(
            metrology.ImageProfile(pixel_counts=t["counts"])),
        "linewidth": lambda t: metrology.lorentzian_linewidth_fit(t["freq_hz"], t["power"]),
        "regime": lambda t: shielding.fit_attenuation_regime(shielding.AttenuationCurve(
            freqs_hz=tuple(t["freq_hz"]), atten_db=tuple(t["atten_db"]), floor_db=-58.0)),
    }
    estimates = {
        "waist": lambda r, truth: r.profile.waist,
        "ramsey": lambda r, truth: r.t_1e,
        "heating": lambda r, truth: r.params["rate"],
        "image": lambda r, truth: r.width_m,
        "linewidth": lambda r, truth: r.fwhm_hz,
        "regime": lambda r, truth: (r.skin_fit.params["a"] if "a" in truth
                                    else r.contact_fit.params["s"] if "s" in truth
                                    else r.extrapolated_db),
    }
    flags = []
    out.reference_s = None if trace else PROBE_REFERENCE_S

    def op(scan):
        return fits[scan.family](csvio.read_table(scan.path, scan.columns))

    def check(scan, res) -> str | None:
        value = estimates[scan.family](res, scan.truth)
        if hasattr(res, "unconstrained"):
            flags.append(res.unconstrained)
        if not math.isfinite(value):
            return f"{scan.path}: non-finite estimate {value}"
        if not scan.signal:
            return None
        if scan.family == "regime" and res.regime != scan.truth["regime"]:
            return f"{scan.path}: regime {res.regime}, true {scan.truth['regime']}"
        truth = next(v for v in scan.truth.values() if not isinstance(v, str))
        if abs(value / truth - 1.0) > SCAN_TOLERANCE:
            return f"{scan.path}: estimate {value:.6g}, true {truth:.6g}"
        return None

    warm_loop(gen.scans(seed, str(work)), op, check,
              lambda scan: scan.family if scan.signal else "nosignal",
              lambda name: name == "fitting.lm_fit", seconds, trace, out)
    if trace and flags:
        out.layer_metrics["fitting.unconstrained_ratio"] = statistics.fmean(flags)


def warm_loop(items, op, check, family_of, target, seconds, trace, out: Outcome) -> None:
    """Closed loop of in-process ops over ``items``.

    ``check(item, result)`` returns an error text or None; ``family_of(item)``
    names the fit family of an op; ``target(span_name)`` picks the spans of
    the layer the workload is meant to stress.
    """
    tracer = spans.Tracer()
    patch = spans.Patch(tracer)
    families = {}
    try:
        op(items[0])  # warm-up, untimed: lazy imports and first-call caches
    except Exception:
        pass  # the timed loop meets this input again and counts the failure

    # a speed probe runs whenever PROBE_EVERY_S of op time has passed since
    # the last one; an op's probe time is the mean of the two around it
    last_probe = probe_time() if out.reference_s else 0.0
    stretch_ops, stretch_s = 0, 0.0

    def probe():
        nonlocal last_probe, stretch_ops, stretch_s
        now = probe_time()
        out.probe_means += [(last_probe + now) / 2] * stretch_ops
        last_probe, stretch_ops, stretch_s = now, 0, 0.0

    def run(k, item, traced) -> float:
        nonlocal stretch_ops, stretch_s
        families[k] = family_of(item)
        if traced:
            tracer.op = k
            patch.install()
        t0 = clock()
        try:
            result, error = (tracer.call("op", op, item) if traced else op(item)), None
        except Exception as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = clock() - t0
            if traced:
                patch.remove()
        if out.reference_s:
            stretch_ops += 1
            stretch_s += elapsed
            if stretch_s >= PROBE_EVERY_S:
                probe()
        error = error or check(item, result)
        if error:
            out.fail(error)
        return elapsed

    ops = closed_loop(items, seconds, trace, run, out)
    if stretch_ops:
        probe()
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        out.spans = tracer.spans
        out.layers.ops = ops
        out.layers.add(tracer.spans, families.get, iteration_ops=ITERATION_OPS)
        own = spans.self_times(tracer.spans)
        op_time = sum(s[spans.END] - s[spans.START] for s in tracer.spans if s[spans.NAME] == "op")
        out.layer_metrics["trace.target_layer_share"] = sum(
            o for s, o in zip(tracer.spans, own) if target(s[spans.NAME])) / op_time


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

WORKLOAD_RUNNERS = {"cli_cold": cli_cold, "trap_design": trap_design, "scan_fits": scan_fits}


def scaled_latencies(out: Outcome) -> list[float]:
    """Op times at the reference speed of the workload's speed probe.

    An op's time divided by the probe's time around it is the op's cost in
    probe units; ``out.reference_s``, about the probe's time on an idle host,
    turns that back into seconds.  Without a reference, times are as measured.
    """
    if not out.reference_s:
        return out.latencies
    return [t * out.reference_s / p for t, p in zip(out.latencies, out.probe_means)]


def end_to_end(out: Outcome) -> tuple[dict, dict]:
    """End-to-end metrics and notes on scaling and the tail percentile."""
    setup = [t * REFERENCE_CHILD_S / ref for t, ref in out.setup]
    common = {"setup_s": statistics.median(setup), "peak_rss_mb": out.peak_rss_mb}
    latencies = scaled_latencies(out)
    notes = {"setup_s": (f"at the reference speed; unscaled "
                         f"{statistics.median(t for t, _ in out.setup):.6g} s")}
    if out.reference_s:
        notes["latency_p50_s"] = (
            f"at the reference speed; the unscaled median op took "
            f"{statistics.median(out.latencies):.6g} s, with the host at "
            f"{out.reference_s / statistics.fmean(out.probe_means):.2f} of the reference speed")
    if out.best_of_passes:
        best, passes = best_times(latencies, out.inputs)
        value, percentile = tail(best)
        metrics = {"ops_per_s": len(best) / sum(best), "latency_p50_s": statistics.median(best),
                   "latency_tail_s": value, **common}
        notes["latency_tail_s"] = (
            f"p{percentile:.2f}: the {'11th largest' if len(best) > 10 else 'largest'} "
            f"of {len(best)} inputs' best times over {passes:.1f} passes")
        return metrics, notes
    parts = windows(latencies)
    tails = [tail(part) for part in parts]
    metrics = {"ops_per_s": statistics.median(len(part) / sum(part) for part in parts),
               "latency_p50_s": statistics.median(latencies),
               "latency_tail_s": statistics.median(value for value, _ in tails), **common}
    per_window = len(latencies) // len(parts)
    notes["latency_tail_s"] = (
        f"p{statistics.median(p for _, p in tails):.2f}: the "
        f"{'11th largest' if per_window > 10 else 'largest'} of {per_window} ops"
        + (f", median of {len(parts)} windows" if len(parts) > 1 else ""))
    return metrics, notes


def per_layer(out: Outcome, work: Path) -> tuple[dict, dict]:
    """Every declared per-layer metric; a layer the workload never calls reads 0."""
    found = out.layers.metrics()
    found.update(out.layer_metrics)
    found.update(importtime_metrics(work))
    found["trap.rf_field.per_point_s"] = rf_field_per_point()
    found["trace.overhead_ratio"] = (statistics.fmean(out.latencies)
                                     / statistics.fmean(out.traced_latencies))
    return {name: float(found.get(name, 0.0)) for name in PER_LAYER}, {}


def run_workload(args) -> int:
    if not (SRC / "cryoion" / "__init__.py").is_file():
        print(f"error: no cryoion sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    out = Outcome()
    try:
        if args.workload != "cli_cold" or args.trace:
            import_cryoion()
        if args.workload != "cli_cold":
            out.setup = setup_warm(work)
        WORKLOAD_RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), work, out)
        metrics, notes = per_layer(out, work) if args.trace else end_to_end(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    attempted = len(out.latencies) + len(out.traced_latencies)
    result = {"correct": out.failed == 0, "attempted": attempted, "failed": out.failed,
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    print(f"failed_ratio = {out.failed / attempted:.6g} ratio ({out.failed} of {attempted})")

    results = ROOT / ".bench_out"
    results.mkdir(exist_ok=True)
    stem = f"{results}/{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "notes": notes, **result}
    if out.reference_s:
        record["ops"] = {"time_s": out.latencies, "input": out.inputs,
                         "probe_mean_s": out.probe_means}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if out.spans:
        Path(f"{stem}-spans.json").write_text(json.dumps(out.spans))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"error: {workload} trace {trace} printed no result", file=sys.stderr)
                return 2
            result = json.loads(lines[-1])
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            summary.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its children and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
