"""The committed benchmark's traced fit and trap workloads run and see their layers.

The traced run wraps ``fitting.lm_fit`` and ``csvio.read_table`` where the
program looks them up, so a fit that binds them differently, or an
``lm_fit`` result without integer ``iterations``, shows up here as a failed
run or as a family whose iteration mean is 0.  Likewise it wraps the trap
solver's public ``find_rf_null`` and ``secular_spectrum`` in the module, so
a spectrum that stops calling the null search through the module shows up
as a layer with no calls.  Every distinct scan of the fit workload is also
fitted once in process, where the suite turns warnings into errors.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

from cryoion import csvio

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload):
    """The result line of a one-second traced bench run of ``workload``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_scan_fits_run_is_correct_and_sees_every_family():
    result = traced_run("scan_fits")
    assert result["correct"] is True
    assert result["failed"] == 0
    for family in ("heating", "regime"):
        assert result["metrics"][f"fitting.{family}.iterations_mean"]["value"] > 0, family
    # the peak fits, which pass lm_fit its peak keyword, and the no-signal scans
    for family in ("waist", "image", "linewidth", "nosignal"):
        assert result["metrics"][f"fitting.{family}.iterations_mean"]["value"] > 0, family


def test_traced_trap_design_run_is_correct_and_sees_the_solver():
    result = traced_run("trap_design")
    assert result["correct"] is True
    assert result["failed"] == 0
    for layer in ("trap.find_rf_null", "trap.secular_spectrum"):
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer


#: family -> the estimate the benchmark checks; the fit of each family is
#: ``FITS`` of ``scripts/fit_records.py``
ESTIMATES = {
    "waist": lambda r: r.profile.waist,
    "ramsey": lambda r: r.t_1e,
    "heating": lambda r: r.params["rate"],
    "image": lambda r: r.width_m,
    "linewidth": lambda r: r.fwhm_hz,
    "regime": lambda r: r.extrapolated_db,
}


def test_every_seed_one_scan_fits_to_a_finite_estimate_without_warning(
        tmp_path, bench_gen, fit_records_script):
    # 1200 signal and 1500 no-signal scans; a fit that overflows, divides by
    # zero or takes 0 * inf warns, and the warning fails the test
    scans = {scan.path: scan for scan in bench_gen.scans(1, str(tmp_path))}
    assert len(scans) == bench_gen.SIGNAL_SCANS + bench_gen.NOSIGNAL_SCANS
    for scan in scans.values():
        fit, estimate = fit_records_script.FITS[scan.family], ESTIMATES[scan.family]
        value = estimate(fit(csvio.read_table(scan.path, scan.columns)))
        assert math.isfinite(value), scan.path
