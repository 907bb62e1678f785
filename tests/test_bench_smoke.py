"""The committed benchmark's traced fit workload runs and records every fit family.

The traced run wraps ``fitting.lm_fit`` and ``csvio.read_table`` where the
program looks them up, so a fit that binds them differently, or an
``lm_fit`` result without integer ``iterations``, shows up here as a failed
run or as a family whose iteration mean is 0.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_scan_fits_run_is_correct_and_sees_every_family():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan_fits", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    for family in ("heating", "regime"):
        assert result["metrics"][f"fitting.{family}.iterations_mean"]["value"] > 0, family
    # the peak fits, which pass lm_fit its peak keyword, and the no-signal scans
    for family in ("waist", "image", "linewidth", "nosignal"):
        assert result["metrics"][f"fitting.{family}.iterations_mean"]["value"] > 0, family
