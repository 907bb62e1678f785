"""scripts/fit_records.py: one reproducible JSON line per distinct benchmark scan."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fit_records(*args) -> bytes:
    proc = subprocess.run([sys.executable, "scripts/fit_records.py", *args], cwd=ROOT,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_two_runs_write_the_same_bytes(tmp_path):
    # one run to stdout, one to a file: each scan is generated and fitted anew
    first = fit_records("--seed", "2", "--limit", "60")
    out = tmp_path / "records.jsonl"
    fit_records("--seed", "2", "--limit", "60", "--out", str(out))
    assert out.read_bytes() == first
    records = [json.loads(line) for line in first.decode().splitlines()]
    assert len(records) == 60
    assert len({r["scan"] for r in records}) == 60
    for record in records:
        fits = [record["skin"], record["contact"]] if "regime" in record else [record]
        for fit in fits:
            assert fit["reason"] and fit["iterations"] >= 0 and fit["model_calls"] >= 1
            assert len(fit["sigmas"]) == len(fit["params"])
            assert len(fit["covariance"]) == len(fit["params"]) ** 2
        assert ("regime" in record) + ("unconstrained" in record) <= 1
        # the linear fits start at their closed-form minimum, which the first
        # gradient test confirms
        if "regime" in record or record["scan"].endswith("_heating.csv"):
            for fit in fits:
                assert (fit["reason"], fit["iterations"], fit["model_calls"]) == ("grad_tol", 1, 1)
