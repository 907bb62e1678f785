"""scripts/fit_records.py: one reproducible JSON line per distinct benchmark scan."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_compare_prints_the_largest_relative_difference_per_field(tmp_path):
    records = [json.loads(line) for line in
               fit_records("--seed", "2", "--limit", "60").decode().splitlines()]
    old = tmp_path / "old.jsonl"

    def compared(recs):
        old.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
        out = fit_records("--seed", "2", "--compare", str(old)).decode().splitlines()
        assert out[0] == f"scans = {len(recs)}"
        return {key: float(value) for key, value in (line.split(" = ") for line in out[1:])}

    # the same checkout fits the same bits; nested records name their fields
    same = compared(records)
    assert set(same.values()) == {0.0}
    assert {"sigmas", "covariance", "unconstrained", "skin.sigmas", "contact.params.s"} <= set(same)
    flagged = next(r for r in records if "unconstrained" in r)
    regime = next(r for r in records if "regime" in r)
    flagged["sigmas"][0] *= 1.0 + 1e-9
    flagged["covariance"][0] *= 1.0 - 2e-9
    flagged["unconstrained"] = not flagged["unconstrained"]
    regime["skin"]["sigmas"][0] *= 1.0 + 3e-9
    worst = compared(records)
    assert worst["sigmas"] == pytest.approx(1e-9, rel=1e-6)
    assert worst["covariance"] == pytest.approx(2e-9, rel=1e-6)
    assert worst["skin.sigmas"] == pytest.approx(3e-9, rel=1e-6)
    assert worst["unconstrained"] == math.inf  # a flag moves by inf, not by 1
    moved = {"sigmas", "covariance", "unconstrained", "skin.sigmas"}
    assert {k for k, v in worst.items() if v != 0.0} == moved
    # records of other scans are no comparison
    old.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records[::-1]))
    proc = subprocess.run([sys.executable, "scripts/fit_records.py", "--seed", "2",
                           "--compare", str(old)], cwd=ROOT, capture_output=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr == b"error: the two outputs hold different scans\n"
