"""scripts/spectrum_records.py: one reproducible JSON line per benchmark trap design."""
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from cryoion.trap import TrapSolution

ROOT = Path(__file__).resolve().parent.parent


def spectrum_records(*args) -> bytes:
    proc = subprocess.run([sys.executable, "scripts/spectrum_records.py", *args], cwd=ROOT,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_two_runs_write_the_same_bytes(tmp_path):
    # one run to stdout, one to a file: each design is built and solved anew
    first = spectrum_records("--seed", "1", "--limit", "12")
    out = tmp_path / "records.jsonl"
    spectrum_records("--seed", "1", "--limit", "12", "--out", str(out))
    assert out.read_bytes() == first
    records = [json.loads(line) for line in first.decode().splitlines()]
    assert [r["design"] for r in records] == list(range(12))
    fields = {f.name for f in dataclasses.fields(TrapSolution)}
    for record in records:
        assert set(record) == fields | {"design"}
        assert len(record["null_position"]) == 3 and record["height"] > 0
        assert len(record["secular_freqs_hz"]) == len(record["q_params"]) == 3
        assert [len(row) for row in record["axes"]] == [3, 3, 3]
        assert record["height"] == record["null_position"][2]


def test_compare_prints_the_largest_relative_difference_per_field(tmp_path):
    lines = spectrum_records("--seed", "1", "--limit", "3").decode().splitlines()
    records = [json.loads(line) for line in lines]
    fields = {f.name for f in dataclasses.fields(TrapSolution)}

    def compared(recs):
        old = tmp_path / "old.jsonl"
        old.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
        out = spectrum_records("--seed", "1", "--compare", str(old)).decode().splitlines()
        assert out[0] == f"designs = {len(recs)}"
        return {key: float(value) for key, value in (line.split(" = ") for line in out[1:])}

    # the same checkout solves the same bits
    assert compared(records) == dict.fromkeys(fields, 0.0)
    records[1]["trap_depth_ev"] *= 1.0 + 1e-9
    records[2]["axes"][0][1] = 2.0 * records[2]["axes"][0][1] + 1.0
    records[0]["unstable_axes"] = records[0]["unstable_axes"] + [7]
    worst = compared(records)
    assert worst["trap_depth_ev"] == pytest.approx(1e-9, rel=1e-6)
    assert worst["axes"] > 0.1
    assert worst["unstable_axes"] == math.inf
    assert {k for k, v in worst.items() if v == 0.0} == fields - {"trap_depth_ev", "axes",
                                                                   "unstable_axes"}


def test_compare_reads_axes_up_to_sign_and_the_null_against_the_height(tmp_path):
    # an eigenvector's sign is arbitrary and the symmetric trap's null x is
    # rounding about 0, so neither reads as inf: each axis is compared up
    # to sign, and the null's move is measured in heights
    records = [json.loads(line) for line in
               spectrum_records("--seed", "1", "--limit", "2").decode().splitlines()]
    records[0]["axes"] = [[-v if j == 1 else v for j, v in enumerate(row)]
                          for row in records[0]["axes"]]
    records[0]["null_position"][0] = 1e-20 if records[0]["null_position"][0] <= 0 else -1e-20
    old = tmp_path / "old.jsonl"
    old.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    out = spectrum_records("--seed", "1", "--compare", str(old)).decode().splitlines()
    worst = {key: float(value) for key, value in (line.split(" = ") for line in out[1:])}
    assert worst["axes"] == 0.0
    assert 0.0 < worst["null_position"] <= 2e-20 / records[0]["height"] < 1e-14
    records[1]["axes"][2][0] += 1e-9
    records[1]["null_position"][2] += 1e-6 * records[1]["height"]
    old.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    out = spectrum_records("--seed", "1", "--compare", str(old)).decode().splitlines()
    worst = {key: float(value) for key, value in (line.split(" = ") for line in out[1:])}
    assert worst["axes"] == pytest.approx(1e-9, rel=1e-6)
    assert worst["null_position"] == pytest.approx(1e-6, rel=1e-6)
