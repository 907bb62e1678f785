"""scripts/spectrum_records.py: one reproducible JSON line per benchmark trap design."""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

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
