"""The README's ``$ cryoion ...`` examples print exactly the output shown."""
import shlex
from pathlib import Path

import pytest

from cryoion.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    """(command, shown output) for every ``$ cryoion`` line of README.md; the
    output is the lines after it up to a blank line or the end of the block."""
    examples = []
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        if not line.startswith("$ cryoion "):
            continue
        shown = []
        for out in lines[k + 1:]:
            if not out.strip() or out.startswith("```"):
                break
            shown.append(out + "\n")
        examples.append((line[2:], "".join(shown)))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(monkeypatch, capsys, command, shown):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert out == shown
