"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes every property test
draw the same examples on every run, so a CI result repeats; without it,
local runs keep drawing new examples.  The ``bench_gen`` fixture serves the
benchmark's input generator to the tests that fit its scans."""
import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def bench_gen():
    """``bench/gen.py`` as a module, imported from its file."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look the module up
    try:
        spec.loader.exec_module(gen)
        yield gen
    finally:
        del sys.modules[spec.name]
