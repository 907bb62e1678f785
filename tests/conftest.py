"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes every property test
draw the same examples on every run, so a CI result repeats; without it,
local runs keep drawing new examples.  ``pytest.approx`` given ``rel`` and no
``abs`` checks the relative bound alone.  The ``bench_gen`` fixture serves the
benchmark's input generator to the tests that fit its scans, and the
``fit_records_script`` fixture the script whose ``FITS`` table fits them."""
import contextlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_approx = pytest.approx


def _relative_approx(expected, rel=None, abs=None, nan_ok=False):
    """``pytest.approx`` with ``abs=0.0`` where only ``rel`` is given: its
    default ``abs=1e-12`` would pass any value below 1e-12, whatever ``rel``."""
    if rel is not None and abs is None:
        abs = 0.0
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


pytest.approx = _relative_approx


@contextlib.contextmanager
def _module_from_file(name: str, relative_path: str):
    """The file at ``relative_path`` under the repository root, imported as module ``name``.

    The module stays in ``sys.modules`` while it is in use, since dataclasses
    look their module up there; ``sys.path`` is restored once it has run."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relative_path)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    sys.modules[spec.name] = module
    try:
        try:
            spec.loader.exec_module(module)
        finally:
            sys.path[:] = path
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="session")
def bench_gen():
    """``bench/gen.py`` as a module, imported from its file."""
    with _module_from_file("bench_gen", "bench/gen.py") as gen:
        yield gen


@pytest.fixture(scope="session")
def fit_records_script():
    """``scripts/fit_records.py`` as a module, imported from its file."""
    with _module_from_file("fit_records", "scripts/fit_records.py") as script:
        yield script
