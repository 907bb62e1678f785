"""The test suite's own rules, set in ``conftest.py``."""
import pytest


def test_rel_only_approx_has_no_absolute_floor():
    assert 2e-14 != pytest.approx(1e-14, rel=1e-6)
    assert 1e-14 * (1.0 + 1e-7) == pytest.approx(1e-14, rel=1e-6)
    # an explicit abs still applies, and a bare approx keeps its defaults
    assert 2e-14 == pytest.approx(1e-14, rel=1e-6, abs=1e-12)
    assert 2e-14 == pytest.approx(1e-14)
