"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes every property test
draw the same examples on every run, so a CI result repeats; without it,
local runs keep drawing new examples."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
