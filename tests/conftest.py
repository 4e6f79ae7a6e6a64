import os

from hypothesis import settings

# the "ci" profile runs the same examples on every run: the CI tests job names
# it in HYPOTHESIS_PROFILE, and a plain pytest run uses it too; set
# HYPOTHESIS_PROFILE=default for Hypothesis' own random examples. A test's own
# @settings override the profile's.
settings.register_profile("ci", derandomize=True, database=None, max_examples=200,
                          deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
