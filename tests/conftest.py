import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci: the same examples on every run, no per-example
# time limit, so property tests cannot flake on a slow or busy runner
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
