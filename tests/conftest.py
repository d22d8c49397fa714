"""Shared test configuration: hypothesis profiles and nightly scaling.

Two hypothesis profiles are registered:

* ``default`` — what every local run and the per-push CI job use:
  25 examples, no deadline (CI runners have noisy clocks).
* ``nightly`` — the scheduled slow suite: an order of magnitude more
  examples, run as ``pytest --hypothesis-profile=nightly`` by
  ``.github/workflows/nightly.yml``.

Property tests that want profile-controlled example counts decorate with
``settings(deadline=None)`` (no explicit ``max_examples``); statistical
tests whose assertion thresholds were calibrated at a specific example
count keep their explicit pins and are intentionally *not* scaled.

Workload sizing: tests that build synthetic footage honor the
``REPRO_TEST_SCALE`` multiplier (default 1.0); the nightly job raises it
to exercise larger repositories with the same assertions.
"""

import os

from hypothesis import settings

settings.register_profile("default", deadline=None, max_examples=25)
settings.register_profile("nightly", deadline=None, max_examples=250)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

