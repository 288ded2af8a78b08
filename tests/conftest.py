"""Hypothesis example budgets for the test suite.

``HYPOTHESIS_PROFILE`` picks a registered profile: ``default`` keeps
tier-1 fast, ``deep`` is the large budget CI runs over the
engine-differential property tests::

    HYPOTHESIS_PROFILE=deep python -m pytest tests/test_engine_differential.py

Only tests that leave ``max_examples`` out of their ``@settings`` take
the profile's budget; the others keep their own.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=100, deadline=None)
settings.register_profile("deep", max_examples=2500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
