"""Test settings shared by the suite.

The ``ci`` hypothesis profile draws the same examples on every run and
sets no deadline; select it with ``HYPOTHESIS_PROFILE=ci``.
"""

import os

import pytest
from hypothesis import settings

# modules whose tests `test_walk` collects: their asserts report as a test
# module's do
pytest.register_assert_rewrite("walk_oracles", "walk_search", "walk_step_memo", "walk_slot",
                               "walk_end", "walk_leaf", "walk_blocks")

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
