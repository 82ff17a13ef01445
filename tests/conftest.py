"""Hypothesis profiles shared by the test suite.

``long`` is the derandomized profile CI passes to the recovery-history
state machine (``--hypothesis-profile=long``); tests that read it run a
shorter derandomized version of it by default.
"""

from hypothesis import settings

settings.register_profile("long", derandomize=True, deadline=None,
                          max_examples=80, stateful_step_count=60)
