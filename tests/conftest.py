"""Hypothesis profiles for the test suite.

`ci` skips shrinking and the explain phase: a failing example is reported
as found, not minimised, so a kernel fault fails in seconds, not minutes.
Select it with `--hypothesis-profile=ci`; without it the default profile,
with shrinking, applies.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "ci", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
