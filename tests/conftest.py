"""Hypothesis profiles for the test suite.

`ci` skips shrinking and the explain phase: a failing example is reported
as found, not minimised, so a kernel fault fails in seconds, not minutes.
Examples are drawn afresh on every run, so `ci` also prints the
`@reproduce_failure` line that replays a failing example locally.  Select
it with `--hypothesis-profile=ci`; without it the default profile, with
shrinking, applies.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "ci", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
    print_blob=True)
