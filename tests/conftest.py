"""Session-wide test settings.

With ``CI`` set, hypothesis is derandomized: each property draws the same
examples on every run, so a failure seen in CI reproduces locally with
``CI=1 pytest``.

``tests/mutation_check.py`` sets ``XTADAPT_MUTATION_CHECK``: hypothesis then
skips its shrink phase, so a failing example fails at once.  A kill needs
only the failure, not its smallest example, and a failure still fails.
"""

import os

from hypothesis import Phase, settings

settings.register_profile("ci", derandomize=True)
settings.register_profile(
    "mutation-check",
    settings.get_profile("ci") if os.environ.get("CI") else None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
if os.environ.get("XTADAPT_MUTATION_CHECK"):
    settings.load_profile("mutation-check")
elif os.environ.get("CI"):
    settings.load_profile("ci")
