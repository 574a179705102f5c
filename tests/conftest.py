"""Session-wide test settings.

With ``CI`` set, hypothesis is derandomized: each property draws the same
examples on every run, so a failure seen in CI reproduces locally with
``CI=1 pytest``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
