"""Shared test settings.

Hypothesis draws a fresh random seed on every run; ``print_blob`` makes
a failing property print the ``@reproduce_failure`` line that replays
the exact failing example.
"""

from hypothesis import settings

settings.register_profile("exactreal", print_blob=True)
settings.load_profile("exactreal")
