"""Shared test settings and fixtures.

Hypothesis draws a fresh random seed on every run; ``print_blob`` makes
a failing property print the ``@reproduce_failure`` line that replays
the exact failing example.
"""

import random

import pytest
from hypothesis import settings

from exactreal import algorithms, kleenean

settings.register_profile("exactreal", print_blob=True)
settings.load_profile("exactreal")


@pytest.fixture(params=[0, 1, 2], ids=lambda seed: f"seed{seed}")
def random_select(request, monkeypatch):
    """``select`` as any nondeterministic choice may make it: at the first
    effort where some candidate is TRUE, one of the TRUE candidates is
    drawn with the fixture's seed instead of the lowest.  It rebinds
    ``_select_with_effort`` in ``kleenean``, which ``select`` and
    ``select_index`` call, and in ``algorithms``, which ``ivt_trisect``
    calls; the library itself has no hook for it."""
    rng = random.Random(request.param)
    what = "waiting for a true Kleenean in select"

    def drawn(candidates, start):
        for n in kleenean._efforts(min(start, kleenean.current_budget()), 1, what):
            true = [i for i, k in enumerate(candidates) if k.at(n) is kleenean.TRUE]
            if true:
                return rng.choice(true), n

    monkeypatch.setattr(kleenean, "_select_with_effort", drawn)
    monkeypatch.setattr(algorithms, "_select_with_effort", drawn)
    return request.param
