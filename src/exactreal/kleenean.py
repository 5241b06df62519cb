"""Lazy three-valued truth values and the ``select`` primitive.

A ``Kleenean`` is one of false < bottom < true, where bottom stands for
a test that never answers.  A ``LazyKleenean`` is an effort-indexed,
monotone sequence of Kleeneans: once an effort level yields a definite
answer, every higher effort yields the same answer.  ``select`` is the
sole source of nondeterminism in the library.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

from .errors import EffortExhausted

DEFAULT_BUDGET = 1 << 20
_budget: ContextVar[int] = ContextVar("effort_budget", default=DEFAULT_BUDGET)


def current_budget() -> int:
    """The effort budget of the enclosing ``effort_budget`` scope: the
    largest working precision any node is asked for, and the largest
    ``select`` effort."""
    return _budget.get()


@contextmanager
def effort_budget(budget: int):
    """Bound every query made inside the block by ``budget``."""
    token = _budget.set(budget)
    try:
        yield
    finally:
        _budget.reset(token)


class Kleenean(enum.Enum):
    """Kleene's three truth values, ordered FALSE < BOTTOM < TRUE.

    On that order strong Kleene logic is a lattice: ``&`` is the
    smaller value, ``|`` the larger, and ``~`` negates, fixing BOTTOM.
    """

    FALSE = -1
    BOTTOM = 0
    TRUE = 1

    def __invert__(self) -> "Kleenean":
        return Kleenean(-self.value)

    def __and__(self, other: "Kleenean") -> "Kleenean":
        return Kleenean(min(self.value, other.value))

    def __or__(self, other: "Kleenean") -> "Kleenean":
        return Kleenean(max(self.value, other.value))


TRUE = Kleenean.TRUE
FALSE = Kleenean.FALSE
BOTTOM = Kleenean.BOTTOM


class Branch(enum.Enum):
    LEFT = 0
    RIGHT = 1


class LazyKleenean:
    """An effort-indexed Kleenean with a definedness latch.

    The underlying function may be only semantically monotone (a
    comparison certified at effort n might momentarily fail to certify
    at n+1 from tighter but shifted intervals); the latch makes the
    observable sequence monotone: once a definite value is seen at
    effort n, all efforts >= n report it.
    """

    __slots__ = ("_fn", "_settled_at", "_settled")

    def __init__(self, fn: Callable[[int], Kleenean]):
        self._fn = fn
        self._settled_at: int | None = None
        self._settled = BOTTOM

    def at(self, effort: int) -> Kleenean:
        if self._settled_at is not None and effort >= self._settled_at:
            return self._settled
        value = self._fn(effort)
        if value is not BOTTOM and self._settled_at is None:
            self._settled_at = effort
            self._settled = value
        return value

    @classmethod
    def const(cls, k: Kleenean) -> "LazyKleenean":
        return cls(lambda _: k)

    def __invert__(self) -> "LazyKleenean":
        return LazyKleenean(lambda n: ~self.at(n))

    def __and__(self, other: "LazyKleenean") -> "LazyKleenean":
        return LazyKleenean(lambda n: self.at(n) & other.at(n))

    def __or__(self, other: "LazyKleenean") -> "LazyKleenean":
        return LazyKleenean(lambda n: self.at(n) | other.at(n))


def _efforts(start: int, step: int, what: str):
    """The one walk up to the budget, of precision iteration and of
    ``select``: start + (2**i - 1) step for i = 0, 1, 2, ..., capped at
    the budget, so all levels together cost a constant factor of the
    last.  Raises ``EffortExhausted`` once the budget itself was
    yielded, or at once when start is above it."""
    budget = current_budget()
    while start <= budget:
        yield start
        if start == budget:
            break
        start, step = min(budget, start + step), 2 * step
    raise EffortExhausted(budget, what)


def _select_with_effort(
    candidates: Sequence[LazyKleenean], start: int
) -> tuple[int, int]:
    """``(index, effort)`` of the first candidate found true, all queried
    at each of ``_efforts(start, 1, ...)`` from start capped at the
    budget, so iterated searches resume near their last success."""
    what = "waiting for a true Kleenean in select"
    for n in _efforts(min(start, current_budget()), 1, what):
        for i, k in enumerate(candidates):
            if k.at(n) is TRUE:
                return i, n


def select_index(candidates: Sequence[LazyKleenean]) -> int:
    """Return the index of a candidate that evaluates to true.

    All candidates are queried at each effort level before advancing
    (fair lockstep); ties go to the lowest index.  At least one
    candidate must eventually be true, otherwise ``EffortExhausted``
    is raised at the budget.
    """
    return _select_with_effort(candidates, 0)[0]


def select(a: LazyKleenean, b: LazyKleenean) -> Branch:
    """Nondeterministic choice: Left only if ``a`` certified true,
    Right only if ``b`` did."""
    return Branch(select_index((a, b)))
