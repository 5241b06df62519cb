"""Three-valued logic, lazy monotonicity, and the select primitive."""

import pytest
from hypothesis import given, strategies as st

from exactreal.errors import EffortExhausted
from exactreal.kleenean import (
    BOTTOM,
    FALSE,
    TRUE,
    Branch,
    Kleenean,
    DEFAULT_BUDGET,
    LazyKleenean,
    _efforts,
    _select_with_effort,
    current_budget,
    effort_budget,
    select,
    select_index,
)

VALUES = (TRUE, FALSE, BOTTOM)

# strong Kleene truth tables, written out entry by entry
AND_TABLE = {
    (TRUE, TRUE): TRUE,
    (TRUE, FALSE): FALSE,
    (TRUE, BOTTOM): BOTTOM,
    (FALSE, TRUE): FALSE,
    (FALSE, FALSE): FALSE,
    (FALSE, BOTTOM): FALSE,
    (BOTTOM, TRUE): BOTTOM,
    (BOTTOM, FALSE): FALSE,
    (BOTTOM, BOTTOM): BOTTOM,
}
OR_TABLE = {
    (TRUE, TRUE): TRUE,
    (TRUE, FALSE): TRUE,
    (TRUE, BOTTOM): TRUE,
    (FALSE, TRUE): TRUE,
    (FALSE, FALSE): FALSE,
    (FALSE, BOTTOM): BOTTOM,
    (BOTTOM, TRUE): TRUE,
    (BOTTOM, FALSE): BOTTOM,
    (BOTTOM, BOTTOM): BOTTOM,
}
NOT_TABLE = {TRUE: FALSE, FALSE: TRUE, BOTTOM: BOTTOM}


def staged(onset: int, value: Kleenean) -> LazyKleenean:
    """Bottom below ``onset``, then constantly ``value``."""
    return LazyKleenean(lambda n: value if n >= onset else BOTTOM)


@pytest.mark.parametrize("a", VALUES)
@pytest.mark.parametrize("b", VALUES)
def test_and_table(a, b):
    assert a & b is AND_TABLE[(a, b)]
    for effort in (0, 1, 5):
        assert (LazyKleenean.const(a) & LazyKleenean.const(b)).at(effort) is AND_TABLE[
            (a, b)
        ]


@pytest.mark.parametrize("a", VALUES)
@pytest.mark.parametrize("b", VALUES)
def test_or_table(a, b):
    assert a | b is OR_TABLE[(a, b)]
    for effort in (0, 1, 5):
        assert (LazyKleenean.const(a) | LazyKleenean.const(b)).at(effort) is OR_TABLE[
            (a, b)
        ]


@pytest.mark.parametrize("a", VALUES)
def test_not_table(a):
    assert ~a is NOT_TABLE[a]
    assert (~LazyKleenean.const(a)).at(0) is NOT_TABLE[a]


@pytest.mark.parametrize("a", VALUES)
@pytest.mark.parametrize("b", VALUES)
def test_de_morgan_at_every_effort(a, b):
    lhs = ~(LazyKleenean.const(a) & LazyKleenean.const(b))
    rhs = ~LazyKleenean.const(a) | ~LazyKleenean.const(b)
    for effort in range(6):
        assert lhs.at(effort) is rhs.at(effort)


def test_const_examples():
    assert LazyKleenean.const(TRUE).at(0) is TRUE
    assert LazyKleenean.const(TRUE).at(99) is TRUE
    assert LazyKleenean.const(BOTTOM).at(1234) is BOTTOM
    assert LazyKleenean.const(FALSE).at(0) is FALSE


onsets = st.integers(min_value=0, max_value=12)
definite = st.sampled_from((TRUE, FALSE))


@given(st.lists(st.tuples(onsets, definite), min_size=1, max_size=4), st.randoms())
def test_combinators_preserve_monotonicity(atoms, rng):
    """Random formulas over staged atoms stay monotone in effort."""
    terms = [staged(onset, value) for onset, value in atoms]
    expr = terms[0]
    for t in terms[1:]:
        op = rng.choice(("and", "or", "not"))
        if op == "and":
            expr = expr & t
        elif op == "or":
            expr = expr | t
        else:
            expr = ~expr & t
    seen = None
    for effort in range(16):
        v = expr.at(effort)
        if seen is not None:
            assert v is seen
        elif v is not BOTTOM:
            seen = v


def test_latch_makes_flapping_observably_monotone():
    # raw answer appears at effort 3 and (wrongly) disappears again;
    # the lazy wrapper must keep reporting it from 3 onward
    flappy = LazyKleenean(lambda n: TRUE if n == 3 else BOTTOM)
    assert flappy.at(0) is BOTTOM
    assert flappy.at(3) is TRUE
    assert flappy.at(7) is TRUE
    assert flappy.at(100) is TRUE


class TestSelect:
    def test_only_left_can_answer(self):
        assert select(LazyKleenean.const(TRUE), LazyKleenean.const(BOTTOM)) is Branch.LEFT

    def test_only_right_can_answer(self):
        assert select(LazyKleenean.const(BOTTOM), LazyKleenean.const(TRUE)) is Branch.RIGHT

    def test_budget_exhaustion(self):
        with effort_budget(100), pytest.raises(EffortExhausted) as err:
            select(LazyKleenean.const(FALSE), LazyKleenean.const(FALSE))
        assert err.value.budget == 100

    def test_scope_restored_after_raise(self):
        with pytest.raises(EffortExhausted):
            with effort_budget(8):
                assert current_budget() == 8
                select(LazyKleenean.const(FALSE), LazyKleenean.const(FALSE))
        assert current_budget() == DEFAULT_BUDGET

    def test_nested_scopes(self):
        with effort_budget(100):
            with effort_budget(7):
                assert current_budget() == 7
            assert current_budget() == 100

    def test_never_returns_a_false_branch(self):
        assert select(LazyKleenean.const(FALSE), staged(40, TRUE)) is Branch.RIGHT
        assert select(staged(40, TRUE), LazyKleenean.const(FALSE)) is Branch.LEFT

    def test_waits_out_a_late_witness(self):
        assert select(staged(5000, TRUE), LazyKleenean.const(BOTTOM)) is Branch.LEFT

    def test_tie_goes_left(self):
        assert select(LazyKleenean.const(TRUE), LazyKleenean.const(TRUE)) is Branch.LEFT

    def test_fair_lockstep(self):
        # right answers immediately; a left that only answers later
        # must not starve it
        assert select(staged(7, TRUE), LazyKleenean.const(TRUE)) is Branch.RIGHT

    def test_effort_schedule_doubles_its_step(self):
        """The efforts at which select queries a never-true candidate."""

        def efforts(budget, start):
            asked = []
            never = LazyKleenean(lambda n: asked.append(n) or BOTTOM)
            with effort_budget(budget), pytest.raises(EffortExhausted):
                _select_with_effort((never,), start)
            return asked

        assert efforts(100, 0) == [0, 1, 3, 7, 15, 31, 63, 100]
        assert efforts(10, 5) == [5, 6, 8, 10]
        # a resumed search whose hint is past the budget tries the budget
        assert efforts(10, 50) == [10]

    def test_efforts_refuse_a_start_above_the_budget(self):
        walk = _efforts(11, 1, "walking past the budget")
        with effort_budget(10), pytest.raises(EffortExhausted, match="walking past"):
            next(walk)

    def test_select_index_many(self):
        idx = select_index(
            (LazyKleenean.const(BOTTOM), staged(9, TRUE), LazyKleenean.const(FALSE))
        )
        assert idx == 1

    @given(onsets, onsets)
    def test_select_picks_a_true_branch(self, i, j):
        a, b = staged(i, TRUE), staged(j, TRUE)
        with effort_budget(1000):
            br = select(a, b)
        chosen = a if br is Branch.LEFT else b
        # the chosen side really is true at some effort within budget
        assert any(chosen.at(n) is TRUE for n in range(1001))
