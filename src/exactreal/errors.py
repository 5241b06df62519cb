"""Exceptions shared across the library."""


class ExactRealError(Exception):
    """Base class for all library errors."""


class EffortExhausted(ExactRealError):
    """A search or refinement hit its effort budget without a witness.

    Raised by ``select`` when neither Kleenean reaches true within the
    budget, and by real-number operations whose precondition (divisor
    nonzero, argument positive, ...) could not be certified.
    """

    def __init__(self, budget, what=""):
        self.budget = budget
        self.what = what
        msg = f"effort budget {budget} exhausted"
        if what:
            msg += f" while {what}"
        super().__init__(msg)


class OutsideDomain(ExactRealError):
    """An interval operand is not certified to lie in the operation's
    domain: a divisor contains zero, or a radicand lies below zero.

    Only a divisor that straddles zero (``DivisorStraddlesZero``) may
    still be nonzero, so only that case is retried at higher accuracy.
    A radicand below zero is certified negative: the real-number layer
    turns it into ``EffortExhausted`` at once.
    """


class DivisorStraddlesZero(OutsideDomain):
    """Interval division was attempted with a divisor containing zero.

    The one domain failure that callers at the real-number layer retry
    at higher accuracy; when the divisor really is zero the retries run
    into the effort budget, so users see ``EffortExhausted`` instead.
    """


class ExponentOverflow(ExactRealError, OverflowError):
    """A dyadic exponent left the supported machine range."""


class ParseError(ExactRealError):
    """Expression source text could not be parsed."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (column {position + 1})")
