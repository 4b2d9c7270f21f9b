"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(EngineError):
    """An operation that needs a nonzero polynomial received zero."""


class DivisionByZero(EngineError):
    pass


class NotDivisible(EngineError):
    """Exact division failed; carries the nonzero remainder."""

    def __init__(self, remainder, message="division is not exact"):
        super().__init__(message)
        self.remainder = remainder


class NegativeInput(EngineError):
    pass


class OutOfRange(EngineError):
    """An index or size outside the range a construction is defined on."""


class DiagramTooLarge(EngineError):
    pass


class NotInBasis(EngineError):
    """A rational function was asked to divide by something other than a unit
    times an integer times a vector over its bracket/cyclotomic basis, such as
    A - q or an expanded sum."""


class NotPolynomial(EngineError):
    """A rational function expected to clear its denominator did not."""


class NoCanonicalUnit(EngineError):
    """A polynomial is not in the canonical framing: 1 at A=q, with an A=1
    slice palindromic under q -> 1/q."""


class RepCapExceeded(EngineError):
    pass


class NotPalindromic(EngineError):
    pass


class OddPower(EngineError):
    """The q^2-span of an Alexander polynomial is odd; the defect formula does not apply."""


class NonzeroDefect(EngineError):
    pass


class InexactDivision(EngineError):
    """The differential expansion failed to divide exactly at some level."""

    def __init__(self, level, remainder):
        super().__init__(f"differential expansion division failed at r={level}")
        self.level = level
        self.remainder = remainder


class CorruptStore(EngineError):
    pass


class StoreUnwritable(EngineError):
    pass


class ParseError(EngineError):
    pass
