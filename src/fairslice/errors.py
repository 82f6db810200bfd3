"""Exception types shared across the library.

``cut`` queries that have no answer are not errors: they return ``None``.
The classes below mark genuine contract violations.
"""


class FairsliceError(Exception):
    """Base class for all library-specific errors."""


class BudgetExhausted(FairsliceError):
    """A referee refused a query because it would exceed the query budget.

    The offending query is rejected before it reaches the valuation, so it
    is neither counted nor logged.
    """


class PartitionViolation(FairsliceError):
    """An allocation does not partition [0, 1]."""

    def __init__(self, message, *, overlaps=(), gaps=()):
        super().__init__(message)
        self.overlaps = tuple(overlaps)
        self.gaps = tuple(gaps)


class ProtocolViolation(FairsliceError):
    """A protocol produced output that breaks its own guarantee.

    Raised, for example, when a supposedly proportional allocation fails the
    exact proportionality check inside the reduction pipeline.
    """


class ReplayMismatch(FairsliceError, AssertionError):
    """Re-issuing a logged query gave a different answer than the log holds.

    Also an ``AssertionError``, which replay raised before it had a type of
    its own.
    """


class NonPositiveValuation(FairsliceError):
    """An operation that is only defined for positive valuations was given a
    valuation with a zero-density region."""


class NumericalAmbiguity(FairsliceError):
    """A density comparison fell inside the floating-point guard band.

    Classifications near a threshold are refused instead of silently
    resolved; all supported tree sizes keep comfortable margins, so this
    signals a degenerate instance rather than expected behaviour.
    """


class PreconditionViolation(FairsliceError):
    """An argument failed a documented precondition (e.g. a piece handed to
    the candidate-leaf extractor was not heavy)."""
