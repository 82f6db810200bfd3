"""Exception types shared across the library.

``cut`` queries that have no answer are not errors: they return ``None``.
The classes below mark genuine contract violations.  The type of an error
is also its verdict: the CLI exits 3 on :class:`ProtocolViolation` (which
includes :class:`PartitionViolation`) and :class:`ReplayMismatch`, since a
guarantee that should hold by construction failed, and exits 2 on any
other :class:`FairsliceError`, :class:`InvalidInput` above all.
"""


class FairsliceError(Exception):
    """Base class for all library-specific errors."""


class BudgetExhausted(FairsliceError):
    """A referee refused a query because it would exceed the query budget.

    The offending query is rejected before it reaches the valuation, so it
    is neither counted nor logged.
    """


class InvalidInput(FairsliceError, ValueError):
    """An argument, configuration or input document is malformed or out of
    range.

    Also a ``ValueError``, which these checks raised before they had a type
    of their own.
    """


class UnknownPlayer(FairsliceError, IndexError):
    """A query named a player the referee does not hold (also an ``IndexError``)."""


class ProtocolViolation(FairsliceError):
    """A protocol produced output that breaks its own guarantee.

    Raised, for example, when a supposedly proportional allocation fails the
    exact proportionality check inside the reduction pipeline.
    """


class PartitionViolation(ProtocolViolation):
    """An allocation does not partition [0, 1].

    Allocations come from protocols, so a non-partition is a broken
    protocol guarantee.
    """

    def __init__(self, message, *, overlaps=(), gaps=()):
        super().__init__(message)
        self.overlaps = tuple(overlaps)
        self.gaps = tuple(gaps)


class ReplayMismatch(FairsliceError, AssertionError):
    """Re-issuing a logged query gave a different answer than the log holds.

    Also an ``AssertionError``, which replay raised before it had a type of
    its own.
    """


class NonPositiveValuation(FairsliceError):
    """An operation that is only defined for positive valuations was given a
    valuation with a zero-density region."""


class PreconditionViolation(FairsliceError):
    """An argument failed a documented precondition (e.g. a piece handed to
    the candidate-leaf extractor was not heavy)."""
