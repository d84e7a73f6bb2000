"""Exception types shared across the package.

Every budget, contract and sizing failure is raised as a distinct type so
callers (and the CLI exit-code mapping) can tell refusals apart from bugs.
"""

from __future__ import annotations


class LocalSqError(Exception):
    """Base class for all package errors."""


class ContractViolation(LocalSqError):
    """A declared contract was broken at evaluation time.

    Examples: a statistical query returning a value outside [-1, 1] on a
    support point, a query declared label-independent that reads the label.
    """


class BudgetExceeded(LocalSqError):
    """A privacy/bit/query budget would be exceeded; the call is refused."""


class SizingError(LocalSqError):
    """A dataset is too small for the requested protocol.

    Carries the required sample count so callers can re-provision.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class ProtocolError(LocalSqError):
    """A driver broke protocol structure (e.g. second round-0 gradient)."""


class EvaluationError(LocalSqError):
    """A hypothesis or query is undefined on a point it was applied to."""


class PreconditionError(LocalSqError):
    """An operation's documented precondition does not hold."""


class LearningFailure(LocalSqError):
    """A learner could not reach its target error within its budget."""


class SolverError(LocalSqError):
    """The LP solver failed to converge; carries the last iterate state."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}
