"""Statistical-query learning under local privacy and communication limits.

The package simulates protocols in which every sample is seen by exactly
one client, each client either randomizes its report (local differential
privacy) or sends a bounded number of bits, and the learner only ever
consumes statistical-query answers. It ships a label-non-adaptive
margin-halfspace learner, an interactive decision-list baseline, one
query compiler for both channel models, and an adversarial-oracle lab that
certifies when a fixed query set cannot learn.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ContractViolation,
    EvaluationError,
    LearningFailure,
    LocalSqError,
    PreconditionError,
    ProtocolError,
    SizingError,
    SolverError,
)

__all__ = [
    "BudgetExceeded",
    "ContractViolation",
    "EvaluationError",
    "LearningFailure",
    "LocalSqError",
    "PreconditionError",
    "ProtocolError",
    "SizingError",
    "SolverError",
    "__version__",
]
