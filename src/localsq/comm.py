"""Bounded-communication oracle: per-client bit budgets and the SQ compiler.

Each client may release at most a fixed number of bits about its example.
One statistical query is answered by extracting a single bit per sample in
a fresh batch, with Pr[bit = 1] = (1 + phi(z)) / 2, and averaging the
debiased values 2b - 1. No privacy scaling is involved, so batches are a
factor ~(2/c)^2 smaller than their locally-private counterparts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rng import derive_seed, generator
from .errors import (
    BudgetExceeded,
    ContractViolation,
    PreconditionError,
    SizingError,
)
from .ldp import PrivacyLedger, _coordinate_batches, _resolve_batch
from .sq import checked_values

RANGE_TOL = 1e-12


def comm_batch_size(t: int, tau: float, delta: float) -> int:
    """Per-query batch so all t answers are within tau w.p. >= 1 - delta."""
    if t < 1:
        raise PreconditionError("need at least one query")
    if not (0 < delta < 1 and tau > 0):
        raise PreconditionError("need tau > 0 and delta in (0, 1)")
    return math.ceil(2.0 * math.log(2.0 * t / delta) / (tau * tau))


@dataclass(frozen=True)
class BitExtractor:
    """Releases exactly `bits` bits about one example."""

    bits: int
    apply_fn: Callable[[np.ndarray, float, int], tuple]

    def __post_init__(self):
        if self.bits < 1:
            raise PreconditionError("an extractor must release at least one bit")

    def apply(self, x: np.ndarray, y: float, seed: int) -> tuple:
        out = tuple(int(b) for b in self.apply_fn(x, y, seed))
        if len(out) != self.bits or any(b not in (0, 1) for b in out):
            raise ContractViolation(
                f"extractor produced {out!r}, expected {self.bits} bits"
            )
        return out


def one_bit_extractor(phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
                      ) -> BitExtractor:
    """Single bit with Pr[1] = (1 + phi(z)) / 2; debias 2b - 1 is unbiased."""

    def apply_fn(x, y, seed):
        X = np.asarray(x, dtype=float).reshape(1, -1)
        v = float(np.asarray(phi(X, np.array([float(y)])))[0])
        if abs(v) > 1.0 + RANGE_TOL:
            raise ContractViolation(f"extractor input value {v:.6g} outside [-1, 1]")
        p_one = (1.0 + v) / 2.0
        return (1,) if generator(seed).random() < p_one else (0,)

    return BitExtractor(bits=1, apply_fn=apply_fn)


class BitLedger(PrivacyLedger):
    """Per-client bit accounting; identical mechanics, integer amounts."""

    def __init__(self, cap: int):
        if int(cap) != cap or cap < 1:
            raise PreconditionError("bit cap must be a positive integer")
        super().__init__(cap=float(cap))


def comm_invoke(ledger: BitLedger, S, i: int, R: BitExtractor,
                seed: int) -> tuple:
    """Extract R.bits bits from sample i of S, charging the bit ledger."""
    if ledger.spent(i) + R.bits > ledger.cap + 1e-12:
        raise BudgetExceeded(
            f"index {i} cannot afford {R.bits} bits "
            f"(spent {ledger.spent(i):.0f} of cap {ledger.cap:.0f})"
        )
    out = R.apply(S.X[i], float(S.y[i]), derive_seed(seed, "comm-invoke", i))
    ledger.charge(i, float(R.bits))
    return out


def comm_estimate_mean(S, indices, phi, seed: int) -> float:
    """Mean of debiased one-bit extractions over the batch, clamped to [-1,1].

    phi is a query fn, or its values already evaluated on the batch rows.
    """
    X, y, counts = _resolve_batch(S, indices)
    n = int(counts.sum())
    if n < 1:
        raise PreconditionError("empty batch")
    values = checked_values(phi(X, y) if callable(phi) else phi, y.shape)
    p_one = (1.0 + values) / 2.0
    rng = generator(seed)
    ones = rng.binomial(counts, p_one)
    total = 2.0 * float(ones.sum()) - n
    return float(np.clip(total / n, -1.0, 1.0))


@dataclass
class CommProtocolReport:
    """Round structure, sample usage, and per-query records of a compiled run."""

    rounds: int
    samples_used: int
    bits: int
    per_round_extractors: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    ledger: BitLedger | None = None

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "n": self.samples_used,
            "bits": self.bits,
            "queries": self.queries,
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def compile_sq_to_comm(driver, S, tau: float, delta: float,
                       seed: int = 0) -> tuple[object, CommProtocolReport]:
    """Run an SQ driver with one extracted bit per sample, fresh batches.

    Mirrors the locally-private compiler: driver round structure is
    preserved, each answer is within tau of the true mean with probability
    at least 1 - delta overall, and every client releases exactly one bit.
    """
    t = int(driver.max_queries)
    batch = comm_batch_size(t, tau, delta)
    need = t * batch
    if len(S) < need:
        raise SizingError(
            f"need {need} samples ({t} queries x batch {batch}), have {len(S)}",
            required=need,
        )
    ledger = BitLedger(cap=1)
    report = CommProtocolReport(rounds=0, samples_used=0, bits=1, ledger=ledger)
    cursor = 0
    query_index = 0
    round_index = 0
    queries = list(driver.begin())
    while queries:
        if query_index + sum(q.width for q in queries) > t:
            raise BudgetExceeded(
                f"driver exceeded its declared bound of {t} queries"
            )
        answers = []
        names = []
        for q in queries:
            for j, (span, values) in enumerate(
                    _coordinate_batches(S, q, cursor, batch)):
                ledger.charge_span(span.start, span.stop, 1.0)
                est = comm_estimate_mean(
                    S, span, values,
                    derive_seed(seed, "comm-query", query_index),
                )
                answers.append(est)
                names.append(q.coordinate_name(j) or f"q{query_index}")
                report.queries.append(
                    {
                        "round": round_index,
                        "label_dep": q.label_dependent,
                        "tau": tau,
                        "answer": est,
                    }
                )
                cursor += batch
                query_index += 1
        report.per_round_extractors.append(names)
        nxt = driver.feed(answers)
        round_index += 1
        queries = list(nxt) if nxt is not None else []
    report.rounds = round_index
    report.samples_used = cursor
    return driver.result(), report
