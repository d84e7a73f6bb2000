"""Local randomizers, private mean estimation, and the SQ-to-LDP compiler.

The mechanism throughout is randomized response on one bounded value per
client: a client holding example z releases a single bit whose bias encodes
phi(z), scaled by c = (e^eps - 1)/(e^eps + 1) so that the two possible
outputs never differ in probability by more than a factor e^eps. Averaging
debiased bits over a fresh batch answers one statistical query; running a
query driver against such batches turns any SQ algorithm into a locally
private protocol with the same round structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._rng import derive_seed, generator
from .core import counts_view
from .errors import (
    BudgetExceeded,
    ContractViolation,
    PreconditionError,
    SizingError,
)
from .sq import StatQuery

RANGE_TOL = 1e-12
CHARGE_TOL = 1e-12


def rr_coefficient(epsilon: float) -> float:
    """Bias coefficient c = (e^eps - 1)/(e^eps + 1) of randomized response."""
    if not epsilon > 0:
        raise PreconditionError("epsilon must be positive")
    return (math.exp(epsilon) - 1.0) / (math.exp(epsilon) + 1.0)


def ldp_batch_size(t: int, tau: float, delta: float, epsilon: float) -> int:
    """Per-query batch so all t answers are within tau w.p. >= 1 - delta."""
    if t < 1:
        raise PreconditionError("need at least one query")
    if not (0 < delta < 1 and tau > 0):
        raise PreconditionError("need tau > 0 and delta in (0, 1)")
    c = rr_coefficient(epsilon)
    return math.ceil(8.0 * math.log(2.0 * t / delta) / (c * c * tau * tau))


@dataclass(frozen=True)
class LocalRandomizer:
    """A per-client randomizer with an analytic output distribution.

    apply draws one message from the client's example; prob reports the
    exact probability of a message given an example, which is what the
    privacy verifier enumerates; debias maps a message back to an unbiased
    estimate of the encoded value.
    """

    epsilon: float
    message_space: tuple
    apply_fn: Callable[[np.ndarray, float, int], object]
    prob_fn: Callable[[np.ndarray, float, object], float]
    debias_fn: Callable[[object], float]

    def apply(self, x: np.ndarray, y: float, seed: int) -> object:
        return self.apply_fn(x, y, seed)

    def prob(self, x: np.ndarray, y: float, message: object) -> float:
        return self.prob_fn(x, y, message)

    def debias(self, message: object) -> float:
        return self.debias_fn(message)


def rr_randomizer(phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  epsilon: float) -> LocalRandomizer:
    """Randomized response for a [-1,1]-valued function of one example.

    Emits +1 with probability 1/2 + c*phi(z)/2, else -1. The output-bit
    probabilities lie in [(1-c)/2, (1+c)/2], so any two examples' message
    probabilities are within a factor (1+c)/(1-c) = e^eps of each other.
    """
    c = rr_coefficient(epsilon)

    def value_of(x: np.ndarray, y: float) -> float:
        X = np.asarray(x, dtype=float).reshape(1, -1)
        v = float(np.asarray(phi(X, np.array([float(y)])))[0])
        if abs(v) > 1.0 + RANGE_TOL:
            raise ContractViolation(f"randomizer input value {v:.6g} outside [-1, 1]")
        return v

    def apply_fn(x, y, seed):
        p_plus = 0.5 + c * value_of(x, y) / 2.0
        return 1 if generator(seed).random() < p_plus else -1

    def prob_fn(x, y, message):
        if message not in (1, -1):
            raise PreconditionError("message outside the randomizer's space")
        p_plus = 0.5 + c * value_of(x, y) / 2.0
        return p_plus if message == 1 else 1.0 - p_plus

    def debias_fn(message):
        return float(message) / c

    return LocalRandomizer(
        epsilon=epsilon,
        message_space=(-1, 1),
        apply_fn=apply_fn,
        prob_fn=prob_fn,
        debias_fn=debias_fn,
    )


class PrivacyLedger:
    """Per-client privacy accounting with a hard cap.

    Single-index charges land in a dict; compiler batches charge contiguous
    index spans so that million-client runs stay O(#batches). A charge that
    would push any index past the cap raises before recording anything.
    """

    def __init__(self, cap: float):
        if not cap > 0:
            raise PreconditionError("cap must be positive")
        self.cap = float(cap)
        self._single: dict[int, float] = {}
        self._spans: list[tuple[int, int, float]] = []

    def spent(self, i: int) -> float:
        total = self._single.get(i, 0.0)
        for start, stop, amount in self._spans:
            if start <= i < stop:
                total += amount
        return total

    @property
    def per_index_spent(self) -> dict[int, float]:
        """Materialized map; intended for small ledgers (tests, demos)."""
        out = dict(self._single)
        for start, stop, amount in self._spans:
            for i in range(start, stop):
                out[i] = out.get(i, 0.0) + amount
        return out

    def charge(self, i: int, amount: float):
        if amount < 0:
            raise PreconditionError("charge must be nonnegative")
        if self.spent(i) + amount > self.cap + CHARGE_TOL:
            raise BudgetExceeded(
                f"index {i}: spent {self.spent(i):.6g} + {amount:.6g} exceeds "
                f"cap {self.cap:.6g}"
            )
        self._single[i] = self._single.get(i, 0.0) + amount

    def charge_span(self, start: int, stop: int, amount: float):
        if amount < 0:
            raise PreconditionError("charge must be nonnegative")
        if not 0 <= start < stop:
            raise PreconditionError("empty or negative span")
        overlap = [(s, t, a) for s, t, a in self._spans
                   if s < stop and start < t]
        # Summed spend peaks at an overlapping span's start or a single charge.
        points = {start} | {s for s, _, _ in overlap if s > start} | {
            i for i in self._single if start <= i < stop}
        worst = max(self._single.get(i, 0.0)
                    + sum(a for s, t, a in overlap if s <= i < t)
                    for i in points)
        if worst + amount > self.cap + CHARGE_TOL:
            raise BudgetExceeded(
                f"span [{start}, {stop}): spending {amount:.6g} over existing "
                f"{worst:.6g} exceeds cap {self.cap:.6g}"
            )
        self._spans.append((start, stop, amount))


def lr_invoke(ledger: PrivacyLedger, S, i: int, R: LocalRandomizer,
              seed: int) -> object:
    """Apply randomizer R to sample i of S, charging R.epsilon to the ledger."""
    if ledger.spent(i) + R.epsilon > ledger.cap + CHARGE_TOL:
        raise BudgetExceeded(
            f"index {i} cannot afford epsilon {R.epsilon:.6g} "
            f"(spent {ledger.spent(i):.6g} of cap {ledger.cap:.6g})"
        )
    message = R.apply(S.X[i], float(S.y[i]), derive_seed(seed, "lr-invoke", i))
    ledger.charge(i, R.epsilon)
    return message


def _resolve_batch(S, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, labels, multiplicities for a batch given as a span or index list."""
    if isinstance(indices, tuple) and len(indices) == 2:
        return counts_view(S, int(indices[0]), int(indices[1]))
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise PreconditionError("empty batch")
    return S.X[idx], S.y[idx], np.ones(idx.size, dtype=np.int64)


def ldp_estimate_mean(S, indices, phi, epsilon: float, seed: int) -> float:
    """Estimate E[phi] from one randomized-response bit per batch sample.

    Returns clamp(sum(o_i) / (c n), -1, 1); the pre-clamp estimate is
    unbiased. Rows with multiplicity k contribute a Binomial(k, p) count of
    +1 messages, identical in distribution to k independent clients.
    """
    X, y, counts = _resolve_batch(S, indices)
    n = int(counts.sum())
    if n < 1:
        raise PreconditionError("empty batch")
    c = rr_coefficient(epsilon)
    values = np.asarray(phi(X, y), dtype=float)
    if values.shape != y.shape:
        raise ContractViolation("query fn returned a wrong-shaped batch")
    worst = float(np.max(np.abs(values))) if values.size else 0.0
    if worst > 1.0 + RANGE_TOL:
        raise ContractViolation(f"query value {worst:.6g} outside [-1, 1]")
    p_plus = 0.5 + c * values / 2.0
    rng = generator(seed)
    plus = rng.binomial(counts, p_plus)
    total = 2.0 * float(plus.sum()) - n
    return float(np.clip(total / (c * n), -1.0, 1.0))


@dataclass
class LdpProtocolReport:
    """Round structure, sample usage, and per-query records of a compiled run."""

    rounds: int
    samples_used: int
    epsilon: float
    per_round_randomizers: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    ledger: PrivacyLedger | None = None

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "n": self.samples_used,
            "epsilon": self.epsilon,
            "queries": self.queries,
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def compile_sq_to_ldp(driver, S, epsilon: float, tau: float, delta: float,
                      seed: int = 0) -> tuple[object, LdpProtocolReport]:
    """Run an SQ driver against locally-randomized fresh-batch estimates.

    Every query is answered by ldp_estimate_mean on its own contiguous batch
    of previously-untouched samples, so each client is randomized exactly
    once and the whole run is epsilon-locally-private. Budgeting reserves
    driver.max_queries batches up front; with probability at least 1 - delta
    every answer is within tau of the true mean. The report preserves the
    driver's round structure: a driver that asks everything at once compiles
    to a one-round protocol.
    """
    t = int(driver.max_queries)
    batch = ldp_batch_size(t, tau, delta, epsilon)
    need = t * batch
    if len(S) < need:
        raise SizingError(
            f"need {need} samples ({t} queries x batch {batch}), have {len(S)}",
            required=need,
        )
    ledger = PrivacyLedger(cap=epsilon)
    report = LdpProtocolReport(
        rounds=0, samples_used=0, epsilon=epsilon, ledger=ledger
    )
    cursor = 0
    query_index = 0
    round_index = 0
    queries = list(driver.begin())
    while queries:
        if query_index + len(queries) > t:
            raise BudgetExceeded(
                f"driver exceeded its declared bound of {t} queries"
            )
        answers = []
        names = []
        for q in queries:
            span = (cursor, cursor + batch)
            ledger.charge_span(cursor, cursor + batch, epsilon)
            est = ldp_estimate_mean(
                S, span, q.fn, epsilon,
                derive_seed(seed, "ldp-query", query_index),
            )
            answers.append(est)
            names.append(q.name or f"q{query_index}")
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
        report.per_round_randomizers.append(names)
        nxt = driver.feed(answers)
        round_index += 1
        queries = list(nxt) if nxt is not None else []
    report.rounds = round_index
    report.samples_used = cursor
    return driver.result(), report


def verify_randomizer_privacy(R: LocalRandomizer, sample_space) -> float:
    """Max over sample pairs and messages of the output-probability ratio.

    sample_space enumerates (x, y) examples. Returns inf when some message
    is possible under one sample and impossible under another, which is a
    privacy violation at any finite epsilon.
    """
    samples = [(np.asarray(x, dtype=float), float(y)) for x, y in sample_space]
    if not samples:
        raise PreconditionError("empty sample space")
    worst = 1.0
    for x1, y1 in samples:
        for x2, y2 in samples:
            for w in R.message_space:
                num = R.prob(x1, y1, w)
                den = R.prob(x2, y2, w)
                if den == 0.0:
                    if num > 0.0:
                        return math.inf
                    continue
                worst = max(worst, num / den)
    return worst
