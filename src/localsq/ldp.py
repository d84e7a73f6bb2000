"""Randomized response, private mean estimation, and the SQ compiler.

The mechanism throughout is randomized response on one bounded value per
client: a client holding example z releases a single bit whose bias encodes
phi(z), scaled by a coefficient c. A `Channel` fixes c, what each client
pays for its bit, and the batch rule. The locally private channel has
c = (e^eps - 1)/(e^eps + 1), so that the two possible outputs never differ
in probability by more than a factor e^eps; the one-bit channel
(`localsq.comm`) is the same simulation with c = 1. Averaging debiased bits
over a fresh batch answers one statistical query; running a query driver
against such batches turns any SQ algorithm into a protocol on the channel
with the same round structure.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rng import derive_seed, generator
from .core import LabeledSource, SampleStream
from .errors import BudgetExceeded, PreconditionError, SizingError
from .sq import InteractivityTranscript, StatQuery, \
    checked_values, evaluate_block, run_driver

CHARGE_TOL = 1e-12


def rr_coefficient(epsilon: float) -> float:
    """Bias coefficient c = (e^eps - 1)/(e^eps + 1) of randomized response."""
    if not epsilon > 0:
        raise PreconditionError("epsilon must be positive")
    return (math.exp(epsilon) - 1.0) / (math.exp(epsilon) + 1.0)


@dataclass(frozen=True)
class LocalRandomizer:
    """A per-client randomizer with an analytic output distribution.

    apply draws one message from the client's example; prob reports the
    exact probability of a message given an example, which is what the
    privacy verifier enumerates; debias maps a message back to an unbiased
    estimate of the encoded value.
    """

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


@dataclass(frozen=True)
class Channel:
    """Randomized response with coefficient c, one message per client.

    A client holding v in [-1, 1] sends +1 with probability p_plus(v) =
    1/2 + c*v/2, else -1; a message debiased by 1/c is an unbiased estimate
    of v. Every client pays `budget` (reported under `budget_key`) for its
    one message. `hoeffding` is the constant K of the batch rule
    ceil(K log(2t/delta) / (c^2 tau^2)), and `seed_label` labels the
    per-query seed derivation.
    """

    c: float
    budget_key: str
    budget: float
    hoeffding: float
    seed_label: str

    def batch_size(self, t: int, tau: float, delta: float) -> int:
        """Per-query batch so all t answers are within tau w.p. >= 1 - delta."""
        if t < 1:
            raise PreconditionError("need at least one query")
        if not (0 < delta < 1 and tau > 0):
            raise PreconditionError("need tau > 0 and delta in (0, 1)")
        return math.ceil(self.hoeffding * math.log(2.0 * t / delta)
                         / (self.c * self.c * tau * tau))

    def p_plus(self, v):
        """Probability that a client holding value v sends +1."""
        return 0.5 + self.c * v / 2.0

    def estimate_mean(self, S: SampleStream, span: range, phi,
                      seed: int) -> float:
        """Estimate E[phi] from one message per client of a stream span.

        span is a range with step 1 inside the stream; phi is evaluated on
        the source's support rows. Returns clamp(sum(o_i) / (c n), -1, 1),
        whose pre-clamp value is unbiased: the width-1 case of
        `stream_estimates`.
        """
        if not isinstance(span, range) or span.step != 1:
            raise PreconditionError("a batch is a span: a range with step 1")
        S.check_span(span.start, span.stop)
        source = S.source
        values = checked_values(phi(source.dist.matrix, source.labels),
                                source.labels.shape)
        return float(self.stream_estimates(
            source.dist.probs, values[:, None], len(span), seed)[0])

    def stream_estimates(self, probs, block, n: int, seed: int) -> np.ndarray:
        """Estimates of a block's columns, each from its own n stream clients.

        block holds the values on the support rows. Each client of column j
        sends +1 with probability q_j = sum_i probs[i] p_plus(block[i, j]),
        so the column's +1 count is Binomial(n, q_j); the spans are disjoint,
        so one vector draw from one seed gives independent counts with these
        laws. Its element 0 is the scalar draw from that seed.
        """
        # probs may sum to 1 +- PROB_TOL, so q can leave [0, 1] by ulps.
        q = (probs @ self.p_plus(block)).clip(0.0, 1.0)
        rng = generator(seed)
        # numpy's binomial costs about 12 us more per call with an array p;
        # with a scalar p it makes the same first draw.
        plus = (rng.binomial(n, q[0], size=1) if len(q) == 1
                else rng.binomial(n, q))
        return self._debiased(plus, n)

    def _debiased(self, plus, n: int):
        return ((2.0 * plus - n) / (self.c * n)).clip(-1.0, 1.0)

    def randomizer(self, phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
                   ) -> LocalRandomizer:
        """One client's view of the channel for a [-1,1]-valued phi.

        Its output probabilities come from the same p_plus as the
        estimator's draws. They lie in [(1-c)/2, (1+c)/2], so any two
        examples' message probabilities are within a factor (1+c)/(1-c).
        """

        def p_plus(x, y):
            X = np.asarray(x, dtype=float).reshape(1, -1)
            v = checked_values(phi(X, np.array([float(y)])), (1,))[0]
            return self.p_plus(float(v))

        def prob_fn(x, y, message):
            if message not in (1, -1):
                raise PreconditionError("message outside the randomizer's space")
            p = p_plus(x, y)
            return p if message == 1 else 1.0 - p

        return LocalRandomizer(
            message_space=(-1, 1),
            apply_fn=lambda x, y, seed: (
                1 if generator(seed).random() < p_plus(x, y) else -1),
            prob_fn=prob_fn,
            debias_fn=lambda message: float(message) / self.c,
        )


def ldp_channel(epsilon: float) -> Channel:
    """The epsilon-locally-private channel: randomized response at epsilon."""
    return Channel(c=rr_coefficient(epsilon), budget_key="epsilon",
                   budget=epsilon, hoeffding=8.0, seed_label="ldp-query")


def ldp_batch_size(t: int, tau: float, delta: float, epsilon: float) -> int:
    """Per-query batch so all t answers are within tau w.p. >= 1 - delta."""
    return ldp_channel(epsilon).batch_size(t, tau, delta)


def rr_randomizer(phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  epsilon: float) -> LocalRandomizer:
    """Randomized response for a [-1,1]-valued function of one example.

    Emits +1 with probability 1/2 + c*phi(z)/2, else -1, so any two
    examples' message probabilities are within a factor e^eps.
    """
    return ldp_channel(epsilon).randomizer(phi)


def ldp_estimate_mean(S, span, phi, epsilon: float, seed: int) -> float:
    """Estimate E[phi] on the epsilon-locally-private channel."""
    return ldp_channel(epsilon).estimate_mean(S, span, phi, seed)


class PrivacyLedger:
    """Per-client accounting of epsilon or bits with a hard cap.

    The spend is a piecewise-constant function of the client index, kept as
    sorted breakpoints `_bounds` (starting at 0) and the spend `_levels[k]`
    on each piece [_bounds[k], _bounds[k+1]); the last piece runs to
    infinity and holds 0. Memory is O(#breakpoints) however many clients a
    span covers. A charge bisects to the pieces its span covers, so it and
    a `spent` lookup cost O(log n) plus the pieces touched; the disjoint,
    increasing spans `compile_sq` charges cost two bisects and an append.
    A one-client charge is a one-index span.
    """

    def __init__(self, cap: float):
        if not cap > 0:
            raise PreconditionError("cap must be positive")
        self.cap = float(cap)
        self._bounds: list[int] = [0]
        self._levels: list[float] = [0.0]

    def spent(self, i: int) -> float:
        if i < 0:
            return 0.0
        return self._levels[bisect_right(self._bounds, i) - 1]

    @property
    def per_index_spent(self) -> dict[int, float]:
        """Map of every index with positive spend to its spend.

        A zero-amount charge leaves it unchanged. Materialized, so intended
        for small ledgers (tests, demos).
        """
        return {i: level
                for lo, hi, level in zip(self._bounds, self._bounds[1:],
                                         self._levels)
                if level > 0 for i in range(lo, hi)}

    def charge_span(self, start: int, stop: int, amount: float):
        """Charge `amount` to every client in [start, stop), as a filter.

        Refuses with BudgetExceeded, before recording anything, when the
        summed spend of some index in the span plus `amount` would pass the
        cap; the message reports the largest existing spend in the span.
        """
        if amount < 0:
            raise PreconditionError("charge must be nonnegative")
        if not 0 <= start < stop:
            raise PreconditionError("empty or negative span")
        bounds, levels = self._bounds, self._levels
        # Pieces lo..hi-1 meet the span: piece lo holds start, and hi is
        # the first breakpoint at or after stop (len(bounds) if none).
        lo = bisect_right(bounds, start) - 1
        hi = bisect_left(bounds, stop)
        worst = max(levels[lo:hi])
        if worst + amount > self.cap + CHARGE_TOL:
            raise BudgetExceeded(
                f"span [{start}, {stop}): spending {amount:.6g} over existing "
                f"{worst:.6g} exceeds cap {self.cap:.6g}"
            )
        if bounds[lo] != start:
            lo += 1
            hi += 1
            bounds.insert(lo, start)
            levels.insert(lo, levels[lo - 1])
        if hi == len(bounds) or bounds[hi] != stop:
            bounds.insert(hi, stop)
            levels.insert(hi, levels[hi - 1])
        for k in range(lo, hi):
            levels[k] += amount


@dataclass
class ProtocolReport:
    """Round structure, sample usage, and the transcript of a compiled run.

    The transcript is the same record the SQ oracles keep: one record per
    answered block, tagged with its round and label flag.
    """

    samples_used: int
    channel: Channel
    transcript: InteractivityTranscript = field(
        default_factory=InteractivityTranscript)
    ledger: PrivacyLedger | None = None

    @property
    def rounds(self) -> int:
        """Rounds the run used, read from its transcript."""
        return self.transcript.rounds_used()

    @property
    def queries(self) -> list[dict]:
        """The transcript's entries as records, one per answered coordinate."""
        return self.transcript.records()

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "n": self.samples_used,
            self.channel.budget_key: self.channel.budget,
            "queries": self.queries,
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def compile_sq(driver, S, channel: Channel, tau: float, delta: float,
               seed: int = 0) -> tuple[object, ProtocolReport]:
    """Run an SQ driver against fresh-batch estimates on a channel.

    Every query coordinate is answered on its own contiguous batch of
    previously-untouched clients, so each client sends exactly one message
    and spends the channel's budget once. A block of width w is range
    checked on the support, charged as one span of w batches and answered
    with one `stream_estimates` draw seeded by its first coordinate's
    index. Budgeting reserves t = driver.max_queries batches up front; with
    probability at least 1 - delta every answer is within tau of the true
    mean. S is a LabeledSource, read as a stream of exactly t batches, or a
    SampleStream of at least t batches; only its source and length matter.
    The rounds are `run_driver`'s and the transcript records each answer
    under its round, so a driver that asks everything at once compiles to a
    one-round protocol. A query past the declared bound is refused unasked.
    """
    t = int(driver.max_queries)
    batch = channel.batch_size(t, tau, delta)
    need = t * batch
    source, n = (S, need) if isinstance(S, LabeledSource) else (S.source, len(S))
    if n < need:
        raise SizingError(
            f"need {need} samples ({t} queries x batch {batch}), have {n}",
            required=need,
        )
    ledger = PrivacyLedger(cap=channel.budget)
    report = ProtocolReport(samples_used=0, channel=channel, ledger=ledger)

    def ask(q: StatQuery, round_index: int) -> list[float]:
        first = len(report.transcript)
        if first + q.width > t:
            raise BudgetExceeded(
                f"driver exceeded its declared bound of {t} queries")
        start = report.samples_used
        stop = start + q.width * batch
        # Every value is checked before the ledger or transcript moves.
        block = evaluate_block(q, source.dist.matrix, source.labels)
        ledger.charge_span(start, stop, channel.budget)
        answers = channel.stream_estimates(
            source.dist.probs, block, batch,
            derive_seed(seed, channel.seed_label, first)).tolist()
        report.transcript.append(round_index, q.label_dependent, tau, answers)
        report.samples_used = stop
        return answers

    run_driver(driver, ask)
    return driver.result(), report


def compile_sq_to_ldp(driver, S, epsilon: float, tau: float, delta: float,
                      seed: int = 0) -> tuple[object, ProtocolReport]:
    """compile_sq on the epsilon-locally-private channel."""
    return compile_sq(driver, S, ldp_channel(epsilon), tau, delta, seed)


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
