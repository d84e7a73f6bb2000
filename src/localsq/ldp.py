"""Randomized response, private mean estimation, and the SQ compiler.

The mechanism throughout is randomized response on one bounded value per
client: a client holding example z releases a single bit whose bias encodes
phi(z), scaled by a coefficient c. A `Channel` fixes c, what each client
pays for its bit, and the batch rule. The locally private channel has
c = (e^eps - 1)/(e^eps + 1), so that the two possible outputs never differ
in probability by more than a factor e^eps; the one-bit channel
(`localsq.comm`) is the same simulation with c = 1. `ldp_channel` checks
that bound at construction on the float64 probabilities the channel draws
from, and refuses an epsilon whose rounding breaks it. Averaging debiased bits
over a fresh batch answers one statistical query, so a channel is an SQ
oracle (`ChannelOracle`); running a query driver against it turns any SQ
algorithm into a protocol on the channel with the same round structure.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, generator
from .core import LabeledSource, SampleStream
from .errors import BudgetExceeded, PreconditionError, SizingError
from .sq import StatQuery, TranscriptingOracle, checked_values, \
    evaluate_on_support, run_driver

CHARGE_TOL = 1e-12
PRIVACY_TOL = 1e-9


def rr_coefficient(epsilon: float) -> float:
    """Bias coefficient c = (e^eps - 1)/(e^eps + 1) of randomized response;
    1.0 from eps = 38 on, which the formula rounds to before exp overflows."""
    if not 0 < epsilon < math.inf:
        raise PreconditionError("epsilon must be positive and finite")
    return 1.0 if epsilon >= 38.0 else (
        (math.exp(epsilon) - 1.0) / (math.exp(epsilon) + 1.0))


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
        spread = self.c * self.c * tau * tau
        batch = (self.hoeffding * math.log(2.0 * t / delta) / spread
                 if spread else math.inf)
        # tau infinite or tau * tau underflowing leaves no batch, and numpy's
        # int64 binomial takes no batch above 2**62.
        if not 0 < batch <= 2**62:
            raise PreconditionError(f"tau = {tau!r} at coefficient c = "
                                    f"{self.c!r} gives no usable batch size")
        return math.ceil(batch)

    def p_plus(self, v):
        """Probability that a client holding v, clipped to [-1, 1], sends +1."""
        return 0.5 + self.c * np.clip(v, -1.0, 1.0) / 2.0

    def privacy_ratio(self) -> float:
        """Largest ratio of one message's probabilities over two clients.

        p_plus is monotone in v, so v = +-1 attain it; inf when either
        message is impossible at one of them.
        """
        hi, lo = float(self.p_plus(1.0)), float(self.p_plus(-1.0))
        if lo == 0.0 or hi == 1.0:
            return math.inf
        return max(hi / lo, (1.0 - lo) / (1.0 - hi))

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
        return ((2.0 * plus - n) / (self.c * n)).clip(-1.0, 1.0)


def ldp_channel(epsilon: float) -> Channel:
    """The epsilon-locally-private channel: randomized response at epsilon.

    Refused unless c > 0 and the float64 message probabilities stay within
    a factor e^epsilon (up to PRIVACY_TOL relative) of each other.
    """
    channel = Channel(c=rr_coefficient(epsilon), budget_key="epsilon",
                      budget=epsilon, hoeffding=8.0, seed_label="ldp-query")
    if channel.c == 0.0:
        raise PreconditionError(
            f"epsilon = {epsilon!r} rounds the coefficient c to 0")
    # The ratio is inf wherever exp(epsilon) would overflow, so test it first.
    ratio = channel.privacy_ratio()
    if ratio == math.inf or ratio > math.exp(epsilon) * (1.0 + PRIVACY_TOL):
        raise PreconditionError(
            f"epsilon = {epsilon!r} is not met in float64: the message "
            f"probabilities at c = {channel.c!r} differ by a factor {ratio!r}")
    return channel


def ldp_batch_size(t: int, tau: float, delta: float, epsilon: float) -> int:
    """Per-query batch so all t answers are within tau w.p. >= 1 - delta."""
    return ldp_channel(epsilon).batch_size(t, tau, delta)


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
    increasing spans a `ChannelOracle` charges cost two bisects and an append.
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
        if not amount >= 0:
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


class ChannelOracle(TranscriptingOracle):
    """A channel answering as an SQ oracle of tolerance tau, w.p. 1 - delta.

    Budgeting reserves t batches up front, each sized so that with
    probability at least 1 - delta all t answers are within tau of their
    means. Every query coordinate is answered on its own contiguous batch
    of previously-untouched clients, so each client sends exactly one
    message and spends the channel's budget once. A block of width w is
    range checked on the support, charged as one ledger span of w batches
    and answered with one `stream_estimates` draw seeded by its first
    coordinate's index. A query past the bound of t, or asking for a
    tolerance finer than tau, is refused unasked. A label-free block is
    evaluated with y=None, so one that reads the labels is refused before
    anything is charged or recorded.
    """

    def __init__(self, source: LabeledSource, channel: Channel, t: int,
                 tau: float, delta: float, seed: int = 0):
        super().__init__()
        self.source, self.channel, self.seed = source, channel, seed
        self.t, self.tau = int(t), tau
        self.batch = channel.batch_size(self.t, tau, delta)
        self.ledger = PrivacyLedger(cap=channel.budget)

    def _answer(self, q: StatQuery) -> np.ndarray:
        first = len(self.transcript)
        if first + q.width > self.t:
            raise BudgetExceeded(
                f"driver exceeded its declared bound of {self.t} queries")
        if q.tau < self.tau:
            raise PreconditionError(
                f"query tolerance {q.tau!r} is finer than the channel's "
                f"{self.tau!r}")
        start = self.samples_used
        stop = start + q.width * self.batch
        # Every value is checked before the ledger or transcript moves.
        block = evaluate_on_support(q, self.source)
        self.ledger.charge_span(start, stop, self.channel.budget)
        answers = self.channel.stream_estimates(
            self.source.dist.probs, block, self.batch,
            derive_seed(self.seed, self.channel.seed_label, first))
        self.samples_used = stop
        return answers

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


def compile_sq(driver, S, channel: Channel, tau: float, delta: float,
               seed: int = 0) -> tuple[object, ChannelOracle]:
    """Run an SQ driver against a `ChannelOracle` sized for its bound.

    The oracle reserves t = driver.max_queries batches. S is a
    LabeledSource, read as a stream of exactly t batches, or a SampleStream
    of at least t batches; only its source and length matter. The rounds
    are `run_driver`'s, so a driver that asks everything at once compiles
    to a one-round protocol. Returns the driver's result and the oracle.
    """
    labeled = isinstance(S, LabeledSource)
    oracle = ChannelOracle(S if labeled else S.source, channel,
                           driver.max_queries, tau, delta, seed)
    need = oracle.t * oracle.batch
    if not labeled and len(S) < need:
        raise SizingError(f"need {need} samples ({oracle.t} queries x batch "
                          f"{oracle.batch}), have {len(S)}", required=need)
    run_driver(driver, oracle.ask)
    return driver.result(), oracle


def compile_sq_to_ldp(driver, S, epsilon: float, tau: float, delta: float,
                      seed: int = 0) -> tuple[object, ChannelOracle]:
    """compile_sq on the epsilon-locally-private channel."""
    return compile_sq(driver, S, ldp_channel(epsilon), tau, delta, seed)

