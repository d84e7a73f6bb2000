"""Statistical-query abstraction and oracle implementations.

A statistical query is a bounded function of one labeled example; an oracle
answers with something close to its mean under the source. A query may also
be a block of k coordinate queries sharing one tolerance, such as the d
coordinates of a gradient, which is one mean vector: its fn returns an
(n, k) array, column j being coordinate j, and is evaluated once per batch
for all k coordinates. Budgets still count coordinates: an oracle answers
a block with k answers and a driver is fed one answer per coordinate. A
transcript holds one record per answered block, and only this module knows
its format; readers that count coordinates expand it. Four oracles share
one `TranscriptingOracle.ask`, which answers and records every query: the
exact oracle (the true mean), a perturbing oracle exercising
worst-case-but-valid answer policies, an adversarial oracle that hides
the labels of weakly-correlated queries, and the compiled channel,
`localsq.ldp.ChannelOracle`. All four answer from `evaluate_on_support`,
fn(X, f(X)) on the support, the values the channel randomizes; `decompose`
splits a query as g(x) + y h(x). A transcript records each answer with its
interaction round, and `label_dependent_rounds` reads back the rounds that
touched labels, so label-non-adaptivity is a checkable property of a run,
not a promise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._rng import derive_seed, generator
from .core import LabeledSource
from .errors import BudgetExceeded, ContractViolation, PreconditionError, ProtocolError

RANGE_TOL = 1e-12

QueryFn = Callable[[np.ndarray, "np.ndarray | None"], np.ndarray]


@dataclass(frozen=True)
class StatQuery:
    """A [-1,1]-valued function of a labeled example, with a tolerance request.

    fn is batch-first: fn(X, y) maps an (n, d) array of points and an (n,)
    array of labels to n values, or, for a block of width > 1, to an
    (n, width) array whose column j is the value of coordinate j. A block's
    coordinates share tau, label_dependent and scale, and each is answered
    and recorded as one query. label_dependent declares whether fn reads
    y at all: a label-free fn is called as fn(X, None), so one that does
    arithmetic on y or reads its attributes is refused. That is a contract,
    not a sandbox: a comparison such as `y == 1` is just False, and a fn
    that tests `y is None` can still lie. scale records the factor a
    consumer multiplies the answer by when fn is a range-normalized
    stand-in for a larger one. An oracle reads nothing else, and the
    transcript keeps label_dependent, tau and scale with the answers.
    """

    fn: QueryFn
    tau: float
    label_dependent: bool
    scale: float = 1.0
    width: int = 1

    def __post_init__(self):
        if not 0 < self.tau < np.inf:  # NaN fails this test too
            raise PreconditionError(
                f"tolerance must be positive and finite, not {self.tau!r}")
        if self.width < 1:
            raise PreconditionError("a query needs at least one coordinate")


def checked_values(values, shape: tuple) -> np.ndarray:
    """values as a float array; refused unless real numbers of this shape in
    [-1, 1]. n values fill an (n, 1) shape."""
    try:
        values = np.asarray(values)
        if values.dtype.kind not in "biuf":  # strings, complex, objects
            raise TypeError(f"{values.dtype} values")
    except (TypeError, ValueError) as exc:  # ValueError: a ragged batch
        raise ContractViolation(f"values are not real numbers: {exc}") from exc
    values = values.astype(float, copy=False)
    if values.shape == shape[:1] and shape[1:] == (1,):
        values = values[:, None]
    if values.shape != shape:
        raise ContractViolation(f"a batch of shape {values.shape} where "
                                f"{shape} is due")
    worst = float(np.abs(values).max()) if values.size else 0.0
    if not worst <= 1.0 + RANGE_TOL:  # NaN fails this test too
        raise ContractViolation(f"value {worst:.6g} outside [-1, 1]")
    return values


def evaluate_block(q: StatQuery, X: np.ndarray, y: np.ndarray | None
                   ) -> np.ndarray:
    """fn(X, y), or fn(X, None) if label-free, as a checked (n, width) array."""
    if q.label_dependent:
        values = q.fn(X, y)
    else:
        try:
            values = q.fn(X, None)
            if values is None:
                raise TypeError("fn returned None")
        except (TypeError, AttributeError) as exc:
            raise ContractViolation("declared label_dependent=False but fn "
                                    f"reads the labels: {exc}") from exc
    return checked_values(values, (X.shape[0], q.width))


def evaluate_on_support(q: StatQuery, src: LabeledSource) -> np.ndarray:
    """fn(X, f(X)) on the support, checked; every oracle answers from it."""
    return evaluate_block(q, src.dist.matrix, src.labels)


def decompose(q: StatQuery, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q on the rows of X split as g(x) + y h(x), as checked (n, width) arrays.

    g = (fn(x, +1) + fn(x, -1)) / 2 and h = (fn(x, +1) - fn(x, -1)) / 2, from
    one call of fn: a label-free block on X alone, with h = 0; a
    label-dependent block on X stacked over both labels."""
    if not q.label_dependent:
        g = evaluate_block(q, X, None)
        return g, np.zeros_like(g)
    n = X.shape[0]
    ones = np.ones(n)
    both = evaluate_block(q, np.vstack([X, X]), np.concatenate([ones, -ones]))
    plus, minus = both[:n], both[n:]
    return (plus + minus) / 2.0, (plus - minus) / 2.0


@dataclass(frozen=True)
class TranscriptEntry:
    round: int
    label_dependent: bool
    tolerance: float
    answer: float
    scale: float = 1.0


class TranscriptBlock(NamedTuple):
    """One answered ask: its answers share round, label flag, tau and scale."""

    round: int
    label_dependent: bool
    tolerance: float
    answers: tuple[float, ...]
    scale: float

    def shared(self) -> dict:
        """The fields every line of the block carries; scale only when not 1."""
        scale = {} if self.scale == 1.0 else {"scale": self.scale}
        return {"label_dep": self.label_dependent, "round": self.round,
                "tau": self.tolerance} | scale

    def to_json(self) -> dict:
        """The block as one object, checked against transcript_block."""
        return self.shared() | {"answers": list(self.answers)}


class InteractivityTranscript:
    """Ordered record of answered blocks; rounds must be nondecreasing."""

    def __init__(self):
        self.blocks: list[TranscriptBlock] = []
        self._count = 0

    def check_round(self, round_index: int) -> int:
        """round_index as an int, refused unless it may be recorded next."""
        round_index = int(round_index)
        if round_index < 0:
            raise ProtocolError("round indices must be >= 0")
        if self.blocks and round_index < self.blocks[-1].round:
            raise ProtocolError(f"round {round_index} issued after round "
                                f"{self.blocks[-1].round}")
        return round_index

    def append(self, round_index: int, label_dependent: bool, tau: float,
               answers, scale: float = 1.0):
        """Record one answered block, or refuse it and leave the record as is."""
        round_index = self.check_round(round_index)
        answers = tuple(np.asarray(answers, dtype=float).ravel().tolist())
        if not answers:
            raise ProtocolError("a block records at least one answer")
        self.blocks.append(TranscriptBlock(
            round_index, label_dependent, tau, answers, scale))
        self._count += len(answers)

    @property
    def entries(self) -> list[TranscriptEntry]:
        """A fresh list of one entry per answered coordinate, in order."""
        return [TranscriptEntry(b.round, b.label_dependent, b.tolerance, a,
                                b.scale)
                for b in self.blocks for a in b.answers]

    def __len__(self) -> int:
        return self._count

    def rounds_used(self) -> int:
        return 0 if not self.blocks else self.blocks[-1].round + 1

    def label_dependent_rounds(self) -> list[int]:
        """The sorted rounds that hold a label-dependent block; a run is
        label-non-adaptive iff this is [] or [0]."""
        return sorted({b.round for b in self.blocks if b.label_dependent})

    def records(self) -> list[dict]:
        return [{"answer": a, **b.shared()} for b in self.blocks
                for a in b.answers]

    def to_jsonl(self) -> str:
        """The records as sorted-key JSON lines: "answer" sorts first, so a
        block's other fields are serialised once, as its lines' tail."""
        lines = []
        for b in self.blocks:
            tail = ", " + json.dumps(b.shared(), sort_keys=True)[1:] + "\n"
            lines.extend('{"answer": ' + json.dumps(a) + tail
                         for a in b.answers)
        return "".join(lines)


def _column_means(src: LabeledSource, values: np.ndarray) -> np.ndarray:
    """Exact mean of each column of an (n, width) block, as one probs @ values."""
    return src.dist.probs @ values


class TranscriptingOracle:
    """Answer bookkeeping shared by every oracle; subclasses give _answer.
    samples_used counts the samples drawn to answer: 0 unless a simulated
    channel draws them."""

    samples_used = 0

    def __init__(self):
        self.transcript = InteractivityTranscript()

    def ask(self, q: StatQuery, round_index: int):
        """Answer q, recorded as one block: a float, or a (width,) array."""
        self.transcript.check_round(round_index)  # before any state changes
        answers = self._answer(q)
        self.transcript.append(round_index, q.label_dependent, q.tau, answers,
                               q.scale)
        return float(answers[0]) if q.width == 1 else answers

    def _answer(self, q: StatQuery) -> np.ndarray:
        raise NotImplementedError


class ExactOracle(TranscriptingOracle):
    """Answers every query with its exact mean under the source."""

    def __init__(self, src: LabeledSource):
        super().__init__()
        self.src = src

    def _answer(self, q: StatQuery) -> np.ndarray:
        return _column_means(self.src, evaluate_on_support(q, self.src))


PERTURBATION_POLICIES = ("grid", "plus_tau", "minus_tau", "uniform")


class PerturbingOracle(TranscriptingOracle):
    """Valid-but-unhelpful oracle: answers within tau of the mean, per policy.

    grid      snap the exact mean to the nearest multiple of tau
    plus_tau  exact mean plus tau
    minus_tau exact mean minus tau
    uniform   exact mean plus a seeded uniform draw from [-tau, tau]

    A block's uniform offsets are one vector draw, one per coordinate.
    """

    def __init__(self, src: LabeledSource, policy: str, seed: int = 0):
        super().__init__()
        if policy not in PERTURBATION_POLICIES:
            raise PreconditionError(f"unknown policy {policy!r}")
        self.src, self.policy = src, policy
        self._rng = generator(derive_seed(seed, "perturbing-oracle"))

    def _answer(self, q: StatQuery) -> np.ndarray:
        exact = _column_means(self.src, evaluate_on_support(q, self.src))
        if self.policy == "grid":
            return np.floor(exact / q.tau + 0.5) * q.tau
        if self.policy == "plus_tau":
            return exact + q.tau
        if self.policy == "minus_tau":
            return exact - q.tau
        return exact + self._rng.uniform(-q.tau, q.tau, size=len(exact))


class AdversarialOracle(TranscriptingOracle):
    """Answers label-blind whenever the query barely correlates with the target.

    Each query is split as g(x) + y*h(x). If the target-correlation
    |E[f(x) h(x)]| reaches the threshold 1/m the oracle concedes the exact
    mean; otherwise it answers E[g(x)], erasing the labels entirely. Every
    answer is within 1/m of the exact mean, so the oracle is a valid
    tolerance-1/m responder while revealing nothing about weakly-correlated
    directions. Negating the target changes no below-threshold answer. A
    block is answered coordinate by coordinate, and each answered coordinate
    counts against the budget m; a refused query spends none of it.
    """

    def __init__(self, src: LabeledSource, m: int):
        super().__init__()
        if m < 1:
            raise PreconditionError("query budget must be >= 1")
        self.src, self.m = src, m
        self.branches: list[str] = []

    def _answer(self, q: StatQuery) -> np.ndarray:
        if len(self.transcript) + q.width > self.m:
            raise BudgetExceeded(
                f"adversarial oracle budget of {self.m} queries exhausted")
        src = self.src
        g, h = decompose(q, src.dist.matrix)
        exact = _column_means(src, evaluate_on_support(q, src))
        correlations = _column_means(src, src.labels[:, None] * h)
        label_blind = _column_means(src, g)
        concede = np.abs(correlations) >= 1.0 / self.m
        self.branches += ["exact" if c else "label_blind" for c in concede]
        return np.where(concede, exact, label_blind)


AskFn = Callable[[StatQuery, int], "float | np.ndarray"]


def run_driver(driver, ask: AskFn) -> int:
    """Run a driver to completion against an answer function; returns rounds.

    A driver has max_queries, begin(), feed(answers) and result(). begin and
    feed return the next round's queries; none ends the run. max_queries
    bounds the queries of all rounds, counting each coordinate of a block,
    and is declared up front so that simulators can size their sample
    budgets. feed gets one flat answer per coordinate, in query order.
    """
    queries = list(driver.begin())
    round_index = 0
    while queries:
        answers = []
        for q in queries:
            answers.extend(np.ravel(ask(q, round_index)).tolist())
        round_index += 1
        nxt = driver.feed(answers)
        queries = list(nxt) if nxt is not None else []
    return round_index
