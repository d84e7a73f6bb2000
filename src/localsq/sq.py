"""Statistical-query abstraction and oracle implementations.

A statistical query is a bounded function of one labeled example; an oracle
answers with something close to its mean under the source. A query may also
be a block of k coordinate queries sharing one tolerance, such as the d
coordinates of a gradient, which is one mean vector: its fn returns an
(n, k) array, column j being coordinate j, and is evaluated once per batch
for all k coordinates. Budgets still count coordinates: an oracle answers
a block with k answers and a driver is fed one answer per coordinate. A
transcript holds one record per answered block, and only this module knows
its format; readers that count coordinates expand it. Three oracles
live here: the exact oracle (answers with the true mean), a perturbing
oracle exercising worst-case-but-valid answer policies, and an adversarial
oracle that hides the labels of weakly-correlated queries. A transcript
records every answered query with its interaction round so that
label-non-adaptivity is a checkable property of a run, not a promise.
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
DEP_TOL = 1e-12

QueryFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StatQuery:
    """A [-1,1]-valued function of a labeled example, with a tolerance request.

    fn is batch-first: fn(X, y) maps an (n, d) array of points and an (n,)
    array of labels to n values, or, for a block of width > 1, to an
    (n, width) array whose column j is the value of coordinate j. A block's
    coordinates share tau, label_dependent and scale, and each is answered
    and recorded as one query. label_dependent declares whether fn reads
    y at all; the declaration is verified against the decomposition on
    every support the query is evaluated on. scale records the factor a
    consumer multiplies the answer by when the submitted function is a
    range-normalized stand-in for a larger quantity.
    """

    fn: QueryFn
    tau: float
    label_dependent: bool
    name: str = ""
    scale: float = 1.0
    width: int = 1

    def __post_init__(self):
        if not self.tau > 0:
            raise PreconditionError("tolerance must be positive")
        if self.width < 1:
            raise PreconditionError("a query needs at least one coordinate")


def checked_values(values, shape: tuple) -> np.ndarray:
    """values as a float array; refused unless of this shape and in [-1, 1]."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ContractViolation("query fn returned a wrong-shaped batch")
    worst = float(np.abs(values).max()) if values.size else 0.0
    if worst > 1.0 + RANGE_TOL:
        raise ContractViolation(f"query value {worst:.6g} outside [-1, 1]")
    return values


def evaluate_block(q: StatQuery, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """q.fn on a batch as a checked (n, width) array."""
    values = np.asarray(q.fn(X, y), dtype=float)
    if q.width == 1 and values.ndim == 1:
        values = values[:, None]
    return checked_values(values, (y.shape[0], q.width))


@dataclass(frozen=True)
class QueryDecomposition:
    """Split of a query into label-free and label-weighted parts.

    For every point and label, g(x) + y * h(x) reconstructs the query value.
    """

    g: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]


def decompose(q: StatQuery) -> QueryDecomposition:
    """g(x) = (fn(x,+1) + fn(x,-1)) / 2, h(x) = (fn(x,+1) - fn(x,-1)) / 2."""

    def part(sign: float):
        def fn(X: np.ndarray) -> np.ndarray:
            X = np.asarray(X, dtype=float)
            ones = np.ones(X.shape[0])
            return (np.asarray(q.fn(X, ones))
                    + sign * np.asarray(q.fn(X, -ones))) / 2.0
        return fn

    return QueryDecomposition(g=part(1.0), h=part(-1.0))


@dataclass(frozen=True)
class TranscriptEntry:
    round: int
    label_dependent: bool
    tolerance: float
    answer: float
    scale: float = 1.0

    def to_json(self) -> dict:
        """The entry as one transcript line's record; scale only when not 1."""
        obj = {
            "round": self.round,
            "label_dep": self.label_dependent,
            "tau": self.tolerance,
            "answer": self.answer,
        }
        if self.scale != 1.0:
            obj["scale"] = self.scale
        return obj


class TranscriptBlock(NamedTuple):
    """One answered ask: its answers share round, label flag, tau and scale."""

    round: int
    label_dependent: bool
    tolerance: float
    answers: tuple[float, ...]
    scale: float


class InteractivityTranscript:
    """Ordered record of answered blocks; rounds must be nondecreasing."""

    def __init__(self):
        self.blocks: list[TranscriptBlock] = []
        self._count = 0

    def append(self, round_index: int, label_dependent: bool, tau: float,
               answers, scale: float = 1.0):
        """Record one answered block, or refuse it and leave the record as is."""
        round_index = int(round_index)
        if round_index < 0:
            raise ProtocolError("round indices must be >= 0")
        if self.blocks and round_index < self.blocks[-1].round:
            raise ProtocolError(
                f"round {round_index} issued after round {self.blocks[-1].round}"
            )
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

    def records(self) -> list[dict]:
        return [e.to_json() for e in self.entries]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(obj, sort_keys=True) + "\n"
                       for obj in self.records())


def assert_label_non_adaptive(t: InteractivityTranscript) -> bool:
    """True iff every label-dependent block was issued in round 0."""
    return all(b.round == 0 for b in t.blocks if b.label_dependent)


def _evaluate_on_support(q: StatQuery, src: LabeledSource):
    """Evaluate fn under both labels, enforcing range and dependence contracts.

    Returns (plus, minus, realized), each (n, width), where realized[i] =
    fn(x_i, f(x_i)). fn is called once, on the support stacked over both
    labels, so a block's label-free work (the halfspace sign weight) runs
    once per evaluation.
    """
    X = src.dist.matrix
    n = X.shape[0]
    ones = np.ones(n)
    both = evaluate_block(q, np.vstack([X, X]), np.concatenate([ones, -ones]))
    plus, minus = both[:n], both[n:]
    # The flag covers the query's declared domain; the evaluated support can
    # only witness dependence, never rule it out, so the lazy check is
    # one-directional.
    actually_dependent = bool(np.abs(plus - minus).max() > DEP_TOL)
    if actually_dependent and not q.label_dependent:
        raise ContractViolation(
            "declared label_dependent=False but support evaluation "
            "shows dependence"
        )
    realized = np.where(src.labels[:, None] > 0, plus, minus)
    return plus, minus, realized


def _column_means(src: LabeledSource, values: np.ndarray) -> np.ndarray:
    """Exact mean of each column, each taken as probs @ a contiguous column."""
    probs = src.dist.probs
    return np.array([probs @ col for col in np.ascontiguousarray(values.T)])


class _TranscriptingOracle:
    """Common answer bookkeeping for the concrete oracles."""

    def __init__(self):
        self.transcript = InteractivityTranscript()

    def ask(self, q: StatQuery, round_index: int):
        """Answer q, recorded as one block: a float, or a (width,) array."""
        answers = self._answer(q)
        self.transcript.append(round_index, q.label_dependent, q.tau, answers,
                               q.scale)
        return float(answers[0]) if q.width == 1 else answers

    def _answer(self, q: StatQuery) -> np.ndarray:
        raise NotImplementedError


class ExactOracle(_TranscriptingOracle):
    """Answers every query with its exact mean under the source."""

    def __init__(self, src: LabeledSource):
        super().__init__()
        self.src = src

    def _answer(self, q: StatQuery) -> np.ndarray:
        _, _, realized = _evaluate_on_support(q, self.src)
        return _column_means(self.src, realized)


PERTURBATION_POLICIES = ("grid", "plus_tau", "minus_tau", "uniform")


class PerturbingOracle(_TranscriptingOracle):
    """Valid-but-unhelpful oracle: answers within tau of the mean, per policy.

    grid      snap the exact mean to the nearest multiple of tau
    plus_tau  exact mean plus tau
    minus_tau exact mean minus tau
    uniform   exact mean plus a seeded uniform draw from [-tau, tau]

    A block is answered coordinate by coordinate, one draw each.
    """

    def __init__(self, src: LabeledSource, policy: str, seed: int = 0):
        super().__init__()
        if policy not in PERTURBATION_POLICIES:
            raise PreconditionError(f"unknown policy {policy!r}")
        self.src = src
        self.policy = policy
        self._rng = generator(derive_seed(seed, "perturbing-oracle"))

    def _answer(self, q: StatQuery) -> np.ndarray:
        _, _, realized = _evaluate_on_support(q, self.src)
        return np.array([self._perturb(exact, q.tau)
                         for exact in _column_means(self.src, realized)])

    def _perturb(self, exact: float, tau: float) -> float:
        if self.policy == "grid":
            return float(np.floor(exact / tau + 0.5) * tau)
        if self.policy == "plus_tau":
            return exact + tau
        if self.policy == "minus_tau":
            return exact - tau
        return exact + float(self._rng.uniform(-tau, tau))


@dataclass(frozen=True)
class AdversarialOracleConfig:
    """Source plus a query budget m; the correlation threshold is 1/m."""

    src: LabeledSource
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise PreconditionError("query budget must be >= 1")


class AdversarialOracle(_TranscriptingOracle):
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

    def __init__(self, cfg: AdversarialOracleConfig):
        super().__init__()
        self.cfg = cfg
        self.branches: list[str] = []

    def _answer(self, q: StatQuery) -> np.ndarray:
        if len(self.transcript) + q.width > self.cfg.m:
            raise BudgetExceeded(
                f"adversarial oracle budget of {self.cfg.m} queries exhausted"
            )
        src = self.cfg.src
        plus, minus, realized = _evaluate_on_support(q, src)
        h_vals = (plus - minus) / 2.0
        g_vals = (plus + minus) / 2.0
        correlations = _column_means(src, src.labels[:, None] * h_vals)
        exact = _column_means(src, realized)
        label_blind = _column_means(src, g_vals)
        concede = np.abs(correlations) >= 1.0 / self.cfg.m
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
