"""Greedy conditional rule learner for decision lists over embedded bits.

Conditioning on previously chosen rules not firing is realized by
multiplying every query by a survival indicator; conditional mistake rates
come from ratios of two mass estimates. Each iteration appends the
admissible rule with the smallest estimated mistake rate and opens a new
adaptivity round, so label-dependent queries occur in rounds beyond 0.
This is the interactive contrast to the label-non-adaptive halfspace
learner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DecisionList
from .errors import LearningFailure, PreconditionError, ProtocolError
from .sq import StatQuery, run_driver

__all__ = ["DlLearnerConfig", "DlDriver", "learn_decision_list_sq"]


@dataclass(frozen=True)
class DlLearnerConfig:
    """Dimension, error target, and per-query tolerance.

    tau defaults to alpha/(8*dim). Compiled runs may pass a coarser tau so
    the simulation batch sizes stay affordable; the admissibility
    thresholds scale with it either way. A list never needs a length cap:
    it holds at most one rule per (variable, polarity) pair, and the search
    refuses once no admissible pair is left.
    """

    dim: int
    alpha: float
    tau: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise PreconditionError("dim must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise PreconditionError("alpha must be in (0, 1)")
        if self.tau is None:
            object.__setattr__(self, "tau", self.alpha / (8.0 * self.dim))
        if self.tau <= 0.0:
            raise PreconditionError("tau must be positive")


def _survival(chosen):
    """Indicator of no previously chosen rule firing; 1 everywhere if none."""
    rules = tuple((i, bool(p)) for i, p, _ in chosen)

    def indicator(X):
        keep = np.ones(X.shape[0])
        for i, p in rules:
            keep = keep * ((X[:, i] > 0.0) != p)
        return keep

    return indicator


class DlDriver:
    """Query driver for the greedy conditional decision-list search.

    Per round: residual mass, residual positive-label mass, and for every
    variable with both polarities still unused, fire mass and positive fire
    mass of the bit-1 rule. Bit-0 statistics follow by complement (embedded
    bits are never zero), as do both statistics of a rule whose opposite
    polarity was already chosen (it fires on the whole residual). Derived
    quantities carry up to twice the per-answer tolerance; the thresholds
    below account for that.
    """

    def __init__(self, cfg: DlLearnerConfig):
        self.cfg = cfg
        self.max_queries = (2 * cfg.dim + 2) ** 2
        self.chosen: list[tuple[int, int, int]] = []
        self._available = {(v, p) for v in range(cfg.dim) for p in (0, 1)}
        self._fresh: list[int] = []
        self._list: DecisionList | None = None
        self._began = False

    def _round_queries(self):
        survive = _survival(self.chosen)
        tau = self.cfg.tau
        queries = [
            StatQuery(fn=lambda X, y, s=survive: s(X), tau=tau,
                      label_dependent=False),
            StatQuery(fn=lambda X, y, s=survive: s(X) * (1 + y) / 2, tau=tau,
                      label_dependent=True),
        ]
        self._fresh = sorted(
            v for v in range(self.cfg.dim)
            if (v, 0) in self._available and (v, 1) in self._available
        )
        for v in self._fresh:
            queries.append(StatQuery(
                fn=lambda X, y, s=survive, v=v: s(X) * (X[:, v] > 0.0),
                tau=tau, label_dependent=False))
            queries.append(StatQuery(
                fn=lambda X, y, s=survive, v=v:
                    s(X) * (X[:, v] > 0.0) * (1 + y) / 2,
                tau=tau, label_dependent=True))
        return queries

    def begin(self):
        if self._began:
            raise ProtocolError("driver already started")
        self._began = True
        return self._round_queries()

    def feed(self, answers):
        answers = [float(a) for a in answers]
        expected = 2 + 2 * len(self._fresh)
        if len(answers) != expected:
            raise ProtocolError(
                f"expected {expected} answers, got {len(answers)}"
            )
        r, posall = answers[0], answers[1]
        tau = self.cfg.tau
        neg_mass = r - posall
        default = 1 if posall >= neg_mass else -1
        default_mistakes = min(posall, neg_mass)
        if r < self.cfg.alpha / 2 or default_mistakes <= self.cfg.alpha / 2:
            self._list = DecisionList(self.chosen, default)
            return None
        stats = {}
        for k, v in enumerate(self._fresh):
            fire_plus = answers[2 + 2 * k]
            pos_plus = answers[3 + 2 * k]
            stats[(v, 1)] = (fire_plus, pos_plus)
            stats[(v, 0)] = (r - fire_plus, posall - pos_plus)
        for pair in self._available - set(stats):
            stats[pair] = (r, posall)
        best = None
        for v, p in sorted(self._available, key=lambda t: (t[0], 1 - t[1])):
            fires, pos = stats[(v, p)]
            if fires < 4 * tau:
                continue
            for output, mistakes in ((1, fires - pos), (-1, pos)):
                mistakes = max(mistakes, 0.0)
                if mistakes > 2 * tau:
                    continue
                key = (mistakes / fires, v, 1 - p, 0 if output == 1 else 1)
                if best is None or key < best[0]:
                    best = (key, v, p, output)
        if best is None:
            raise LearningFailure(
                "no admissible rule while the residual is unexplained"
            )
        _, v, p, output = best
        self.chosen.append((v, p, output))
        self._available.discard((v, p))
        return self._round_queries()

    def result(self) -> DecisionList:
        if self._list is None:
            raise ProtocolError("run has not finished")
        return self._list


def learn_decision_list_sq(oracle, cfg: DlLearnerConfig) -> DecisionList:
    """Run the greedy search to completion against a transcripting oracle."""
    driver = DlDriver(cfg)
    run_driver(driver, oracle.ask)
    return driver.result()

