"""Adversarial-distribution search and the negation-fooling demonstration.

The central question: given a fixed set of label-correlation directions
h_1..h_m, how well can a distribution D suppress every |E_D[f h_i]|? The
minimax value is a linear program over the probability simplex, solved here
by a small self-contained dense two-phase simplex method (the instances
have at most a few hundred variables, so no external solver is warranted).
Phase 1 starts from the slack basis, and artificials are basis indices
with no column, so both phases pivot one tableau [A | b]; x is solved from
the final basis. Bland's rule, with its sequential tie-break, fixes the
pivot sequence and so every bit of the result. A value below
1/m certifies that an adversarial tolerance-1/m oracle can answer every
query of a label-non-adaptive learner without revealing the sign of the
target, which the fooling demo then exhibits end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, generator
from .core import (
    Explicit,
    FiniteDistribution,
    LabeledSource,
    Point,
    TargetFunction,
    _as_rows,
    _row_keys,
    classification_error,
    hypercube_rows,
)
from .errors import (
    EvaluationError,
    PreconditionError,
    ProtocolError,
    SolverError,
)
from .sq import AdversarialOracle, StatQuery, checked_values, decompose, \
    run_driver

__all__ = [
    "LpSolution",
    "solve_lp",
    "HypothesisSet",
    "table_function",
    "AdversarialCertificate",
    "worst_correlation_distribution",
    "CoverCheckResult",
    "correlation_cover_check",
    "NegationFoolingReport",
    "negation_fooling_demo",
    "SingleProbeDriver",
    "make_shipped_negation_demo",
    "run_shipped_negation_demo",
]

_PIVOT_TOL = 1e-9
_GAP_TOL = 1e-7


# ---------------------------------------------------------------------------
# Dense two-phase simplex with Bland's rule, started from the slack basis.


@dataclass(frozen=True)
class LpSolution:
    """Primal solution, optimum, duals of the standardized rows, and gap."""

    x: np.ndarray
    value: float
    dual: np.ndarray
    duality_gap: float
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # Only rows with a nonzero in the pivot column change: subtracting 0*x
    # elsewhere could turn a -0.0 into 0.0.
    rows = T[:, col].nonzero()[0]
    rows = rows[rows != row]
    T[rows] -= T[rows, col, None] * T[row]
    basis[row] = col


def _simplex_phase(T, basis, cost, max_iterations, dump_label):
    """Bland-rule pivoting until no column of T has a negative reduced cost;
    basis indices past T's columns are artificials, which never re-enter."""
    iterations = 0
    while True:
        reduced = cost[:T.shape[1] - 1] - cost[basis] @ T[:, :-1]
        negative = reduced < -_PIVOT_TOL
        entering = int(negative.argmax())
        if not negative[entering]:
            return iterations
        column = T[:, entering]
        rows = (column > _PIVOT_TOL).nonzero()[0]
        ratios = T[rows, -1] / column[rows]
        # Sequential on purpose: near-ties inside the 1e-12 window chain,
        # so "smallest ratio, then lowest basis index" is not the same rule.
        best_row, best_ratio, best_var = -1, np.inf, -1
        for i, ratio, var in zip(rows.tolist(), ratios.tolist(),
                                 basis[rows].tolist()):
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12
                and (best_row < 0 or var < best_var)
            ):
                best_row, best_ratio, best_var = i, ratio, var
        if best_row < 0:
            raise SolverError(
                f"{dump_label}: unbounded direction",
                dump={"entering": entering, "basis": basis.tolist()},
            )
        _pivot(T, basis, best_row, entering)
        iterations += 1
        if iterations > max_iterations:
            raise SolverError(
                f"{dump_label}: iteration cap {max_iterations} exceeded",
                dump={
                    "iterations": iterations,
                    "basis": basis.tolist(),
                    "objective": float(cost[basis] @ T[:, -1]),
                },
            )


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
             max_iterations=20000) -> LpSolution:
    """Minimize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0."""
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    blocks, rhs_parts = [], []
    n_ub = 0
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        if a_ub.shape != (b_ub.size, n):
            raise PreconditionError("inequality block shape mismatch")
        n_ub = a_ub.shape[0]
        blocks.append(np.hstack([a_ub, np.eye(n_ub)]))
        rhs_parts.append(b_ub)
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        if a_eq.shape != (b_eq.size, n):
            raise PreconditionError("equality block shape mismatch")
        blocks.append(np.hstack([a_eq, np.zeros((a_eq.shape[0], n_ub))]))
        rhs_parts.append(b_eq)
    if not blocks:
        raise PreconditionError("the program has no constraints")
    total = n + n_ub
    A = np.vstack(blocks)
    b = np.concatenate(rhs_parts)
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    m_rows = A.shape[0]

    # Phase 1: unflipped inequality rows on their slacks, row i otherwise on
    # artificial total + i; minimize the artificials' sum.
    T = np.hstack([A, b[:, None]])
    rows = np.arange(m_rows)
    basis = np.where(~flip & (rows < n_ub), n + rows, total + rows)
    cost1 = np.concatenate([np.zeros(total), np.ones(m_rows)])
    iters = _simplex_phase(T, basis, cost1, max_iterations, "phase 1")
    infeasibility = float(cost1[basis] @ T[:, -1])
    if infeasibility > 1e-9:
        raise SolverError(
            "no feasible point found",
            dump={"infeasibility": infeasibility, "basis": basis.tolist()},
        )
    # Pivot leftover artificials out; rows that cannot pivot are redundant.
    keep = np.ones(m_rows, dtype=bool)
    for i in range(m_rows):
        if basis[i] >= total:
            cols = np.nonzero(np.abs(T[i, :total]) > _PIVOT_TOL)[0]
            if cols.size:
                _pivot(T, basis, i, int(cols[0]))
            else:
                keep[i] = False
    T, A, b, basis = T[keep], A[keep], b[keep], basis[keep]

    # Phase 2 on the same tableau.
    cost2 = np.concatenate([c, np.zeros(n_ub)])
    iters += _simplex_phase(T, basis, cost2, max_iterations, "phase 2")

    # x from the final basis: the tableau's b column drifts over the pivots.
    x_full = np.zeros(total)
    x_full[basis] = np.linalg.solve(A[:, basis], b)
    x = x_full[:n]
    value = float(c @ x)
    dual = np.linalg.solve(A[:, basis].T, cost2[basis])
    gap = abs(value - float(b @ dual))
    return LpSolution(x=x, value=value, dual=dual, duality_gap=gap,
                      iterations=iters)


# ---------------------------------------------------------------------------
# Hypothesis sets and adversarial certificates.


def table_function(points, values):
    """A [-1,1]-valued lookup function over explicit points: a matrix of
    rows or a sequence of Points.

    A queried row matches a point when their float64 bytes are equal, so
    -0.0 does not match 0.0. When a point repeats, its last value wins.
    """
    rows = _as_rows(points)
    table = np.asarray(values, dtype=float).reshape(-1)
    if not len(rows) or table.size != len(rows):
        raise PreconditionError("need one value for each of at least one point")
    if not np.abs(table).max() <= 1.0 + 1e-12:  # NaN fails this test too
        raise PreconditionError("table values must lie in [-1, 1]")
    width = rows.shape[1]
    if width == 0:
        raise PreconditionError("table points must have a nonzero dimension")
    # A stable sort keeps repeated points in order, so the rightmost match
    # is the last occurrence.
    keys = _row_keys(rows)
    order = keys.argsort(kind="stable")
    keys, table = keys[order], table[order]

    def fn(X):
        X = np.asarray(X, dtype=float)
        if X.shape[0] == 0:
            return np.empty(0)
        X = X.reshape(X.shape[0], -1)
        if X.shape[1] != width:
            raise EvaluationError("function undefined on a queried point")
        queried = _row_keys(X)
        # -1 (below every key) wraps to the largest key, which differs.
        at = keys.searchsorted(queried, side="right") - 1
        if not np.all(keys[at] == queried):
            raise EvaluationError("function undefined on a queried point")
        return table[at]

    return fn


@dataclass(frozen=True)
class HypothesisSet:
    """Label-correlation directions h_1..h_m as batch callables."""

    functions: tuple

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))

    @property
    def m(self) -> int:
        return len(self.functions)

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """(m, n) value matrix on the rows of X; range-checked."""
        X = np.asarray(X, dtype=float)
        if self.m == 0:
            return np.zeros((0, len(X)))
        return np.vstack([checked_values(h(X), X.shape[:1])
                          for h in self.functions])


@dataclass(frozen=True)
class AdversarialCertificate:
    """A distribution driving every |E_D[f h_i]| down to `value`."""

    dist: FiniteDistribution
    value: float
    target: TargetFunction

    def recompute_value(self, hset: HypothesisSet) -> float:
        X = self.dist.matrix
        labels = self.target.labels_for(X)
        H = hset.evaluate(X)
        if H.shape[0] == 0:
            return 0.0
        return float(np.max(np.abs(H @ (self.dist.probs * labels))))

    def to_json(self) -> dict:
        if isinstance(self.target, Explicit):
            target_obj = {
                "kind": "explicit",
                "labels": [int(v) for v in
                           self.target.labels_for(self.dist.matrix)],
            }
        else:
            target_obj = self.target.to_json()
        return {
            "D": [float(p) for p in self.dist.probs],
            "value": float(self.value),
            "target": target_obj,
        }


def _uniform(X) -> FiniteDistribution:
    """The uniform distribution on the points X, or on X's support."""
    if len(X) == 0:
        raise PreconditionError("the point list is empty")
    return FiniteDistribution(X, np.full(len(X), 1.0 / len(X)))


def worst_correlation_distribution(f: TargetFunction, hset: HypothesisSet,
                                   X) -> AdversarialCertificate:
    """Distribution minimizing the worst |E_D[f h_i]| over the points X (a
    matrix of rows, a sequence of Points, or a distribution on them).

    minimize t  s.t.  -t <= sum_x D(x) f(x) h_i(x) <= t  for every i,
    sum_x D(x) = 1, D >= 0. Uniform D is always feasible; optimality is
    certified through the duality gap.
    """
    domain = _uniform(X)
    if hset.m < 1:
        raise PreconditionError("need at least one hypothesis")
    n = len(domain)
    labels = np.asarray(f.labels_for(domain.matrix), dtype=float)
    H = hset.evaluate(domain.matrix)
    corr = H * labels  # row i holds f(x) h_i(x) over x
    a_ub = np.vstack([
        np.hstack([corr, -np.ones((hset.m, 1))]),
        np.hstack([-corr, -np.ones((hset.m, 1))]),
    ])
    b_ub = np.zeros(2 * hset.m)
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    sol = solve_lp(
        c=np.concatenate([np.zeros(n), [1.0]]),
        a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=[1.0],
    )
    if sol.duality_gap > _GAP_TOL:
        raise SolverError(
            f"duality gap {sol.duality_gap:.3g} above {_GAP_TOL}",
            dump={"x": sol.x.tolist(), "dual": sol.dual.tolist()},
        )
    D = np.clip(sol.x[:n], 0.0, None)
    dist = FiniteDistribution(domain, D / D.sum())
    value = float(np.max(np.abs(H @ (dist.probs * labels))))
    if abs(value - sol.x[n]) > 1e-9:
        raise SolverError(
            "optimum does not reproduce from the returned distribution",
            dump={"lp_value": float(sol.x[n]), "recomputed": value},
        )
    return AdversarialCertificate(dist=dist, value=value, target=f)


@dataclass(frozen=True)
class CoverCheckResult:
    covered: bool
    witness: tuple | None  # (target, certificate) when not covered


def correlation_cover_check(hset: HypothesisSet, targets, X,
                            threshold: float) -> CoverCheckResult:
    """Does every target correlate with some hypothesis at `threshold`
    under its own worst-case distribution?"""
    targets = tuple(targets)
    if not targets:
        raise PreconditionError("the target class is empty")
    domain = _uniform(X)
    if hset.m == 0:
        cert = AdversarialCertificate(dist=domain, value=0.0,
                                      target=targets[0])
        return CoverCheckResult(covered=False, witness=(targets[0], cert))
    for f in targets:
        cert = worst_correlation_distribution(f, hset, domain)
        if cert.value < threshold:
            return CoverCheckResult(covered=False, witness=(f, cert))
    return CoverCheckResult(covered=True, witness=None)


# ---------------------------------------------------------------------------
# Negation fooling.


@dataclass(frozen=True)
class NegationFoolingReport:
    """Transcript comparison of one driver run against a target and its
    negation under the adversarial oracle."""

    found: bool
    certificate: AdversarialCertificate | None
    answers_target: tuple
    answers_negation: tuple
    identical_transcripts: bool
    error_target: float
    error_negation: float

    @property
    def max_error(self) -> float:
        return max(self.error_target, self.error_negation)

    def to_json(self) -> dict:
        obj = {
            "found": self.found,
            "certificate": (self.certificate.to_json()
                            if self.certificate else None),
            "answers_f": [float(a) for a in self.answers_target],
            "answers_neg": [float(a) for a in self.answers_negation],
            "identical_transcripts": self.identical_transcripts,
            "error_f": self.error_target,
            "error_neg": self.error_negation,
            "max_error": self.max_error if self.found else None,
        }
        return obj


def _verify_negation_closed(targets, matrix) -> None:
    keys = {np.asarray(f.labels_for(matrix)).tobytes() for f in targets}
    for f in targets:
        if (-np.asarray(f.labels_for(matrix))).tobytes() not in keys:
            raise PreconditionError(
                "the class is not closed under negation on this domain"
            )


def _run_once(driver, oracle):
    def ask(q, round_index):
        if round_index > 0:
            raise PreconditionError(
                "the demo requires a one-round (non-adaptive) driver")
        return oracle.ask(q, 0)

    run_driver(driver, ask)
    answers = tuple(a for b in oracle.transcript.blocks for a in b.answers)
    return answers, driver.result()


def _directions(q: StatQuery) -> tuple:
    """The label-correlation direction h of each coordinate of q."""
    return tuple(lambda X, j=j: decompose(q, X)[1][:, j]
                 for j in range(q.width))


def negation_fooling_demo(driver_factory, targets, X, m: int,
                          ) -> NegationFoolingReport:
    """Exhibit a target pair the driver cannot tell apart.

    Extracts the driver's fixed query set, searches the class for a target
    whose worst-case correlation value sits below 1/m, then runs the driver
    against the adversarial oracle for that target and for its negation and
    compares the two transcripts. When every target is correlation-covered
    the report says so; that is an outcome, not a failure.
    """
    targets = tuple(targets)
    if m < 1:
        raise PreconditionError("m must be at least 1")
    domain = _uniform(X)
    _verify_negation_closed(targets, domain.matrix)
    probe = driver_factory()
    queries = list(probe.begin())
    threshold = 1.0 / m
    label_dep = [q for q in queries if q.label_dependent]
    width = sum(q.width for q in label_dep)
    if width > m:
        raise PreconditionError(f"driver asks {width} label-dependent "
                                f"coordinates, above {m}")
    for q in label_dep:
        if q.tau < threshold - 1e-12:
            raise PreconditionError(
                "label-dependent queries must declare tolerance >= 1/m"
            )
    hset = HypothesisSet(tuple(h for q in label_dep for h in _directions(q)))
    cover = correlation_cover_check(hset, targets, domain, threshold)
    if cover.covered:
        return NegationFoolingReport(
            found=False, certificate=None, answers_target=(),
            answers_negation=(), identical_transcripts=False,
            error_target=0.0, error_negation=0.0,
        )
    f, chosen = cover.witness
    neg = f.negate()
    runs = []
    for target in (f, neg):
        src = LabeledSource(chosen.dist, target)
        oracle = AdversarialOracle(src, m)
        answers, hypothesis = _run_once(driver_factory(), oracle)
        runs.append((answers, classification_error(hypothesis, src)))
    (ans_f, err_f), (ans_n, err_n) = runs
    return NegationFoolingReport(
        found=True, certificate=chosen,
        answers_target=ans_f, answers_negation=ans_n,
        identical_transcripts=ans_f == ans_n,
        error_target=err_f, error_negation=err_n,
    )


# ---------------------------------------------------------------------------
# The shipped four-point demonstration.


class SingleProbeDriver:
    """One label-correlation probe, then its pattern or the negation."""

    max_queries = 1

    def __init__(self, points, pattern, tau):
        self._probe = Explicit(points, pattern)
        self._tau = float(tau)
        self._answer = None

    def begin(self):
        def fn(X, y):
            return y * self._probe.labels_for(X)

        return [StatQuery(fn=fn, tau=self._tau, label_dependent=True)]

    def feed(self, answers):
        self._answer = float(answers[0])
        return None

    def result(self):
        if self._answer is None:
            raise ProtocolError("run has not finished")
        return self._probe if self._answer >= 0 else self._probe.negate()


def _shipped_demo(seed: int):
    """The four-point parity-pattern instance: domain, class, driver, m.

    The domain is the embedded 2-bit cube as a (4, 2) matrix. The probe
    pattern is drawn per seed from the +-1 patterns other than the target
    and its negation; every such probe is suppressible, so the demo finds
    a certificate for each seed.
    """
    points = hypercube_rows(2)[[0, 2, 1, 3]]  # (a, b) in a-major order
    f_labels = (1, -1, -1, 1)
    f = Explicit(points, f_labels)
    targets = (f, f.negate())
    rng = generator(derive_seed(seed, "shipped-probe"))
    while True:
        pattern = tuple(1 if b else -1 for b in rng.integers(0, 2, size=4))
        if pattern != f_labels and pattern != tuple(-v for v in f_labels):
            break
    m = 2

    def factory():
        return SingleProbeDriver(points, pattern, tau=1.0 / m)

    return factory, targets, points, m


def make_shipped_negation_demo(seed: int):
    """The shipped instance of `_shipped_demo`, its domain as four Points."""
    factory, targets, points, m = _shipped_demo(seed)
    return factory, targets, tuple(map(Point, points)), m


def run_shipped_negation_demo(seed: int) -> NegationFoolingReport:
    return negation_fooling_demo(*_shipped_demo(seed))
