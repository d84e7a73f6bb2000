"""Label-non-adaptive large-margin halfspace learner.

The learner minimizes a convex surrogate F over the unit ball whose value
at any perfect margin separator is zero. F splits into a label-free part
(whose subgradient varies with the iterate and is estimated by adaptive but
label-independent queries) and a linear label-dependent part whose gradient
is a constant vector, estimated once with one round of statistical queries.
Projected subgradient descent on the split therefore touches labels only in
its opening round. A seeded Gaussian random projection brings the ambient
dimension down to O(log(1/delta) / gamma^2) first, at the cost of halving
the margin. A run keeps the driver that ran and its oracle's transcript,
and its report's learner object is read from the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, generator
from .comm import compile_sq_to_comm
from .core import (
    Explicit,
    FiniteDistribution,
    LabeledSource,
    signp,
)
from .errors import PreconditionError, ProtocolError
from .ldp import compile_sq_to_ldp
from .sq import ExactOracle, InteractivityTranscript, StatQuery, run_driver

JL_CONSTANT = 32.0
JL_MAX_ENTRIES = 10**8  # 800 MB of float64; the defaults ask for 106,600


@dataclass(frozen=True)
class SurrogateParams:
    """Margin, target error and working dimension; the surrogate slack
    beta and the Lipschitz constant follow from them."""

    gamma: float
    alpha: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise PreconditionError("gamma must lie in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise PreconditionError("alpha must lie in (0, 1)")
        if self.dim < 1:
            raise PreconditionError("dim must be >= 1")

    @property
    def beta(self) -> float:
        """gamma^2 / sqrt(dim), half the largest value for which driving the
        surrogate below alpha*beta forces classification error below alpha;
        the headroom absorbs oracle noise."""
        return self.gamma**2 / math.sqrt(self.dim)

    @property
    def lipschitz(self) -> float:
        return 4.0 * self.dim

    def iterations_formula(self) -> int:
        """Descent horizon guaranteeing surrogate value <= alpha*beta."""
        try:
            return math.ceil(
                (4.0 * self.lipschitz / (self.alpha * self.beta)) ** 2)
        except (ZeroDivisionError, OverflowError):
            raise PreconditionError(
                f"alpha = {self.alpha!r}, beta = {self.beta!r}: no finite "
                "descent horizon") from None

    def coord_tolerance_formula(self) -> float:
        """Per-coordinate query tolerance keeping gradient bias <= alpha*beta/4."""
        return (self.alpha * self.beta) / (
            4.0 * math.sqrt(self.dim) * (2.0 * self.dim + 1.0)
        )


def surrogate_value(w: np.ndarray, src: LabeledSource,
                    params: SurrogateParams) -> float:
    """Exact surrogate value over the finite source; nonnegative everywhere."""
    w = np.asarray(w, dtype=float).reshape(-1)
    X = src.dist.matrix
    if w.shape[0] != X.shape[1]:
        raise PreconditionError("dimension mismatch between w and source")
    d = X.shape[1]
    u, gx = X @ w, params.gamma * X
    per_example = (
        np.abs(u[:, None] + gx).sum(axis=1)
        + np.abs(u[:, None] - gx).sum(axis=1)
        - 2.0 * d * src.labels * u
    )
    return float(src.dist.probs @ per_example)


def sign_weight(w: np.ndarray, X: np.ndarray, gamma: float) -> np.ndarray:
    """k(x) = sum_i sign(u +- gamma x_i), sign(0) = +1, with u = <w, x>:
    2 * #{terms >= 0} - 2d.

    u + gamma x_i >= 0 is counted as gamma x_i >= -u, and u - gamma x_i >= 0
    as gamma x_i <= u: a rounded sum has the sign of the exact one and is 0
    only when it is, so the counts are those of the rounded terms.
    """
    u, gx = X @ w, gamma * X
    nonneg = (gx >= -u[:, None]).sum(axis=1) + (gx <= u[:, None]).sum(axis=1)
    return 2.0 * nonneg - 2.0 * X.shape[1]


def grad_f1_query(w: np.ndarray, params: SurrogateParams,
                  query_tau: float) -> StatQuery:
    """Block of the dim label-independent gradient coordinate queries.

    Coordinate j is k(x) x_j / (2 dim), normalized into [-1, 1]; k(x) is
    computed once per evaluation, from the rows the block is evaluated on.
    """
    w = np.array(w, dtype=float)
    d = params.dim
    scale = 2.0 * d

    def fn(X, y):
        return sign_weight(w, X, params.gamma)[:, None] * X / scale

    return StatQuery(fn=fn, tau=query_tau, label_dependent=False,
                     scale=scale, width=d)


def grad_f2_query(params: SurrogateParams, query_tau: float) -> StatQuery:
    """Block of the dim label-dependent coordinate queries: the means of y x_j."""
    d = params.dim

    def fn(X, y):
        return y[:, None] * X

    return StatQuery(fn=fn, tau=query_tau, label_dependent=True,
                     scale=-2.0 * d, width=d)


@dataclass(frozen=True)
class ProjectionMap:
    """Seeded Gaussian projection onto a lower-dimensional ball; the matrix
    has shape (working, ambient) dimension, and np.eye(d) projects nothing."""

    matrix: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Project rows and radially rescale any image outside the unit ball."""
        mapped = np.asarray(X, dtype=float) @ self.matrix.T
        norms = np.linalg.norm(mapped, axis=1)
        over = norms > 1.0
        if np.any(over):
            mapped = mapped.copy()
            mapped[over] /= norms[over][:, None]
        return mapped


def jl_dim(gamma: float, delta: float) -> int:
    """Target dimension ceil(32 ln(1/delta) / gamma^2)."""
    if not 0.0 < gamma <= 1.0:
        raise PreconditionError("gamma must lie in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise PreconditionError("delta must lie in (0, 1)")
    try:
        return math.ceil(JL_CONSTANT * math.log(1.0 / delta) / gamma**2)
    except (ZeroDivisionError, OverflowError):
        raise PreconditionError(f"gamma = {gamma!r} and delta = {delta!r} "
                                "give no finite JL dimension") from None


def _check_map_size(d_prime: int, dim: int, gamma: float, delta: float):
    if d_prime * dim > JL_MAX_ENTRIES:
        raise PreconditionError(
            f"gamma = {gamma!r} and delta = {delta!r} ask for a {d_prime:,} x "
            f"{dim:,} JL map, above {JL_MAX_ENTRIES:,} entries")


def jl_map(dim: int, gamma: float, delta: float,
           seed: int) -> ProjectionMap:
    """The seeded Gaussian map into dimension jl_dim(gamma, delta).

    Entries are i.i.d. Gaussians scaled by 1/sqrt(d').
    """
    d_prime = jl_dim(gamma, delta)
    _check_map_size(d_prime, dim, gamma, delta)
    rng = generator(derive_seed(seed, "jl-map"))
    matrix = rng.standard_normal((d_prime, dim)) / math.sqrt(d_prime)
    return ProjectionMap(matrix)


def jl_project(src: LabeledSource, gamma: float, delta: float,
               seed: int) -> tuple[ProjectionMap, LabeledSource]:
    """Map a source through jl_map(src.dim, gamma, delta, seed), keeping labels.

    With probability at least 1 - delta over the map, all but a
    delta-fraction of the mass keeps margin gamma/2 along the image of the
    original normal.
    """
    proj = jl_map(src.dim, gamma, delta, seed)
    dist = FiniteDistribution(proj.apply(src.dist.matrix), src.dist.probs)
    target = Explicit(dist.matrix, src.labels)
    return proj, LabeledSource(dist, target)


class HalfspaceDriver:
    """Query driver running averaged projected subgradient descent.

    Round 0 carries the block of dim label-dependent correlation queries
    plus the block of label-independent queries for the gradient at w0 = 0;
    every later round carries only the label-independent block at the
    current iterate, so the protocol is label-non-adaptive by construction.
    feed takes one answer per coordinate, flat or grouped per block.

    iterations caps the executed horizon, min(iterations_formula, 300) if
    None: the guarantee-grade horizon is far too large to execute.
    per_coord_tol is the tolerance per gradient coordinate,
    coord_tolerance_formula() if None; simulated oracles pass a looser one.
    """

    def __init__(self, params: SurrogateParams, iterations: int | None = None,
                 per_coord_tol: float | None = None):
        self.params = params
        self.iterations_formula = params.iterations_formula()
        self.iterations = (min(self.iterations_formula, 300)
                           if iterations is None else iterations)
        if self.iterations < 1:
            raise PreconditionError("need at least one iteration")
        self.per_coord_tol = (params.coord_tolerance_formula()
                              if per_coord_tol is None else per_coord_tol)
        if not self.per_coord_tol > 0:
            raise PreconditionError("tolerance must be positive")
        self.eta = 1.0 / (params.lipschitz * math.sqrt(self.iterations))
        self.tau = self.per_coord_tol / (2.0 * params.dim)
        self.max_queries = params.dim * (self.iterations + 1)
        self.w = np.zeros(params.dim)
        self.g2: np.ndarray | None = None
        self.iteration = 0
        self._w_sum = np.zeros(params.dim)

    def begin(self) -> list[StatQuery]:
        return [grad_f2_query(self.params, self.tau),
                grad_f1_query(self.w, self.params, self.tau)]

    def feed(self, answers) -> list[StatQuery] | None:
        d = self.params.dim
        answers = np.asarray(answers, dtype=float).reshape(-1)
        if self.g2 is None:
            if answers.shape[0] != 2 * d:
                raise ProtocolError("round 0 expects 2*dim answers")
            self.g2 = -2.0 * d * answers[:d]
            g1 = 2.0 * d * answers[d:]
        else:
            if answers.shape[0] != d:
                raise ProtocolError("gradient rounds expect dim answers")
            g1 = 2.0 * d * answers
        self._step(g1)
        if self.iteration >= self.iterations:
            return None
        return [grad_f1_query(self.w, self.params, self.tau)]

    def _step(self, g1: np.ndarray):
        # Average the iterates at which gradients were measured, w0 included.
        self._w_sum += self.w
        w = self.w - self.eta * (g1 + self.g2)
        norm = float(np.linalg.norm(w))
        if norm > 1.0:
            w = w / norm
        self.w = w
        self.iteration += 1

    def result(self) -> np.ndarray:
        if self.iteration < self.iterations:
            raise ProtocolError("descent has not finished")
        return self._w_sum / self.iterations


class KnownDistributionDriver(HalfspaceDriver):
    """Single-round variant for a public, explicitly known distribution.

    Only the label-dependent correlation queries touch the oracle; every
    label-independent expectation is evaluated locally against the known
    point distribution, so the full protocol is one round of queries.
    """

    def __init__(self, params: SurrogateParams, X: np.ndarray,
                 probs: np.ndarray, iterations: int | None = None,
                 per_coord_tol: float | None = None):
        super().__init__(params, iterations, per_coord_tol)
        self.max_queries = params.dim
        self.X = np.asarray(X, dtype=float)
        self.probs = np.asarray(probs, dtype=float)

    def begin(self) -> list[StatQuery]:
        return [grad_f2_query(self.params, self.tau)]

    def feed(self, answers) -> None:
        d = self.params.dim
        answers = np.asarray(answers, dtype=float).reshape(-1)
        if answers.shape[0] != d:
            raise ProtocolError("the label round expects dim answers")
        self.g2 = -2.0 * d * answers
        for _ in range(self.iterations):
            # E[k(x) x], evaluated exactly on the known support.
            k = sign_weight(self.w, self.X, self.params.gamma)
            self._step((self.probs * k) @ self.X)
        return None


@dataclass(frozen=True)
class HalfspaceHypothesis:
    """x -> sign(<w, proj(x)>); the radial clipping never affects the sign."""

    proj: ProjectionMap
    w: np.ndarray

    def labels_for(self, X: np.ndarray) -> np.ndarray:
        mapped = np.asarray(X, dtype=float) @ self.proj.matrix.T
        return signp(mapped @ self.w)

    def to_json(self) -> dict:
        return {
            "proj": [[float(v) for v in row] for row in self.proj.matrix],
            "w": [float(v) for v in self.w],
        }


@dataclass
class HalfspaceRunInfo:
    """The driver that ran (its params hold the working margin), the run's
    transcript, and the samples its oracle drew (0 for the exact oracle)."""

    driver: HalfspaceDriver
    transcript: InteractivityTranscript
    samples_used: int

    @property
    def rounds(self) -> int:
        return self.transcript.rounds_used()

    @property
    def label_non_adaptive(self) -> bool:
        """Whether every label-dependent answer is in round 0."""
        return set(self.transcript.label_dependent_rounds()) <= {0}

    def learner_json(self) -> dict:
        """The report's learner object: the driver's descent settings and
        the query counts, read from the transcript."""
        d, blocks = self.driver, self.transcript.blocks
        return {"dim": d.params.dim, "iterations_executed": d.iterations,
                "iterations_formula": d.iterations_formula, "eta": d.eta,
                "per_coord_tol": d.per_coord_tol,
                "queries_total": len(self.transcript),
                "queries_label_dependent": sum(
                    len(b.answers) for b in blocks if b.label_dependent),
                "rounds": self.rounds,
                "label_non_adaptive": self.label_non_adaptive}


def learn_halfspace(
    src: LabeledSource,
    gamma: float,
    alpha: float,
    delta: float,
    mode: str = "distribution_free",
    oracle: str = "exact",
    epsilon: float = 1.0,
    seed: int = 0,
) -> tuple[HalfspaceHypothesis, HalfspaceRunInfo]:
    """Project, then learn a margin-gamma halfspace with the chosen oracle.

    The projection is skipped (identity) when the map's dimension,
    jl_dim(gamma, delta/2), does not improve on the ambient one; otherwise
    the working margin drops to gamma/2 and delta is split evenly between
    projection failure and oracle-simulation failure. In known_distribution
    mode the protocol is one round regardless of oracle choice. The exact
    oracle runs the driver's default horizon and tolerance; the simulated
    ones run 60 iterations at tolerance 0.1 * dim.
    """
    if mode not in ("distribution_free", "known_distribution"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if oracle not in ("exact", "ldp", "comm"):
        raise PreconditionError(f"unknown oracle {oracle!r}")
    d = src.dim
    # The map is built at delta/2, so its dimension decides; the size
    # refusals name the delta given here, not delta/2.
    d_map = jl_dim(gamma, delta / 2.0) if jl_dim(gamma, delta) < d else d
    if d_map < d:
        _check_map_size(d_map, d, gamma, delta)
        proj, working = jl_project(src, gamma, delta / 2.0, seed)
        gamma_eff, sim_delta = gamma / 2.0, delta / 2.0
    else:
        proj, working = ProjectionMap(np.eye(d)), src
        gamma_eff, sim_delta = gamma, delta
    params = SurrogateParams(gamma=gamma_eff, alpha=alpha,
                             dim=proj.matrix.shape[0])
    # Simulated oracles price precision in samples; these settings keep
    # batches affordable and were calibrated empirically.
    settings = {} if oracle == "exact" else {
        "iterations": 60, "per_coord_tol": 0.1 * params.dim}
    if mode == "known_distribution":
        driver = KnownDistributionDriver(
            params, working.dist.matrix, working.dist.probs, **settings)
    else:
        driver = HalfspaceDriver(params, **settings)

    if oracle == "exact":
        answered = ExactOracle(working)
        run_driver(driver, answered.ask)
        w_bar = driver.result()
    elif oracle == "ldp":
        w_bar, answered = compile_sq_to_ldp(
            driver, working, epsilon, driver.tau, sim_delta,
            seed=derive_seed(seed, "halfspace-ldp"))
    else:
        w_bar, answered = compile_sq_to_comm(
            driver, working, driver.tau, sim_delta,
            seed=derive_seed(seed, "halfspace-comm"))
    info = HalfspaceRunInfo(driver=driver, transcript=answered.transcript,
                            samples_used=answered.samples_used)
    return HalfspaceHypothesis(proj=proj, w=np.asarray(w_bar)), info
