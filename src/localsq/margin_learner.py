"""Label-non-adaptive large-margin halfspace learner.

The learner minimizes a convex surrogate F over the unit ball whose value
at any perfect margin separator is zero. F splits into a label-free part
(whose subgradient varies with the iterate and is estimated by adaptive but
label-independent queries) and a linear label-dependent part whose gradient
is a constant vector, estimated once with one round of statistical queries.
Projected subgradient descent on the split therefore touches labels only in
its opening round. A seeded Gaussian random projection brings the ambient
dimension down to O(log(1/delta) / gamma^2) first, at the cost of halving
the margin.
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
    Point,
    signp,
)
from .errors import PreconditionError, ProtocolError
from .ldp import ProtocolReport, compile_sq_to_ldp
from .sq import (
    ExactOracle,
    InteractivityTranscript,
    StatQuery,
    assert_label_non_adaptive,
    run_driver,
)

JL_CONSTANT = 32.0


@dataclass(frozen=True)
class SurrogateParams:
    """Margin, target error, and surrogate slack for a working dimension.

    beta defaults to gamma^2 / sqrt(dim), half the largest value for which
    driving the surrogate below alpha*beta forces classification error
    below alpha; the headroom absorbs oracle noise.
    """

    gamma: float
    alpha: float
    dim: int
    beta: float | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise PreconditionError("gamma must lie in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise PreconditionError("alpha must lie in (0, 1)")
        if self.dim < 1:
            raise PreconditionError("dim must be >= 1")
        if self.beta is None:
            object.__setattr__(
                self, "beta", self.gamma**2 / math.sqrt(self.dim)
            )
        if not 0.0 < self.beta < 2.0 * self.gamma**2 / math.sqrt(self.dim):
            raise PreconditionError(
                "beta must lie in (0, 2 gamma^2 / sqrt(dim))"
            )

    @property
    def lipschitz(self) -> float:
        return 4.0 * self.dim

    def iterations_formula(self) -> int:
        """Descent horizon guaranteeing surrogate value <= alpha*beta."""
        return math.ceil((4.0 * self.lipschitz / (self.alpha * self.beta)) ** 2)

    def coord_tolerance_formula(self) -> float:
        """Per-coordinate query tolerance keeping gradient bias <= alpha*beta/4."""
        return (self.alpha * self.beta) / (
            4.0 * math.sqrt(self.dim) * (2.0 * self.dim + 1.0)
        )


def _margin_terms(w: np.ndarray, X: np.ndarray, gamma: float):
    """Per-example matrices u + gamma*x_i and u - gamma*x_i over coordinates."""
    u = X @ w
    return u, u[:, None] + gamma * X, u[:, None] - gamma * X


def surrogate_value(w: np.ndarray, src: LabeledSource,
                    params: SurrogateParams) -> float:
    """Exact surrogate value over the finite source; nonnegative everywhere."""
    w = np.asarray(w, dtype=float).reshape(-1)
    X = src.dist.matrix
    if w.shape[0] != X.shape[1]:
        raise PreconditionError("dimension mismatch between w and source")
    d = X.shape[1]
    u, plus, minus = _margin_terms(w, X, params.gamma)
    per_example = (
        np.abs(plus).sum(axis=1)
        + np.abs(minus).sum(axis=1)
        - 2.0 * d * src.labels * u
    )
    return float(src.dist.probs @ per_example)


def sign_weight(w: np.ndarray, X: np.ndarray, gamma: float) -> np.ndarray:
    """k(x) = sum_i sign(u + gamma x_i) + sign(u - gamma x_i), sign(0) = +1."""
    _, plus, minus = _margin_terms(w, X, gamma)
    return signp(plus).sum(axis=1) + signp(minus).sum(axis=1)


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
                     name="signsum-x", scale=scale, width=d)


def grad_f2_query(params: SurrogateParams, query_tau: float) -> StatQuery:
    """Block of the dim label-dependent coordinate queries: the means of y x_j."""
    d = params.dim

    def fn(X, y):
        return y[:, None] * X

    return StatQuery(fn=fn, tau=query_tau, label_dependent=True,
                     name="label-x", scale=-2.0 * d, width=d)


@dataclass(frozen=True)
class ProjectionMap:
    """Seeded Gaussian projection onto a lower-dimensional ball."""

    matrix: np.ndarray
    source_dim: int
    target_dim: int
    seed: int

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
    return math.ceil(JL_CONSTANT * math.log(1.0 / delta) / gamma**2)


def identity_projection(d: int) -> ProjectionMap:
    return ProjectionMap(matrix=np.eye(d), source_dim=d, target_dim=d, seed=0)


def jl_map(source_dim: int, gamma: float, delta: float,
           seed: int) -> ProjectionMap:
    """The seeded Gaussian map into dimension jl_dim(gamma, delta).

    Entries are i.i.d. Gaussians scaled by 1/sqrt(d').
    """
    d_prime = jl_dim(gamma, delta)
    rng = generator(derive_seed(seed, "jl-map"))
    matrix = rng.standard_normal((d_prime, source_dim)) / math.sqrt(d_prime)
    return ProjectionMap(matrix=matrix, source_dim=source_dim,
                         target_dim=d_prime, seed=seed)


def jl_project(src: LabeledSource, gamma: float, delta: float,
               seed: int) -> tuple[ProjectionMap, LabeledSource]:
    """Map a source through jl_map(src.dim, gamma, delta, seed), keeping labels.

    With probability at least 1 - delta over the map, all but a
    delta-fraction of the mass keeps margin gamma/2 along the image of the
    original normal.
    """
    proj = jl_map(src.dim, gamma, delta, seed)
    mapped = proj.apply(src.dist.matrix)
    points = [Point(mapped[i]) for i in range(mapped.shape[0])]
    dist = FiniteDistribution(points, src.dist.probs)
    target = Explicit.from_support(points, [int(v) for v in src.labels])
    return proj, LabeledSource(dist, target)


@dataclass(frozen=True)
class PsgdSettings:
    """Execution knobs for the descent loop.

    iterations caps the executed horizon; the guarantee-grade horizon from
    the closed-form formula is reported alongside but is far too large to
    execute at interesting sizes. per_coord_tol is the tolerance requested
    per gradient coordinate (the formula default is likewise impractical
    under simulation, so compiled runs pass an explicit feasible value).
    """

    iterations: int | None = None
    per_coord_tol: float | None = None

    def resolve(self, params: SurrogateParams) -> tuple[int, float]:
        formula_t = params.iterations_formula()
        t = self.iterations if self.iterations is not None else min(
            formula_t, 300
        )
        if t < 1:
            raise PreconditionError("need at least one iteration")
        tol = (
            self.per_coord_tol
            if self.per_coord_tol is not None
            else params.coord_tolerance_formula()
        )
        if not tol > 0:
            raise PreconditionError("tolerance must be positive")
        return t, tol


@dataclass
class LearnerReport:
    """Descent settings plus query accounting read from the run's transcript."""

    dim: int
    iterations_executed: int
    iterations_formula: int
    eta: float
    per_coord_tol: float
    queries_total: int
    queries_label_dependent: int
    rounds: int
    label_non_adaptive: bool

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "iterations_executed": self.iterations_executed,
            "iterations_formula": self.iterations_formula,
            "eta": self.eta,
            "per_coord_tol": self.per_coord_tol,
            "queries_total": self.queries_total,
            "queries_label_dependent": self.queries_label_dependent,
            "rounds": self.rounds,
            "label_non_adaptive": self.label_non_adaptive,
        }


class HalfspaceDriver:
    """Query driver running averaged projected subgradient descent.

    Round 0 carries the block of dim label-dependent correlation queries
    plus the block of label-independent queries for the gradient at w0 = 0;
    every later round carries only the label-independent block at the
    current iterate, so the protocol is label-non-adaptive by construction.
    feed takes one answer per coordinate, flat or grouped per block.
    """

    def __init__(self, params: SurrogateParams, settings: PsgdSettings):
        self.params = params
        self.iterations, self.per_coord_tol = settings.resolve(params)
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

    def __init__(self, params: SurrogateParams, settings: PsgdSettings,
                 X: np.ndarray, probs: np.ndarray):
        super().__init__(params, settings)
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

    def __call__(self, point) -> int:
        return int(self.labels_for(point.coords[None, :])[0])

    def to_json(self) -> dict:
        return {
            "proj": [[float(v) for v in row] for row in self.proj.matrix],
            "w": [float(v) for v in self.w],
        }


@dataclass
class HalfspaceRunInfo:
    """Projection, learner and protocol reports plus the run's transcript."""

    mode: str
    oracle: str
    ambient_dim: int
    working_dim: int
    gamma_effective: float
    projected: bool
    learner: LearnerReport
    transcript: InteractivityTranscript
    protocol_report: ProtocolReport | None = None

    @property
    def rounds(self) -> int:
        return self.transcript.rounds_used()

    @property
    def samples_used(self) -> int:
        return self.protocol_report.samples_used if self.protocol_report else 0


def learn_halfspace(
    src: LabeledSource,
    gamma: float,
    alpha: float,
    delta: float,
    mode: str = "distribution_free",
    oracle: str = "exact",
    epsilon: float = 1.0,
    settings: PsgdSettings | None = None,
    seed: int = 0,
) -> tuple[HalfspaceHypothesis, HalfspaceRunInfo]:
    """Project, then learn a margin-gamma halfspace with the chosen oracle.

    The projection is skipped (identity) when the formula dimension does
    not improve on the ambient one; otherwise the working margin drops to
    gamma/2 and delta is split evenly between projection failure and
    oracle-simulation failure. In known_distribution mode the protocol is
    one round regardless of oracle choice.
    """
    if mode not in ("distribution_free", "known_distribution"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if oracle not in ("exact", "ldp", "comm"):
        raise PreconditionError(f"unknown oracle {oracle!r}")
    d = src.dim
    d_formula = jl_dim(gamma, delta)
    if d_formula < d:
        proj, working = jl_project(src, gamma, delta / 2.0, seed)
        gamma_eff = gamma / 2.0
        sim_delta = delta / 2.0
        projected = True
    else:
        proj, working = identity_projection(d), src
        gamma_eff = gamma
        sim_delta = delta
        projected = False
    params = SurrogateParams(gamma=gamma_eff, alpha=alpha,
                             dim=proj.target_dim)
    if settings is None:
        if oracle == "exact":
            settings = PsgdSettings()
        else:
            # Simulated oracles price precision in samples; these defaults
            # keep batches affordable and were calibrated empirically.
            settings = PsgdSettings(
                iterations=60, per_coord_tol=0.1 * proj.target_dim
            )

    if mode == "known_distribution":
        driver = KnownDistributionDriver(
            params, settings, working.dist.matrix, working.dist.probs
        )
    else:
        driver = HalfspaceDriver(params, settings)

    if oracle == "exact":
        ex = ExactOracle(working)
        run_driver(driver, ex.ask)
        w_bar, transcript, protocol = driver.result(), ex.transcript, None
    else:
        if oracle == "ldp":
            w_bar, protocol = compile_sq_to_ldp(
                driver, working, epsilon, driver.tau, sim_delta,
                seed=derive_seed(seed, "halfspace-ldp"))
        else:
            w_bar, protocol = compile_sq_to_comm(
                driver, working, driver.tau, sim_delta,
                seed=derive_seed(seed, "halfspace-comm"))
        transcript = protocol.transcript
    learner = LearnerReport(
        dim=params.dim,
        iterations_executed=driver.iterations,
        iterations_formula=params.iterations_formula(),
        eta=driver.eta,
        per_coord_tol=driver.per_coord_tol,
        queries_total=len(transcript),
        queries_label_dependent=sum(
            len(b.answers) for b in transcript.blocks if b.label_dependent),
        rounds=transcript.rounds_used(),
        label_non_adaptive=assert_label_non_adaptive(transcript),
    )
    info = HalfspaceRunInfo(
        mode=mode,
        oracle=oracle,
        ambient_dim=d,
        working_dim=proj.target_dim,
        gamma_effective=gamma_eff,
        projected=projected,
        learner=learner,
        transcript=transcript,
        protocol_report=protocol,
    )
    return HalfspaceHypothesis(proj=proj, w=np.asarray(w_bar)), info

