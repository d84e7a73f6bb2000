"""Domain types and exact computations over finite labeled sources.

Everything downstream (oracles, compilers, learners, the lower-bound lab)
works against the types defined here: points in the unit ball, explicit
finite distributions, target function classes closed under negation, labeled
sources, and seeded sample streams. A point set is one checked (n, d) matrix
(`point_rows`); `Point` is for a single point. Every lookup table, a target
or a lower-bound direction, is one `RowTable` keyed by row bytes.
Distributions are explicit and finite on purpose: oracle-equality and
lower-bound demonstrations need exact means, not estimates.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._rng import derive_seed, generator
from .errors import EvaluationError, PreconditionError

logger = logging.getLogger(__name__)

BALL_TOL = 1e-9
PROB_TOL = 1e-12


def signp(a: np.ndarray | float) -> np.ndarray:
    """Sign function with the convention sign(0) = +1."""
    return np.where(np.asarray(a, dtype=float) >= 0.0, 1.0, -1.0)


def _in_unit_ball(arr: np.ndarray, what: str) -> np.ndarray:
    """arr, or arr rescaled onto the unit sphere (with a warning) if |arr| > 1."""
    with np.errstate(over="ignore"):  # an overflowing norm is handled below
        norm = float(np.linalg.norm(arr))
    # Only a non-finite coordinate, or overflow, makes the norm non-finite.
    if not math.isfinite(norm) and not np.isfinite(arr).all():
        raise PreconditionError(f"{what} must be finite")
    if norm > 1.0 + BALL_TOL:
        logger.warning("%s norm %.6g > 1; rescaling", what, norm)
        if math.isinf(norm):  # overflow: divide by the largest magnitude first
            arr = arr / np.abs(arr).max()
            norm = float(np.linalg.norm(arr))
        arr = arr / norm + 0.0
    return arr


@dataclass(frozen=True, eq=False)
class Point:
    """A point in the Euclidean unit ball.

    Coordinates whose norm exceeds 1 by more than 1e-9 are rescaled onto
    the sphere with a logged warning rather than rejected; NaN and infinite
    coordinates are refused. -0.0 is stored as 0.0, so coordinates that
    compare equal have equal bytes.
    """

    coords: np.ndarray

    def __post_init__(self):
        # A fresh float copy; -0.0 + 0.0 is 0.0 and every other value stays.
        arr = np.add(self.coords, 0.0, dtype=float).reshape(-1)
        arr = _in_unit_ball(arr, "point coordinates")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.coords, dtype=dtype, copy=copy)


def _row_keys(M: np.ndarray) -> np.ndarray:
    """One opaque key per row: comparing keys compares the rows' bytes."""
    M = np.ascontiguousarray(M)
    return M.view(np.dtype((np.void, M.itemsize * M.shape[1]))).ravel()


def _as_rows(X) -> np.ndarray:
    """X, a matrix or a sequence of rows or Points, as a float array of rows."""
    try:
        rows = np.asarray(X, dtype=float)
    except ValueError:
        raise PreconditionError("support points have mixed dimensions") from None
    return rows.reshape(len(rows), -1) if rows.ndim != 2 and rows.size else rows


def point_rows(X) -> np.ndarray:
    """X as a read-only (n, d) matrix of distinct points in the unit ball.

    Each row gets Point's treatment, bit for bit: non-finite values are
    refused, -0.0 becomes 0.0, and a row with norm over 1 + BALL_TOL is
    rescaled by Point's own arithmetic. Empty sets, mixed dimensions and
    repeated rows are refused.
    """
    rows = _as_rows(X)
    if len(rows) == 0:
        raise PreconditionError("empty support")
    rows = rows + 0.0  # a fresh copy; -0.0 + 0.0 is 0.0
    if not np.isfinite(rows).all():
        raise PreconditionError("point coordinates must be finite")
    # The summed squares may differ from Point's norm in the last bits, so
    # they only pick the rows that Point's check then decides on.
    with np.errstate(over="ignore"):
        far = np.einsum("ij,ij->i", rows, rows) > (1.0 + BALL_TOL / 2) ** 2
    for i in np.flatnonzero(far):
        rows[i] = _in_unit_ball(rows[i].copy(), "point coordinates")
    if len(set(_row_keys(rows).tolist())) != len(rows):
        raise PreconditionError("support entries must be distinct")
    rows.setflags(write=False)
    return rows


class FiniteDistribution:
    """Explicit distribution over finitely many distinct points: the support
    (rows or Points) is held as the checked matrix of `point_rows`, and a
    distribution given as the support lends its matrix as it is."""

    def __init__(self, support, probs: Iterable[float]):
        matrix = (support.matrix if isinstance(support, FiniteDistribution)
                  else point_rows(support))
        probs_arr = np.array(list(probs), dtype=float)
        if probs_arr.shape != (len(matrix),):
            raise PreconditionError("probs length does not match support")
        if not np.isfinite(probs_arr).all():
            raise PreconditionError("probabilities must be finite")
        if np.any(probs_arr < 0):
            raise PreconditionError("negative probability")
        if abs(float(probs_arr.sum()) - 1.0) > PROB_TOL:
            raise PreconditionError(
                f"probabilities sum to {probs_arr.sum()!r}, not 1 within {PROB_TOL}"
            )
        probs_arr.setflags(write=False)
        self.probs = probs_arr
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        """Support points as a read-only (n, d) array."""
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def __len__(self) -> int:
        return len(self._matrix)


class TargetFunction:
    """A {-1,+1}-valued function on points, evaluable in bulk."""

    def labels_for(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def negate(self) -> "TargetFunction":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class LinearThreshold(TargetFunction):
    """x -> sign(<w, x>) with a declared margin gamma.

    The margin is a promise about the support the function is paired with;
    it is enforced when a LabeledSource is assembled.
    """

    def __init__(self, w: np.ndarray, gamma: float):
        w = _in_unit_ball(np.array(w, dtype=float).reshape(-1),
                          "threshold weights")
        if not 0.0 < gamma <= 1.0:
            raise PreconditionError("gamma must lie in (0, 1]")
        w.setflags(write=False)
        self.w = w
        self.gamma = float(gamma)

    def labels_for(self, X: np.ndarray) -> np.ndarray:
        return signp(np.asarray(X, dtype=float) @ self.w)

    def negate(self) -> "LinearThreshold":
        return LinearThreshold(-self.w, self.gamma)

    def to_json(self) -> dict:
        return {
            "kind": "linear_threshold",
            "w": [float(v) for v in self.w],
            "gamma": self.gamma,
        }


class DecisionList(TargetFunction):
    """Ordered single-variable rules over bits recovered from coordinates.

    Items are (variable index, polarity, output): the rule fires on x when
    bit_i(x) == polarity, where bit_i(x) = 1 iff coordinate i is positive
    (matching embed_hypercube). The first firing rule decides; otherwise
    the default label applies.
    """

    def __init__(self, items: Sequence[tuple[int, int, int]], default: int):
        items = tuple((int(i), int(p), int(b)) for i, p, b in items)
        for i, p, b in items:
            if i < 0:
                raise PreconditionError("literal index must be nonnegative")
            if p not in (0, 1):
                raise PreconditionError("polarity must be 0 or 1")
            if b not in (-1, 1):
                raise PreconditionError("output label must be -1 or +1")
        if int(default) not in (-1, 1):
            raise PreconditionError("default label must be -1 or +1")
        self.items = items
        self.default = int(default)

    def labels_for(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        d = X.shape[1]
        for i, _, _ in self.items:
            if i >= d:
                raise EvaluationError(f"literal index {i} out of range for dim {d}")
        bits = X > 0.0
        out = np.full(X.shape[0], float(self.default))
        undecided = np.ones(X.shape[0], dtype=bool)
        for i, p, b in self.items:
            fire = undecided & (bits[:, i] == bool(p))
            out[fire] = float(b)
            undecided &= ~fire
        return out

    def negate(self) -> "DecisionList":
        flipped = tuple((i, p, -b) for i, p, b in self.items)
        return DecisionList(flipped, -self.default)

    def to_json(self) -> dict:
        return {
            "kind": "decision_list",
            "items": [[i, p, b] for i, p, b in self.items],
            "default": self.default,
        }


@functools.lru_cache(maxsize=1)
def _row_index(n: int, width: int, data: bytes) -> dict:
    """Row key -> position of the n rows in data. The tables of one domain
    (a class, a hypothesis set) are built in a row and share it, read-only."""
    rows = np.frombuffer(data).reshape(n, width)
    return dict(zip(_row_keys(rows).tolist(), range(n)))


class RowTable:
    """Values on explicit rows (a matrix, or a sequence of rows or Points):
    row i holds values[i], keyed by its float64 bytes with -0.0 read as 0.0,
    so the rows must be distinct. Called on a batch X, it returns the values
    of X's rows; any other row, of another width too, is an EvaluationError."""

    def __init__(self, rows, values: Iterable):
        rows = _as_rows(rows) + 0.0
        values = list(values)
        if len(values) != len(rows):
            raise PreconditionError(
                f"{len(values)} labels for {len(rows)} support points")
        if not values:
            raise PreconditionError("empty table")
        # Zero-width rows have no bytes to key by, so they are never distinct.
        self._index = _row_index(*rows.shape, rows.tobytes())
        if len(self._index) != len(values):
            raise PreconditionError("support entries must be distinct")
        self._values = np.array(values, dtype=float)

    def __call__(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        keys = _row_keys(X + 0.0).tolist() if X.shape[1] else [None] * len(X)
        try:
            return self._values.take([self._index[k] for k in keys])
        except KeyError:
            raise EvaluationError("function undefined on a queried point") from None


class Explicit(RowTable, TargetFunction):
    """A RowTable of -1 and +1 labels: the target labeling row i of
    `support` with labels[i]."""

    def __init__(self, support, labels: Iterable[int]):
        super().__init__(support, labels)
        if not (np.abs(self._values) == 1.0).all():  # NaN fails too
            raise PreconditionError("labels must be -1 or +1")

    labels_for = RowTable.__call__

    def negate(self) -> "Explicit":
        flipped = Explicit.__new__(Explicit)
        flipped._index, flipped._values = self._index, -self._values
        return flipped

    def to_json(self) -> dict:
        raise PreconditionError(
            "an explicit target has no JSON form apart from its support: "
            "serialize its labels in support order")


class LabeledSource:
    """A finite distribution paired with a target labeling every support point."""

    def __init__(self, dist: FiniteDistribution, target: TargetFunction):
        labels = np.asarray(target.labels_for(dist.matrix), dtype=float)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise PreconditionError("target produced a non-sign label")
        if isinstance(target, LinearThreshold):
            margins = labels * (dist.matrix @ target.w)
            worst = float(margins.min())
            if worst + 1e-12 < target.gamma:
                raise PreconditionError(
                    f"declared margin {target.gamma} violated on support "
                    f"(worst {worst:.6g})"
                )
        labels.setflags(write=False)
        self.dist = dist
        self.target = target
        self.labels = labels

    @property
    def dim(self) -> int:
        return self.dist.dim


class SampleStream:
    """Lazy view of n i.i.d. draws from a labeled source: n clients with
    one example each.

    Nothing is materialized. The mean estimators never draw a span's
    examples: each of its clients sends +1 with probability q = sum_i
    probs[i] p_plus(v_i), so a span [start, stop) is one
    Binomial(stop - start, q) count seeded by the channel (see
    `Channel.stream_estimates`). `counts` and `batch` realize a span as
    multinomial support counts and the rows they repeat, a pure function of
    (source, seed, start); the stream's seed drives only these, which give
    a per-row reference for the estimators' law.
    """

    def __init__(self, source: LabeledSource, n: int, seed: int):
        if n < 1:
            raise PreconditionError("stream size must be >= 1")
        self.source = source
        self.n = int(n)
        self.seed = int(seed)

    def __len__(self) -> int:
        return self.n

    def counts(self, start: int, stop: int) -> np.ndarray:
        """Multinomial support counts for the batch [start, stop)."""
        self.check_span(start, stop)
        rng = generator(derive_seed(self.seed, "stream-batch", start))
        return rng.multinomial(stop - start, self.source.dist.probs)

    def batch(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        counts = self.counts(start, stop)
        X = np.repeat(self.source.dist.matrix, counts, axis=0)
        y = np.repeat(self.source.labels, counts)
        return X, y

    def check_span(self, start: int, stop: int):
        if not 0 <= start < stop <= self.n:
            raise PreconditionError("batch range outside the declared stream size")


def classification_error(h, src: LabeledSource) -> float:
    """Exact disagreement mass between hypothesis h, anything with
    labels_for(X), and the source target."""
    if not hasattr(h, "labels_for"):
        raise EvaluationError("hypothesis has no labels_for")
    predicted = np.asarray(h.labels_for(src.dist.matrix), dtype=float)
    return float(np.sum(src.dist.probs * (predicted != src.labels)))


def embed_hypercube(bits: Sequence[int]) -> Point:
    """Map a bit vector to the unit sphere: b_i -> (2 b_i - 1) / sqrt(d)."""
    bits_arr = np.asarray(bits, dtype=float).reshape(-1)
    d = bits_arr.shape[0]
    if d < 1:
        raise PreconditionError("need at least one bit")
    if not np.all(np.isin(bits_arr, (0.0, 1.0))):
        raise PreconditionError("bits must be 0/1")
    return Point((2.0 * bits_arr - 1.0) / np.sqrt(d))


def hypercube_rows(d: int) -> np.ndarray:
    """All 2^d embedded bit vectors as rows; row `code` has bit i equal to
    (code >> i) & 1, with embed_hypercube's bits."""
    if d < 1:
        raise PreconditionError("need at least one bit")
    bits = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
    return (2.0 * bits - 1.0) / np.sqrt(d)


# ---------------------------------------------------------------------------
# Synthetic source builders used by experiments and tests.


def make_margin_source(
    d: int,
    gamma: float,
    n_support: int,
    seed: int,
    probs: str = "uniform",
) -> LabeledSource:
    """Random source that is linearly separable with margin exactly >= gamma.

    Each support point is u * w + r * v with v a unit vector orthogonal to
    the random unit normal w, |u| drawn from [gamma, u_max] and r bounded so
    the point stays in the unit ball. Labels are sign(u), so the declared
    margin holds by construction.
    """
    if not 0 < gamma < 1:
        raise PreconditionError("gamma must lie in (0, 1)")
    rng = generator(derive_seed(seed, "margin-source"))
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    u_max = min(1.0, 2.5 * gamma)
    signs = np.where(rng.random(n_support) < 0.5, 1.0, -1.0)
    u = signs * rng.uniform(gamma, u_max, size=n_support)
    v = rng.standard_normal((n_support, d))
    v -= np.outer(v @ w, w)
    v_norms = np.linalg.norm(v, axis=1)
    v_norms[v_norms == 0] = 1.0
    v /= v_norms[:, None]
    r = rng.uniform(0.0, 1.0, size=n_support) * np.sqrt(
        np.maximum(0.0, 1.0 - u**2)
    )
    X = u[:, None] * w[None, :] + r[:, None] * v
    if probs == "uniform":
        p = np.full(n_support, 1.0 / n_support)
    elif probs == "random":
        raw = rng.random(n_support) + 1e-3
        p = raw / raw.sum()
    else:
        raise PreconditionError("probs must be 'uniform' or 'random'")
    dist = FiniteDistribution(X, p)
    return LabeledSource(dist, LinearThreshold(w, gamma))


def uniform_hypercube_source(d: int, target: TargetFunction) -> LabeledSource:
    """Uniform distribution over all 2^d embedded bit vectors."""
    if d < 1 or d > 16:
        raise PreconditionError("hypercube enumeration supported for 1 <= d <= 16")
    n = 1 << d
    dist = FiniteDistribution(hypercube_rows(d), np.full(n, 1.0 / n))
    return LabeledSource(dist, target)


def random_decision_list(d: int, length: int, seed: int) -> DecisionList:
    """Random list over `length` distinct variables with random polarities."""
    if length > d:
        raise PreconditionError("length cannot exceed the number of variables")
    rng = generator(derive_seed(seed, "random-dl"))
    variables = rng.permutation(d)[:length]
    items = []
    for i in variables:
        polarity = int(rng.integers(0, 2))
        output = -1 if rng.random() < 0.5 else 1
        items.append((int(i), polarity, output))
    default = -1 if rng.random() < 0.5 else 1
    return DecisionList(items, default)
