"""Tests for statistical queries, oracles, and the interactivity transcript.

Derived values come from plain-loop expectation oracles or hand arithmetic
frozen as literals; invariants run as hypothesis property tests.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsq._rng import derive_seed, generator
from localsq.core import (
    Explicit,
    FiniteDistribution,
    LabeledSource,
    LinearThreshold,
    Point,
    make_margin_source,
)
from localsq.errors import (
    BudgetExceeded,
    ContractViolation,
    PreconditionError,
    ProtocolError,
)
from localsq.margin_learner import SurrogateParams, grad_f1_query
from localsq.schemas import validate_artifact
from localsq.sq import (
    AdversarialOracle,
    ExactOracle,
    InteractivityTranscript,
    PerturbingOracle,
    StatQuery,
    TranscriptEntry,
    _column_means,
    decompose,
    run_driver,
)


def loop_mean(src, fn):
    """Oracle: per-point expectation of fn(x, f(x)) by explicit loop."""
    total = 0.0
    for x, prob, label in zip(src.dist.matrix, src.dist.probs, src.labels):
        total += float(prob) * float(fn(x, label))
    return total


def point_source(rows, labels, probs=None):
    pts = [Point(np.asarray(r, dtype=float)) for r in rows]
    if probs is None:
        probs = np.full(len(pts), 1.0 / len(pts))
    dist = FiniteDistribution(pts, probs)
    return LabeledSource(dist, Explicit(pts, labels))


def correlation_query(weights, tau=0.1):
    w = np.asarray(weights, dtype=float)
    return StatQuery(fn=lambda X, y: y * (X @ w), tau=tau,
                     label_dependent=True)


class TestDecompose:
    def test_pure_correlational(self):
        q = correlation_query([1.0, 0.0])
        X = np.array([[0.3, 0.4], [-0.5, 0.1]])
        g, h = decompose(q, X)
        assert g.shape == h.shape == (2, 1)
        assert np.allclose(g, 0.0)
        assert np.allclose(h[:, 0], X[:, 0])

    def test_label_independent(self):
        q = StatQuery(fn=lambda X, y: X[:, 1], tau=0.1, label_dependent=False)
        X = np.array([[0.3, 0.4], [-0.5, 0.1]])
        g, h = decompose(q, X)
        assert np.allclose(g[:, 0], X[:, 1])
        assert np.allclose(h, 0.0)

    def test_positive_label_indicator(self):
        q = StatQuery(fn=lambda X, y: (1 + y) / 2, tau=0.1, label_dependent=True)
        g, h = decompose(q, np.array([[0.1], [0.2], [0.3]]))
        assert np.allclose(g, 0.5)
        assert np.allclose(h, 0.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-0.5, 0.5, size=3)
        b = rng.uniform(-0.5, 0.5, size=3)

        def fn(X, y):
            return np.clip(X @ a + y * np.tanh(X @ b), -1, 1)

        q = StatQuery(fn=fn, tau=0.1, label_dependent=True)
        X = rng.uniform(-0.5, 0.5, size=(6, 3))
        g, h = decompose(q, X)
        for y in (1.0, -1.0):
            ys = np.full(6, y)
            assert np.max(np.abs(g[:, 0] + y * h[:, 0] - fn(X, ys))) <= 1e-12

    def test_magnitude_bound(self):
        # |g| + |h| = max(|fn(x,+1)|, |fn(x,-1)|) <= 1 for in-range queries.
        rng = np.random.default_rng(5)
        fn = lambda X, y: np.clip(X[:, 0] + 0.5 * y, -1, 1)
        q = StatQuery(fn=fn, tau=0.1, label_dependent=True)
        g, h = decompose(q, rng.uniform(-1, 1, size=(50, 1)))
        assert np.all(np.abs(g) + np.abs(h) <= 1 + 1e-12)


class TestExactOracle:
    def test_constant_query(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = ExactOracle(src)
        q = StatQuery(fn=lambda X, y: np.full(len(X), 0.375), tau=0.1,
                      label_dependent=False)
        assert oracle.ask(q, 0) == 0.375

    def test_label_mean_balanced(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = ExactOracle(src)
        q = StatQuery(fn=lambda X, y: y, tau=0.1, label_dependent=True)
        assert oracle.ask(q, 0) == 0.0

    def test_margin_correlation_at_least_gamma(self):
        src = make_margin_source(6, 0.25, 15, seed=2)
        oracle = ExactOracle(src)
        q = correlation_query(src.target.w)
        ans = oracle.ask(q, 0)
        assert ans >= 0.25
        assert ans == pytest.approx(
            loop_mean(src, lambda x, l: l * float(x @ src.target.w)), abs=1e-12
        )

    def test_range_violation_raises(self):
        src = point_source([[1.0]], (1,))
        oracle = ExactOracle(src)
        q = StatQuery(fn=lambda X, y: 2.0 * X[:, 0], tau=0.1, label_dependent=False)
        with pytest.raises(ContractViolation):
            oracle.ask(q, 0)

    def test_nan_value_raises_and_records_nothing(self):
        # NaN compares false with everything, so a range check written as
        # "worst > 1" would pass it into the transcript.
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = ExactOracle(src)
        q = StatQuery(fn=lambda X, y: np.where(X[:, 0] > 0, np.nan, 0.5),
                      tau=0.1, label_dependent=False)
        with pytest.raises(ContractViolation):
            oracle.ask(q, 0)
        assert len(oracle.transcript) == 0

    def test_understated_dependence_rejected(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = ExactOracle(src)
        lying_independent = StatQuery(fn=lambda X, y: y, tau=0.1,
                                      label_dependent=False)
        with pytest.raises(ContractViolation, match="reads the labels"):
            oracle.ask(lying_independent, 0)

    def test_overstated_dependence_tolerated(self):
        # The flag covers the declared domain; a support on which the query
        # happens to ignore labels cannot disprove it.
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = ExactOracle(src)
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.1, label_dependent=True)
        assert oracle.ask(q, 1) == 0.0

    def test_transcript_records_entries(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = ExactOracle(src)
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.2, label_dependent=False)
        oracle.ask(q, 0)
        oracle.ask(q, 1)
        assert len(oracle.transcript) == 2
        assert oracle.transcript.entries[1].round == 1
        assert oracle.transcript.entries[0].tolerance == 0.2


class TestPerturbingOracle:
    def test_plus_tau_on_zero_mean(self):
        src = point_source([[0.0]], (1,))
        oracle = PerturbingOracle(src, "plus_tau")
        q = StatQuery(fn=lambda X, y: np.zeros(len(X)), tau=0.1,
                      label_dependent=False)
        assert oracle.ask(q, 0) == pytest.approx(0.1)

    def test_grid_rounding(self):
        # Exact mean 0.234 snaps to the 0.1 grid at 0.2.
        src = point_source([[0.234]], (1,))
        oracle = PerturbingOracle(src, "grid")
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.1, label_dependent=False)
        assert oracle.ask(q, 0) == pytest.approx(0.2)

    def test_unknown_policy_rejected(self):
        src = point_source([[0.0]], (1,))
        with pytest.raises(PreconditionError):
            PerturbingOracle(src, "adversarial")

    @given(st.sampled_from(["grid", "plus_tau", "minus_tau", "uniform"]),
           st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_every_policy_within_tau(self, policy, seed):
        src = make_margin_source(3, 0.2, 6, seed=seed)
        exact = ExactOracle(src)
        perturbed = PerturbingOracle(src, policy, seed=seed)
        q = correlation_query(src.target.w, tau=0.07)
        assert abs(perturbed.ask(q, 0) - exact.ask(q, 0)) <= 0.07 + 1e-12

    def test_uniform_policy_reproducible(self):
        src = point_source([[0.5]], (1,))
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.1, label_dependent=False)
        a = PerturbingOracle(src, "uniform", seed=9).ask(q, 0)
        b = PerturbingOracle(src, "uniform", seed=9).ask(q, 0)
        assert a == b

    def test_out_of_order_round_draws_nothing(self):
        src = point_source([[0.5]], (1,))
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.1, label_dependent=False)
        refused = PerturbingOracle(src, "uniform", seed=9)
        twin = PerturbingOracle(src, "uniform", seed=9)
        assert refused.ask(q, 1) == twin.ask(q, 1)
        with pytest.raises(ProtocolError):
            refused.ask(q, 0)
        assert refused.ask(q, 1) == twin.ask(q, 1)


class TestAdversarialOracle:
    def test_label_independent_query_answered_exactly(self):
        src = point_source([[0.6], [-0.6]], (1, -1))
        oracle = AdversarialOracle(src, 5)
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.2, label_dependent=False)
        assert oracle.ask(q, 0) == 0.0
        assert oracle.branches == ["label_blind"]

    def test_high_correlation_gets_exact_answer(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = AdversarialOracle(src, 5)
        q = correlation_query([1.0])
        # E[f h] = 1 >= 1/5, so the exact mean E[y x] = 1 comes back.
        assert oracle.ask(q, 0) == 1.0
        assert oracle.branches == ["exact"]

    def test_low_correlation_answered_label_blind(self):
        src = point_source([[1.0, 0.0], [-1.0, 0.0]], (1, -1))
        oracle = AdversarialOracle(src, 5)
        weak = StatQuery(fn=lambda X, y: y * 0.1 * X[:, 1], tau=0.2,
                         label_dependent=True)
        # h(x) = 0.1 x_2 vanishes on this support, so E[f h] = 0 < 1/5 and
        # the label-blind branch answers E[g] = 0.
        assert oracle.ask(weak, 0) == 0.0
        assert oracle.branches == ["label_blind"]

    def test_below_threshold_answer_is_g_mean(self):
        # f = sign(x_1); query correlates with x_2 only: E[f h] = 0.1 * E[f x_2].
        src = point_source(
            [[0.7, 0.7], [-0.7, 0.7], [0.7, -0.7], [-0.7, -0.7]],
            (1, -1, 1, -1),
        )
        oracle = AdversarialOracle(src, 3)
        q = StatQuery(fn=lambda X, y: 0.5 * X[:, 0] + y * 0.1 * X[:, 1],
                      tau=0.4, label_dependent=True)
        # E[f x_2] = 0, below 1/3: answer must be E[0.5 x_1] = 0.
        assert oracle.ask(q, 0) == 0.0
        assert oracle.branches == ["label_blind"]

    def test_tie_at_threshold_takes_exact_branch(self):
        # |E[f h]| exactly 1/m: the oracle concedes the exact answer.
        m = 4
        src = point_source([[1.0], [-1.0]], (1, -1))
        c = 1.0 / m
        q = StatQuery(fn=lambda X, y: y * c * X[:, 0], tau=0.5,
                      label_dependent=True)
        oracle = AdversarialOracle(src, m)
        assert oracle.ask(q, 0) == pytest.approx(c)
        assert oracle.branches == ["exact"]

    def test_budget_enforced(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = AdversarialOracle(src, 2)
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.5, label_dependent=False)
        oracle.ask(q, 0)
        oracle.ask(q, 0)
        with pytest.raises(BudgetExceeded):
            oracle.ask(q, 0)

    def test_budget_below_one_refused(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        with pytest.raises(PreconditionError, match="budget"):
            AdversarialOracle(src, 0)

    def test_refused_query_spends_no_budget(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = AdversarialOracle(src, 1)
        out_of_range = StatQuery(fn=lambda X, y: 2.0 * X[:, 0], tau=0.5,
                                 label_dependent=False)
        with pytest.raises(ContractViolation):
            oracle.ask(out_of_range, 0)
        assert len(oracle.transcript) == 0
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.5, label_dependent=False)
        assert oracle.ask(q, 0) == 0.0
        assert len(oracle.transcript) == 1
        with pytest.raises(BudgetExceeded):
            oracle.ask(q, 0)

    def test_out_of_order_round_changes_no_state(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = AdversarialOracle(src, 3)
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.5, label_dependent=False)
        oracle.ask(q, 1)
        with pytest.raises(ProtocolError):
            oracle.ask(q, 0)
        assert len(oracle.branches) == len(oracle.transcript) == 1

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_every_answer_within_threshold_of_exact(self, seed):
        rng = np.random.default_rng(seed)
        src = make_margin_source(3, 0.2, 8, seed=seed)
        m = int(rng.integers(2, 12))
        oracle = AdversarialOracle(src, m)
        exact = ExactOracle(src)
        a = rng.uniform(-0.4, 0.4, size=3)
        b = rng.uniform(-0.4, 0.4, size=3)
        q = StatQuery(fn=lambda X, y: X @ a + y * (X @ b), tau=1.0 / m,
                      label_dependent=True)
        assert abs(oracle.ask(q, 0) - exact.ask(q, 0)) <= 1.0 / m

    def test_negation_fooling_below_threshold(self):
        # All queries below threshold: transcripts for f and -f coincide.
        src = point_source(
            [[0.7, 0.7], [-0.7, 0.7], [0.7, -0.7], [-0.7, -0.7]],
            (1, -1, 1, -1),
        )
        flipped = point_source(
            [[0.7, 0.7], [-0.7, 0.7], [0.7, -0.7], [-0.7, -0.7]],
            (-1, 1, -1, 1),
        )
        queries = [
            StatQuery(fn=lambda X, y: 0.3 * X[:, 1] + y * 0.05 * X[:, 1],
                      tau=0.5, label_dependent=True),
            StatQuery(fn=lambda X, y: X[:, 0] * X[:, 1], tau=0.5,
                      label_dependent=False),
        ]
        a = AdversarialOracle(src, 3)
        b = AdversarialOracle(flipped, 3)
        ans_a = [a.ask(q, i) for i, q in enumerate(queries)]
        ans_b = [b.ask(q, i) for i, q in enumerate(queries)]
        assert ans_a == ans_b
        assert a.branches == b.branches == ["label_blind", "label_blind"]


class TestTranscript:
    def test_empty_is_non_adaptive(self):
        assert InteractivityTranscript().label_dependent_rounds() == []

    def test_label_dependent_after_round_zero_flagged(self):
        t = InteractivityTranscript()
        t.append(0, False, 0.1, [0.0])
        t.append(2, True, 0.1, [0.5])
        t.append(2, True, 0.1, [0.5, 0.25])
        t.append(3, False, 0.1, [0.0])
        t.append(4, True, 0.1, [0.5])
        assert t.label_dependent_rounds() == [2, 4]

    def test_round_zero_label_dependent_allowed(self):
        t = InteractivityTranscript()
        t.append(0, True, 0.1, [0.5])
        t.append(1, False, 0.1, [0.0])
        assert t.label_dependent_rounds() == [0]

    def test_decreasing_rounds_rejected(self):
        t = InteractivityTranscript()
        t.append(1, False, 0.1, [0.0])
        with pytest.raises(ProtocolError):
            t.append(0, False, 0.1, [0.0])

    def test_jsonl_keys(self):
        t = InteractivityTranscript()
        t.append(0, True, 0.1, [0.5])
        obj = json.loads(t.to_jsonl().splitlines()[0])
        assert set(obj) == {"round", "label_dep", "tau", "answer"}

    @given(
        blocks=st.lists(
            st.tuples(
                st.integers(0, 2), st.booleans(),
                st.sampled_from([0.05, 0.1]), st.sampled_from([1.0, -6.0]),
                st.lists(st.floats(-1, 1), min_size=1, max_size=5),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_block_append_equals_its_width_one_appends(self, blocks):
        blocked, scalar = InteractivityTranscript(), InteractivityTranscript()
        rnd = 0
        for step, dep, tau, scale, answers in blocks:
            rnd += step
            blocked.append(rnd, dep, tau, np.array(answers), scale)
            for a in answers:
                scalar.append(rnd, dep, tau, [a], scale)
        assert blocked.to_jsonl() == scalar.to_jsonl()
        assert len(blocked) == len(scalar) == sum(len(b[4]) for b in blocks)
        assert blocked.rounds_used() == scalar.rounds_used()
        assert blocked.entries == scalar.entries

    @given(
        blocks=st.lists(
            st.tuples(
                st.integers(0, 3), st.booleans(),
                st.floats(min_value=0, exclude_min=True,
                          allow_infinity=False),
                st.one_of(st.just(1.0), st.floats(allow_nan=False,
                                                  allow_infinity=False)),
                st.lists(st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308])),
                    min_size=1, max_size=8),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_block_expansion_is_the_per_line_transcript(self, blocks):
        # The reference is the per-entry record and serialisation that
        # transcript.jsonl was written from line by line.
        t, rnd = InteractivityTranscript(), 0
        for step, dep, tau, scale, answers in blocks:
            rnd += step
            t.append(rnd, dep, tau, answers, scale)
        expected = [
            {"round": e.round, "label_dep": e.label_dependent,
             "tau": e.tolerance, "answer": e.answer}
            | ({} if e.scale == 1.0 else {"scale": e.scale})
            for e in t.entries
        ]
        assert t.records() == expected
        assert t.to_jsonl() == "".join(json.dumps(r, sort_keys=True) + "\n"
                                       for r in expected)
        # Every schema-valid block expands to lines that each validate.
        for b in t.blocks:
            validate_artifact("transcript_block", b.to_json())
        for line in t.to_jsonl().splitlines():
            validate_artifact("transcript_entry", json.loads(line))

    def test_block_expands_to_entries_in_order(self):
        t = InteractivityTranscript()
        t.append(0, True, 0.1, np.array([0.25, -0.5]), -6.0)
        t.append(1, False, 0.2, [0.75])
        assert t.entries == [
            TranscriptEntry(0, True, 0.1, 0.25, -6.0),
            TranscriptEntry(0, True, 0.1, -0.5, -6.0),
            TranscriptEntry(1, False, 0.2, 0.75),
        ]
        assert len(t) == 3 and t.rounds_used() == 2

    def test_refused_append_leaves_the_record_unchanged(self):
        t = InteractivityTranscript()
        t.append(2, True, 0.1, [0.5, 0.25])
        before = (len(t), t.to_jsonl(), t.rounds_used())
        with pytest.raises(ProtocolError):
            t.append(1, False, 0.1, [0.0, 0.0, 0.0])
        with pytest.raises(ProtocolError):
            t.append(-1, False, 0.1, [0.0])
        with pytest.raises(ProtocolError):
            t.append(3, False, 0.1, [])
        assert (len(t), t.to_jsonl(), t.rounds_used()) == before

    def test_entries_are_a_read_only_expansion(self):
        t = InteractivityTranscript()
        answers = np.array([0.25, 0.5])
        t.append(0, True, 0.1, answers)
        answers[0] = 0.75
        t.entries.clear()
        assert [e.answer for e in t.entries] == [0.25, 0.5]


class FixedDriver:
    """Two-round driver used to exercise run_driver."""

    max_queries = 3

    def __init__(self):
        self.seen = []

    def begin(self):
        q = StatQuery(fn=lambda X, y: y, tau=0.1, label_dependent=True)
        return [q, q]

    def feed(self, answers):
        self.seen.append(list(answers))
        if len(self.seen) == 1:
            return [StatQuery(fn=lambda X, y: X[:, 0], tau=0.1,
                              label_dependent=False)]
        return None


class TestRunDriver:
    def test_rounds_and_answer_flow(self):
        src = point_source([[0.5], [-0.5]], (1, 1))
        oracle = ExactOracle(src)
        driver = FixedDriver()
        rounds = run_driver(driver, oracle.ask)
        assert rounds == 2
        assert driver.seen[0] == [1.0, 1.0]
        assert driver.seen[1] == [0.0]
        assert oracle.transcript.rounds_used() == 2


def label_block(d, tau=0.1):
    """Block of the d label-dependent coordinate queries y * x_j."""
    return StatQuery(fn=lambda X, y: y[:, None] * X, tau=tau,
                     label_dependent=True, width=d)


def label_scalars(d, tau=0.1):
    return [StatQuery(fn=lambda X, y, j=j: y * X[:, j], tau=tau,
                      label_dependent=True) for j in range(d)]


def assert_within_ulps(block, scalar, src, ulps=4):
    """A block's answers against its scalar queries' answers, one at a time.

    A block's means are one product over all columns and a scalar query's
    one product over its column, so the two may sum in different orders.
    They must agree to within `ulps` units in the last place of the larger
    of the answer and E|y x_j|, the size of the terms being summed.
    """
    X, probs, labels = src.dist.matrix, src.dist.probs, src.labels
    size = np.maximum(np.abs(scalar), probs @ np.abs(labels[:, None] * X))
    assert np.all(np.abs(block - scalar) <= ulps * np.spacing(size))


def shared_fields(t):
    return [{k: v for k, v in r.items() if k != "answer"} for r in t.records()]


class TestBlockQueries:
    def test_exact_block_equals_its_scalar_queries(self):
        src = make_margin_source(4, 0.3, 12, seed=3)
        block, scalar = ExactOracle(src), ExactOracle(src)
        answers = block.ask(label_block(4), 2)
        assert_within_ulps(answers, np.array([scalar.ask(q, 2)
                                              for q in label_scalars(4)]), src)
        assert shared_fields(block.transcript) == shared_fields(
            scalar.transcript)

    def test_perturbing_block_draws_per_coordinate(self):
        src = make_margin_source(4, 0.3, 12, seed=4)
        block = PerturbingOracle(src, "uniform", seed=5)
        scalar = PerturbingOracle(src, "uniform", seed=5)
        answers = block.ask(label_block(4), 0)
        assert_within_ulps(answers, np.array([scalar.ask(q, 0)
                                              for q in label_scalars(4)]), src)

    def test_adversarial_budget_counts_coordinates(self):
        src = make_margin_source(3, 0.3, 10, seed=6)
        oracle = AdversarialOracle(src, 5)
        oracle.ask(label_block(3), 0)
        assert len(oracle.branches) == len(oracle.transcript) == 3
        with pytest.raises(BudgetExceeded):
            oracle.ask(label_block(3), 0)

    def test_wrong_width_refused(self):
        src = make_margin_source(3, 0.3, 10, seed=7)
        q = StatQuery(fn=lambda X, y: X[:, :2], tau=0.1,
                      label_dependent=False, width=3)
        with pytest.raises(ContractViolation):
            ExactOracle(src).ask(q, 0)

    def test_undeclared_dependence_in_one_column_refused(self):
        src = make_margin_source(3, 0.3, 10, seed=8)
        q = StatQuery(fn=lambda X, y: np.column_stack([X[:, 0], y * X[:, 1]]),
                      tau=0.1, label_dependent=False, width=2)
        with pytest.raises(ContractViolation, match="reads the labels"):
            ExactOracle(src).ask(q, 0)

    def test_run_driver_feeds_one_answer_per_coordinate(self):
        src = make_margin_source(3, 0.3, 10, seed=9)

        class BlockDriver:
            max_queries = 4

            def begin(self):
                return [label_block(3), correlation_query([1.0, 0.0, 0.0])]

            def feed(self, answers):
                self.answers = list(answers)

        driver = BlockDriver()
        assert run_driver(driver, ExactOracle(src).ask) == 1
        scalar = ExactOracle(src)
        assert driver.answers == [
            scalar.ask(q, 0) for q in label_scalars(3)
            + [correlation_query([1.0, 0.0, 0.0])]]


LYING_LABEL_FREE = [
    StatQuery(fn=lambda X, y: y * X[:, 0], tau=0.1, label_dependent=False),
    StatQuery(fn=lambda X, y: np.column_stack([X[:, 0], y * X[:, 1]]),
              tau=0.1, label_dependent=False, width=2),
    StatQuery(fn=lambda X, y: y, tau=0.1, label_dependent=False),
    StatQuery(fn=lambda X, y: y.astype(float) * X[:, 0], tau=0.1,
              label_dependent=False),
]


class TestColumnMeans:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_one_product_is_within_rounding_of_each_mean(self, seed, n, width):
        # All exact answers are one probs @ values product over a block. Each
        # column's mean must lie within n * 2^-52 * sum_i |p_i v_i| of its
        # math.fsum mean, the bound for summing n products in any order.
        rng = np.random.default_rng(seed)
        raw = rng.exponential(size=n) * (rng.random(n) < 0.8)
        raw[rng.integers(n)] += 1.0  # at least one point with mass
        X = rng.uniform(-0.5, 0.5, size=(n, 2))
        src = LabeledSource(FiniteDistribution(X, raw / raw.sum()),
                            Explicit(X, rng.choice([-1, 1], size=n)))
        values = rng.uniform(-1.0, 1.0, size=(n, width))
        means = _column_means(src, values)
        assert means.shape == (width,)
        for j in range(width):
            terms = src.dist.probs * values[:, j]
            bound = n * 2.0**-52 * math.fsum(np.abs(terms))
            assert abs(means[j] - math.fsum(terms)) <= bound


def stacked_reference(q, src, seed, m):
    """Exact, perturbing ("uniform") and adversarial answers and branches,
    computed as before label-free blocks were evaluated on the points alone:
    fn on the support stacked over both labels, then the realized rows."""
    X, probs, labels = src.dist.matrix, src.dist.probs, src.labels
    n = len(X)
    both = np.asarray(q.fn(np.vstack([X, X]),
                           np.concatenate([np.ones(n), -np.ones(n)])),
                      dtype=float).reshape(2 * n, q.width)
    plus, minus = both[:n], both[n:]
    realized = np.where(labels[:, None] > 0, plus, minus)

    def means(values):
        return probs @ values

    exact = means(realized)
    rng = generator(derive_seed(seed, "perturbing-oracle"))
    perturbed = np.array([e + float(rng.uniform(-q.tau, q.tau))
                          for e in exact])
    concede = np.abs(means(labels[:, None] * (plus - minus) / 2.0)) >= 1.0 / m
    adversarial = np.where(concede, exact, means((plus + minus) / 2.0))
    return (exact, perturbed, adversarial,
            ["exact" if c else "label_blind" for c in concede])


EVERY_ORACLE = pytest.mark.parametrize("make_oracle", [
    ExactOracle,
    lambda src: PerturbingOracle(src, "uniform", seed=3),
    lambda src: AdversarialOracle(src, 5),
], ids=["exact", "perturbing", "adversarial"])


class TestNonRealValues:
    @EVERY_ORACLE
    @pytest.mark.parametrize("fn", [
        lambda X, y: np.full(len(X), "a"),
        lambda X, y: X[:, 0] + 0.5j,
        lambda X, y: [object()] * len(X),
        lambda X, y: [[0.5, 0.5]] + [0.5] * (len(X) - 1),
    ], ids=["string", "complex", "object", "ragged"])
    @pytest.mark.parametrize("label_dependent", [True, False])
    def test_refused_recording_nothing(self, make_oracle, fn,
                                       label_dependent):
        # Values that are not real numbers are refused as a contract
        # violation, like out-of-range ones, before anything is recorded.
        oracle = make_oracle(make_margin_source(3, 0.3, 10, seed=8))
        q = StatQuery(fn=fn, tau=0.1, label_dependent=label_dependent)
        with pytest.raises(ContractViolation, match="not real numbers"):
            oracle.ask(q, 0)
        assert len(oracle.transcript) == 0
        assert getattr(oracle, "branches", []) == []


class TestLabelFreeEvaluation:
    @EVERY_ORACLE
    @pytest.mark.parametrize("q", LYING_LABEL_FREE,
                             ids=["reads-y", "one-column-reads-y", "returns-y",
                                  "y-attribute"])
    def test_label_free_block_reading_labels_refused(self, make_oracle, q):
        # A label-free fn is called with y=None, so reading y fails and is
        # refused, naming the labels, before anything is recorded.
        oracle = make_oracle(make_margin_source(3, 0.3, 10, seed=8))
        with pytest.raises(ContractViolation, match="reads the labels"):
            oracle.ask(q, 0)
        assert len(oracle.transcript) == 0
        assert getattr(oracle, "branches", []) == []

    @staticmethod
    def random_cases(kind, count=30, seed=2002):
        """(query, source, seed, m): random label-free blocks of widths 1-5
        on random sources, with an adversarial budget m that fits them."""
        rng = np.random.default_rng(seed)
        for case in range(count):
            d = int(rng.integers(1, 6))
            src = make_margin_source(d, 0.2, int(rng.integers(1, 40)),
                                     seed=case, probs="random")
            width = int(rng.integers(1, 6))
            I, J, K = rng.integers(0, d, (3, width))
            A = rng.uniform(-1, 1, (d, width))
            q = {"gradient": grad_f1_query(A[:, 0], SurrogateParams(
                     0.2, 0.1, d), 0.05),
                 "elementwise": StatQuery(
                     fn=lambda X, y, I=I, J=J, K=K:
                         0.5 * (X[:, I] * X[:, J] + X[:, K]),
                     tau=0.05, label_dependent=False, width=width),
                 "product": StatQuery(
                     fn=lambda X, y, A=A: np.tanh(X @ A), tau=0.05,
                     label_dependent=False, width=width)}[kind]
            yield q, src, case, q.width + int(rng.integers(0, 20))

    @pytest.mark.parametrize("kind", ["gradient", "elementwise"])
    def test_answers_match_stacked_evaluation_bit_for_bit(self, kind):
        # The halfspace learner's label-free gradient block and elementwise
        # blocks: evaluating once, on the points alone, changes no bit of
        # any oracle's answers or the adversarial branches.
        for q, src, case, m in self.random_cases(kind):
            exact, perturbed, adversarial, branches = stacked_reference(
                q, src, case, m)
            adv = AdversarialOracle(src, m)
            assert np.array_equal(np.ravel(ExactOracle(src).ask(q, 0)), exact)
            assert np.array_equal(np.ravel(PerturbingOracle(
                src, "uniform", seed=case).ask(q, 0)), perturbed)
            assert np.array_equal(np.ravel(adv.ask(q, 0)), adversarial)
            assert adv.branches == branches == ["label_blind"] * q.width

    def test_matrix_product_blocks_move_by_rounding_only(self):
        # A BLAS product's rows can round differently at n and at 2n rows
        # (the stacked halves could already disagree in the last bit), so
        # such a block matches the stacked answers only up to rounding.
        for q, src, case, m in self.random_cases("product", count=200):
            exact, _, adversarial, branches = stacked_reference(
                q, src, case, m)
            adv = AdversarialOracle(src, m)
            assert np.allclose(np.ravel(ExactOracle(src).ask(q, 0)), exact,
                               rtol=0.0, atol=1e-15)
            assert np.allclose(np.ravel(adv.ask(q, 0)), adversarial,
                               rtol=0.0, atol=1e-15)
            assert adv.branches == branches
