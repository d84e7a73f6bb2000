"""Tests for statistical queries, oracles, and the interactivity transcript.

Derived values come from plain-loop expectation oracles or hand arithmetic
frozen as literals; invariants run as hypothesis property tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsq.core import (
    Explicit,
    FiniteDistribution,
    LabeledSource,
    LinearThreshold,
    Point,
    make_margin_source,
)
from localsq.errors import BudgetExceeded, ContractViolation, ProtocolError
from localsq.sq import (
    AdversarialOracle,
    AdversarialOracleConfig,
    ExactOracle,
    InteractivityTranscript,
    PerturbingOracle,
    StatQuery,
    TranscriptEntry,
    assert_label_non_adaptive,
    decompose,
    run_driver,
)


def loop_mean(src, fn):
    """Oracle: per-point expectation of fn(x, f(x)) by explicit loop."""
    total = 0.0
    for point, prob, label in zip(src.dist.support, src.dist.probs, src.labels):
        total += float(prob) * float(fn(point.coords, label))
    return total


def point_source(rows, labels, probs=None):
    pts = [Point(np.asarray(r, dtype=float)) for r in rows]
    if probs is None:
        probs = np.full(len(pts), 1.0 / len(pts))
    dist = FiniteDistribution(pts, probs)
    return LabeledSource(dist, Explicit.from_support(pts, labels))


def correlation_query(weights, tau=0.1):
    w = np.asarray(weights, dtype=float)
    return StatQuery(
        fn=lambda X, y: y * (X @ w), tau=tau, label_dependent=True, name="corr"
    )


class TestDecompose:
    def test_pure_correlational(self):
        q = correlation_query([1.0, 0.0])
        d = decompose(q)
        X = np.array([[0.3, 0.4], [-0.5, 0.1]])
        assert np.allclose(d.g(X), 0.0)
        assert np.allclose(d.h(X), X[:, 0])

    def test_label_independent(self):
        q = StatQuery(fn=lambda X, y: X[:, 1], tau=0.1, label_dependent=False)
        d = decompose(q)
        X = np.array([[0.3, 0.4], [-0.5, 0.1]])
        assert np.allclose(d.g(X), X[:, 1])
        assert np.allclose(d.h(X), 0.0)

    def test_positive_label_indicator(self):
        q = StatQuery(fn=lambda X, y: (1 + y) / 2, tau=0.1, label_dependent=True)
        d = decompose(q)
        X = np.array([[0.1], [0.2], [0.3]])
        assert np.allclose(d.g(X), 0.5)
        assert np.allclose(d.h(X), 0.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-0.5, 0.5, size=3)
        b = rng.uniform(-0.5, 0.5, size=3)

        def fn(X, y):
            return np.clip(X @ a + y * np.tanh(X @ b), -1, 1)

        q = StatQuery(fn=fn, tau=0.1, label_dependent=True)
        d = decompose(q)
        X = rng.uniform(-0.5, 0.5, size=(6, 3))
        for y in (1.0, -1.0):
            ys = np.full(6, y)
            assert np.max(np.abs(d.g(X) + y * d.h(X) - fn(X, ys))) <= 1e-12

    def test_magnitude_bound(self):
        # |g| + |h| = max(|fn(x,+1)|, |fn(x,-1)|) <= 1 for in-range queries.
        rng = np.random.default_rng(5)
        fn = lambda X, y: np.clip(X[:, 0] + 0.5 * y, -1, 1)
        q = StatQuery(fn=fn, tau=0.1, label_dependent=True)
        d = decompose(q)
        X = rng.uniform(-1, 1, size=(50, 1))
        assert np.all(np.abs(d.g(X)) + np.abs(d.h(X)) <= 1 + 1e-12)


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

    def test_understated_dependence_rejected(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = ExactOracle(src)
        lying_independent = StatQuery(fn=lambda X, y: y, tau=0.1,
                                      label_dependent=False)
        with pytest.raises(ContractViolation):
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
        from localsq.errors import PreconditionError
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


class TestAdversarialOracle:
    def test_label_independent_query_answered_exactly(self):
        src = point_source([[0.6], [-0.6]], (1, -1))
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=5))
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.2, label_dependent=False)
        assert oracle.ask(q, 0) == 0.0
        assert oracle.branches == ["label_blind"]

    def test_high_correlation_gets_exact_answer(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=5))
        q = correlation_query([1.0])
        # E[f h] = 1 >= 1/5, so the exact mean E[y x] = 1 comes back.
        assert oracle.ask(q, 0) == 1.0
        assert oracle.branches == ["exact"]

    def test_low_correlation_answered_label_blind(self):
        src = point_source([[1.0, 0.0], [-1.0, 0.0]], (1, -1))
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=5))
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
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=3))
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
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=m))
        assert oracle.ask(q, 0) == pytest.approx(c)
        assert oracle.branches == ["exact"]

    def test_budget_enforced(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=2))
        q = StatQuery(fn=lambda X, y: X[:, 0], tau=0.5, label_dependent=False)
        oracle.ask(q, 0)
        oracle.ask(q, 0)
        with pytest.raises(BudgetExceeded):
            oracle.ask(q, 0)

    def test_refused_query_spends_no_budget(self):
        src = point_source([[1.0], [-1.0]], (1, -1))
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=1))
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

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_every_answer_within_threshold_of_exact(self, seed):
        rng = np.random.default_rng(seed)
        src = make_margin_source(3, 0.2, 8, seed=seed)
        m = int(rng.integers(2, 12))
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=m))
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
        a = AdversarialOracle(AdversarialOracleConfig(src, m=3))
        b = AdversarialOracle(AdversarialOracleConfig(flipped, m=3))
        ans_a = [a.ask(q, i) for i, q in enumerate(queries)]
        ans_b = [b.ask(q, i) for i, q in enumerate(queries)]
        assert ans_a == ans_b
        assert a.branches == b.branches == ["label_blind", "label_blind"]


class TestTranscript:
    def test_empty_is_non_adaptive(self):
        assert assert_label_non_adaptive(InteractivityTranscript())

    def test_label_dependent_after_round_zero_flagged(self):
        t = InteractivityTranscript()
        t.append(0, False, 0.1, [0.0])
        t.append(2, True, 0.1, [0.5])
        assert not assert_label_non_adaptive(t)

    def test_round_zero_label_dependent_allowed(self):
        t = InteractivityTranscript()
        t.append(0, True, 0.1, [0.5])
        t.append(1, False, 0.1, [0.0])
        assert assert_label_non_adaptive(t)

    def test_decreasing_rounds_rejected(self):
        t = InteractivityTranscript()
        t.append(1, False, 0.1, [0.0])
        with pytest.raises(ProtocolError):
            t.append(0, False, 0.1, [0.0])

    def test_jsonl_keys(self):
        import json as json_mod
        t = InteractivityTranscript()
        t.append(0, True, 0.1, [0.5])
        obj = json_mod.loads(t.to_jsonl().splitlines()[0])
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


class TestBlockQueries:
    def test_exact_block_equals_its_scalar_queries(self):
        src = make_margin_source(4, 0.3, 12, seed=3)
        block, scalar = ExactOracle(src), ExactOracle(src)
        answers = block.ask(label_block(4), 2)
        assert list(answers) == [scalar.ask(q, 2) for q in label_scalars(4)]
        assert block.transcript.entries == scalar.transcript.entries

    def test_perturbing_block_draws_per_coordinate(self):
        src = make_margin_source(4, 0.3, 12, seed=4)
        block = PerturbingOracle(src, "uniform", seed=5)
        scalar = PerturbingOracle(src, "uniform", seed=5)
        answers = block.ask(label_block(4), 0)
        assert list(answers) == [scalar.ask(q, 0) for q in label_scalars(4)]

    def test_adversarial_budget_counts_coordinates(self):
        src = make_margin_source(3, 0.3, 10, seed=6)
        oracle = AdversarialOracle(AdversarialOracleConfig(src, m=5))
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
        with pytest.raises(ContractViolation):
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
