"""Tests for local randomizers, the privacy ledger, and the LDP compiler.

Closed-form probabilities are hand-derived and frozen; estimator behavior
is checked by Monte Carlo against exact means with generous concentration
margins; ledger safety is a hypothesis property over random call sequences.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localsq.core import (
    Explicit,
    FiniteDistribution,
    LabeledSource,
    Point,
    SampleStream,
    make_margin_source,
    sample,
)
from localsq.errors import (
    BudgetExceeded,
    ContractViolation,
    PreconditionError,
    SizingError,
)
from localsq.ldp import (
    LdpProtocolReport,
    LocalRandomizer,
    PrivacyLedger,
    compile_sq_to_ldp,
    ldp_batch_size,
    ldp_estimate_mean,
    lr_invoke,
    rr_coefficient,
    rr_randomizer,
    verify_randomizer_privacy,
)
from localsq.sq import ExactOracle, StatQuery


def first_coord(X, y):
    return X[:, 0]


def two_point_source(a=1.0, b=-1.0, pa=0.5):
    pts = [Point(np.array([a])), Point(np.array([b]))]
    dist = FiniteDistribution(pts, [pa, 1 - pa])
    labels = (1 if a > 0 else -1, 1 if b > 0 else -1)
    return LabeledSource(dist, Explicit.from_support(pts, labels))


class NonInteractiveDriver:
    """Asks all queries up front; result is the answer list."""

    def __init__(self, queries):
        self._queries = list(queries)
        self.max_queries = len(self._queries)
        self._answers = None

    def begin(self):
        return self._queries

    def feed(self, answers):
        self._answers = list(answers)
        return None

    def result(self):
        return self._answers


class TwoRoundDriver:
    max_queries = 2

    def __init__(self):
        self._answers = []

    def begin(self):
        return [StatQuery(fn=first_coord, tau=0.1, label_dependent=False)]

    def feed(self, answers):
        self._answers.extend(answers)
        if len(self._answers) == 1:
            return [StatQuery(fn=first_coord, tau=0.1, label_dependent=False)]
        return None

    def result(self):
        return self._answers


class TestRrCoefficient:
    def test_ln3_gives_half(self):
        assert rr_coefficient(math.log(3.0)) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_in_epsilon(self):
        eps = [0.1, 0.5, 1.0, 2.0, 5.0]
        cs = [rr_coefficient(e) for e in eps]
        assert all(a < b for a, b in zip(cs, cs[1:]))
        assert all(0 < c < 1 for c in cs)

    def test_nonpositive_rejected(self):
        with pytest.raises(PreconditionError):
            rr_coefficient(0.0)


class TestRrRandomizer:
    def test_zero_value_gives_fair_bit(self):
        R = rr_randomizer(lambda X, y: np.zeros(len(X)), epsilon=1.0)
        assert R.prob(np.array([0.0]), 1.0, 1) == pytest.approx(0.5)
        assert R.prob(np.array([0.0]), 1.0, -1) == pytest.approx(0.5)

    def test_ln3_extreme_value(self):
        # c = 1/2, so phi = 1 pushes Pr[+1] to 1/2 + 1/4 = 3/4.
        R = rr_randomizer(first_coord, epsilon=math.log(3.0))
        assert R.prob(np.array([1.0]), 1.0, 1) == pytest.approx(0.75)
        assert R.prob(np.array([-1.0]), 1.0, 1) == pytest.approx(0.25)

    def test_out_of_range_value_rejected(self):
        R = rr_randomizer(lambda X, y: 3.0 * X[:, 0], epsilon=1.0)
        with pytest.raises(ContractViolation):
            R.prob(np.array([1.0]), 1.0, 1)

    @given(st.floats(-1.0, 1.0), st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0]))
    def test_unbiased_debiasing(self, value, epsilon):
        # Sum over messages of prob * debias must reproduce the value.
        R = rr_randomizer(lambda X, y: np.full(len(X), value), epsilon)
        x = np.array([0.0])
        mean = sum(R.prob(x, 1.0, w) * R.debias(w) for w in R.message_space)
        assert mean == pytest.approx(value, abs=1e-12)

    def test_apply_deterministic_per_seed(self):
        R = rr_randomizer(first_coord, epsilon=1.0)
        x = np.array([0.3])
        draws_a = [R.apply(x, 1.0, s) for s in range(20)]
        draws_b = [R.apply(x, 1.0, s) for s in range(20)]
        assert draws_a == draws_b
        assert set(draws_a) <= {-1, 1}


class TestVerifyPrivacy:
    def test_rr_ratio_is_exp_epsilon(self):
        # Extremes phi = +-1 realize the worst case (1+c)/(1-c) = e^eps.
        space = [(np.array([1.0]), 1.0), (np.array([-1.0]), 1.0)]
        for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
            R = rr_randomizer(first_coord, epsilon=eps)
            assert verify_randomizer_privacy(R, space) == pytest.approx(
                math.exp(eps), abs=1e-9
            )

    def test_constant_randomizer_ratio_one(self):
        R = LocalRandomizer(
            epsilon=1.0,
            message_space=(0,),
            apply_fn=lambda x, y, seed: 0,
            prob_fn=lambda x, y, w: 1.0,
            debias_fn=lambda w: 0.0,
        )
        space = [(np.array([1.0]), 1.0), (np.array([-1.0]), -1.0)]
        assert verify_randomizer_privacy(R, space) == 1.0

    def test_identity_map_is_infinite_violation(self):
        R = LocalRandomizer(
            epsilon=1.0,
            message_space=(0, 1),
            apply_fn=lambda x, y, seed: int(x[0] > 0),
            prob_fn=lambda x, y, w: 1.0 if w == int(x[0] > 0) else 0.0,
            debias_fn=lambda w: float(w),
        )
        space = [(np.array([1.0]), 1.0), (np.array([-1.0]), 1.0)]
        assert verify_randomizer_privacy(R, space) == math.inf


class TestPrivacyLedger:
    def test_single_invocation_then_refusal(self):
        src = two_point_source()
        S = sample(src, 5, seed=1)
        ledger = PrivacyLedger(cap=1.0)
        R = rr_randomizer(first_coord, epsilon=1.0)
        lr_invoke(ledger, S, 2, R, seed=7)
        assert ledger.spent(2) == pytest.approx(1.0)
        with pytest.raises(BudgetExceeded):
            lr_invoke(ledger, S, 2, R, seed=8)

    def test_double_budget_allows_two(self):
        src = two_point_source()
        S = sample(src, 3, seed=1)
        ledger = PrivacyLedger(cap=2.0)
        R = rr_randomizer(first_coord, epsilon=1.0)
        lr_invoke(ledger, S, 0, R, seed=1)
        lr_invoke(ledger, S, 0, R, seed=2)
        assert ledger.spent(0) == pytest.approx(2.0)

    def test_span_charge_and_overlap_refusal(self):
        ledger = PrivacyLedger(cap=1.0)
        ledger.charge_span(0, 100, 1.0)
        assert ledger.spent(50) == pytest.approx(1.0)
        assert ledger.spent(100) == 0.0
        with pytest.raises(BudgetExceeded):
            ledger.charge_span(99, 150, 1.0)
        ledger.charge_span(100, 150, 1.0)

    def test_per_index_materialization(self):
        ledger = PrivacyLedger(cap=1.0)
        ledger.charge_span(0, 3, 0.5)
        ledger.charge(1, 0.25)
        assert ledger.per_index_spent == pytest.approx(
            {0: 0.5, 1: 0.75, 2: 0.5}
        )

    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(0, 8),
                      st.sampled_from([0.3, 0.5, 0.9, 1.1])),
            max_size=25,
        )
    )
    @example([(10, 0, 0.5)] * 3)  # stacked spans, each below the cap
    @settings(max_examples=100, deadline=None)
    def test_no_sequence_can_exceed_cap(self, calls):
        # Single charges (width 1) mixed with span charges, against a
        # brute-force per-index model: a call is refused exactly when some
        # index it covers would go over the cap, and then records nothing.
        ledger = PrivacyLedger(cap=1.0)
        model = [0.0] * 16
        for width, i, amount in calls:
            covered = range(i, i + width)
            refuse = any(model[j] + amount > 1.0 + 1e-12 for j in covered)
            try:
                if width == 1:
                    ledger.charge(i, amount)
                else:
                    ledger.charge_span(i, i + width, amount)
            except BudgetExceeded:
                assert refuse
            else:
                assert not refuse
                for j in covered:
                    model[j] += amount
            for j, spent in enumerate(model):
                assert ledger.spent(j) == pytest.approx(spent)
                assert ledger.spent(j) <= 1.0 + 1e-9


class TestLdpEstimateMean:
    def test_huge_epsilon_constant_one(self):
        # c -> 1 and every message is +1, so the clamped estimate is exactly 1.
        src = two_point_source()
        S = sample(src, 50, seed=3)
        est = ldp_estimate_mean(
            S, np.arange(50), lambda X, y: np.ones(len(X)), epsilon=50.0, seed=5
        )
        assert est == 1.0

    def test_deterministic_per_seed(self):
        src = two_point_source()
        S = sample(src, 200, seed=3)
        args = (S, np.arange(200), first_coord)
        assert ldp_estimate_mean(*args, epsilon=1.0, seed=9) == ldp_estimate_mean(
            *args, epsilon=1.0, seed=9
        )

    def test_zero_function_concentrates(self):
        # For phi = 0 the debiased mean is (1/c) * mean of fair bits;
        # |estimate| <= 2 / (c sqrt(n)) is a ~2-sigma event per trial.
        src = two_point_source()
        stream = SampleStream(src, 10_000, seed=11)
        c = rr_coefficient(1.0)
        bound = 2.0 / (c * math.sqrt(10_000))
        hits = 0
        for trial in range(200):
            est = ldp_estimate_mean(
                stream, (0, 10_000), lambda X, y: np.zeros(len(X)),
                epsilon=1.0, seed=trial,
            )
            hits += abs(est) <= bound
        assert hits / 200 >= 0.85

    def test_sized_batch_meets_tolerance(self):
        # Batch from the sizing formula: failures should be far rarer than
        # delta; demand empirical frequency >= 1 - delta.
        tau, delta, eps = 0.1, 0.1, 1.0
        n = ldp_batch_size(1, tau, delta, eps)
        src = make_margin_source(3, 0.2, 6, seed=21)
        exact = ExactOracle(src).ask(
            StatQuery(fn=first_coord, tau=tau, label_dependent=False), 0
        )
        stream = SampleStream(src, n, seed=13)
        good = 0
        for trial in range(200):
            est = ldp_estimate_mean(stream, (0, n), first_coord, eps, seed=trial)
            good += abs(est - exact) <= tau
        assert good / 200 >= 1 - delta

    def test_grouped_and_rowwise_paths_agree_in_distribution(self):
        # Same stream consumed as grouped counts vs materialized rows:
        # estimator means must agree within Monte Carlo error.
        src = two_point_source(a=0.8, b=-0.4, pa=0.3)
        stream = SampleStream(src, 400, seed=17)
        X, y = stream.batch(0, 400)
        from localsq.core import Dataset

        S = Dataset(X, y, seed=0)
        grouped, rowwise = [], []
        for trial in range(300):
            grouped.append(
                ldp_estimate_mean(stream, (0, 400), first_coord, 1.0, seed=trial)
            )
            rowwise.append(
                ldp_estimate_mean(
                    S, np.arange(400), first_coord, 1.0, seed=10_000 + trial
                )
            )
        # sd of a single estimate is about 1/(c sqrt(400)) ~ 0.108; means
        # over 300 trials differ by > 4 * 0.108 / sqrt(300) ~ 0.025 rarely.
        assert abs(np.mean(grouped) - np.mean(rowwise)) < 0.03

    def test_empty_batch_rejected(self):
        src = two_point_source()
        S = sample(src, 5, seed=1)
        with pytest.raises(PreconditionError):
            ldp_estimate_mean(S, np.array([], dtype=int), first_coord, 1.0, 0)

    def test_range_violation_rejected(self):
        src = two_point_source()
        S = sample(src, 5, seed=1)
        with pytest.raises(ContractViolation):
            ldp_estimate_mean(
                S, np.arange(5), lambda X, y: 2.0 * np.ones(len(X)), 1.0, 0
            )


class TestCompileToLdp:
    def test_non_interactive_driver_single_round(self):
        src = two_point_source()
        queries = [
            StatQuery(fn=first_coord, tau=0.2, label_dependent=False, name="a"),
            StatQuery(fn=lambda X, y: y, tau=0.2, label_dependent=True, name="b"),
        ]
        driver = NonInteractiveDriver(queries)
        n = 2 * ldp_batch_size(2, 0.2, 0.2, 1.0)
        stream = SampleStream(src, n, seed=23)
        answers, report = compile_sq_to_ldp(
            driver, stream, epsilon=1.0, tau=0.2, delta=0.2, seed=3
        )
        assert report.rounds == 1
        assert report.samples_used == n
        assert len(answers) == 2
        assert [q["round"] for q in report.queries] == [0, 0]

    def test_two_round_driver_reported(self):
        src = two_point_source()
        n = 2 * ldp_batch_size(2, 0.2, 0.2, 1.0)
        stream = SampleStream(src, n, seed=29)
        _, report = compile_sq_to_ldp(
            TwoRoundDriver(), stream, epsilon=1.0, tau=0.2, delta=0.2, seed=3
        )
        assert report.rounds == 2
        assert [q["round"] for q in report.queries] == [0, 1]

    def test_sizing_error_reports_requirement(self):
        src = two_point_source()
        stream = SampleStream(src, 10, seed=1)
        driver = NonInteractiveDriver(
            [StatQuery(fn=first_coord, tau=0.1, label_dependent=False)]
        )
        with pytest.raises(SizingError) as err:
            compile_sq_to_ldp(driver, stream, epsilon=1.0, tau=0.1, delta=0.1)
        assert err.value.required == ldp_batch_size(1, 0.1, 0.1, 1.0)

    def test_answers_track_exact_means(self):
        src = two_point_source(a=0.9, b=-0.5, pa=0.4)
        q = StatQuery(fn=first_coord, tau=0.15, label_dependent=False)
        exact = ExactOracle(src).ask(q, 0)
        n = ldp_batch_size(1, 0.15, 0.1, 1.0)
        good = 0
        for trial in range(100):
            driver = NonInteractiveDriver([q])
            stream = SampleStream(src, n, seed=trial)
            answers, _ = compile_sq_to_ldp(
                driver, stream, epsilon=1.0, tau=0.15, delta=0.1, seed=trial
            )
            good += abs(answers[0] - exact) <= 0.15
        assert good >= 90

    def test_driver_overrunning_declared_budget_rejected(self):
        class Liar:
            max_queries = 1

            def begin(self):
                q = StatQuery(fn=first_coord, tau=0.2, label_dependent=False)
                return [q, q]

            def feed(self, answers):
                return None

            def result(self):
                return None

        src = two_point_source()
        stream = SampleStream(src, 10_000, seed=1)
        with pytest.raises(BudgetExceeded):
            compile_sq_to_ldp(Liar(), stream, epsilon=1.0, tau=0.2, delta=0.2)

    def test_report_json_shape(self):
        report = LdpProtocolReport(rounds=1, samples_used=10, epsilon=0.5)
        assert set(report.to_json()) == {"rounds", "n", "epsilon", "queries"}
