"""Tests for local randomizers, the privacy ledger, and the LDP compiler.

Closed-form probabilities are hand-derived and frozen; estimator behavior
is checked by Monte Carlo against exact means with generous concentration
margins; ledger safety is a hypothesis property over random call sequences.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localsq._rng import generator
from localsq.comm import ONE_BIT
from localsq.core import (
    Dataset,
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
    LocalRandomizer,
    PrivacyLedger,
    ProtocolReport,
    compile_sq,
    compile_sq_to_ldp,
    ldp_batch_size,
    ldp_channel,
    ldp_estimate_mean,
    rr_coefficient,
    rr_randomizer,
    verify_randomizer_privacy,
)
from localsq.sq import ExactOracle, InteractivityTranscript, StatQuery


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
            message_space=(0,),
            apply_fn=lambda x, y, seed: 0,
            prob_fn=lambda x, y, w: 1.0,
            debias_fn=lambda w: 0.0,
        )
        space = [(np.array([1.0]), 1.0), (np.array([-1.0]), -1.0)]
        assert verify_randomizer_privacy(R, space) == 1.0

    def test_identity_map_is_infinite_violation(self):
        R = LocalRandomizer(
            message_space=(0, 1),
            apply_fn=lambda x, y, seed: int(x[0] > 0),
            prob_fn=lambda x, y, w: 1.0 if w == int(x[0] > 0) else 0.0,
            debias_fn=lambda w: float(w),
        )
        space = [(np.array([1.0]), 1.0), (np.array([-1.0]), 1.0)]
        assert verify_randomizer_privacy(R, space) == math.inf

    def test_one_bit_channel_is_not_private(self):
        # c = 1 sends phi = +1 as +1 and phi = -1 as -1, always.
        space = [(np.array([1.0]), 1.0), (np.array([-1.0]), 1.0)]
        R = ONE_BIT.randomizer(first_coord)
        assert verify_randomizer_privacy(R, space) == math.inf


class TestPrivacyLedger:
    def test_single_invocation_then_refusal(self):
        ledger = PrivacyLedger(cap=1.0)
        ledger.charge_span(2, 3, 1.0)
        assert ledger.spent(2) == pytest.approx(1.0)
        assert ledger.spent(1) == ledger.spent(3) == 0.0
        with pytest.raises(BudgetExceeded):
            ledger.charge_span(2, 3, 1.0)

    def test_double_budget_allows_two(self):
        ledger = PrivacyLedger(cap=2.0)
        ledger.charge_span(0, 1, 1.0)
        ledger.charge_span(0, 1, 1.0)
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
        ledger.charge_span(1, 2, 0.25)
        assert ledger.per_index_spent == pytest.approx(
            {0: 0.5, 1: 0.75, 2: 0.5}
        )

    def test_refusal_reports_peak_existing_spend(self):
        # Out-of-order, overlapping charges: the refusal names the largest
        # spend inside the span (index 5), not the spend at its start.
        ledger = PrivacyLedger(cap=2.0)
        ledger.charge_span(0, 10, 0.5)
        ledger.charge_span(5, 8, 1.0)
        with pytest.raises(BudgetExceeded, match="over existing 1.5 "):
            ledger.charge_span(2, 6, 1.0)
        ledger.charge_span(0, 5, 1.0)
        assert ledger.per_index_spent == {
            0: 1.5, 1: 1.5, 2: 1.5, 3: 1.5, 4: 1.5,
            5: 1.5, 6: 1.5, 7: 1.5, 8: 0.5, 9: 0.5,
        }

    def test_zero_charge_and_negative_index(self):
        # A zero-amount charge is accepted but lists no index; an index
        # below 0 was never charged.
        ledger = PrivacyLedger(cap=1.0)
        ledger.charge_span(3, 6, 0.0)
        ledger.charge_span(4, 5, 1.0)
        ledger.charge_span(4, 5, 0.0)
        assert ledger.per_index_spent == {4: 1.0}
        assert ledger.spent(-1) == 0.0
        assert ledger.spent(3) == 0.0

    def test_disjoint_increasing_charges_scale(self):
        # The compiler's pattern: fresh, adjacent spans in increasing order.
        width, n = 600, 20_000
        ledger = PrivacyLedger(cap=1.0)
        t0 = time.perf_counter()
        for k in range(n):
            ledger.charge_span(k * width, (k + 1) * width, 1.0)
        assert time.perf_counter() - t0 < 1.0
        stop = n * width
        assert ledger.spent(stop - 1) == 1.0
        assert ledger.spent(stop) == 0.0
        with pytest.raises(BudgetExceeded):
            ledger.charge_span(width - 1, width, 0.5)

    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(0, 8),
                      st.sampled_from([0.3, 0.5, 0.9, 1.0, 1.1])),
            max_size=25,
        ),
        st.sampled_from([1.0, 2.0]),
    )
    @example([(10, 0, 0.5)] * 3, 1.0)  # stacked spans, each below the cap
    @example([(1, 3, 1.0)] * 3, 2.0)  # one client, one bit at a time
    @settings(max_examples=100, deadline=None)
    def test_no_sequence_can_exceed_cap(self, calls, cap):
        # One-index spans (width 1) mixed with wider spans, against a
        # brute-force per-index model: a call is refused exactly when some
        # index it covers would go over the cap, and then records nothing.
        ledger = PrivacyLedger(cap=cap)
        model = [0.0] * 16
        for width, i, amount in calls:
            covered = range(i, i + width)
            refuse = any(model[j] + amount > cap + 1e-12 for j in covered)
            try:
                ledger.charge_span(i, i + width, amount)
            except BudgetExceeded:
                assert refuse
            else:
                assert not refuse
                for j in covered:
                    model[j] += amount
            for j, spent in enumerate(model):
                assert ledger.spent(j) == pytest.approx(spent)
                assert ledger.spent(j) <= cap + 1e-9


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
                stream, range(0, 10_000), lambda X, y: np.zeros(len(X)),
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
            est = ldp_estimate_mean(stream, range(0, n), first_coord, eps, seed=trial)
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
                ldp_estimate_mean(stream, range(0, 400), first_coord, 1.0, seed=trial)
            )
            rowwise.append(
                ldp_estimate_mean(
                    S, np.arange(400), first_coord, 1.0, seed=10_000 + trial
                )
            )
        # sd of a single estimate is about 1/(c sqrt(400)) ~ 0.108; means
        # over 300 trials differ by > 4 * 0.108 / sqrt(300) ~ 0.025 rarely.
        assert abs(np.mean(grouped) - np.mean(rowwise)) < 0.03

    def test_tuples_list_indices_and_ranges_are_spans(self):
        src = two_point_source()
        S = sample(src, 10, seed=2)
        rows = []

        def phi(X, y):
            rows.append(np.array(X))
            return np.zeros(len(X))

        ldp_estimate_mean(S, (3, 7), phi, 1.0, seed=0)
        ldp_estimate_mean(S, range(3, 7), phi, 1.0, seed=0)
        assert np.array_equal(rows[0], S.X[[3, 7]])
        assert np.array_equal(rows[1], S.X[3:7])
        with pytest.raises(PreconditionError):
            ldp_estimate_mean(SampleStream(src, 10, seed=1), (3, 7), phi,
                              1.0, seed=0)

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
    @pytest.mark.parametrize("materialized", [False, True])
    def test_block_compiles_like_its_scalar_queries(self, materialized):
        src = make_margin_source(3, 0.3, 10, seed=5)
        block = StatQuery(fn=lambda X, y: y[:, None] * X, tau=0.3,
                          label_dependent=True, width=3)
        scalars = [StatQuery(fn=lambda X, y, j=j: y * X[:, j], tau=0.3,
                             label_dependent=True) for j in range(3)]
        n = 3 * ldp_batch_size(3, 0.3, 0.2, 1.0)
        stream = SampleStream(src, n, seed=31)
        S = Dataset(*stream.batch(0, n), seed=0) if materialized else stream
        runs = []
        for queries in ([block], scalars):
            driver = NonInteractiveDriver(queries)
            driver.max_queries = 3
            runs.append(compile_sq_to_ldp(driver, S, 1.0, 0.3, 0.2, seed=4))
        (a, a_report), (b, b_report) = runs
        assert a == b
        assert a_report.to_json() == b_report.to_json()
        assert (a_report.ledger.per_index_spent
                == b_report.ledger.per_index_spent)

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

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "one-bit"])
    def test_report_keeps_the_oracle_transcript(self, channel):
        src = two_point_source()
        block = StatQuery(fn=lambda X, y: np.column_stack([X[:, 0], y]),
                          tau=0.2, label_dependent=True, width=2)
        driver = NonInteractiveDriver([block])
        driver.max_queries = 2
        stream = SampleStream(src, 2 * channel.batch_size(2, 0.2, 0.2),
                              seed=23)
        answers, report = compile_sq(driver, stream, channel, 0.2, 0.2,
                                     seed=3)
        assert isinstance(report.transcript, InteractivityTranscript)
        assert [e.answer for e in report.transcript.entries] == answers
        assert report.to_json()["queries"] == report.transcript.records()
        back = InteractivityTranscript.from_jsonl(report.transcript.to_jsonl())
        assert back.entries == report.transcript.entries

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
        report = ProtocolReport(samples_used=10, channel=ldp_channel(0.5))
        assert set(report.to_json()) == {"rounds", "n", "epsilon", "queries"}
        assert report.to_json()["epsilon"] == 0.5


class TestChannel:
    @pytest.mark.parametrize("channel", [ldp_channel(0.5), ldp_channel(2.0),
                                         ONE_BIT], ids=["ldp-0.5", "ldp-2",
                                                        "one-bit"])
    @pytest.mark.parametrize("value", [-1.0, -0.3, 0.0, 0.7, 1.0])
    def test_estimate_draws_from_the_randomizer(self, channel, value):
        # A stream span's count of +1 messages is one Binomial(n, q) draw,
        # where q averages over the support the very probability the
        # privacy check enumerates: R.prob(x, y, +1) for R on the channel.
        # phi differs between rows and the weights are not uniform, so only
        # the probs-weighted average reproduces the draw.
        def phi(X, y):
            return value * y

        src = make_margin_source(3, 0.3, 8, seed=2, probs="random")
        assert len(set(src.labels)) == 2
        stream = SampleStream(src, 5_000, seed=19)
        R = channel.randomizer(phi)
        p = np.array([R.prob(x, y, 1)
                      for x, y in zip(src.dist.matrix, src.labels)])
        q = min(max(float(src.dist.probs @ p), 0.0), 1.0)
        for seed in range(4):
            plus = generator(seed).binomial(4_000, q)
            total = 2.0 * float(plus) - 4_000
            reference = float(np.clip(total / (channel.c * 4_000), -1.0, 1.0))
            assert channel.estimate_mean(stream, range(1_000, 5_000), phi,
                                         seed) == reference

    def test_probability_sum_above_one_is_clamped(self):
        # probs may sum to 1 + PROB_TOL; with every value at +1 the one-bit
        # channel's q = sum(probs) lands above 1 and must be clamped.
        pts = [Point(np.array([0.5])), Point(np.array([-0.5]))]
        dist = FiniteDistribution(pts, [0.5, 0.5 + 9e-13])
        assert float(dist.probs @ np.ones(2)) > 1.0
        src = LabeledSource(dist, Explicit.from_support(pts, (1, -1)))
        stream = SampleStream(src, 100, seed=0)
        est = ONE_BIT.estimate_mean(stream, range(0, 100),
                                    lambda X, y: np.ones(len(X)), seed=3)
        assert est == 1.0


def binomial_pmf(n, p):
    return np.array([math.comb(n, k) * p**k * (1 - p)**(n - k)
                     for k in range(n + 1)])


def two_stage_pmf(n, probs, p_rows):
    """Law of the +1 count when n clients are first drawn as multinomial
    support counts k, then row i sends Binomial(k_i, p_rows[i]) +1s."""
    pmf = np.zeros(n + 1)
    for k0 in range(n + 1):
        for k1 in range(n + 1 - k0):
            k = (k0, k1, n - k0 - k1)
            weight = math.factorial(n)
            conv = np.array([1.0])
            for ki, pi, qi in zip(k, probs, p_rows):
                weight *= pi**ki / math.factorial(ki)
                conv = np.convolve(conv, binomial_pmf(ki, qi))
            pmf += weight * conv
    return pmf


class TestStreamLaw:
    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "one-bit"])
    @pytest.mark.parametrize("values", [(0.7, -0.3, 0.0), (1.0, -1.0, 1.0)],
                             ids=["interior", "at-one"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_two_stage_law_is_one_binomial(self, channel, values, n):
        # Multinomial counts then per-row binomials (how a stream's clients
        # were once simulated) give exactly the law of Binomial(n, q).
        probs = np.array([0.2, 0.5, 0.3])
        p_rows = channel.p_plus(np.array(values))
        q = float(probs @ p_rows)
        assert np.max(np.abs(two_stage_pmf(n, probs, p_rows)
                             - binomial_pmf(n, q))) < 1e-12
