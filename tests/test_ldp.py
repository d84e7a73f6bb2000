"""Tests for randomized response and its privacy certificate, the privacy
ledger, and the LDP compiler.

Closed-form probabilities are hand-derived and frozen; estimator behavior
is checked by Monte Carlo against exact means with generous concentration
margins; ledger safety is a hypothesis property over random call sequences.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localsq import ldp
from localsq._rng import generator
from localsq.comm import ONE_BIT
from localsq.core import (
    Explicit,
    FiniteDistribution,
    LabeledSource,
    Point,
    SampleStream,
    make_margin_source,
)
from localsq.errors import (
    BudgetExceeded,
    ContractViolation,
    PreconditionError,
    SizingError,
)
from localsq.ldp import (
    PRIVACY_TOL,
    ChannelOracle,
    PrivacyLedger,
    compile_sq,
    compile_sq_to_ldp,
    ldp_batch_size,
    ldp_channel,
    ldp_estimate_mean,
    rr_coefficient,
)
from localsq.margin_learner import learn_halfspace
from localsq.sq import (
    RANGE_TOL,
    ExactOracle,
    InteractivityTranscript,
    StatQuery,
    evaluate_on_support,
)


def first_coord(X, y):
    return X[:, 0]


def two_point_source(a=1.0, b=-1.0, pa=0.5):
    pts = [Point(np.array([a])), Point(np.array([b]))]
    dist = FiniteDistribution(pts, [pa, 1 - pa])
    labels = (1 if a > 0 else -1, 1 if b > 0 else -1)
    return LabeledSource(dist, Explicit(pts, labels))


# Query values that are not real numbers, each refused as a contract
# violation like an out-of-range value.
NON_REAL = pytest.mark.parametrize("fn", [
    lambda X, y: np.full(len(X), "a"),
    lambda X, y: X[:, 0] + 0.5j,
    lambda X, y: [object()] * len(X),
], ids=["string", "complex", "object"])


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
        return [StatQuery(fn=first_coord, tau=0.2, label_dependent=False)]

    def feed(self, answers):
        self._answers.extend(answers)
        if len(self._answers) == 1:
            return [StatQuery(fn=first_coord, tau=0.2, label_dependent=False)]
        return None

    def result(self):
        return self._answers


class ScriptedDriver:
    """Asks the given rounds of queries in order; result is the answers of
    each round fed so far."""

    def __init__(self, rounds, max_queries):
        self._rounds = [list(r) for r in rounds]
        self.max_queries = max_queries
        self.fed = []

    def begin(self):
        return self._rounds[0]

    def feed(self, answers):
        self.fed.append(list(answers))
        if len(self.fed) < len(self._rounds):
            return self._rounds[len(self.fed)]
        return None

    def result(self):
        return self.fed


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

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -math.inf])
    def test_non_finite_rejected(self, eps):
        with pytest.raises(PreconditionError):
            rr_coefficient(eps)

    def test_large_epsilon_is_one_and_keeps_the_formulas_bits(self):
        def formula(e):
            return (math.exp(e) - 1.0) / (math.exp(e) + 1.0)

        # 37.4299470046159 is a point past 37 where the formula is still
        # below 1.0; from 38 on it is exactly 1.0 until exp overflows.
        grid = [*np.linspace(0.01, 37.999, 5001), 37.429947004615904,
                38.0, 100.0, 709.0]
        for e in grid:
            assert rr_coefficient(float(e)) == formula(float(e)), e
        assert formula(37.429947004615904) < 1.0
        for e in (710.0, 1000.0, 1e300):
            assert rr_coefficient(e) == 1.0


class TestRrRandomizer:
    """The channel's per-client law: Pr[+1] = 1/2 + c v / 2."""

    def test_zero_value_gives_fair_bit(self):
        assert ldp_channel(1.0).p_plus(0.0) == 0.5

    def test_ln3_extreme_value(self):
        # c = 1/2, so v = 1 pushes Pr[+1] to 1/2 + 1/4 = 3/4.
        channel = ldp_channel(math.log(3.0))
        assert channel.p_plus(1.0) == pytest.approx(0.75)
        assert channel.p_plus(-1.0) == pytest.approx(0.25)

    def test_out_of_range_value_rejected(self):
        # p_plus clips; the range check happens before any message is drawn.
        S = SampleStream(two_point_source(), 10, seed=1)
        with pytest.raises(ContractViolation):
            ldp_channel(1.0).estimate_mean(S, range(0, 10),
                                           lambda X, y: 3.0 * X[:, 0], seed=0)

    @given(st.floats(-1.0, 1.0), st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0]))
    def test_unbiased_debiasing(self, value, epsilon):
        # E[message] / c = (2 p_plus(v) - 1) / c must reproduce the value.
        channel = ldp_channel(epsilon)
        assert (2.0 * channel.p_plus(value) - 1.0) / channel.c == \
            pytest.approx(value, abs=1e-12)


class TestVerifyPrivacy:
    def test_rr_ratio_is_exp_epsilon(self):
        # Extremes v = +-1 realize the worst case (1+c)/(1-c) = e^eps.
        for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert ldp_channel(eps).privacy_ratio() == pytest.approx(
                math.exp(eps), abs=1e-9
            )

    def test_constant_randomizer_ratio_one(self):
        # c = 0 sends a fair bit whatever the value, so the ratio alone
        # would certify any epsilon; ldp_channel refuses c = 0 by itself.
        assert replace(ldp_channel(1.0), c=0.0).privacy_ratio() == 1.0

    def test_one_bit_channel_is_not_private(self):
        # c = 1 sends v = +1 as +1 and v = -1 as -1, always.
        assert ONE_BIT.privacy_ratio() == math.inf


# A 0.01 grid to 40, past the last epsilon whose c rounds below 1, plus
# epsilons whose c rounds to 0, to 1, and whose exp overflows.
REFUSED_EPSILONS = (1e-300, 1e-20, 50.0, 700.0, 1000.0, 1e300)
SWEEP_EPSILONS = [k / 100 for k in range(1, 4001)] + list(REFUSED_EPSILONS)


def certified(epsilon):
    """ldp_channel(epsilon), or None when it is refused naming epsilon."""
    try:
        return ldp_channel(epsilon)
    except PreconditionError as exc:
        assert str(exc).startswith(f"epsilon = {epsilon!r} "), exc
        return None


def compiled_blocks(monkeypatch) -> list:
    """The value blocks that a compiled probe run and a compiled
    learn_halfspace run draw from, side by side per support size."""
    seen = {}

    def record(q, src):
        values = evaluate_on_support(q, src)
        seen.setdefault(len(src.labels), []).append(values)
        return values

    monkeypatch.setattr(ldp, "evaluate_on_support", record)
    src = make_margin_source(4, 0.3, 12, seed=8, probs="random")
    probes = [StatQuery(fn=(lambda X, y, j=j: y * X[:, j % 4]) if j % 2
                        else (lambda X, y, j=j: X[:, j % 4]),
                        tau=0.3, label_dependent=bool(j % 2))
              for j in range(8)]
    compile_sq(NonInteractiveDriver(probes), src, ldp_channel(1.0), 0.3, 0.2,
               seed=3)
    learn_halfspace(make_margin_source(5, 0.3, 30, seed=4), 0.3, 0.15, 0.05,
                    oracle="ldp", epsilon=1.0, seed=6)
    return [np.hstack(blocks) for blocks in seen.values()]


class TestPrivacyCertificate:
    """ldp_channel certifies e^eps on the float64 probabilities it draws
    from, or refuses the epsilon naming it."""

    def test_sweep_certifies_or_refuses_naming_epsilon(self):
        admitted = np.array([-1.0 - RANGE_TOL, 1.0 + RANGE_TOL])
        outcomes = {eps: certified(eps) for eps in SWEEP_EPSILONS}
        for eps, channel in outcomes.items():
            if channel is None:
                continue
            bound = math.exp(eps) * (1.0 + PRIVACY_TOL)
            assert channel.privacy_ratio() <= bound, eps
            low, high = channel.p_plus(admitted)
            assert high <= bound * low and 1.0 - low <= bound * (1.0 - high)
        assert all(outcomes[k / 100] for k in range(1, 1501))
        assert not any(outcomes[eps] for eps in REFUSED_EPSILONS)

    def test_compiled_blocks_meet_the_certificate(self, monkeypatch):
        # Per column, either message's probability over the support rows
        # varies by at most e^eps for every epsilon the sweep accepts.
        blocks = compiled_blocks(monkeypatch)
        assert len(blocks) == 2 and min(b.shape[1] for b in blocks) >= 8
        for eps in SWEEP_EPSILONS:
            channel = certified(eps)
            if channel is None:
                continue
            bound = math.exp(eps) * (1.0 + PRIVACY_TOL)
            for values in blocks:
                plus = channel.p_plus(values)
                for p in (plus, 1.0 - plus):
                    assert np.all(p.max(axis=0) <= bound * p.min(axis=0)), eps

    @given(st.floats(-1.0 - RANGE_TOL, 1.0 + RANGE_TOL),
           st.floats(-1.0 - RANGE_TOL, 1.0 + RANGE_TOL),
           st.sampled_from(SWEEP_EPSILONS))
    @example(1.0 + RANGE_TOL, -1.0 - RANGE_TOL, 10.0)
    def test_admitted_values_meet_the_certificate(self, v, w, epsilon):
        # Unclipped, v = +-(1 + RANGE_TOL) breaks e^eps from eps ~ 7.6.
        channel = certified(epsilon)
        assume(channel is not None)
        bound = math.exp(epsilon) * (1.0 + PRIVACY_TOL)
        pv, pw = channel.p_plus(v), channel.p_plus(w)
        assert pv <= bound * pw and 1.0 - pv <= bound * (1.0 - pw)


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

    def test_nan_charge_refused_before_recording(self):
        # NaN compares false both ways, so it must not slip past the cap.
        ledger = PrivacyLedger(cap=1.0)
        with pytest.raises(PreconditionError):
            ledger.charge_span(0, 5, math.nan)
        assert ledger.spent(0) == 0.0
        with pytest.raises(BudgetExceeded):
            ledger.charge_span(0, 5, 5.0)
        assert ledger.per_index_spent == {}

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
        # At eps = 16, near the largest certified epsilon, c is within 3e-7
        # of 1: every message is +1 and the clamped estimate is exactly 1.
        src = two_point_source()
        S = SampleStream(src, 50, seed=3)
        est = ldp_estimate_mean(
            S, range(0, 50), lambda X, y: np.ones(len(X)), epsilon=16.0, seed=5
        )
        assert est == 1.0

    def test_deterministic_per_seed(self):
        src = two_point_source()
        S = SampleStream(src, 200, seed=3)
        args = (S, range(0, 200), first_coord)
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
        # The stream's one binomial count against a per-row reference: the
        # span's rows realized by `batch`, each client sending +1 with
        # probability p_plus of its own value. Estimator means must agree
        # within Monte Carlo error.
        src = two_point_source(a=0.8, b=-0.4, pa=0.3)
        stream = SampleStream(src, 400, seed=17)
        X, y = stream.batch(0, 400)
        channel = ldp_channel(1.0)

        def per_row(seed):
            plus = generator(seed).random(400) < channel.p_plus(first_coord(X, y))
            return float(np.clip((2.0 * plus.sum() - 400) / (channel.c * 400),
                                 -1.0, 1.0))

        grouped, rowwise = [], []
        for trial in range(300):
            grouped.append(
                ldp_estimate_mean(stream, range(0, 400), first_coord, 1.0, seed=trial)
            )
            rowwise.append(per_row(10_000 + trial))
        # sd of a single estimate is about 1/(c sqrt(400)) ~ 0.108; means
        # over 300 trials differ by > 4 * 0.108 / sqrt(300) ~ 0.025 rarely.
        assert abs(np.mean(grouped) - np.mean(rowwise)) < 0.03

    def test_tuples_list_indices_and_ranges_are_spans(self):
        # A span is a range with step 1; phi sees the support rows once.
        src = two_point_source()
        S = SampleStream(src, 10, seed=2)
        rows = []

        def phi(X, y):
            rows.append(np.array(X))
            return np.zeros(len(X))

        ldp_estimate_mean(S, range(3, 7), phi, 1.0, seed=0)
        assert len(rows) == 1
        assert np.array_equal(rows[0], src.dist.matrix)
        for indices in ((3, 7), [3, 4, 5, 6], range(3, 7, 2)):
            with pytest.raises(PreconditionError):
                ldp_estimate_mean(S, indices, phi, 1.0, seed=0)
        assert len(rows) == 1

    def test_empty_batch_rejected(self):
        src = two_point_source()
        S = SampleStream(src, 5, seed=1)
        with pytest.raises(PreconditionError):
            ldp_estimate_mean(S, range(3, 3), first_coord, 1.0, 0)

    def test_range_violation_rejected(self):
        src = two_point_source()
        S = SampleStream(src, 5, seed=1)
        with pytest.raises(ContractViolation):
            ldp_estimate_mean(
                S, range(0, 5), lambda X, y: 2.0 * np.ones(len(X)), 1.0, 0
            )

    @NON_REAL
    def test_non_real_values_rejected(self, fn):
        S = SampleStream(two_point_source(), 5, seed=1)
        with pytest.raises(ContractViolation, match="not real numbers"):
            ldp_estimate_mean(S, range(0, 5), fn, 1.0, 0)


class TestCompileToLdp:
    # on_source: compile on the LabeledSource itself, which is read as a
    # stream of exactly t batches, instead of on an explicit SampleStream.
    @pytest.mark.parametrize("on_source", [False, True])
    def test_block_compiles_like_its_scalar_queries(self, on_source):
        src = make_margin_source(3, 0.3, 10, seed=5)
        block = StatQuery(fn=lambda X, y: y[:, None] * X, tau=0.3,
                          label_dependent=True, width=3)
        scalars = [StatQuery(fn=lambda X, y, j=j: y * X[:, j], tau=0.3,
                             label_dependent=True) for j in range(3)]
        n = 3 * ldp_batch_size(3, 0.3, 0.2, 1.0)
        stream = SampleStream(src, n, seed=31)
        S = src if on_source else stream
        runs = []
        for queries in ([block], scalars):
            driver = NonInteractiveDriver(queries)
            driver.max_queries = 3
            runs.append(compile_sq_to_ldp(driver, S, 1.0, 0.3, 0.2, seed=4))
        (a, a_report), (b, b_report) = runs
        # The block draws its three counts from one seed, its first
        # coordinate's, so only answer 0 is the scalar run's draw; the
        # block's law is TestStreamLaw's. Everything else (rounds, n, tau,
        # flags) stays exact.
        a_json, b_json = a_report.to_json(), b_report.to_json()
        for record in a_json["queries"][1:] + b_json["queries"][1:]:
            del record["answer"]
        assert a[0] == b[0]
        assert a_json == b_json
        assert a_report.samples_used == b_report.samples_used == n
        assert (a_report.ledger.per_index_spent
                == b_report.ledger.per_index_spent)

    @pytest.mark.parametrize("on_source", [False, True])
    def test_out_of_range_block_refused_before_any_charge(
            self, on_source, monkeypatch):
        # Only the last column leaves [-1, 1]: the whole block is refused
        # before the ledger is charged or the transcript gains an entry.
        src = make_margin_source(3, 0.3, 10, seed=5)
        block = StatQuery(
            fn=lambda X, y: np.column_stack([X[:, 0], y, np.full(len(y), 2.0)]),
            tau=0.3, label_dependent=True, width=3)
        n = 3 * ldp_batch_size(3, 0.3, 0.2, 1.0)
        stream = SampleStream(src, n, seed=31)
        S = src if on_source else stream
        calls = []
        monkeypatch.setattr(PrivacyLedger, "charge_span",
                            lambda *a: calls.append("charge"))
        monkeypatch.setattr(InteractivityTranscript, "append",
                            lambda *a: calls.append("append"))
        driver = NonInteractiveDriver([block])
        driver.max_queries = 3
        with pytest.raises(ContractViolation):
            compile_sq_to_ldp(driver, S, 1.0, 0.3, 0.2, seed=4)
        assert calls == []

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "comm"])
    @NON_REAL
    @pytest.mark.parametrize("label_dependent", [True, False])
    def test_non_real_block_refused_before_any_charge(
            self, channel, fn, label_dependent):
        src = make_margin_source(3, 0.3, 10, seed=5)
        q = StatQuery(fn=fn, tau=0.3, label_dependent=label_dependent)
        oracle = ChannelOracle(src, channel, 1, 0.3, 0.2, seed=4)
        with pytest.raises(ContractViolation, match="not real numbers"):
            oracle.ask(q, 0)
        assert oracle.ledger.per_index_spent == {}
        assert len(oracle.transcript) == 0 and oracle.samples_used == 0

    def test_exact_oracle_and_channel_evaluate_the_same_examples(self):
        # Both call a label-dependent fn once, on the support under the
        # target's labels, so the exact mean is taken over the values the
        # channel randomizes.
        src = make_margin_source(3, 0.3, 10, seed=5)
        calls = []

        def fn(X, y):
            calls.append((X.copy(), y.copy()))
            return y * X[:, 0]

        q = StatQuery(fn=fn, tau=0.3, label_dependent=True)
        ExactOracle(src).ask(q, 0)
        ChannelOracle(src, ldp_channel(1.0), 1, 0.3, 0.2, seed=4).ask(q, 0)
        assert len(calls) == 2
        for X, y in calls:
            assert np.array_equal(X, src.dist.matrix)
            assert np.array_equal(y, src.labels)

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "comm"])
    @pytest.mark.parametrize("fn, width", [
        (lambda X, y: y * X[:, 0], 1),
        (lambda X, y: np.column_stack([X[:, 0], y * X[:, 1]]), 2),
        (lambda X, y: y.astype(float) * X[:, 0], 1),
    ], ids=["reads-y", "one-column-reads-y", "y-attribute"])
    def test_label_free_block_reading_labels_refused_before_any_charge(
            self, channel, fn, width, monkeypatch):
        # A label-free block is evaluated with y=None, so one that reads
        # the labels is refused before the ledger, the sample count or the
        # transcript moves.
        src = make_margin_source(3, 0.3, 10, seed=5)
        q = StatQuery(fn=fn, tau=0.3, label_dependent=False, width=width)
        oracle = ChannelOracle(src, channel, width, 0.3, 0.2, seed=4)
        calls = []
        monkeypatch.setattr(PrivacyLedger, "charge_span",
                            lambda *a: calls.append("charge"))
        monkeypatch.setattr(InteractivityTranscript, "append",
                            lambda *a: calls.append("append"))
        with pytest.raises(ContractViolation, match="reads the labels"):
            oracle.ask(q, 0)
        assert calls == [] and oracle.samples_used == 0

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "one-bit"])
    def test_label_block_covers_its_means(self, channel):
        # Coverage of the batch rule on a width-50 block: across 200
        # sources, the share of runs with any coordinate more than tau off
        # its exact mean stays within delta.
        tau, delta, runs = 0.1, 0.05, 200
        block = StatQuery(fn=lambda X, y: y[:, None] * X, tau=tau,
                          label_dependent=True, width=50)
        off = 0
        for k in range(runs):
            src = make_margin_source(50, 0.3, 100, seed=k)
            exact = src.dist.probs @ (src.labels[:, None] * src.dist.matrix)
            driver = NonInteractiveDriver([block])
            driver.max_queries = 50
            answers, _ = compile_sq(driver, src, channel, tau, delta, seed=k)
            off += np.max(np.abs(np.array(answers) - exact)) > tau
        assert off / runs <= delta

    def test_non_interactive_driver_single_round(self):
        src = two_point_source()
        queries = [
            StatQuery(fn=first_coord, tau=0.2, label_dependent=False),
            StatQuery(fn=lambda X, y: y, tau=0.2, label_dependent=True),
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

    @pytest.mark.parametrize("sizes, bound", [([2], 1), ([1, 2], 2)],
                             ids=["round-0", "round-1"])
    def test_driver_overrunning_declared_budget_rejected(self, sizes, bound):
        # The driver asks sizes[k] queries in round k, declaring `bound`;
        # only the last round passes it, and the rounds before are answered.
        q = StatQuery(fn=first_coord, tau=0.2, label_dependent=False)
        liar = ScriptedDriver([[q] * k for k in sizes], max_queries=bound)
        src = two_point_source()
        stream = SampleStream(src, 10_000, seed=1)
        with pytest.raises(BudgetExceeded):
            compile_sq_to_ldp(liar, stream, epsilon=1.0, tau=0.2, delta=0.2)
        assert [len(a) for a in liar.fed] == sizes[:-1]

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "one-bit"])
    def test_source_compiles_like_hand_sized_streams(self, channel):
        # A LabeledSource is read as a stream of exactly t batches. A
        # stream's seed enters no compiled answer, so streams of that size
        # with any seed give the same run.
        src = make_margin_source(3, 0.3, 10, seed=5, probs="random")
        block = StatQuery(fn=lambda X, y: y[:, None] * X, tau=0.3,
                          label_dependent=True, width=3)
        scalar = StatQuery(fn=lambda X, y: X[:, 1], tau=0.3,
                           label_dependent=False)
        n = 4 * channel.batch_size(4, 0.3, 0.2)
        runs = []
        for S in (src, SampleStream(src, n, seed=1),
                  SampleStream(src, n, seed=2)):
            driver = ScriptedDriver([[block], [scalar]], max_queries=4)
            answers, report = compile_sq(driver, S, channel, 0.3, 0.2, seed=7)
            runs.append((answers, report.to_json(),
                         report.ledger.per_index_spent))
        assert runs[0][1]["rounds"] == 2 and runs[0][1]["n"] == n
        assert runs[0] == runs[1] == runs[2]

    def test_report_json_shape(self):
        _, report = compile_sq(TwoRoundDriver(), two_point_source(),
                               ldp_channel(0.5), 0.2, 0.2)
        assert set(report.to_json()) == {"rounds", "n", "epsilon", "queries"}
        assert report.to_json()["epsilon"] == 0.5

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "one-bit"])
    def test_query_finer_than_compiled_tau_refused_unasked(self, channel):
        # The batches were sized for the compiled tau, so a query asking
        # for less is refused before the ledger, the sample count or the
        # transcript moves; an equal or coarser one is answered.
        q = StatQuery(fn=first_coord, tau=0.2, label_dependent=False)
        fine = StatQuery(fn=first_coord, tau=0.19, label_dependent=False)
        driver = ScriptedDriver([[q], [fine]], max_queries=3)
        with pytest.raises(PreconditionError):
            compile_sq(driver, two_point_source(), channel, 0.2, 0.2)
        oracle = ChannelOracle(two_point_source(), channel, 3, 0.2, 0.2)
        oracle.ask(q, 0)
        before = (oracle.samples_used, oracle.ledger.per_index_spent,
                  oracle.transcript.records())
        with pytest.raises(PreconditionError):
            oracle.ask(fine, 1)
        assert (oracle.samples_used, oracle.ledger.per_index_spent,
                oracle.transcript.records()) == before
        coarse = StatQuery(fn=first_coord, tau=0.3, label_dependent=False)
        oracle.ask(coarse, 1)
        assert [r["tau"] for r in oracle.queries] == [0.2, 0.3]


class TestChannel:
    @pytest.mark.parametrize("channel", [ldp_channel(0.5), ldp_channel(2.0),
                                         ONE_BIT], ids=["ldp-0.5", "ldp-2",
                                                        "one-bit"])
    @pytest.mark.parametrize("value", [-1.0, -0.3, 0.0, 0.7, 1.0])
    def test_estimate_draws_from_the_randomizer(self, channel, value):
        # A stream span's count of +1 messages is one Binomial(n, q) draw,
        # where q averages over the support each row's randomized-response
        # probability 1/2 + c phi/2, computed here row by row. phi differs
        # between rows and the weights are not uniform, so only the
        # probs-weighted average reproduces the draw.
        def phi(X, y):
            return value * y

        src = make_margin_source(3, 0.3, 8, seed=2, probs="random")
        assert len(set(src.labels)) == 2
        stream = SampleStream(src, 5_000, seed=19)
        p = np.array([0.5 + channel.c * float(v) / 2.0
                      for v in phi(src.dist.matrix, src.labels)])
        q = min(max(float(src.dist.probs @ p), 0.0), 1.0)
        for seed in range(4):
            plus = generator(seed).binomial(4_000, q)
            total = 2.0 * float(plus) - 4_000
            reference = float(np.clip(total / (channel.c * 4_000), -1.0, 1.0))
            assert channel.estimate_mean(stream, range(1_000, 5_000), phi,
                                         seed) == reference

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "one-bit"])
    @pytest.mark.parametrize("tau", [1e-300, 1e-160, 1e-150, math.inf],
                             ids=["underflow", "overflow", "too-large", "inf"])
    def test_extreme_tau_refused_naming_tau(self, channel, tau):
        # tau * tau underflows to 0 at 1e-300; at 1e-160 it is subnormal
        # and the batch overflows to inf; at 1e-150 the batch is finite but
        # past numpy's binomial; at inf the batch would be 0.
        with pytest.raises(PreconditionError, match="^tau = "):
            channel.batch_size(3, tau, 0.1)

    def test_probability_sum_above_one_is_clamped(self):
        # probs may sum to 1 + PROB_TOL; with every value at +1 the one-bit
        # channel's q = sum(probs) lands above 1 and must be clamped.
        pts = [Point(np.array([0.5])), Point(np.array([-0.5]))]
        dist = FiniteDistribution(pts, [0.5, 0.5 + 9e-13])
        assert float(dist.probs @ np.ones(2)) > 1.0
        src = LabeledSource(dist, Explicit(pts, (1, -1)))
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

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "one-bit"])
    @pytest.mark.parametrize("width, n", [(2, 1), (2, 3), (3, 2)])
    def test_block_counts_are_independent_binomials(self, channel, width, n):
        # A block of width w on a stream: column j's n clients each draw a
        # support point from probs, then send +1 with probability p_plus of
        # that point's value in column j. Enumerating every client's
        # (point, message) gives the joint law of the w counts, which is
        # the product of Binomial(n, q_j); stream_estimates draws from it.
        probs = np.array([0.2, 0.5, 0.3])
        block = np.array([[0.7, -1.0, 0.2],
                          [-0.3, 1.0, -0.9],
                          [0.0, 1.0, 0.5]])[:, :width]
        p_rows = channel.p_plus(block)
        outcomes = [(i, m) for i in range(3) for m in (0, 1)]
        joint = np.zeros((n + 1,) * width)
        for clients in itertools.product(outcomes, repeat=width * n):
            counts, mass = [0] * width, 1.0
            for k, (i, m) in enumerate(clients):
                p = p_rows[i, k // n]
                mass *= probs[i] * (p if m else 1.0 - p)
                counts[k // n] += m
            joint[tuple(counts)] += mass
        q = probs @ p_rows
        product = binomial_pmf(n, q[0])
        for qj in q[1:]:
            product = np.multiply.outer(product, binomial_pmf(n, qj))
        assert np.max(np.abs(joint - product)) < 1e-12
        for seed in range(4):
            plus = generator(seed).binomial(n, q)
            assert np.array_equal(
                channel.stream_estimates(probs, block, n, seed),
                np.clip((2.0 * plus - n) / (channel.c * n), -1.0, 1.0))
