"""Tests for the one-bit channel and the SQ-to-COMM compiler."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from localsq._rng import derive_seed
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
    SizingError,
)
from localsq.comm import (
    ONE_BIT,
    comm_estimate_mean,
    compile_sq_to_comm,
)
from localsq.ldp import ldp_batch_size
from localsq.margin_learner import (
    HalfspaceDriver,
    SurrogateParams,
    sign_weight,
)
from localsq.sq import ExactOracle, StatQuery


def first_coord(X, y):
    return X[:, 0]


def two_point_source(a=1.0, b=-1.0, pa=0.5):
    pts = [Point(np.array([a])), Point(np.array([b]))]
    dist = FiniteDistribution(pts, [pa, 1 - pa])
    labels = (1 if a > 0 else -1, 1 if b > 0 else -1)
    return LabeledSource(dist, Explicit(pts, labels))


class NonInteractiveDriver:
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


class TestOneBitExtractor:
    """The one-bit channel's per-client law: Pr[+1] = (1 + v) / 2."""

    def test_value_one_always_fires(self):
        assert ONE_BIT.p_plus(1.0) == 1.0

    def test_zero_value_fair_bit(self):
        assert ONE_BIT.p_plus(0.0) == 0.5

    def test_half_value_three_quarters(self):
        # Pr[+1] = (1 + 0.5)/2 = 0.75.
        assert ONE_BIT.p_plus(0.5) == 0.75

    @given(st.floats(-1.0, 1.0))
    def test_debiased_bit_unbiased_analytically(self, value):
        # E[message] = (1 + v)/2 - (1 - v)/2 = v, and c = 1 debiases nothing.
        p = ONE_BIT.p_plus(value)
        assert p - (1.0 - p) == pytest.approx(value, abs=1e-12)

    def test_range_violation_rejected(self):
        S = SampleStream(two_point_source(), 10, seed=1)
        with pytest.raises(ContractViolation):
            comm_estimate_mean(S, range(0, 10),
                               lambda X, y: 1.5 * np.ones(len(X)), seed=0)

    @pytest.mark.parametrize("fn", [
        lambda X, y: np.full(len(X), "a"),
        lambda X, y: X[:, 0] + 0.5j,
        lambda X, y: [object()] * len(X),
    ], ids=["string", "complex", "object"])
    def test_non_real_values_rejected(self, fn):
        S = SampleStream(two_point_source(), 10, seed=1)
        with pytest.raises(ContractViolation, match="not real numbers"):
            comm_estimate_mean(S, range(0, 10), fn, seed=0)


class TestCommEstimateMean:
    def test_extreme_value_exact(self):
        src = two_point_source()
        S = SampleStream(src, 30, seed=4)
        est = comm_estimate_mean(
            S, range(0, 30), lambda X, y: np.ones(len(X)), seed=1
        )
        assert est == 1.0

    def test_deterministic_per_seed(self):
        src = two_point_source()
        stream = SampleStream(src, 500, seed=6)
        a = comm_estimate_mean(stream, range(0, 500), first_coord, seed=9)
        b = comm_estimate_mean(stream, range(0, 500), first_coord, seed=9)
        assert a == b

    def test_sized_batch_meets_tolerance(self):
        tau, delta = 0.1, 0.1
        n = ONE_BIT.batch_size(1, tau, delta)
        src = two_point_source(a=0.7, b=-0.2, pa=0.35)
        q = StatQuery(fn=first_coord, tau=tau, label_dependent=False)
        exact = ExactOracle(src).ask(q, 0)
        stream = SampleStream(src, n, seed=8)
        good = 0
        for trial in range(200):
            est = comm_estimate_mean(stream, range(0, n), first_coord, seed=trial)
            good += abs(est - exact) <= tau
        assert good / 200 >= 1 - delta


class TestCompileToComm:
    def test_non_interactive_single_round(self):
        src = two_point_source()
        q = StatQuery(fn=first_coord, tau=0.2, label_dependent=False)
        n = ONE_BIT.batch_size(1, 0.2, 0.2)
        stream = SampleStream(src, n, seed=10)
        answers, report = compile_sq_to_comm(
            NonInteractiveDriver([q]), stream, tau=0.2, delta=0.2, seed=2
        )
        assert report.rounds == 1
        assert report.to_json()["bits"] == 1
        assert len(answers) == 1

    def test_answers_within_tau_of_exact(self):
        src = two_point_source(a=0.9, b=-0.5, pa=0.4)
        q = StatQuery(fn=first_coord, tau=0.15, label_dependent=False)
        exact = ExactOracle(src).ask(q, 0)
        n = ONE_BIT.batch_size(1, 0.15, 0.1)
        good = 0
        for trial in range(200):
            stream = SampleStream(src, n, seed=trial)
            answers, _ = compile_sq_to_comm(
                NonInteractiveDriver([q]), stream, tau=0.15, delta=0.1,
                seed=trial,
            )
            good += abs(answers[0] - exact) <= 0.15
        assert good / 200 >= 0.9

    def test_needs_fewer_samples_than_ldp(self):
        # 2 ln(2t/d)/tau^2 vs 8 ln(2t/d)/(c^2 tau^2): the bit protocol wins
        # by the factor 4/c^2 at any epsilon.
        for t, tau, delta in [(1, 0.1, 0.1), (10, 0.05, 0.01)]:
            assert ONE_BIT.batch_size(t, tau, delta) < ldp_batch_size(
                t, tau, delta, epsilon=1.0
            )

    def test_sizing_error(self):
        src = two_point_source()
        stream = SampleStream(src, 5, seed=1)
        q = StatQuery(fn=first_coord, tau=0.1, label_dependent=False)
        with pytest.raises(SizingError) as err:
            compile_sq_to_comm(NonInteractiveDriver([q]), stream, 0.1, 0.1)
        assert err.value.required == ONE_BIT.batch_size(1, 0.1, 0.1)

    def test_halfspace_rounds_on_dataset_use_each_batch(self):
        # Every round is one block of d coordinates, each on its own batch:
        # the reference recomputes each block's answers on the support with
        # one `stream_estimates` draw under the compiler's seed for the
        # block's first coordinate.
        d, gamma, seed = 3, 0.3, 4
        src = make_margin_source(d, gamma, 20, seed=2)
        params = SurrogateParams(gamma=gamma, alpha=0.1, dim=d)
        iterates = []

        class Recording(HalfspaceDriver):
            def begin(self):
                iterates.append(self.w.copy())
                return super().begin()

            def feed(self, answers):
                nxt = super().feed(answers)
                iterates.append(self.w.copy())
                return nxt

        driver = Recording(params, iterations=3, per_coord_tol=3.0)
        tau = driver.per_coord_tol / (2.0 * d)
        batch = ONE_BIT.batch_size(driver.max_queries, tau, 0.1)
        S = SampleStream(src, driver.max_queries * batch, seed=7)
        _, report = compile_sq_to_comm(driver, S, tau, 0.1, seed=seed)

        def label_coord(j):
            return lambda X, y: y * X[:, j]

        def signsum_coord(w, j):
            return lambda X, y: sign_weight(w, X, gamma) * X[:, j] / (2.0 * d)

        blocks = [[label_coord(j) for j in range(d)]]
        blocks += [[signsum_coord(w, j) for j in range(d)]
                   for w in iterates[:-1]]
        assert d * len(blocks) == len(report.queries) == driver.max_queries
        assert np.any(iterates[1] != 0.0)
        X, y = src.dist.matrix, src.labels
        for k, phis in enumerate(blocks):
            block = np.column_stack([phi(X, y) for phi in phis])
            expected = ONE_BIT.stream_estimates(
                src.dist.probs, block, batch,
                derive_seed(seed, "comm-query", k * d))
            answers = [q["answer"] for q in report.queries[k * d:(k + 1) * d]]
            assert answers == expected.tolist(), k
        assert report.samples_used == len(blocks) * d * batch

    def test_each_client_spends_one_bit(self):
        src = two_point_source()
        qs = [StatQuery(fn=first_coord, tau=0.3, label_dependent=False)] * 2
        n = 2 * ONE_BIT.batch_size(2, 0.3, 0.2)
        stream = SampleStream(src, n, seed=3)
        _, report = compile_sq_to_comm(
            NonInteractiveDriver(qs), stream, tau=0.3, delta=0.2, seed=1
        )
        assert report.ledger.cap == 1.0
        assert report.ledger.per_index_spent == {i: 1.0 for i in range(n)}
        with pytest.raises(BudgetExceeded):
            report.ledger.charge_span(n - 1, n, 1)

    def test_report_json_uses_bits_key(self):
        src = two_point_source()
        q = StatQuery(fn=first_coord, tau=0.3, label_dependent=False)
        n = ONE_BIT.batch_size(1, 0.3, 0.2)
        stream = SampleStream(src, n, seed=3)
        _, report = compile_sq_to_comm(
            NonInteractiveDriver([q]), stream, tau=0.3, delta=0.2, seed=1
        )
        obj = report.to_json()
        assert set(obj) == {"rounds", "n", "bits", "queries"}
