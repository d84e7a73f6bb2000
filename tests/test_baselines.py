"""Tests for the greedy conditional decision-list learner."""

import numpy as np
import pytest

from localsq._rng import derive_seed
from localsq.baselines import (
    DlDriver,
    DlLearnerConfig,
    learn_decision_list_sq,
)
from localsq.core import (
    DecisionList,
    Explicit,
    FiniteDistribution,
    LabeledSource,
    SampleStream,
    classification_error,
    embed_hypercube,
    random_decision_list,
    uniform_hypercube_source,
)
from localsq.errors import LearningFailure, PreconditionError, ProtocolError
from localsq.ldp import compile_sq_to_ldp, ldp_batch_size
from localsq.sq import (
    ExactOracle,
    InteractivityTranscript,
    PerturbingOracle,
    run_driver,
)


class TestConfig:
    def test_tau_default(self):
        cfg = DlLearnerConfig(dim=8, alpha=0.1)
        assert cfg.tau == pytest.approx(0.1 / 64.0)

    def test_overrides_kept(self):
        assert DlLearnerConfig(dim=8, alpha=0.1, tau=0.005).tau == 0.005

    def test_invalid_rejected(self):
        with pytest.raises(PreconditionError):
            DlLearnerConfig(dim=0, alpha=0.1)
        with pytest.raises(PreconditionError):
            DlLearnerConfig(dim=3, alpha=0.0)
        with pytest.raises(PreconditionError):
            DlLearnerConfig(dim=3, alpha=0.1, tau=-0.01)


class TestExactLearning:
    def test_constant_target_stops_immediately(self):
        src = uniform_hypercube_source(3, DecisionList([], 1))
        oracle = ExactOracle(src)
        dl = learn_decision_list_sq(oracle, DlLearnerConfig(dim=3, alpha=0.1))
        assert dl.items == ()
        assert dl.default == 1
        assert classification_error(dl, src) == 0.0
        assert oracle.transcript.rounds_used() == 1

    def test_single_rule_target(self):
        src = uniform_hypercube_source(3, DecisionList([(0, 1, 1)], -1))
        oracle = ExactOracle(src)
        dl = learn_decision_list_sq(oracle, DlLearnerConfig(dim=3, alpha=0.1))
        assert classification_error(dl, src) <= 0.1
        assert dl.items == ((0, 1, 1),)
        assert dl.default == -1

    def test_random_lists_recovered(self):
        for seed in range(20):
            target = random_decision_list(8, 5, seed)
            src = uniform_hypercube_source(8, target)
            dl = learn_decision_list_sq(
                ExactOracle(src), DlLearnerConfig(dim=8, alpha=0.1)
            )
            assert classification_error(dl, src) <= 0.1

    def test_output_length_capped(self):
        for seed in range(20):
            target = random_decision_list(6, 6, seed)
            src = uniform_hypercube_source(6, target)
            dl = learn_decision_list_sq(
                ExactOracle(src), DlLearnerConfig(dim=6, alpha=0.1)
            )
            assert len(dl.items) + 1 <= 13

    def test_works_under_query_perturbation(self):
        # Grid rounding at the declared tolerance must not break learning.
        target = random_decision_list(6, 3, seed=4)
        src = uniform_hypercube_source(6, target)
        oracle = PerturbingOracle(src, policy="uniform", seed=7)
        dl = learn_decision_list_sq(oracle, DlLearnerConfig(dim=6, alpha=0.1))
        assert classification_error(dl, src) <= 0.1

    def test_non_list_target_fails(self):
        # Parity labels: every single-bit rule has conditional mistake rate
        # 1/2, so nothing is admissible and the residual stays unexplained.
        pts = [embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1)]
        labels = tuple(
            1 if (p.coords[0] > 0) != (p.coords[1] > 0) else -1 for p in pts
        )
        src = LabeledSource(
            FiniteDistribution(pts, [0.25] * 4),
            Explicit(pts, labels),
        )
        with pytest.raises(LearningFailure):
            learn_decision_list_sq(
                ExactOracle(src), DlLearnerConfig(dim=2, alpha=0.1)
            )


class TestAdaptivity:
    def test_empty_transcript_profile(self):
        t = InteractivityTranscript()
        assert t.rounds_used() == 0 and t.label_dependent_rounds() == []

    def test_rounds_scale_with_list_length(self):
        # Alternating outputs prevent early default stops, so the learner
        # must append every rule before the residual is explained.
        target = DecisionList([(0, 1, 1), (1, 1, -1), (2, 1, 1)], -1)
        src = uniform_hypercube_source(5, target)
        oracle = ExactOracle(src)
        dl = learn_decision_list_sq(oracle, DlLearnerConfig(dim=5, alpha=0.1))
        assert oracle.transcript.rounds_used() >= 3
        assert classification_error(dl, src) <= 0.1

    def test_label_dependent_queries_in_later_rounds(self):
        target = random_decision_list(6, 4, seed=11)
        src = uniform_hypercube_source(6, target)
        oracle = ExactOracle(src)
        learn_decision_list_sq(oracle, DlLearnerConfig(dim=6, alpha=0.1))
        dep_rounds = oracle.transcript.label_dependent_rounds()
        assert oracle.transcript.rounds_used() >= 2
        assert dep_rounds == sorted(set(dep_rounds))
        assert any(r > 0 for r in dep_rounds)

    def test_halfspace_transcript_profile_contrasts(self):
        from localsq.core import make_margin_source
        from localsq.margin_learner import HalfspaceDriver, SurrogateParams

        src = make_margin_source(4, 0.3, 15, seed=1)
        oracle = ExactOracle(src)
        driver = HalfspaceDriver(SurrogateParams(gamma=0.3, alpha=0.1, dim=4),
                                 iterations=8)
        run_driver(driver, oracle.ask)
        assert oracle.transcript.label_dependent_rounds() == [0]


class TestDriverProtocol:
    def test_query_budget_declaration(self):
        assert DlDriver(DlLearnerConfig(dim=8, alpha=0.1)).max_queries == 324

    def test_double_begin_refused(self):
        driver = DlDriver(DlLearnerConfig(dim=3, alpha=0.1))
        driver.begin()
        with pytest.raises(ProtocolError):
            driver.begin()

    def test_result_before_finish_refused(self):
        driver = DlDriver(DlLearnerConfig(dim=3, alpha=0.1))
        driver.begin()
        with pytest.raises(ProtocolError):
            driver.result()

    def test_wrong_answer_count_refused(self):
        driver = DlDriver(DlLearnerConfig(dim=3, alpha=0.1))
        queries = driver.begin()
        assert len(queries) == 2 + 2 * 3
        with pytest.raises(ProtocolError):
            driver.feed([0.0] * (len(queries) - 1))

    def test_round_query_structure(self):
        driver = DlDriver(DlLearnerConfig(dim=3, alpha=0.1))
        queries = driver.begin()
        flags = [q.label_dependent for q in queries]
        assert flags == [False, True, False, True, False, True, False, True]


class TestLdpCompiled:
    def test_end_to_end_small_dim(self):
        # Feasible tolerance override; the batch formula is applied to it.
        tau, delta, eps, d = 0.01, 0.1, 1.0, 4
        target = random_decision_list(d, 2, seed=3)
        src = uniform_hypercube_source(d, target)
        cfg = DlLearnerConfig(dim=d, alpha=0.1, tau=tau)
        driver = DlDriver(cfg)
        batch = ldp_batch_size(driver.max_queries, tau, delta, eps)
        stream = SampleStream(src, driver.max_queries * batch,
                              derive_seed(3, "dl-stream"))
        dl, report = compile_sq_to_ldp(driver, stream, eps, tau, delta,
                                       seed=derive_seed(3, "dl-ldp"))
        assert classification_error(dl, src) <= 0.1
        assert report.rounds >= 2
        later = [q for q in report.queries if q["round"] > 0]
        assert any(q["label_dep"] for q in later)

    def test_matches_exact_choice_on_easy_target(self):
        # With a crisp target the compiled run recovers the same rule set.
        target = DecisionList([(1, 0, 1)], -1)
        src = uniform_hypercube_source(4, target)
        exact = learn_decision_list_sq(
            ExactOracle(src), DlLearnerConfig(dim=4, alpha=0.1)
        )
        tau, delta, eps = 0.01, 0.1, 1.0
        cfg = DlLearnerConfig(dim=4, alpha=0.1, tau=tau)
        driver = DlDriver(cfg)
        batch = ldp_batch_size(driver.max_queries, tau, delta, eps)
        stream = SampleStream(src, driver.max_queries * batch,
                              derive_seed(8, "dl-stream"))
        compiled, _ = compile_sq_to_ldp(driver, stream, eps, tau, delta,
                                        seed=derive_seed(8, "dl-ldp"))
        assert compiled.items == exact.items
        assert compiled.default == exact.default
