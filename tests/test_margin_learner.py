"""Tests for the surrogate objective, its gradients, projection, and descent.

Hand-derived values are frozen as literals; gradients are checked against
central finite differences of the exact surrogate at non-kink points (the
surrogate is piecewise linear, so away from kinks the difference quotient
is the exact derivative up to float cancellation).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localsq import margin_learner
from localsq.core import (
    Explicit,
    FiniteDistribution,
    LabeledSource,
    Point,
    classification_error,
    make_margin_source,
    signp,
)
from localsq.comm import ONE_BIT
from localsq.errors import PreconditionError, ProtocolError
from localsq.ldp import compile_sq, ldp_channel
from localsq.margin_learner import (
    HalfspaceDriver,
    HalfspaceHypothesis,
    KnownDistributionDriver,
    ProjectionMap,
    SurrogateParams,
    grad_f1_query,
    grad_f2_query,
    jl_dim,
    jl_map,
    jl_project,
    learn_halfspace,
    sign_weight,
    surrogate_value,
)
from localsq.sq import ExactOracle, run_driver


def single_example_source(x, label):
    p = Point(np.asarray(x, dtype=float))
    dist = FiniteDistribution([p], [1.0])
    return LabeledSource(dist, Explicit([p], (label,)))


def grad_f1(w, ask, params, per_coord_tol):
    """E[k(x) x]: the label-free gradient block asked at round 0, rescaled."""
    scale = 2.0 * params.dim
    query = grad_f1_query(w, params, per_coord_tol / scale)
    return scale * np.ravel(ask(query, 0))


def grad_f2(ask, params, per_coord_tol):
    """-2d E[l x]: the label block asked at round 0, rescaled."""
    scale = 2.0 * params.dim
    query = grad_f2_query(params, per_coord_tol / scale)
    return -scale * np.ravel(ask(query, 0))


def loop_surrogate(w, src, gamma):
    """Oracle: the objective computed with explicit per-basis-vector loops."""
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    total = 0.0
    for x, prob, label in zip(src.dist.matrix, src.dist.probs, src.labels):
        val = 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            val += abs(np.dot(w + gamma * e, x)) - np.dot(w + gamma * e, label * x)
            val += abs(np.dot(w - gamma * e, x)) - np.dot(w - gamma * e, label * x)
        total += prob * val
    return total


class TestSurrogateParams:
    def test_default_beta(self):
        p = SurrogateParams(gamma=0.3, alpha=0.1, dim=4)
        assert p.beta == pytest.approx(0.09 / 2.0)

    def test_iteration_formula_hand_case(self):
        # gamma=1, alpha=0.5, dim=1: beta=1, L=4, T = ceil((16/0.5)^2) = 1024.
        p = SurrogateParams(gamma=1.0, alpha=0.5, dim=1)
        assert p.iterations_formula() == 1024

    def test_coord_tolerance_hand_case(self):
        # alpha*beta/(4*sqrt(1)*3) = 0.5/12.
        p = SurrogateParams(gamma=1.0, alpha=0.5, dim=1)
        assert p.coord_tolerance_formula() == pytest.approx(0.5 / 12.0)


class TestSurrogateValue:
    def test_zero_at_true_separator(self):
        for seed in range(5):
            src = make_margin_source(6, 0.25, 20, seed=seed)
            params = SurrogateParams(gamma=0.25, alpha=0.1, dim=6)
            assert surrogate_value(src.target.w, src, params) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_hand_case_positive_label(self):
        # d=1, x=1, l=+1, w=1, gamma=0.5: (1.5-1.5) + (0.5-0.5) = 0.
        src = single_example_source([1.0], 1)
        params = SurrogateParams(gamma=0.5, alpha=0.1, dim=1)
        assert surrogate_value(np.array([1.0]), src, params) == pytest.approx(0.0)

    def test_hand_case_negative_label(self):
        # Same point labeled -1: (1.5+1.5) + (0.5+0.5) = 4.
        src = single_example_source([1.0], -1)
        params = SurrogateParams(gamma=0.5, alpha=0.1, dim=1)
        assert surrogate_value(np.array([1.0]), src, params) == pytest.approx(4.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for seed in range(4):
            src = make_margin_source(4, 0.2, 8, seed=seed)
            w = rng.uniform(-0.4, 0.4, size=4)
            params = SurrogateParams(gamma=0.2, alpha=0.1, dim=4)
            assert surrogate_value(w, src, params) == pytest.approx(
                loop_surrogate(w, src, 0.2), abs=1e-12
            )

    @given(st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        src = make_margin_source(3, 0.2, 6, seed=seed)
        w = rng.uniform(-1, 1, size=3)
        if np.linalg.norm(w) > 1:
            w /= np.linalg.norm(w)
        params = SurrogateParams(gamma=0.2, alpha=0.1, dim=3)
        assert surrogate_value(w, src, params) >= -1e-12

    def test_dimension_mismatch_rejected(self):
        src = single_example_source([1.0, 0.0], 1)
        params = SurrogateParams(gamma=0.5, alpha=0.1, dim=2)
        with pytest.raises(PreconditionError):
            surrogate_value(np.array([1.0]), src, params)


class TestGradF2:
    def test_paired_examples_give_zero(self):
        pts = [Point(np.array([0.6, 0.2])), Point(np.array([-0.6, -0.2]))]
        dist = FiniteDistribution(pts, [0.5, 0.5])
        src = LabeledSource(dist, Explicit(pts, (1, 1)))
        params = SurrogateParams(gamma=0.2, alpha=0.1, dim=2)
        out = grad_f2(ExactOracle(src).ask, params, per_coord_tol=0.1)
        assert np.allclose(out, 0.0)

    def test_single_example_formula(self):
        # -2d E[l x] with d=2, one example (e1, +1): (-4, 0).
        src = single_example_source([1.0, 0.0], 1)
        params = SurrogateParams(gamma=0.2, alpha=0.1, dim=2)
        out = grad_f2(ExactOracle(src).ask, params, per_coord_tol=0.1)
        assert np.allclose(out, [-4.0, 0.0])

    def test_label_flip_negates(self):
        src = make_margin_source(3, 0.2, 7, seed=1)
        flipped = LabeledSource(src.dist, src.target.negate())
        params = SurrogateParams(gamma=0.2, alpha=0.1, dim=3)
        a = grad_f2(ExactOracle(src).ask, params, per_coord_tol=0.1)
        b = grad_f2(ExactOracle(flipped).ask, params, per_coord_tol=0.1)
        assert np.allclose(a, -b)

    def test_all_queries_label_dependent_round_zero(self):
        src = make_margin_source(3, 0.2, 7, seed=2)
        params = SurrogateParams(gamma=0.2, alpha=0.1, dim=3)
        oracle = ExactOracle(src)
        grad_f2(oracle.ask, params, per_coord_tol=0.1)
        assert all(e.label_dependent for e in oracle.transcript.entries)
        assert all(e.round == 0 for e in oracle.transcript.entries)
        assert all(e.scale == -6.0 for e in oracle.transcript.entries)


# Coordinates and weights: a dyadic grid, on which u = <w, x> and gamma x_i
# are exact, so that u = +-gamma x_i can hold exactly; or any float.
SIGN_VALUES = st.sampled_from([-1.0, -0.5, -0.125, 0.0, 0.125, 0.5, 1.0]) | (
    st.floats(-1.0, 1.0))


@st.composite
def sign_weight_cases(draw):
    """(w, X, gamma), with w = 0, a free w, a row forced onto a tie, or
    points scaled down until u and gamma x_i are subnormal."""
    n, d = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    gamma = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    X = np.array(draw(st.lists(SIGN_VALUES, min_size=n * d,
                               max_size=n * d))).reshape(n, d)
    w = np.array(draw(st.lists(SIGN_VALUES, min_size=d, max_size=d)))
    kind = draw(st.sampled_from(["free", "zero", "tie", "tiny"]))
    if kind == "zero":
        w = np.zeros(d)
    elif kind == "tiny":
        X = X * 2.0**-1060
    elif kind == "tie" and n and d > 1:
        # w = e_j makes u = X[r, j] exactly; setting X[r, j] = +-gamma X[r, i]
        # puts u - gamma x_i (or u + gamma x_i) at exactly 0.
        r = draw(st.integers(0, n - 1))
        i, j = draw(st.permutations(range(d)))[:2]
        X[r, j] = draw(st.sampled_from([1.0, -1.0])) * (gamma * X[r, i])
        w = np.zeros(d)
        w[j] = 1.0
    return w, X, gamma


class TestSignWeight:
    @given(sign_weight_cases())
    @example((np.array([1.0, 0.0]), np.array([[0.5, 0.5]]), 1.0))  # a tie
    @settings(max_examples=300, deadline=None)
    def test_count_equals_sum_of_signs(self, case):
        w, X, gamma = case
        u = X @ w
        signs = (signp(u[:, None] + gamma * X).sum(axis=1)
                 + signp(u[:, None] - gamma * X).sum(axis=1))
        k = sign_weight(w, X, gamma)
        assert k.dtype == signs.dtype and k.shape == signs.shape
        assert np.array_equal(k, signs)


class TestGradF1:
    def test_zero_at_origin_for_generic_support(self):
        # With w = 0 and no zero coordinates, the sign-weight vanishes.
        src = make_margin_source(3, 0.2, 9, seed=5)
        params = SurrogateParams(gamma=0.2, alpha=0.1, dim=3)
        out = grad_f1(np.zeros(3), ExactOracle(src).ask, params,
                      per_coord_tol=0.1)
        assert np.allclose(out, 0.0)

    def test_symmetric_source_zero_with_zero_coordinate(self):
        # Points with a zero coordinate give sign-weight 2 at w = 0, but the
        # +-x symmetry still cancels the expectation.
        pts = [Point(np.array([0.5, 0.0])), Point(np.array([-0.5, 0.0]))]
        dist = FiniteDistribution(pts, [0.5, 0.5])
        src = LabeledSource(dist, Explicit(pts, (1, -1)))
        params = SurrogateParams(gamma=0.2, alpha=0.1, dim=2)
        out = grad_f1(np.zeros(2), ExactOracle(src).ask, params,
                      per_coord_tol=0.1)
        assert np.allclose(out, 0.0)

    def test_hand_case_total_gradient(self):
        # d=1, x=1, l=-1, w=1, gamma=0.5: dF/dw = sign(1.5)+sign(0.5)+2 = 4.
        src = single_example_source([1.0], -1)
        params = SurrogateParams(gamma=0.5, alpha=0.1, dim=1)
        g1 = grad_f1(np.array([1.0]), ExactOracle(src).ask, params, 0.1)
        g2 = grad_f2(ExactOracle(src).ask, params, 0.1)
        assert g1[0] + g2[0] == pytest.approx(4.0)

    def test_exact_helpers_match_query_path(self):
        src = make_margin_source(4, 0.2, 10, seed=7)
        params = SurrogateParams(gamma=0.2, alpha=0.1, dim=4)
        w = np.array([0.2, -0.1, 0.3, 0.05])
        via_queries = grad_f1(w, ExactOracle(src).ask, params, 0.1)
        k = sign_weight(w, src.dist.matrix, 0.2)
        direct = (src.dist.probs * k) @ src.dist.matrix
        assert np.allclose(via_queries, direct, atol=1e-12)
        g2_queries = grad_f2(ExactOracle(src).ask, params, 0.1)
        g2_direct = -2.0 * params.dim * (
            (src.dist.probs * src.labels) @ src.dist.matrix)
        assert np.allclose(g2_queries, g2_direct, atol=1e-12)

    def test_finite_difference_agreement(self):
        h = 1e-5
        rng = np.random.default_rng(11)
        for seed in range(3):
            src = make_margin_source(4, 0.25, 8, seed=seed)
            params = SurrogateParams(gamma=0.25, alpha=0.1, dim=4)
            X = src.dist.matrix
            checked = 0
            while checked < 5:
                w = rng.uniform(-0.4, 0.4, size=4)
                u = X @ w
                gaps = np.abs(
                    np.concatenate(
                        [u[:, None] + 0.25 * X, u[:, None] - 0.25 * X], axis=1
                    )
                )
                if gaps.min() < 10 * h:
                    continue
                checked += 1
                grad = grad_f1(w, ExactOracle(src).ask, params, 0.1) + grad_f2(
                    ExactOracle(src).ask, params, 0.1
                )
                for j in range(4):
                    e = np.zeros(4)
                    e[j] = h
                    fd = (
                        surrogate_value(w + e, src, params)
                        - surrogate_value(w - e, src, params)
                    ) / (2 * h)
                    assert grad[j] == pytest.approx(fd, abs=1e-4)


class TestMarkovConsequence:
    def test_low_surrogate_implies_small_violation_mass(self):
        # Whenever exact F(w) <= alpha*beta, the mass of points with
        # f(x) <w,x> <= -beta/2 + gamma^2/sqrt(d) is at most alpha.
        rng = np.random.default_rng(19)
        for seed in range(10):
            src = make_margin_source(5, 0.3, 25, seed=seed)
            params = SurrogateParams(gamma=0.3, alpha=0.2, dim=5)
            w_star = src.target.w
            for s in np.linspace(0.0, 1.0, 8):
                u = rng.normal(size=5)
                u /= np.linalg.norm(u)
                w = (1 - s) * w_star + 0.02 * s * u
                if np.linalg.norm(w) > 1:
                    w /= np.linalg.norm(w)
                f_val = surrogate_value(w, src, params)
                if f_val > params.alpha * params.beta:
                    continue
                threshold = -params.beta / 2.0 + 0.09 / math.sqrt(5)
                margins = src.labels * (src.dist.matrix @ w)
                bad = float(np.sum(src.dist.probs * (margins <= threshold)))
                assert bad <= params.alpha + 1e-12


class TestJlProjection:
    def test_dim_formula(self):
        # ceil(32 ln(20) / 0.09) = 1066.
        assert jl_dim(0.3, 0.05) == 1066

    def test_oversized_map_refused_before_drawing(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("the map was about to be drawn")

        monkeypatch.setattr(margin_learner, "generator", no_draws)
        with pytest.raises(PreconditionError, match=(
                r"^gamma = 0\.001 and delta = 0\.05 ask for a 95,863,433 x "
                r"100 JL map, above 100,000,000 entries$")):
            jl_map(100, 1e-3, 0.05, seed=0)

    def test_deterministic(self):
        src = make_margin_source(10, 0.3, 15, seed=4)
        a, _ = jl_project(src, 0.5, 0.5, seed=9)
        b, _ = jl_project(src, 0.5, 0.5, seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_images_in_ball(self):
        src = make_margin_source(10, 0.3, 30, seed=4)
        _, mapped = jl_project(src, 0.5, 0.5, seed=9)
        norms = np.linalg.norm(mapped.dist.matrix, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_labels_preserved(self):
        src = make_margin_source(10, 0.3, 30, seed=4)
        _, mapped = jl_project(src, 0.5, 0.5, seed=9)
        assert np.array_equal(mapped.labels, src.labels)

    def test_margin_mostly_preserved(self):
        # Small version of the acceptance check: project d=40 at gamma=0.3
        # and measure the fraction of support below half-margin along the
        # normalized image of the true normal.
        good_seeds = 0
        for seed in range(10):
            src = make_margin_source(40, 0.3, 60, seed=seed)
            proj, mapped = jl_project(src, 0.3, 0.05, seed=seed)
            w_img = proj.matrix @ src.target.w
            w_img /= np.linalg.norm(w_img)
            margins = mapped.labels * (mapped.dist.matrix @ w_img)
            frac_bad = float(np.mean(margins < 0.15))
            good_seeds += frac_bad <= 0.05
        assert good_seeds >= 8

    def test_identity_projection_shape(self):
        proj = ProjectionMap(np.eye(3))
        X = np.array([[0.1, 0.2, 0.3]])
        assert np.array_equal(proj.apply(X), X)


class TestPsgd:
    def test_exact_oracle_small_dim(self):
        src = make_margin_source(5, 0.3, 40, seed=3)
        params = SurrogateParams(gamma=0.3, alpha=0.1, dim=5)
        oracle = ExactOracle(src)
        driver = HalfspaceDriver(params)
        run_driver(driver, oracle.ask)
        w_bar = driver.result()
        h = HalfspaceHypothesis(proj=ProjectionMap(np.eye(5)), w=w_bar)
        assert classification_error(h, src) <= 0.1
        assert oracle.transcript.label_dependent_rounds() == [0]

    def test_transcript_label_dependence_structure(self):
        src = make_margin_source(4, 0.3, 20, seed=6)
        params = SurrogateParams(gamma=0.3, alpha=0.1, dim=4)
        oracle = ExactOracle(src)
        run_driver(HalfspaceDriver(params, iterations=10), oracle.ask)
        label_dep = [e for e in oracle.transcript.entries if e.label_dependent]
        assert len(label_dep) == 4
        assert all(e.round == 0 for e in label_dep)
        assert oracle.transcript.label_dependent_rounds() == [0]

    def test_query_budget_matches_declaration(self):
        src = make_margin_source(4, 0.3, 20, seed=6)
        params = SurrogateParams(gamma=0.3, alpha=0.1, dim=4)
        driver = HalfspaceDriver(params, iterations=12)
        oracle = ExactOracle(src)
        run_driver(driver, oracle.ask)
        assert len(oracle.transcript) == driver.max_queries == 4 * 13

    def test_iterates_stay_in_ball(self):
        src = make_margin_source(4, 0.3, 20, seed=8)
        params = SurrogateParams(gamma=0.3, alpha=0.1, dim=4)
        driver = HalfspaceDriver(params, iterations=15)
        oracle = ExactOracle(src)
        queries = driver.begin()
        while queries is not None:
            answers = [oracle.ask(q, 0) for q in queries]
            queries = driver.feed(answers)
            assert np.linalg.norm(driver.w) <= 1.0 + 1e-9
        assert np.linalg.norm(driver.result()) <= 1.0 + 1e-9

    def test_result_before_completion_refused(self):
        params = SurrogateParams(gamma=0.3, alpha=0.1, dim=4)
        driver = HalfspaceDriver(params, iterations=5)
        with pytest.raises(ProtocolError):
            driver.result()

    @pytest.mark.parametrize("gamma,alpha,dim,iterations", [
        (0.3, 0.1, 5, 300),  # the formula asks for about 4e8 iterations
        (1.0, 0.99, 1, 262),  # ceil((16 / 0.99)^2), below the cap
    ])
    def test_defaults_resolve_to_the_formula_values(self, gamma, alpha, dim,
                                                    iterations):
        params = SurrogateParams(gamma=gamma, alpha=alpha, dim=dim)
        driver = HalfspaceDriver(params)
        assert driver.iterations == iterations
        assert driver.iterations == min(params.iterations_formula(), 300)
        assert driver.iterations_formula == params.iterations_formula()
        assert driver.per_coord_tol == params.coord_tolerance_formula()

    @pytest.mark.parametrize("kwargs,message", [
        ({"iterations": 0}, "need at least one iteration"),
        ({"iterations": -3}, "need at least one iteration"),
        ({"per_coord_tol": 0.0}, "tolerance must be positive"),
        ({"per_coord_tol": -0.5}, "tolerance must be positive"),
        ({"per_coord_tol": float("nan")}, "tolerance must be positive"),
    ], ids=["zero-iterations", "negative-iterations", "zero-tolerance",
            "negative-tolerance", "nan-tolerance"])
    def test_refuses_no_iterations_and_a_non_positive_tolerance(
            self, kwargs, message):
        params = SurrogateParams(gamma=0.3, alpha=0.1, dim=4)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            HalfspaceDriver(params, **kwargs)

    def test_explicit_iterations_keep_the_horizon_refusal(self):
        # The formula horizon is reported, so a run whose formula has no
        # finite value is refused even when its executed horizon is given.
        params = SurrogateParams(gamma=0.3, alpha=1e-300, dim=4)
        with pytest.raises(PreconditionError, match="no finite descent"):
            HalfspaceDriver(params, iterations=60, per_coord_tol=0.4)


class TestKnownDistributionDriver:
    def make(self, d=4, iterations=5):
        src = make_margin_source(d, 0.3, 20, seed=6)
        params = SurrogateParams(gamma=0.3, alpha=0.1, dim=d)
        driver = KnownDistributionDriver(
            params, src.dist.matrix, src.dist.probs, iterations=iterations)
        return src, driver

    @pytest.mark.parametrize("n_answers", [1, 3, 5, 8])
    def test_feed_refuses_wrong_answer_count(self, n_answers):
        _, driver = self.make(d=4)
        driver.begin()
        with pytest.raises(ProtocolError):
            driver.feed([0.1] * n_answers)

    def test_one_label_round_then_local_descent(self):
        src, driver = self.make(d=4, iterations=7)
        oracle = ExactOracle(src)
        assert run_driver(driver, oracle.ask) == 1
        assert len(oracle.transcript) == driver.max_queries == 4
        assert all(e.label_dependent for e in oracle.transcript.entries)
        assert driver.iteration == 7
        assert np.linalg.norm(driver.result()) <= 1.0 + 1e-9

    @pytest.mark.parametrize("channel", [ldp_channel(1.0), ONE_BIT],
                             ids=["ldp", "one-bit"])
    @pytest.mark.parametrize("known", [True, False],
                             ids=["known", "distribution-free"])
    def test_channel_records_blocks_as_the_exact_oracle(self, channel, known):
        # Every block is recorded with its query's own tau and scale,
        # whichever oracle answered it.
        src = make_margin_source(5, 0.3, 20, seed=6)
        params = SurrogateParams(gamma=0.3, alpha=0.1, dim=5)

        def driver():
            if known:
                return KnownDistributionDriver(params, src.dist.matrix,
                                               src.dist.probs, iterations=3)
            return HalfspaceDriver(params, iterations=3)

        def blocks(transcript):
            return [(b.round, b.label_dependent, b.tolerance, b.scale,
                     len(b.answers)) for b in transcript.blocks]

        exact = ExactOracle(src)
        run_driver(driver(), exact.ask)
        compiled_driver = driver()
        _, compiled = compile_sq(compiled_driver, src, channel,
                                 compiled_driver.tau, 0.1)
        assert blocks(compiled.transcript) == blocks(exact.transcript)
        assert -10.0 in {b.scale for b in exact.transcript.blocks}

    def test_result_before_feed_refused(self):
        _, driver = self.make()
        driver.begin()
        with pytest.raises(ProtocolError):
            driver.result()


class TestLearnHalfspace:
    def test_exact_end_to_end(self):
        src = make_margin_source(20, 0.3, 150, seed=12)
        h, info = learn_halfspace(src, gamma=0.3, alpha=0.1, delta=0.05,
                                  oracle="exact", seed=12)
        assert classification_error(h, src) <= 0.1
        assert h.proj.matrix.shape == (20, 20)
        assert info.label_non_adaptive

    def test_known_distribution_single_round(self):
        for oracle in ("exact", "ldp"):
            src = make_margin_source(10, 0.3, 60, seed=2)
            h, info = learn_halfspace(
                src, 0.3, 0.1, 0.05, mode="known_distribution",
                oracle=oracle, seed=2,
            )
            assert info.rounds == 1
            assert classification_error(h, src) <= 0.1

    def test_ldp_end_to_end_single_run(self):
        src = make_margin_source(20, 0.3, 150, seed=4)
        h, info = learn_halfspace(src, gamma=0.3, alpha=0.15, delta=0.05,
                                  oracle="ldp", epsilon=1.0, seed=4)
        assert classification_error(h, src) <= 0.15
        assert info.label_non_adaptive
        label_dep = [q for q in info.transcript.records() if q["label_dep"]]
        assert len(label_dep) == h.proj.matrix.shape[0]
        assert {q["round"] for q in label_dep} == {0}
        assert info.samples_used > 0

    @pytest.mark.parametrize("oracle", ["ldp", "comm"])
    def test_compiled_run_keeps_the_protocol_transcript(self, oracle):
        src = make_margin_source(5, 0.3, 30, seed=3)
        _, info = learn_halfspace(src, 0.3, 0.15, 0.05, oracle=oracle, seed=3)
        records = info.transcript.records()
        assert info.rounds == records[-1]["round"] + 1 == 60
        assert info.transcript.label_dependent_rounds() == [0]
        # Every answered coordinate draws one batch, sized for the bound of
        # t = 5 * 61 answers at tau = 0.1 * 5 / (2 * 5) and delta = 0.05.
        channel = ldp_channel(1.0) if oracle == "ldp" else ONE_BIT
        assert len(records) == 305
        assert info.samples_used == 305 * channel.batch_size(305, 0.05, 0.05)

    def test_projection_engaged_for_large_gamma(self):
        # The failure budget is split evenly, so the map is built at delta/2:
        # gamma=0.8, delta=0.3 -> dim = ceil(32 ln(1/0.15)/0.64) = 95.
        src = make_margin_source(200, 0.8, 50, seed=5)
        h, info = learn_halfspace(src, gamma=0.8, alpha=0.2, delta=0.3,
                                  oracle="exact", seed=5)
        assert h.proj.matrix.shape == (jl_dim(0.8, 0.15), 200) == (95, 200)
        assert info.driver.params.gamma == pytest.approx(0.4)
        assert classification_error(h, src) <= 0.2

    def test_no_projection_when_the_map_would_not_shrink(self):
        # jl_dim(0.9, 0.05) = 119 < 130, but the map is built at delta/2 and
        # jl_dim(0.9, 0.025) = 146 >= 130: projecting would raise the
        # dimension and halve the margin, so the run keeps the source as is.
        assert jl_dim(0.9, 0.05) < 130 <= jl_dim(0.9, 0.025)
        src = make_margin_source(130, 0.9, 40, seed=7)
        h, info = learn_halfspace(src, 0.9, 0.15, 0.05, oracle="exact",
                                  seed=7)
        assert h.proj.matrix.shape == (130, 130)
        assert info.driver.params.gamma == 0.9
        assert classification_error(h, src) <= 0.15

    @pytest.mark.parametrize("mode,oracle", [
        (mode, oracle) for mode in ("distribution_free", "known_distribution")
        for oracle in ("exact", "ldp", "comm")])
    def test_report_counts_match_the_protocol(self, mode, oracle):
        # The learner object's counts are the transcript's records counted
        # again: one record per answered coordinate.
        src = make_margin_source(4, 0.3, 20, seed=6)
        _, info = learn_halfspace(src, 0.3, 0.1, 0.05, mode=mode,
                                  oracle=oracle, seed=6)
        records = info.transcript.records()
        dep_rounds = [r["round"] for r in records if r["label_dep"]]
        report = info.learner_json()
        assert report["queries_total"] == len(records)
        assert report["queries_total"] == info.driver.max_queries
        assert report["queries_label_dependent"] == len(dep_rounds) == 4
        assert report["rounds"] == records[-1]["round"] + 1 == info.rounds
        assert report["rounds"] == (1 if mode == "known_distribution"
                                    else info.driver.iterations)
        assert report["label_non_adaptive"] is (set(dep_rounds) <= {0})
        assert report["label_non_adaptive"] is info.label_non_adaptive

    def test_a_later_label_dependent_block_is_adaptive(self):
        src = make_margin_source(4, 0.3, 20, seed=6)
        _, info = learn_halfspace(src, 0.3, 0.1, 0.05)
        last = info.transcript.blocks[-1]
        info.transcript.append(last.round, True, last.tolerance, [0.0])
        report = info.learner_json()
        assert report["queries_label_dependent"] == 5
        assert report["label_non_adaptive"] is info.label_non_adaptive is False

    @pytest.mark.parametrize("oracle", ["exact", "ldp"])
    def test_run_reports_the_settings_its_oracle_ran(self, oracle):
        # The exact oracle runs the driver's defaults; a private run asks
        # 60 iterations at tolerance 0.1 * dim per coordinate.
        src = make_margin_source(5, 0.3, 30, seed=3)
        h, info = learn_halfspace(src, 0.3, 0.15, 0.05, oracle=oracle, seed=3)
        report = info.learner_json()
        working_dim = h.proj.matrix.shape[0]
        params = SurrogateParams(gamma=0.3, alpha=0.15, dim=5)
        if oracle == "exact":
            assert report["iterations_executed"] == 300
            assert report["per_coord_tol"] == params.coord_tolerance_formula()
            assert info.samples_used == 0
        else:
            assert report["iterations_executed"] == 60
            assert report["per_coord_tol"] == 0.1 * working_dim == 0.5
            assert info.samples_used > 0
        assert report["iterations_formula"] == params.iterations_formula()
        assert report["dim"] == working_dim == 5

    def test_invalid_mode_and_oracle_rejected(self):
        src = make_margin_source(5, 0.3, 10, seed=1)
        with pytest.raises(PreconditionError):
            learn_halfspace(src, 0.3, 0.1, 0.05, mode="other")
        with pytest.raises(PreconditionError):
            learn_halfspace(src, 0.3, 0.1, 0.05, oracle="psq")
