"""Tests for domain types, exact error/margin computation, and sample streams.

Reference values are computed by plain-Python enumeration oracles in this
file, hand arithmetic frozen as literals, or direct invariant assertions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsq.core import (
    DecisionList,
    Explicit,
    FiniteDistribution,
    LabeledSource,
    LinearThreshold,
    Point,
    SampleStream,
    classification_error,
    embed_hypercube,
    make_margin_source,
    negate,
    random_decision_list,
    signp,
    uniform_hypercube_source,
)
from localsq.errors import EvaluationError, PreconditionError


def brute_error(h, src):
    """Oracle: per-point loop, no vectorization shared with the implementation."""
    total = 0.0
    for point, prob, label in zip(src.dist.support, src.dist.probs, src.labels):
        if float(h(point)) != float(label):
            total += float(prob)
    return total


def two_point_source(labels=(1, -1)):
    e1 = Point(np.array([1.0, 0.0]))
    e2 = Point(np.array([0.0, 1.0]))
    dist = FiniteDistribution([e1, e2], [0.5, 0.5])
    return LabeledSource(dist, Explicit.from_support([e1, e2], labels))


class TestPoint:
    def test_norm_within_tolerance_kept(self):
        p = Point(np.array([0.6, 0.8]))
        assert np.allclose(p.coords, [0.6, 0.8])

    def test_oversized_point_rescaled(self):
        p = Point(np.array([3.0, 4.0]))
        assert np.linalg.norm(p.coords) == pytest.approx(1.0)
        assert np.allclose(p.coords, [0.6, 0.8])

    def test_equality_and_hash_by_value(self):
        a = Point(np.array([0.1, 0.2]))
        b = Point(np.array([0.1, 0.2]))
        assert a == b and hash(a) == hash(b)
        assert a != Point(np.array([0.2, 0.1]))

    def test_coords_immutable(self):
        p = Point(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            p.coords[0] = 5.0

    def test_signed_zeros_hash_alike(self):
        a = Point(np.array([0.0, 0.5]))
        b = Point(np.array([-0.0, 0.5]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert not np.signbit(b.coords).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_refused(self, bad):
        with pytest.raises(PreconditionError, match="must be finite"):
            Point(np.array([bad, 0.5]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, -1)])
    def test_overflowing_norm_keeps_the_direction(self, signs):
        # |x|^2 overflows to inf although every coordinate is finite.
        p = Point(np.array([signs[0] * 1e200, signs[1] * 1e200]))
        expected = np.array(signs) * np.sqrt(0.5)
        assert np.all(np.abs(p.coords - expected) <= np.spacing(np.sqrt(0.5)))


class TestFiniteDistribution:
    def test_probs_must_sum_to_one(self):
        pts = [Point(np.array([1.0])), Point(np.array([-1.0]))]
        with pytest.raises(PreconditionError):
            FiniteDistribution(pts, [0.5, 0.6])

    def test_duplicate_support_rejected(self):
        pts = [Point(np.array([1.0])), Point(np.array([1.0]))]
        with pytest.raises(PreconditionError):
            FiniteDistribution(pts, [0.5, 0.5])

    def test_signed_zero_duplicate_rejected(self):
        pts = [Point(np.array([0.0, 0.5])), Point(np.array([-0.0, 0.5]))]
        with pytest.raises(PreconditionError, match="distinct"):
            FiniteDistribution(pts, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_refused(self, bad):
        pts = [Point(np.array([1.0])), Point(np.array([-1.0]))]
        with pytest.raises(PreconditionError, match="must be finite"):
            FiniteDistribution(pts, [bad, 0.5])

    def test_negative_prob_rejected(self):
        pts = [Point(np.array([1.0])), Point(np.array([-1.0]))]
        with pytest.raises(PreconditionError):
            FiniteDistribution(pts, [1.5, -0.5])

    def test_expectation_exact(self):
        pts = [Point(np.array([1.0])), Point(np.array([-1.0]))]
        dist = FiniteDistribution(pts, [0.25, 0.75])
        assert dist.expectation(np.array([1.0, -1.0])) == pytest.approx(-0.5)


class TestClassificationError:
    def test_identity_is_zero(self):
        src = two_point_source()
        assert classification_error(src.target, src) == 0.0

    def test_negation_is_one(self):
        src = two_point_source()
        assert classification_error(negate(src.target), src) == 1.0

    def test_two_point_uniform_half(self):
        # One disagreement out of two equally likely points: 0.5.
        src = two_point_source(labels=(1, -1))
        h = Explicit.from_support(src.dist.support, (1, 1))
        assert classification_error(h, src) == 0.5
        assert brute_error(h, src) == 0.5

    def test_callable_hypothesis_accepted(self):
        src = two_point_source()
        h = lambda p: 1
        assert classification_error(h, src) == brute_error(h, src)

    def test_undefined_hypothesis_raises(self):
        src = two_point_source()
        h = Explicit({Point(np.array([0.3, 0.3])): 1})
        with pytest.raises(EvaluationError):
            classification_error(h, src)

    @pytest.mark.parametrize("labels", [(1, -1, 1), (1,)],
                             ids=["long", "short"])
    def test_label_list_must_match_support(self, labels):
        support = two_point_source().dist.support
        with pytest.raises(PreconditionError,
                           match=f"^{len(labels)} labels for 2 support"):
            Explicit.from_support(support, labels)

    def test_matches_brute_oracle_on_random_sources(self):
        for seed in range(5):
            src = make_margin_source(4, 0.2, 9, seed)
            h = LinearThreshold(np.array([0.5, -0.5, 0.5, -0.5]), 0.01)
            # Summation order differs between oracle and implementation.
            assert classification_error(h, src) == pytest.approx(
                brute_error(h, src), abs=1e-12
            )


class TestExplicit:
    def test_signed_zero_looked_up_like_zero(self):
        f = Explicit({Point(np.array([0.0, 0.5])): -1})
        X = np.array([[-0.0, 0.5], [0.0, 0.5]])
        assert f.labels_for(X).tolist() == [-1.0, -1.0]
        assert f(Point(np.array([-0.0, 0.5]))) == -1

    def test_to_json_refused_with_a_typed_error(self):
        with pytest.raises(PreconditionError, match="support"):
            two_point_source().target.to_json()


class TestExactMargin:
    # A source checks its threshold's declared margin, min over the
    # support of f(x) <w, x>, when it is assembled.
    def test_single_point_positive(self):
        # <w, e1> = 1 meets gamma = 1 exactly, which is allowed.
        e1 = Point(np.array([1.0, 0.0]))
        dist = FiniteDistribution([e1], [1.0])
        src = LabeledSource(dist, LinearThreshold(np.array([1.0, 0.0]), 1.0))
        assert src.labels.tolist() == [1.0]

    def test_single_point_negative_label(self):
        # f(e1) = -1 and <w, e1> = -1, so the margin is +1, not -1.
        e1 = Point(np.array([1.0, 0.0]))
        dist = FiniteDistribution([e1], [1.0])
        src = LabeledSource(dist, LinearThreshold(np.array([-1.0, 0.0]), 1.0))
        assert src.labels.tolist() == [-1.0]

    def test_declared_margin_holds_for_own_weights(self):
        src = make_margin_source(6, 0.25, 20, seed=3)
        margins = src.labels * (src.dist.matrix @ src.target.w)
        assert margins.min() >= 0.25

    def test_margin_violation_rejected_at_source_build(self):
        e1 = Point(np.array([0.05, 0.0]))
        dist = FiniteDistribution([e1], [1.0])
        with pytest.raises(PreconditionError):
            LabeledSource(dist, LinearThreshold(np.array([1.0, 0.0]), 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_refused(self, bad):
        with pytest.raises(PreconditionError, match="must be finite"):
            LinearThreshold(np.array([bad, 0.0]), 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_weights_keep_the_direction(self):
        f = LinearThreshold(np.array([1e200, -1e200]), 0.5)
        expected = np.array([1.0, -1.0]) * np.sqrt(0.5)
        assert np.all(np.abs(f.w - expected) <= np.spacing(np.sqrt(0.5)))


class TestSample:
    # A stream span's rows, as `batch` realizes them: the per-row reference
    # the estimator tests compare against.
    def test_point_mass_gives_copies(self):
        e1 = Point(np.array([0.3, 0.4]))
        dist = FiniteDistribution([e1], [1.0])
        src = LabeledSource(dist, Explicit.from_support([e1], (1,)))
        X, y = SampleStream(src, 7, seed=11).batch(0, 7)
        assert X.shape == (7, 2)
        assert np.all(X == e1.coords)
        assert np.all(y == 1.0)

    def test_same_seed_identical(self):
        # A span's rows depend on (source, seed, start), not on the length.
        src = two_point_source()
        Xa, ya = SampleStream(src, 50, seed=42).batch(0, 50)
        Xb, yb = SampleStream(src, 80, seed=42).batch(0, 50)
        assert np.array_equal(Xa, Xb) and np.array_equal(ya, yb)

    def test_uniform_two_point_frequencies(self):
        # Binomial(1e4, 1/2) deviates from 5000 by >500 with prob < 2e-23.
        src = two_point_source()
        X, _ = SampleStream(src, 10_000, seed=7).batch(0, 10_000)
        freq = float(np.mean(X[:, 0] == 1.0))
        assert abs(freq - 0.5) < 0.05

    def test_labels_consistent_with_target(self):
        # Every row is a support point and carries that point's label.
        src = make_margin_source(5, 0.2, 12, seed=9)
        X, y = SampleStream(src, 200, seed=1).batch(0, 200)
        hits = np.all(X[:, None, :] == src.dist.matrix[None, :, :], axis=2)
        assert np.all(hits.sum(axis=1) == 1)
        assert np.array_equal(y, src.labels[hits.argmax(axis=1)])


class TestSampleStream:
    def test_counts_sum_to_batch_size(self):
        src = make_margin_source(4, 0.2, 8, seed=2)
        stream = SampleStream(src, 1000, seed=5)
        assert stream.counts(0, 300).sum() == 300

    def test_batches_deterministic_and_start_keyed(self):
        src = two_point_source()
        stream = SampleStream(src, 100, seed=5)
        again = SampleStream(src, 100, seed=5)
        assert np.array_equal(stream.counts(10, 60), again.counts(10, 60))

    def test_out_of_range_batch_rejected(self):
        src = two_point_source()
        stream = SampleStream(src, 10, seed=0)
        with pytest.raises(PreconditionError):
            stream.counts(5, 15)

    def test_batch_labels_match_target(self):
        src = make_margin_source(3, 0.3, 6, seed=4)
        stream = SampleStream(src, 500, seed=8)
        X, y = stream.batch(100, 400)
        assert X.shape == (300, 3)
        assert np.array_equal(y, src.target.labels_for(X))

    def test_stream_frequencies_match_probs(self):
        # Multinomial(2e4, [0.2, 0.8]) concentrates within 0.05 of its mean.
        e1 = Point(np.array([1.0]))
        e2 = Point(np.array([-1.0]))
        dist = FiniteDistribution([e1, e2], [0.2, 0.8])
        src = LabeledSource(dist, Explicit.from_support([e1, e2], (1, -1)))
        stream = SampleStream(src, 20_000, seed=3)
        counts = stream.counts(0, 20_000)
        assert abs(counts[0] / 20_000 - 0.2) < 0.05


class TestEmbedHypercube:
    def test_single_bit_one(self):
        assert np.allclose(embed_hypercube([1]).coords, [1.0])

    def test_four_zeros(self):
        p = embed_hypercube([0, 0, 0, 0])
        assert np.allclose(p.coords, [-0.5, -0.5, -0.5, -0.5])
        assert np.linalg.norm(p.coords) == pytest.approx(1.0)

    def test_rejects_non_bits(self):
        with pytest.raises(PreconditionError):
            embed_hypercube([0, 2])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    def test_unit_norm_always(self, bits):
        p = embed_hypercube(bits)
        assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-12)

    def test_distinctness_preserved(self):
        d = 5
        points = {embed_hypercube([(c >> i) & 1 for i in range(d)]) for c in range(1 << d)}
        assert len(points) == 1 << d


class TestDecisionList:
    def test_hand_enumeration_three_vars(self):
        # Rules: if x0 then +1; elif not x2 then -1; else default +1.
        dl = DecisionList([(0, 1, 1), (2, 0, -1)], default=1)
        expected = {}
        for code in range(8):
            bits = [(code >> i) & 1 for i in range(3)]
            if bits[0] == 1:
                expected[code] = 1
            elif bits[2] == 0:
                expected[code] = -1
            else:
                expected[code] = 1
        for code in range(8):
            bits = [(code >> i) & 1 for i in range(3)]
            p = embed_hypercube(bits)
            assert dl(p) == expected[code]

    def test_negate_flips_everything(self):
        dl = DecisionList([(1, 0, -1)], default=1)
        flipped = dl.negate()
        assert flipped.items == ((1, 0, 1),)
        assert flipped.default == -1

    def test_out_of_range_literal_raises(self):
        dl = DecisionList([(5, 1, 1)], default=-1)
        with pytest.raises(EvaluationError):
            dl(embed_hypercube([0, 1]))

    def test_random_list_well_formed(self):
        dl = random_decision_list(8, 5, seed=13)
        assert len(dl.items) == 5
        assert len({i for i, _, _ in dl.items}) == 5


class TestNegation:
    def test_involution_pointwise(self):
        src = make_margin_source(4, 0.2, 10, seed=6)
        f = src.target
        X = src.dist.matrix
        assert np.array_equal(negate(negate(f)).labels_for(X), f.labels_for(X))

    def test_linear_threshold_negation_is_weight_flip(self):
        f = LinearThreshold(np.array([0.6, -0.3]), 0.1)
        g = LinearThreshold(np.array([-0.6, 0.3]), 0.1)
        X = np.array([[0.5, 0.5], [-0.2, 0.9], [0.0, -1.0]])
        assert np.array_equal(negate(f).labels_for(X), g.labels_for(X))

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_error_complement_sums_to_one(self, seed):
        src = make_margin_source(3, 0.2, 7, seed=seed, probs="random")
        h = random_decision_list(3, 2, seed=seed + 1)
        e_pos = classification_error(h, src)
        e_neg = classification_error(negate(h), src)
        assert e_pos + e_neg == pytest.approx(1.0, abs=1e-15)


class TestSignp:
    def test_zero_is_positive(self):
        assert signp(0.0) == 1.0

    def test_vector(self):
        assert np.array_equal(signp(np.array([-2.0, 0.0, 3.0])), [-1.0, 1.0, 1.0])


class TestSourceBuilders:
    def test_margin_source_respects_declared_margin(self):
        for seed in range(4):
            src = make_margin_source(10, 0.3, 25, seed=seed)
            margins = src.labels * (src.dist.matrix @ src.target.w)
            assert margins.min() >= 0.3 - 1e-12

    def test_margin_source_support_in_ball(self):
        src = make_margin_source(8, 0.15, 30, seed=1)
        norms = np.linalg.norm(src.dist.matrix, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_uniform_hypercube_source_complete(self):
        dl = DecisionList([(0, 1, 1)], default=-1)
        src = uniform_hypercube_source(3, dl)
        assert len(src.dist) == 8
        assert np.allclose(src.dist.probs, 1 / 8)

    def test_uniform_hypercube_balanced_literal(self):
        # Any single literal fires on exactly half the cube.
        dl = DecisionList([(2, 1, 1)], default=-1)
        src = uniform_hypercube_source(4, dl)
        fire_mass = float(np.sum(src.dist.probs * (src.labels == 1.0)))
        assert fire_mass == pytest.approx(0.5)
