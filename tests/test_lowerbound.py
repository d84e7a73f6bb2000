"""Tests for the simplex solver, adversarial certificates, and fooling demo.

The LP is checked against a brute-force grid over the probability simplex
(step 0.01) on instance families whose optima land exactly on that grid,
plus one analytic off-grid instance known in closed form.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsq import lowerbound
from localsq._rng import generator
from localsq.core import (
    DecisionList,
    Explicit,
    FiniteDistribution,
    LabeledSource,
    Point,
    embed_hypercube,
    hypercube_rows,
    random_decision_list,
)
from localsq.errors import (
    ContractViolation,
    EvaluationError,
    PreconditionError,
    ProtocolError,
    SolverError,
)
from localsq.lowerbound import (
    AdversarialCertificate,
    HypothesisSet,
    SingleProbeDriver,
    correlation_cover_check,
    make_shipped_negation_demo,
    negation_fooling_demo,
    run_shipped_negation_demo,
    solve_lp,
    table_function,
    worst_correlation_distribution,
)
from localsq.sq import StatQuery


def simplex_grid(n, step=0.01):
    """All distributions over n points with entries on the step grid."""
    k = round(1 / step)
    if n == 2:
        return np.array([(i / k, (k - i) / k) for i in range(k + 1)])
    if n == 3:
        return np.array([
            (i / k, j / k, (k - i - j) / k)
            for i in range(k + 1) for j in range(k + 1 - i)
        ])
    if n == 4:
        out = []
        for i in range(k + 1):
            for j in range(k + 1 - i):
                for l in range(k + 1 - i - j):
                    out.append((i / k, j / k, l / k, (k - i - j - l) / k))
        return np.array(out)
    raise ValueError("grid oracle supports n <= 4 only")


def grid_minimax(corr_rows, grid):
    """Brute-force min over the grid of max_i |row_i . D|."""
    return float(np.abs(np.asarray(corr_rows) @ grid.T).max(axis=0).min())


def three_points():
    return tuple(Point(np.array(v))
                 for v in ((0.6, 0.0), (0.0, 0.6), (-0.6, 0.0)))


def correlation_instance(bits, n_rows, seed):
    """The benchmark's LP shape: the whole `bits`-bit cube, `n_rows` random
    +-1 table hypotheses and a random length-3 decision-list target."""
    points = tuple(embed_hypercube([(code >> b) & 1 for b in range(bits)])
                   for code in range(1 << bits))
    rng = np.random.default_rng(seed)
    rows = 2.0 * rng.integers(0, 2, (n_rows, len(points))) - 1.0
    hset = HypothesisSet(tuple(table_function(points, r) for r in rows))
    return random_decision_list(bits, 3, seed), hset, points


PINNED_ITERATIONS = [76, 52, 92, 129, 73, 71, 79, 59, 44, 54, 57, 82, 4973]
PINNED_DIGEST = (
    "04e012e8f57c9ccd5bc150f0da41d390f3cb0710fa89dafc80bb930043a88e5e")


class TestSolveLp:
    def test_single_bound(self):
        sol = solve_lp(c=[-1.0], a_ub=[[1.0]], b_ub=[5.0])
        assert sol.x[0] == pytest.approx(5.0)
        assert sol.value == pytest.approx(-5.0)

    def test_equality_constraint(self):
        sol = solve_lp(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert sol.value == pytest.approx(1.0)
        assert np.allclose(sol.x, [1.0, 0.0])

    def test_redundant_rows_tolerated(self):
        sol = solve_lp(
            c=[1.0, 0.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 1.0],
        )
        assert sol.value == pytest.approx(0.0)

    def test_infeasible_raises(self):
        with pytest.raises(SolverError):
            solve_lp(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0])

    def test_unbounded_raises(self):
        with pytest.raises(SolverError):
            solve_lp(c=[-1.0], a_ub=[[0.0]], b_ub=[1.0])

    def test_iteration_cap_dump(self):
        with pytest.raises(SolverError) as info:
            solve_lp(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                     max_iterations=0)
        assert isinstance(info.value.dump, dict)

    def test_pivot_sequence_pinned(self, monkeypatch):
        # Recorded on the simplex that starts phase 1 from the slack basis
        # and reads x from the final basis. Bland's rule fixes the pivot
        # sequence, so any rewrite of the tableau arithmetic must reproduce
        # every iteration count and every byte of x, the duals and D (on
        # IEEE doubles and the BLAS build these were recorded with).
        solved = []

        def recording(*args, **kwargs):
            sol = solve_lp(*args, **kwargs)
            solved.append(sol)
            return sol

        monkeypatch.setattr(lowerbound, "solve_lp", recording)
        digest = hashlib.sha256()
        for bits, n_rows, seed in [(6, 16, s) for s in range(12)] + [(8, 64, 0)]:
            cert = worst_correlation_distribution(
                *correlation_instance(bits, n_rows, seed))
            for arr in (solved[-1].x, solved[-1].dual, cert.dist.probs):
                digest.update(arr.tobytes())
        assert [s.iterations for s in solved] == PINNED_ITERATIONS
        assert digest.hexdigest() == PINNED_DIGEST

    @pytest.mark.parametrize("program, keys", [
        (dict(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]), {"infeasibility", "basis"}),
        (dict(c=[-1.0], a_ub=[[0.0]], b_ub=[1.0]), {"entering", "basis"}),
        (dict(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], max_iterations=0),
         {"iterations", "basis", "objective"}),
    ], ids=["infeasible", "unbounded", "iteration-cap"])
    def test_refusal_dumps_are_plain_json(self, program, keys):
        with pytest.raises(SolverError) as info:
            solve_lp(**program)
        dump = info.value.dump
        assert set(dump) == keys
        assert all(type(v) is int for v in dump["basis"])
        assert json.loads(json.dumps(dump)) == dump

    def test_unoptimal_final_basis_refused(self, monkeypatch):
        # Phase 2 stopped after 0 pivots leaves x = 0 on the slack basis for
        # min -x s.t. x <= 5, whose optimum is -5. Its reduced cost of -1
        # gives it away, and the dump carries x and the duals as plain JSON.
        phase = lowerbound._simplex_phase

        def no_phase_2(T, basis, cost, max_iterations, dump_label):
            if dump_label == "phase 2":
                return 0
            return phase(T, basis, cost, max_iterations, dump_label)

        monkeypatch.setattr(lowerbound, "_simplex_phase", no_phase_2)
        with pytest.raises(SolverError, match="reduced cost -1") as info:
            solve_lp(c=[-1.0], a_ub=[[1.0]], b_ub=[5.0])
        dump = info.value.dump
        assert dump == {"x": [0.0], "dual": [0.0]}
        assert json.loads(json.dumps(dump)) == dump

    def test_no_constraints_rejected(self):
        with pytest.raises(PreconditionError):
            solve_lp(c=[1.0])

    @given(st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_random_feasible_programs_certified(self, seed):
        # Box-bounded feasible LPs: optimum exists, the solver's reduced
        # costs certify it (or it refuses), and HiGHS must find the same
        # optimum, also with an equality row added.
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(seed)
        n, k = rng.integers(2, 5), rng.integers(1, 4)
        A = rng.uniform(-1, 1, size=(k, n))
        x0 = rng.uniform(0, 1, size=n)
        b = A @ x0 + rng.uniform(0, 0.5, size=k)
        c = rng.uniform(-1, 1, size=n)
        box = np.eye(n)
        a_ub = np.vstack([A, box])
        b_ub = np.concatenate([b, np.ones(n)])
        sol = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub)
        assert np.all(sol.x >= -1e-9)
        assert np.all(A @ sol.x <= b + 1e-9)
        assert sol.value <= c @ x0 + 1e-9
        highs = linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
        assert highs.status == 0
        assert sol.value == pytest.approx(highs.fun, abs=1e-7)

        a_eq = rng.uniform(-1, 1, size=(1, n))
        b_eq = a_eq @ x0
        sol = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        assert np.allclose(a_eq @ sol.x, b_eq, atol=1e-9)
        highs = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                        method="highs")
        assert highs.status == 0
        assert sol.value == pytest.approx(highs.fun, abs=1e-7)


class TestTableFunction:
    def points(self):
        return tuple(Point(np.array(v)) for v in ((0.0, 0.5), (0.5, 0.0)))

    def test_batch_lookup(self):
        a, b = self.points()
        fn = table_function((a, b), (1, -0.5))
        X = np.vstack([b.coords, a.coords, b.coords])
        assert fn(X).tolist() == [-0.5, 1.0, -0.5]

    @pytest.mark.parametrize("make", [Explicit, table_function])
    @pytest.mark.parametrize("rows", [
        [[0.0, 0.5], [0.5, 0.0], [0.0, 0.5]],
        [[0.0, 0.5], [-0.0, 0.5]],
    ], ids=["repeat", "signed-zero"])
    def test_repeated_row_refused(self, make, rows):
        with pytest.raises(PreconditionError,
                           match="support entries must be distinct"):
            make(rows, [1] * len(rows))

    def test_tables_on_one_domain_share_their_row_index(self):
        # A hypothesis set or a class holds many tables on one domain; each
        # keeps only its values, not a copy of the row keys.
        points = self.points()
        tables = [table_function(points, (1, -1)),
                  table_function(np.vstack(points), (0.5, 0.25)),
                  Explicit(points, (1, 1))]
        tables.append(tables[-1].negate())
        assert len({id(t._index) for t in tables}) == 1

    def test_missing_point_raises(self):
        a, b = self.points()
        fn = table_function((a,), (1,))
        with pytest.raises(EvaluationError):
            fn(np.vstack([a.coords, b.coords]))
        with pytest.raises(EvaluationError):
            fn(np.array([[0.0, 0.5, 0.0]]))

    @pytest.mark.parametrize("make", [Explicit, table_function])
    @pytest.mark.parametrize("row", [[0.0, 0.5], [-0.0, 0.5]])
    def test_signed_zero_looked_up_like_zero(self, make, row):
        # Rows match by their bytes with -0.0 read as 0.0, in the table
        # and in the query.
        table = make([row], (-1,))
        X = np.array([[-0.0, 0.5], [0.0, 0.5]])
        assert table(X).tolist() == [-1.0, -1.0]
        assert table(Point(np.array([-0.0, 0.5])).coords[None, :]
                     ).tolist() == [-1.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_explicit_and_table_function_look_up_alike(self, seed):
        # One table behind both: the same values on shuffled subsets of a
        # random point set, the same refusals off it and at another width.
        rng = generator(seed)
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        points = rng.uniform(-0.4, 0.4, (n, d))
        labels = [int(v) for v in 2 * rng.integers(0, 2, n) - 1]
        f, fn = Explicit(points, labels), table_function(points, labels)
        for _ in range(5):
            X = points[rng.permutation(n)[:int(rng.integers(1, n + 1))]]
            assert np.array_equal(f.labels_for(X), fn(X))
            assert np.array_equal(f.negate().labels_for(X), -fn(X))
        assert np.array_equal(f.negate().labels_for(points), -np.array(labels))
        for off in (points[:1] + 1.0, np.zeros((1, d + 1)), np.zeros((1, 0))):
            for lookup in (f.labels_for, fn):
                with pytest.raises(EvaluationError):
                    lookup(off)
        for lookup in (f.labels_for, fn):
            assert lookup(np.zeros((0, d))).shape == (0,)

    def test_empty_batch(self):
        a, _ = self.points()
        out = table_function((a,), (1,))(np.zeros((0, 2)))
        assert out.shape == (0,)

    def test_construction_refusals(self):
        a, b = self.points()
        with pytest.raises(PreconditionError):
            table_function((a, b), (1, 1.5))
        with pytest.raises(PreconditionError):
            table_function((a, b), (1,))
        with pytest.raises(PreconditionError):
            table_function((), ())
        with pytest.raises(PreconditionError):
            table_function((a, Point(np.array([0.1, 0.2, 0.3]))), (1, 1))
        with pytest.raises(PreconditionError):
            table_function((Point(np.array([])),), (1,))

    def test_nan_value_refused(self):
        a, b = self.points()
        with pytest.raises(PreconditionError):
            table_function((a, b), (np.nan, 0.5))

    def test_hypothesis_set_refuses_nan_values(self):
        a, b = self.points()
        hset = HypothesisSet((table_function((a, b), (1, -1)),
                              lambda X: np.full(X.shape[0], np.nan)))
        with pytest.raises(ContractViolation):
            hset.evaluate(np.vstack([a.coords, b.coords]))

    def test_hypothesis_set_refuses_ragged_hypotheses(self):
        # Outputs of different lengths are refused one hypothesis at a
        # time, before stacking, so no raw numpy error escapes.
        a, b = self.points()
        X = np.vstack([a.coords, b.coords])
        hset = HypothesisSet((table_function((a, b), (1, -1)),
                              lambda X: np.zeros(X.shape[0] + 1)))
        with pytest.raises(ContractViolation, match="shape"):
            hset.evaluate(X)

    def test_hypothesis_set_on_an_empty_batch(self):
        a, _ = self.points()
        hset = HypothesisSet((lambda X: np.zeros(X.shape[0]),
                              table_function((a,), (1,))))
        out = hset.evaluate(np.zeros((0, 2)))
        assert out.shape == (2, 0)
        # An out-of-range or NaN value is still refused on a non-empty batch.
        with pytest.raises(ContractViolation):
            HypothesisSet((lambda X: np.full(X.shape[0], np.nan),)).evaluate(
                np.zeros((1, 2)))


class TestWorstCorrelationDistribution:
    def test_self_set_has_value_one(self):
        pts = three_points()
        f = Explicit(pts, (1, -1, 1))
        hset = HypothesisSet((table_function(pts, (1, -1, 1)),))
        cert = worst_correlation_distribution(f, hset, pts)
        assert cert.value == pytest.approx(1.0)

    def test_two_point_balance(self):
        pts = (Point(np.array([0.5])), Point(np.array([-0.5])))
        f = Explicit(pts, (1, 1))
        hset = HypothesisSet((table_function(pts, (1, -1)),))
        cert = worst_correlation_distribution(f, hset, pts)
        assert cert.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(cert.dist.probs, [0.5, 0.5])

    def test_analytic_off_grid_third(self):
        # Three correlation rows (1,-1,-1), (-1,1,-1), (-1,-1,1) force the
        # uniform distribution and value exactly 1/3.
        pts = three_points()
        f = Explicit(pts, (1, 1, 1))
        hset = HypothesisSet((
            table_function(pts, (1, -1, -1)),
            table_function(pts, (-1, 1, -1)),
            table_function(pts, (-1, -1, 1)),
        ))
        cert = worst_correlation_distribution(f, hset, pts)
        assert abs(cert.value - 1.0 / 3.0) <= 1e-9

    def test_certificate_recomputes(self):
        pts = three_points()
        f = Explicit(pts, (1, -1, 1))
        hset = HypothesisSet((
            table_function(pts, (1, 1, -1)),
            table_function(pts, (0.5, -0.5, 0.5)),
        ))
        cert = worst_correlation_distribution(f, hset, pts)
        assert abs(cert.recompute_value(hset) - cert.value) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_value_is_the_recomputed_value_exactly(self, seed):
        # The value is taken from the matrices the LP was built on; it must
        # be the certificate's own recomputation, bit for bit. Odd seeds use
        # real-valued hypotheses instead of +-1 tables.
        f, hset, points = correlation_instance(4, 6, seed)
        if seed % 2:
            rng = np.random.default_rng(seed)
            hset = HypothesisSet(tuple(
                table_function(points, rng.uniform(-1.0, 1.0, len(points)))
                for _ in range(6)))
        cert = worst_correlation_distribution(f, hset, points)
        assert cert.value == cert.recompute_value(hset)

    def test_never_beats_grid(self):
        # The grid is a feasible subset, so the LP optimum is at most the
        # grid minimum on every instance, on-grid optimum or not.
        rng = np.random.default_rng(7)
        pts = three_points()
        grid = simplex_grid(3)
        for _ in range(25):
            f_pat = rng.choice([-1.0, 1.0], size=3)
            rows = rng.choice([-1.0, 1.0], size=(int(rng.integers(1, 4)), 3))
            f = Explicit(pts, tuple(int(v) for v in f_pat))
            hset = HypothesisSet(tuple(table_function(pts, r) for r in rows))
            cert = worst_correlation_distribution(f, hset, pts)
            assert cert.value <= grid_minimax(rows * f_pat, grid) + 1e-9

    def test_grid_exact_family_sample(self):
        # Sign patterns of magnitude 1 and 1/2, at most two nonzero rows:
        # every optimum lands exactly on the 0.01 grid.
        pts = three_points()
        grid = simplex_grid(3)
        patterns = list(itertools.product((-1.0, 1.0), repeat=3))
        rows_pool = [np.array(p) for p in patterns]
        rows_pool += [0.5 * np.array(p) for p in patterns]
        f_pat = np.array([1.0, -1.0, 1.0])
        f = Explicit(pts, (1, -1, 1))
        checked = 0
        for i, j in itertools.combinations(range(len(rows_pool)), 2):
            if checked >= 40:
                break
            rows = [rows_pool[i], rows_pool[j]]
            hset = HypothesisSet(tuple(table_function(pts, r) for r in rows))
            cert = worst_correlation_distribution(f, hset, pts)
            assert abs(cert.value - grid_minimax(np.array(rows) * f_pat,
                                                 grid)) <= 1e-3
            checked += 1

    def test_empty_inputs_rejected(self):
        pts = three_points()
        f = Explicit(pts, (1, 1, 1))
        with pytest.raises(PreconditionError):
            worst_correlation_distribution(f, HypothesisSet(()), pts)
        with pytest.raises(PreconditionError):
            worst_correlation_distribution(
                f, HypothesisSet((table_function(pts, (1, 1, 1)),)), ()
            )

    def test_certificate_json_shape(self):
        pts = three_points()
        f = Explicit(pts, (1, -1, 1))
        hset = HypothesisSet((table_function(pts, (1, 1, -1)),))
        obj = worst_correlation_distribution(f, hset, pts).to_json()
        assert set(obj) == {"D", "value", "target"}
        assert obj["target"]["kind"] == "explicit"
        assert len(obj["D"]) == 3

    @pytest.mark.parametrize("labels", [
        np.ones(64), -np.ones(64), *generator(1).choice([-1.0, 1.0], (3, 64)),
    ], ids=["constant+1", "constant-1", "random0", "random1", "random2"])
    def test_degenerate_cube_programs_match_highs(self, labels):
        # The 6-bit cube with 64 random +-1 hypotheses: all 128 inequality
        # rows have b = 0, so the program is highly degenerate. The
        # constant -1 target once made the solver refuse.
        linprog = pytest.importorskip("scipy.optimize").linprog
        points = hypercube_rows(6)
        rows = generator(0).choice([-1.0, 1.0], (64, 64))
        hset = HypothesisSet(tuple(table_function(points, r) for r in rows))
        cert = worst_correlation_distribution(Explicit(points, labels), hset,
                                              points)
        corr = rows * labels
        ones = np.ones((64, 1))
        highs = linprog(np.r_[np.zeros(64), 1.0],
                        A_ub=np.vstack([np.hstack([corr, -ones]),
                                        np.hstack([-corr, -ones])]),
                        b_ub=np.zeros(128), A_eq=np.r_[np.ones(64), 0.0][None],
                        b_eq=[1.0], method="highs")
        assert highs.status == 0
        assert abs(cert.value - highs.fun) <= 1e-9


def all_two_bit_decision_lists():
    """Every decision list over two embedded bits, one per label pattern."""
    lists = [DecisionList([], d) for d in (-1, 1)]
    for v, p, o, d in itertools.product((0, 1), (0, 1), (-1, 1), (-1, 1)):
        lists.append(DecisionList([(v, p, o)], d))
    for v in (0, 1):
        for p1, o1, p2, o2, d in itertools.product(
            (0, 1), (-1, 1), (0, 1), (-1, 1), (-1, 1)
        ):
            lists.append(DecisionList([(v, p1, o1), (1 - v, p2, o2)], d))
    pts = [embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1)]
    matrix = np.vstack([p.coords for p in pts])
    seen, unique = set(), []
    for dl in lists:
        key = dl.labels_for(matrix).tobytes()
        if key not in seen:
            seen.add(key)
            unique.append(dl)
    return tuple(pts), tuple(unique)


class TestCoverCheck:
    def test_self_cover(self):
        pts = three_points()
        f = Explicit(pts, (1, -1, 1))
        hset = HypothesisSet((table_function(pts, (1, -1, 1)),))
        assert correlation_cover_check(hset, (f, f.negate()), pts, 0.5) \
            is None

    def test_witness_index_past_a_covered_target(self):
        # h carries the hypothesis's own labels, so it stays covered; f is
        # suppressed by splitting the mass between its first two points.
        pts = three_points()
        h, f = Explicit(pts, (1, -1, 1)), Explicit(pts, (1, 1, 1))
        hset = HypothesisSet((table_function(pts, (1, -1, 1)),))
        index, cert = correlation_cover_check(hset, (h, f), pts, 0.5)
        assert index == 1
        assert cert.target is f
        assert cert.value < 0.5

    def test_empty_set_never_covers(self):
        pts = three_points()
        f = Explicit(pts, (1, -1, 1))
        index, cert = correlation_cover_check(HypothesisSet(()), (f,), pts,
                                              0.5)
        assert index == 0
        assert cert.target is f
        assert cert.value == 0.0

    def test_two_bit_lists_match_grid_verdict(self):
        # Threshold 0.4 sits strictly between the attainable optima 1/3 and
        # 1/2, so the verdicts cannot straddle it numerically.
        pts, lists = all_two_bit_decision_lists()
        assert len(lists) == 14
        matrix = np.vstack([p.coords for p in pts])
        grid = simplex_grid(4, step=0.02)
        rng = np.random.default_rng(3)
        for _ in range(6):
            rows = rng.choice([-1.0, 1.0], size=(2, 4))
            hset = HypothesisSet(tuple(table_function(pts, r) for r in rows))
            witness = correlation_cover_check(hset, lists, pts, 0.4)
            brute = next((i for i, dl in enumerate(lists) if grid_minimax(
                rows * dl.labels_for(matrix), grid) < 0.4 - 1e-9), None)
            assert (None if witness is None else witness[0]) == brute


class LabelBlindDriver:
    """A driver that never asks about labels at all."""

    max_queries = 1

    def __init__(self, points):
        self._points = tuple(points)
        self._done = False

    def begin(self):
        return [StatQuery(fn=lambda X, y: X[:, 0], tau=0.5,
                          label_dependent=False)]

    def feed(self, answers):
        self._done = True
        return None

    def result(self):
        return Explicit(self._points,
                                     (1,) * len(self._points))


class ProbesDriver:
    """Two label-correlation probes, as one width-2 block or as two queries."""

    max_queries = 2

    def __init__(self, points, patterns, tau, block):
        self._probes = [Explicit(points, p) for p in patterns]
        self._tau, self._block, self._answers = tau, block, None

    def begin(self):
        if self._block:
            def fn(X, y):
                return y[:, None] * np.column_stack(
                    [p.labels_for(X) for p in self._probes])
            return [StatQuery(fn=fn, tau=self._tau, label_dependent=True,
                              width=2)]

        def probe(p):
            return lambda X, y: y * p.labels_for(X)
        return [StatQuery(fn=probe(p), tau=self._tau, label_dependent=True)
                for p in self._probes]

    def feed(self, answers):
        self._answers = list(answers)
        return None

    def result(self):
        first = self._probes[0]
        return first if self._answers[0] >= 0 else first.negate()


class AdaptiveDriver(SingleProbeDriver):
    def feed(self, answers):
        super().feed(answers)
        return self.begin()


class TestNegationFooling:
    def test_shipped_demo_properties(self):
        for seed in range(10):
            rep = run_shipped_negation_demo(seed)
            assert rep.found
            assert rep.identical_transcripts
            assert rep.error_target + rep.error_negation == pytest.approx(1.0)
            assert rep.max_error >= 0.5
            assert rep.certificate.value < 0.5

    def test_probing_target_itself_finds_nothing(self):
        pts = tuple(embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1))
        f_labels = (1, -1, -1, 1)
        f = Explicit(pts, f_labels)

        def factory():
            return SingleProbeDriver(pts, f_labels, tau=0.5)

        rep = negation_fooling_demo(factory, (f, f.negate()), pts, 2)
        assert not rep.found
        assert rep.certificate is None

    def test_label_blind_driver_fooled_trivially(self):
        pts = tuple(embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1))
        f = Explicit(pts, (1, -1, -1, 1))
        rep = negation_fooling_demo(lambda: LabelBlindDriver(pts),
                                    (f, f.negate()), pts, 2)
        assert rep.found
        assert rep.identical_transcripts
        assert rep.error_target + rep.error_negation == pytest.approx(1.0)

    def test_open_class_rejected(self):
        pts = tuple(embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1))
        f = Explicit(pts, (1, -1, -1, 1))
        with pytest.raises(PreconditionError):
            negation_fooling_demo(lambda: LabelBlindDriver(pts), (f,), pts, 2)

    def test_low_tolerance_rejected(self):
        factory, targets, pts, m = make_shipped_negation_demo(0)

        def tight_factory():
            driver = factory()
            driver._tau = 0.1  # below 1/m
            return driver

        with pytest.raises(PreconditionError):
            negation_fooling_demo(tight_factory, targets, pts, m)

    def test_adaptive_driver_rejected(self):
        pts = tuple(embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1))
        f = Explicit(pts, (1, -1, -1, 1))

        def factory():
            return AdaptiveDriver(pts, (1, 1, 1, -1), tau=0.5)

        with pytest.raises(PreconditionError):
            negation_fooling_demo(factory, (f, f.negate()), pts, 2)

    @pytest.mark.parametrize("patterns", [
        ((1, 1, 1, -1), (1, 1, -1, 1)),  # neither probe covers the target
        ((1, 1, 1, 1), (1, -1, -1, 1)),  # the second coordinate is it
    ])
    def test_width_two_block_is_two_coordinates(self, patterns):
        # Each coordinate of a block is its own direction, and the block
        # counts its width against m, as the adversarial oracle does.
        pts = tuple(embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1))
        f = Explicit(pts, (1, -1, -1, 1))
        reports = [negation_fooling_demo(
            lambda block=block: ProbesDriver(pts, patterns, 0.5, block),
            (f, f.negate()), pts, 2).to_json() for block in (True, False)]
        assert reports[0] == reports[1]
        assert reports[0]["found"] == (patterns[1] != (1, -1, -1, 1))

    def test_width_two_block_over_budget_rejected(self):
        pts = tuple(embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1))
        f = Explicit(pts, (1, -1, -1, 1))
        with pytest.raises(PreconditionError, match="2 label-dependent "
                           "coordinates, above 1"):
            negation_fooling_demo(
                lambda: ProbesDriver(pts, ((1, 1, 1, -1), (1, 1, -1, 1)),
                                     1.0, True), (f, f.negate()), pts, 1)

    def test_shipped_domain_is_the_cube_in_a_major_order(self):
        _, _, pts, _ = make_shipped_negation_demo(0)
        expected = [embed_hypercube([a, b]).coords
                    for a in (0, 1) for b in (0, 1)]
        assert np.vstack([p.coords for p in pts]).tobytes() == \
            np.vstack(expected).tobytes()

    def test_report_json_shape(self):
        rep = run_shipped_negation_demo(1)
        obj = rep.to_json()
        assert set(obj) == {
            "found", "certificate", "answers_f", "answers_neg",
            "identical_transcripts", "error_f", "error_neg", "max_error",
        }

    def test_probe_driver_result_gate(self):
        pts = tuple(embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1))
        driver = SingleProbeDriver(pts, (1, 1, -1, -1), tau=0.5)
        with pytest.raises(ProtocolError):
            driver.result()

    def test_probe_driver_flips_on_negative_answer(self):
        pts = tuple(embed_hypercube([a, b]) for a in (0, 1) for b in (0, 1))
        matrix = np.vstack([p.coords for p in pts])
        driver = SingleProbeDriver(pts, (1, 1, -1, -1), tau=0.5)
        driver.begin()
        driver.feed([-0.2])
        assert np.array_equal(driver.result().labels_for(matrix),
                              [-1, -1, 1, 1])
