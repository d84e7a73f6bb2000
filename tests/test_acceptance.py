"""End-to-end acceptance battery.

Twelve checks, one per shipped guarantee, each printing a single
CRITERION nn <name>: PASS/FAIL line with timing and the measured
quantities. Run with `pytest tests/test_acceptance.py -v -s` to see the
lines on passing runs as well.
"""

import filecmp
import functools
import itertools
import math
import time

import numpy as np
import pytest

from localsq._rng import derive_seed
from localsq.baselines import (
    DlDriver,
    DlLearnerConfig,
    learn_decision_list_sq,
)
from localsq.cli import main as cli_main
from localsq.comm import ONE_BIT, compile_sq_to_comm
from localsq.core import (
    Explicit,
    Point,
    SampleStream,
    classification_error,
    make_margin_source,
    random_decision_list,
    uniform_hypercube_source,
)
from localsq.errors import LearningFailure
from localsq.ldp import (
    compile_sq_to_ldp,
    ldp_batch_size,
    ldp_channel,
)
from localsq.lowerbound import (
    HypothesisSet,
    run_shipped_negation_demo,
    table_function,
    worst_correlation_distribution,
)
from localsq.margin_learner import (
    SurrogateParams,
    grad_f1_query,
    grad_f2_query,
    jl_project,
    learn_halfspace,
    surrogate_value,
)
from localsq.sq import ExactOracle, StatQuery


def criterion(index, name, budget_s):
    """Print one pass/fail line per check; enforce the runtime budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"CRITERION {index:02d} {name}: FAIL ({exc})",
                      flush=True)
                raise
            elapsed = time.time() - start
            line = (f"CRITERION {index:02d} {name}: PASS "
                    f"({detail}; {elapsed:.2f}s of {budget_s:g}s budget)")
            print(line, flush=True)
            assert elapsed < budget_s, line
        return run
    return wrap


# ---------------------------------------------------------------------------
# 1. Local privacy of the randomized-response channel.


@criterion(1, "channel privacy ratio", 1.0)
def test_criterion_01_privacy():
    # The ratio of the float64 probabilities the channel draws from.
    worst_gap = 0.0
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
        ratio = ldp_channel(eps).privacy_ratio()
        assert ratio <= math.exp(eps) + 1e-9, (eps, ratio)
        worst_gap = max(worst_gap, ratio - math.exp(eps))
    return f"5 epsilon values, worst ratio minus e^eps = {worst_gap:.2e}"


# ---------------------------------------------------------------------------
# 2./3. Compiled one-round probes versus exact means.


class _OneRoundDriver:
    """Asks a preset query list once and returns the raw answers."""

    def __init__(self, queries):
        self._queries = list(queries)
        self.max_queries = len(self._queries)
        self._answers = None

    def begin(self):
        return list(self._queries)

    def feed(self, answers):
        self._answers = tuple(float(a) for a in answers)
        return None

    def result(self):
        return self._answers


def _probe_queries(t, tau):
    # Alternates label-dependent and label-free coordinate means.
    qs = []
    for j in range(t):
        c = j % 3
        if j % 2:
            qs.append(StatQuery(fn=lambda X, y, c=c: y * X[:, c],
                                tau=tau, label_dependent=True))
        else:
            qs.append(StatQuery(fn=lambda X, y, c=c: X[:, c],
                                tau=tau, label_dependent=False))
    return qs


def _exact_answers(src, queries):
    X, y, p = src.dist.matrix, src.labels, src.dist.probs
    return [float(np.dot(p, q.fn(X, y))) for q in queries]


def _compiler_failure_fraction(channel, trials=200, t=10, tau=0.1,
                               delta=0.1, epsilon=1.0):
    src = make_margin_source(3, 0.25, 12, derive_seed(0, "acc-probe-src"))
    exact = _exact_answers(src, _probe_queries(t, tau))
    if channel == "ldp":
        batch = ldp_batch_size(t, tau, delta, epsilon)
    else:
        batch = ONE_BIT.batch_size(t, tau, delta)
    failures = 0
    for trial in range(trials):
        driver = _OneRoundDriver(_probe_queries(t, tau))
        S = SampleStream(src, t * batch,
                         derive_seed(0, f"acc-{channel}-stream", trial))
        chan_seed = derive_seed(0, f"acc-{channel}-chan", trial)
        if channel == "ldp":
            answers, _ = compile_sq_to_ldp(driver, S, epsilon=epsilon,
                                           tau=tau, delta=delta,
                                           seed=chan_seed)
        else:
            answers, _ = compile_sq_to_comm(driver, S, tau=tau, delta=delta,
                                            seed=chan_seed)
        if max(abs(a - e) for a, e in zip(answers, exact)) > tau:
            failures += 1
    return failures / trials


@criterion(2, "sq-to-ldp compiler tolerance", 60.0)
def test_criterion_02_ldp_compiler():
    frac = _compiler_failure_fraction("ldp")
    assert frac <= 0.1, frac
    return f"failure fraction {frac} over 200 trials, bound 0.1"


@criterion(3, "sq-to-comm compiler tolerance", 60.0)
def test_criterion_03_comm_compiler():
    frac = _compiler_failure_fraction("comm")
    assert frac <= 0.1, frac
    return f"failure fraction {frac} over 200 trials, bound 0.1"


# ---------------------------------------------------------------------------
# 4. Surrogate objective: zero at the planted normal, nonnegative
#    everywhere, and low value forces low margin-violation mass.


@criterion(4, "surrogate objective properties", 30.0)
def test_criterion_04_surrogate():
    rng = np.random.default_rng(derive_seed(0, "acc-surrogate"))

    worst_opt = 0.0
    for i in range(50):
        d = int(rng.integers(2, 21))
        gamma = float(rng.choice([0.15, 0.2, 0.25, 0.3, 0.4]))
        n = int(rng.integers(5, 61))
        src = make_margin_source(d, gamma, n, derive_seed(0, "acc4-src", i))
        params = SurrogateParams(gamma=gamma, alpha=0.2, dim=d)
        val = surrogate_value(src.target.w, src, params)
        assert abs(val) <= 1e-9, (i, val)
        worst_opt = max(worst_opt, abs(val))

    markov_checked = 0
    min_f = math.inf
    pairs = 0
    for i in range(20):
        d = int(rng.integers(2, 21))
        gamma = float(rng.choice([0.2, 0.25, 0.3]))
        src = make_margin_source(d, gamma, int(rng.integers(5, 41)),
                                 derive_seed(0, "acc4-pair-src", i))
        params = SurrogateParams(gamma=gamma, alpha=0.2, dim=d)
        threshold = -params.beta / 2.0 + gamma**2 / math.sqrt(d)
        w_star = src.target.w
        for _ in range(50):
            pairs += 1
            if pairs % 2:
                w = rng.uniform(-1.0, 1.0, size=d)
                w *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(w), 1e-12)
            else:
                # Blend toward the planted normal so the low-value
                # premise of the mass bound actually triggers.
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                w = w_star + rng.uniform(0.0, 0.03) * u
                if np.linalg.norm(w) > 1.0:
                    w /= np.linalg.norm(w)
            val = surrogate_value(w, src, params)
            assert val >= -1e-12, (i, val)
            min_f = min(min_f, val)
            if val <= params.alpha * params.beta:
                margins = src.labels * (src.dist.matrix @ w)
                bad = float(np.sum(src.dist.probs * (margins <= threshold)))
                assert bad <= params.alpha + 1e-12, (i, val, bad)
                markov_checked += 1
    assert pairs == 1000, pairs
    assert markov_checked >= 50, markov_checked
    return (f"50 sources optimal to {worst_opt:.1e}, {pairs} pairs with "
            f"min value {min_f:.1e}, mass bound exercised on "
            f"{markov_checked} low-value pairs")


# ---------------------------------------------------------------------------
# 5. Oracle-path gradients versus central finite differences.


@criterion(5, "gradient finite-difference match", 30.0)
def test_criterion_05_gradients():
    h = 1e-5
    rng = np.random.default_rng(derive_seed(0, "acc-gradients"))
    worst = 0.0
    for i in range(10):
        d = int(rng.integers(3, 7))
        gamma = float(rng.choice([0.2, 0.25, 0.3]))
        src = make_margin_source(d, gamma, int(rng.integers(8, 16)),
                                 derive_seed(0, "acc5-src", i))
        params = SurrogateParams(gamma=gamma, alpha=0.1, dim=d)
        X = src.dist.matrix
        checked = 0
        while checked < 20:
            w = rng.uniform(-0.5, 0.5, size=d)
            u = X @ w
            gaps = np.abs(np.concatenate(
                [u[:, None] + gamma * X, u[:, None] - gamma * X], axis=1))
            if gaps.min() < 10 * h:
                continue
            checked += 1
            oracle = ExactOracle(src)
            tau = 0.1 / (2.0 * d)
            g1 = np.ravel(oracle.ask(grad_f1_query(w, params, tau), 0))
            g2 = np.ravel(oracle.ask(grad_f2_query(params, tau), 0))
            grad = 2.0 * d * g1 - 2.0 * d * g2
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (surrogate_value(w + e, src, params)
                      - surrogate_value(w - e, src, params)) / (2 * h)
                worst = max(worst, abs(grad[j] - fd))
                assert abs(grad[j] - fd) <= 1e-4, (i, j, grad[j], fd)
    return f"10 sources x 20 points, worst coordinate gap {worst:.1e}"


# ---------------------------------------------------------------------------
# 6. End-to-end halfspace learner at desk scale, both oracle modes.


@criterion(6, "halfspace learner error and adaptivity", 600.0)
def test_criterion_06_halfspace():
    d, gamma, alpha, delta = 50, 0.3, 0.15, 0.05
    counts = {}
    for oracle, need in (("exact", 90), ("ldp", 80)):
        good = 0
        for i in range(100):
            src = make_margin_source(d, gamma, 100,
                                     derive_seed(0, "acc6-src", i))
            hyp, info = learn_halfspace(
                src, gamma, alpha, delta, mode="distribution_free",
                oracle=oracle, epsilon=1.0,
                seed=derive_seed(0, f"acc6-{oracle}-run", i))
            transcript = info.transcript
            assert transcript.label_dependent_rounds() == [0], (oracle, i)
            dep = sum(len(b.answers) for b in transcript.blocks
                      if b.label_dependent)
            assert dep == info.working_dim == d, (oracle, i, dep)
            if classification_error(hyp, src) <= alpha:
                good += 1
        assert good >= need, (oracle, good)
        counts[oracle] = good
    return (f"exact {counts['exact']}/100 (need 90), "
            f"ldp {counts['ldp']}/100 (need 80), every transcript "
            f"label-non-adaptive with exactly {d} label-dependent queries")


# ---------------------------------------------------------------------------
# 7. Fixed-distribution mode is one round.


@criterion(7, "known-distribution single round", 60.0)
def test_criterion_07_known_distribution():
    one_round = 0
    for i in range(100):
        src = make_margin_source(12, 0.3, 40, derive_seed(0, "acc7-src", i))
        _, info = learn_halfspace(
            src, gamma=0.3, alpha=0.15, delta=0.05,
            mode="known_distribution", oracle="exact",
            seed=derive_seed(0, "acc7-run", i))
        if info.rounds == 1:
            one_round += 1
    assert one_round == 100, one_round
    return f"rounds == 1 in {one_round}/100 runs"


# ---------------------------------------------------------------------------
# 8. LP adversary versus brute-force grid on an exhaustive small family.


@criterion(8, "lp adversary equals grid search", 120.0)
def test_criterion_08_lp_vs_grid():
    pts = tuple(Point(np.array(c))
                for c in ((0.6, 0.0), (0.0, 0.6), (-0.6, 0.0)))
    n_pts = 3
    rows_pool = [np.array(r, dtype=float)
                 for mag in (1.0, 0.5)
                 for r in itertools.product([-mag, mag], repeat=n_pts)]
    step = 0.01
    k = round(1.0 / step)
    grid = [(a * step, b * step, (k - a - b) * step)
            for a in range(k + 1) for b in range(k + 1 - a)]
    G = np.array(grid)

    count = 0
    worst = 0.0
    for f in itertools.product([-1, 1], repeat=n_pts):
        fv = np.array(f, dtype=float)
        target = Explicit(pts, f)
        for size in (1, 2):
            for combo in itertools.combinations_with_replacement(
                    range(len(rows_pool)), size):
                base = [rows_pool[idx] for idx in combo]
                for extra_zero in range(0, n_pts + 1 - size):
                    rows = base + [np.zeros(n_pts)] * extra_zero
                    hset = HypothesisSet(
                        tuple(table_function(pts, r) for r in rows))
                    cert = worst_correlation_distribution(target, hset, pts)
                    grid_val = float(
                        np.abs(G @ (np.array(rows) * fv).T).max(axis=1).min())
                    gap = abs(cert.value - grid_val)
                    worst = max(worst, gap)
                    assert gap <= 1e-3, (f, combo, extra_zero, gap)
                    count += 1
    assert count >= 500, count
    return f"{count} instances, worst |lp - grid| = {worst:.1e}"


# ---------------------------------------------------------------------------
# 9. Shipped negation-fooling demonstration.


@criterion(9, "negation fooling certificate", 10.0)
def test_criterion_09_negation_fooling():
    for seed in range(100):
        demo = run_shipped_negation_demo(seed)
        assert demo.found, seed
        assert demo.identical_transcripts, seed
        assert demo.error_target + demo.error_negation == 1.0, seed
        assert demo.max_error >= 0.5, seed
    return ("100/100 seeds: identical transcripts and target/negation "
            "errors summing to 1 exactly")


# ---------------------------------------------------------------------------
# 10. Interactive decision-list baseline, both oracle modes.


@criterion(10, "decision-list recovery and adaptivity", 300.0)
def test_criterion_10_decision_list():
    d, length, alpha = 8, 5, 0.1
    counts = {}
    late_label_rounds = {}
    for mode, need in (("exact", 95), ("ldp", 85)):
        good = 0
        late = 0
        for i in range(100):
            target = random_decision_list(d, length,
                                          derive_seed(0, "acc10-target", i))
            src = uniform_hypercube_source(d, target)
            try:
                if mode == "exact":
                    cfg = DlLearnerConfig(dim=d, alpha=alpha)
                    oracle = ExactOracle(src)
                    hyp = learn_decision_list_sq(oracle, cfg)
                    transcript = oracle.transcript
                else:
                    cfg = DlLearnerConfig(dim=d, alpha=alpha, tau=0.005)
                    driver = DlDriver(cfg)
                    batch = ldp_batch_size(driver.max_queries, cfg.tau,
                                           0.05, 1.0)
                    S = SampleStream(src, driver.max_queries * batch,
                                     derive_seed(0, "acc10-stream", i))
                    hyp, protocol = compile_sq_to_ldp(
                        driver, S, epsilon=1.0, tau=cfg.tau, delta=0.05,
                        seed=derive_seed(0, "acc10-chan", i))
                    transcript = protocol.transcript
            except LearningFailure:
                continue
            if transcript.rounds_used() > 1:
                # The greedy search re-asks label statistics every round.
                assert max(transcript.label_dependent_rounds()) > 0, (mode, i)
                late += 1
            if classification_error(hyp, src) <= alpha:
                good += 1
        assert good >= need, (mode, good)
        assert late >= 50, (mode, late)
        counts[mode] = good
        late_label_rounds[mode] = late
    return (f"exact {counts['exact']}/100 (need 95), "
            f"ldp {counts['ldp']}/100 (need 85); label-dependent queries "
            f"past round 0 in {late_label_rounds['exact']} exact and "
            f"{late_label_rounds['ldp']} ldp runs")


# ---------------------------------------------------------------------------
# 11. Random projection keeps most of the margin.


@criterion(11, "projection margin preservation", 60.0)
def test_criterion_11_jl_margin():
    d, gamma, delta = 100, 0.3, 0.05
    good = 0
    worst_frac = 0.0
    for i in range(100):
        src = make_margin_source(d, gamma, 200, derive_seed(0, "acc11-src", i))
        proj, mapped = jl_project(src, gamma, delta,
                                  derive_seed(0, "acc11-map", i))
        w = proj.matrix @ src.target.w
        w /= np.linalg.norm(w)
        margins = (mapped.dist.matrix @ w) * mapped.labels
        frac = float(np.mean(margins < gamma / 2.0))
        worst_frac = max(worst_frac, frac)
        if frac <= delta:
            good += 1
    assert good >= 90, good
    return (f"{good}/100 seeds with violating fraction <= {delta} "
            f"(worst fraction {worst_frac:.3f})")


# ---------------------------------------------------------------------------
# 12. CLI byte determinism across repeated seeded runs.


_CLI_BATTERY = [
    ["learn-halfspace", "--d", "10", "--support", "40", "--seed", "3"],
    ["learn-dl", "--d", "5", "--length", "3", "--seed", "1"],
    ["estimate-mean", "--trials", "8", "--queries", "5", "--seed", "2"],
    ["adversary-demo", "--seed", "4"],
    ["jl-check", "--d", "30", "--trials", "5", "--support", "50",
     "--seed", "5"],
    ["compile-report", "--channel", "comm", "--queries", "6", "--seed", "6"],
    ["separation", "--seed", "2"],
]


@criterion(12, "cli artifact byte determinism", 300.0)
def test_criterion_12_determinism(tmp_path):
    compared = 0
    for k, argv in enumerate(_CLI_BATTERY):
        dirs = [tmp_path / f"run{k}_{rep}" for rep in (0, 1)]
        for out in dirs:
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, (argv, code)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir()), argv
        for name in names:
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name,
                               shallow=False), (argv, name)
            compared += 1
    return (f"{len(_CLI_BATTERY)} commands rerun with fixed seeds, "
            f"{compared} artifacts byte-identical")
