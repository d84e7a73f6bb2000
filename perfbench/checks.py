"""Correctness checks made apart from the program.

Every check here recomputes what the program should have produced with
plain numpy (and scipy's `linprog` for the LPs, which `localsq` itself
does not use), from the inputs and the raw outputs the program returned.
No check calls back into `localsq` to compute an expected value, and none
compares against a stored copy of earlier output. A failed check raises
`CheckError`.

Records passed in are plain dicts of numpy arrays, lists and numbers, so
that `test_checks.py` can hand each check a corrupted output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EXACT_TOL = 1e-9


class CheckError(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def sign(a) -> np.ndarray:
    """sign with sign(0) = +1, the convention the learners document."""
    return np.where(np.asarray(a, dtype=float) >= 0.0, 1.0, -1.0)


def rr_coefficient(epsilon: float) -> float:
    return (math.exp(epsilon) - 1.0) / (math.exp(epsilon) + 1.0)


def ldp_batch(t: int, tau: float, delta: float, epsilon: float) -> int:
    """ceil(8 ln(2t/delta) / (c^2 tau^2)) for randomized response."""
    c = rr_coefficient(epsilon)
    return math.ceil(8.0 * math.log(2.0 * t / delta) / (c * c * tau * tau))


def comm_batch(t: int, tau: float, delta: float) -> int:
    """ceil(2 ln(2t/delta) / tau^2) for the one-bit channel."""
    return math.ceil(2.0 * math.log(2.0 * t / delta) / (tau * tau))


def jl_dim(gamma: float, delta: float) -> int:
    return math.ceil(32.0 * math.log(1.0 / delta) / gamma**2)


def share_at_least(flags, need: float, what: str) -> float:
    flags = list(flags)
    require(len(flags) > 0, f"{what}: no runs to check")
    share = sum(1 for f in flags if f) / len(flags)
    require(share >= need - 1e-12,
            f"{what}: share {share:.3f} below {need:.3f} over {len(flags)} runs")
    return share


# ---------------------------------------------------------------------------
# Margin halfspaces.


def halfspace_error(proj: np.ndarray, w: np.ndarray, X: np.ndarray,
                    labels: np.ndarray, probs: np.ndarray) -> float:
    """Mass of support points where sign(<w, proj x>) disagrees with the label."""
    predicted = sign((X @ np.asarray(proj).T) @ np.asarray(w))
    return float(np.sum(probs[predicted != labels]))


def working_support(proj: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Image of the support under the projection, pulled back into the ball."""
    mapped = X @ np.asarray(proj).T
    norms = np.linalg.norm(mapped, axis=1)
    over = norms > 1.0
    mapped[over] /= norms[over][:, None]
    return mapped


def sign_weight(w: np.ndarray, X: np.ndarray, gamma: float) -> np.ndarray:
    u = (X @ w)[:, None]
    return sign(u + gamma * X).sum(axis=1) + sign(u - gamma * X).sum(axis=1)


def check_halfspace_run(rec: dict) -> dict:
    """Check one learn_halfspace run; returns its error and tau verdict.

    The descent is replayed from the answers in the run's transcript (or
    protocol report): every iterate is recomputed, each answer is compared
    with the exact mean of its query on the working support, and the
    replayed average must equal the returned weight vector.
    """
    X, labels, probs = rec["X"], rec["labels"], rec["probs"]
    d_amb = X.shape[1]
    require(np.array_equal(sign(X @ rec["w_true"]), labels),
            "source labels differ from sign(<w*, x>)")
    gamma, delta = rec["gamma"], rec["delta"]
    projected = jl_dim(gamma, delta) < d_amb
    proj = np.asarray(rec["proj"], dtype=float)
    if projected:
        d = math.ceil(32.0 * math.log(2.0 / delta) / gamma**2)
        require(proj.shape == (d, d_amb), f"projection shape {proj.shape}")
        Xw = working_support(proj, X)
        gamma_w, delta_sim = gamma / 2.0, delta / 2.0
    else:
        d = d_amb
        require(np.array_equal(proj, np.eye(d)), "unprojected run with a map")
        Xw, gamma_w, delta_sim = X, gamma, delta

    entries = rec["entries"]
    rounds = entries[-1][0] + 1
    by_round = [[] for _ in range(rounds)]
    for r, dep, _, ans in entries:
        by_round[r].append((dep, ans))
    require(len(by_round[0]) == 2 * d, "round 0 must ask 2*dim queries")
    require([dep for dep, _ in by_round[0]] == [True] * d + [False] * d,
            "round 0 must be dim label queries, then dim gradient queries")
    for r in range(1, rounds):
        require(len(by_round[r]) == d, f"round {r} must ask dim queries")
        require(not any(dep for dep, _ in by_round[r]),
                f"label-dependent query in round {r}")

    # Round-0 label queries: E[y x_j] = probs @ (labels * X[:, j]).
    label_means = probs @ (labels[:, None] * Xw)
    label_ans = np.array([a for _, a in by_round[0][:d]])
    scale = 2.0 * d
    eta = 1.0 / (4.0 * d * math.sqrt(rounds))
    g2 = -scale * label_ans
    w = np.zeros(d)
    w_sum = np.zeros(d)
    deviations = [np.abs(label_ans - label_means)]
    for r in range(rounds):
        ans = np.array([a for _, a in by_round[r][-d:]])
        exact = (probs * sign_weight(w, Xw, gamma_w)) @ Xw / scale
        deviations.append(np.abs(ans - exact))
        w_sum += w
        w = w - eta * (scale * ans + g2)
        norm = float(np.linalg.norm(w))
        if norm > 1.0:
            w = w / norm
    w_bar = w_sum / rounds
    require(np.max(np.abs(w_bar - rec["w"])) <= 1e-9,
            "returned weights differ from the replayed descent")
    worst = float(np.max(np.concatenate(deviations)))

    if rec["oracle"] == "exact":
        require(worst <= EXACT_TOL,
                f"exact answer off its mean by {worst:.3g}")
        require(rec["samples_used"] == 0, "exact run reports samples")
        within = True
    else:
        taus = {e[2] for e in entries}
        require(len(taus) == 1, "one tolerance per compiled run")
        tau = taus.pop()
        require(abs(tau - 0.05) <= 1e-12, f"per-query tolerance {tau}")
        t = len(entries)
        require(t == d * rounds + d, "compiled run asked fewer than its bound")
        if rec["oracle"] == "ldp":
            batch = ldp_batch(t, tau, delta_sim, rec["epsilon"])
        else:
            batch = comm_batch(t, tau, delta_sim)
        require(rec["samples_used"] == t * batch,
                f"samples_used {rec['samples_used']} != {t} x {batch}")
        within = worst <= tau
    error = halfspace_error(proj, rec["w"], X, labels, probs)
    return {"error": error, "within_tau": within, "answers": len(entries)}


# ---------------------------------------------------------------------------
# Decision lists over embedded hypercube bits.


def dl_labels(items, default: int, X: np.ndarray) -> np.ndarray:
    bits = X > 0.0
    out = np.full(X.shape[0], float(default))
    open_ = np.ones(X.shape[0], dtype=bool)
    for v, p, b in items:
        fire = open_ & (bits[:, v] == bool(p))
        out[fire] = float(b)
        open_ &= ~fire
    return out


def dl_round_means(chosen, X, labels, probs, dim):
    """(label_dependent, exact mean) of every query the greedy search asks
    after the rules in `chosen` were picked."""
    bits = X > 0.0
    survive = np.ones(X.shape[0])
    for v, p, _ in chosen:
        survive = survive * (bits[:, v] != bool(p))
    used = {(v, p) for v, p, _ in chosen}
    fresh = [v for v in range(dim) if (v, 0) not in used and (v, 1) not in used]
    pos = (1.0 + labels) / 2.0
    out = [(False, probs @ survive), (True, probs @ (survive * pos))]
    for v in fresh:
        fire = survive * bits[:, v]
        out += [(False, probs @ fire), (True, probs @ (fire * pos))]
    return out


def check_dl_run(rec: dict) -> dict:
    """Check one decision-list run by replaying its rounds from the result."""
    X, labels, probs, dim = rec["X"], rec["labels"], rec["probs"], rec["dim"]
    require(np.array_equal(
        dl_labels(rec["target_items"], rec["target_default"], X), labels),
        "source labels differ from the target decision list")
    chosen = [tuple(item) for item in rec["learned_items"]]
    entries = rec["entries"]
    rounds = entries[-1][0] + 1
    require(rounds == len(chosen) + 1,
            f"{rounds} rounds for {len(chosen)} chosen rules")
    worst = 0.0
    for r in range(rounds):
        got = [(dep, ans) for rr, dep, _, ans in entries if rr == r]
        want = dl_round_means(chosen[:r], X, labels, probs, dim)
        require([d for d, _ in got] == [d for d, _ in want],
                f"round {r} asks the wrong queries")
        require(any(d for d, _ in got), f"round {r} has no label query")
        worst = max(worst, max(abs(a - m) for (_, a), (_, m) in zip(got, want)))
    if rounds > 1:
        require(max(rr for rr, dep, _, _ in entries if dep) > 0,
                "multi-round run never asked labels after round 0")
    if rec["oracle"] == "exact":
        require(worst <= EXACT_TOL, f"exact answer off its mean by {worst:.3g}")
        within = True
    else:
        tau = rec["tau"]
        t = (2 * dim + 2) ** 2
        batch = ldp_batch(t, tau, rec["delta"], rec["epsilon"])
        require(rec["samples_used"] == len(entries) * batch,
                f"samples_used {rec['samples_used']} != "
                f"{len(entries)} x {batch}")
        within = worst <= tau
    learned = dl_labels(chosen, rec["learned_default"], X)
    error = float(np.sum(probs[learned != labels]))
    return {"error": error, "within_tau": within, "answers": len(entries)}


# ---------------------------------------------------------------------------
# The lower-bound lab.


def linprog_value(corr: np.ndarray) -> float:
    """min t s.t. -t <= corr @ D <= t, sum D = 1, D >= 0, by HiGHS."""
    from scipy.optimize import linprog

    m, n = corr.shape
    a_ub = np.vstack([np.hstack([corr, -np.ones((m, 1))]),
                      np.hstack([-corr, -np.ones((m, 1))])])
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=np.zeros(2 * m),
                  A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0, None)] * (n + 1), method="highs")
    require(res.status == 0, f"linprog failed: {res.message}")
    return float(res.fun)


def check_lp_instance(rec: dict) -> None:
    X, D = rec["X"], np.asarray(rec["D"], dtype=float)
    f = dl_labels(rec["f_items"], rec["f_default"], X)
    corr = np.asarray(rec["rows"], dtype=float) * f  # row i: f(x) h_i(x)
    require(D.shape == (X.shape[0],) and np.all(D >= 0.0),
            "certificate D is not a distribution")
    require(abs(D.sum() - 1.0) <= 1e-9, "certificate D does not sum to 1")
    value = float(np.max(np.abs(corr @ D)))
    require(abs(value - rec["value"]) <= 1e-9,
            f"certificate value {rec['value']!r} but D gives {value!r}")
    optimum = linprog_value(corr)
    require(abs(optimum - rec["value"]) <= 1e-7,
            f"LP value {rec['value']!r} but linprog finds {optimum!r}")


def check_negation_demo(rec: dict) -> None:
    D = np.asarray(rec["D"], dtype=float)
    f, h = np.asarray(rec["f_labels"]), np.asarray(rec["probe"])
    require(rec["found"], "no certificate for the shipped instance")
    require(list(rec["answers_target"]) == list(rec["answers_negation"]),
            "transcripts on the target and its negation differ")
    require(rec["identical_transcripts"], "demo reports differing transcripts")
    value = abs(float(D @ (f * h)))
    require(abs(value - rec["value"]) <= 1e-12,
            f"certificate value {rec['value']!r} but D gives {value!r}")
    require(value < 1.0 / rec["m"], "certificate does not beat 1/m")
    hyp = h if rec["answers_target"][0] >= 0 else -h
    err_f = float(np.sum(D[hyp != f]))
    err_n = float(np.sum(D[hyp != -f]))
    require(abs(err_f - rec["error_target"]) <= 1e-12
            and abs(err_n - rec["error_negation"]) <= 1e-12,
            "reported errors differ from the recomputed ones")
    require(abs(rec["error_target"] + rec["error_negation"] - 1.0) <= 1e-12,
            "errors on the target and its negation do not sum to 1")


# ---------------------------------------------------------------------------
# Command-line artifacts.

ARTIFACT_SCHEMAS = {
    "hypothesis.json": "hypothesis",
    "halfspace_report.json": "halfspace_report",
    "dl_report.json": "dl_report",
    "dl_hypothesis.json": "target",
    "estimate_report.json": "estimate_report",
    "adversary_report.json": "adversary_report",
    "certificate.json": "certificate",
    "jl_report.json": "jl_report",
    "separation.json": "separation_report",
}


class SchemaSet:
    """Validators compiled once from the checked-in docs/schema/ files."""

    def __init__(self, schema_dir: Path):
        import jsonschema

        self._validators = {}
        for path in sorted(Path(schema_dir).glob("*.schema.json")):
            schema = json.loads(path.read_text())
            cls = jsonschema.validators.validator_for(schema)
            self._validators[path.name[:-len(".schema.json")]] = cls(schema)
        require(bool(self._validators), f"no schemas under {schema_dir}")

    def validate(self, name: str, obj, where: str) -> None:
        require(name in self._validators, f"{where}: no schema {name!r}")
        errors = list(self._validators[name].iter_errors(obj))
        require(not errors, f"{where}: {errors[0].message if errors else ''}")


def cli_answers(outdir: Path) -> int:
    """Query answers visible in one command's artifacts."""
    answers = 0
    transcript = outdir / "transcript.jsonl"
    if transcript.exists():
        answers += len(transcript.read_text().splitlines())
    protocol = outdir / "protocol_report.json"
    if protocol.exists():
        answers += len(json.loads(protocol.read_text())["queries"])
    estimate = outdir / "estimate_report.json"
    if estimate.exists():
        obj = json.loads(estimate.read_text())
        answers += obj["trials"] * obj["queries"]
    return answers


def check_cli_artifacts(outdir: Path, schemas: SchemaSet) -> None:
    """Validate every artifact of one command against docs/schema/."""
    require(outdir.is_dir(), f"{outdir.name}: no output directory")
    names = sorted(p.name for p in outdir.iterdir())
    require(bool(names), f"{outdir.name}: no artifacts")
    for name in names:
        text = (outdir / name).read_text()
        where = f"{outdir.name}/{name}"
        if name == "transcript.jsonl":
            for line in text.splitlines():
                schemas.validate("transcript_entry", json.loads(line), where)
        elif name == "protocol_report.json":
            obj = json.loads(text)
            schemas.validate("comm_report" if "bits" in obj else "ldp_report",
                             obj, where)
        elif name.endswith(".json"):
            require(name in ARTIFACT_SCHEMAS, f"{where}: unknown artifact")
            schemas.validate(ARTIFACT_SCHEMAS[name], json.loads(text), where)
        else:
            require(name.endswith(".csv"), f"{where}: unknown artifact")
            require(text.startswith("# localsq-csv v1 "), f"{where}: header")


def same_bytes(dir_a: Path, dir_b: Path) -> None:
    names = sorted(p.name for p in dir_a.iterdir())
    require(names == sorted(p.name for p in dir_b.iterdir()),
            f"{dir_a.name}: a rerun wrote different files")
    for name in names:
        require((dir_a / name).read_bytes() == (dir_b / name).read_bytes(),
                f"{dir_a.name}/{name}: a rerun with the same seed wrote "
                f"different bytes")


def check_halfspace_artifacts(outdir: Path, X, labels, probs, alpha) -> None:
    """The default learn-halfspace run, rechecked from its artifacts."""
    hyp = json.loads((outdir / "hypothesis.json").read_text())
    report = json.loads((outdir / "halfspace_report.json").read_text())
    error = halfspace_error(np.asarray(hyp["proj"]), np.asarray(hyp["w"]),
                            X, labels, probs)
    require(abs(error - report["error"]) <= 1e-12,
            f"reported error {report['error']!r}, recomputed {error!r}")
    require(error <= alpha, f"error {error!r} above alpha {alpha!r}")
    entries = [json.loads(line) for line in
               (outdir / "transcript.jsonl").read_text().splitlines()]
    d = X.shape[1]
    dep = [e for e in entries if e["label_dep"]]
    require(len(dep) == d and all(e["round"] == 0 for e in dep),
            "label-dependent queries outside round 0")
    label_means = probs @ (labels[:, None] * X)
    got = np.array([e["answer"] for e in dep])
    require(np.max(np.abs(got - label_means)) <= EXACT_TOL,
            "round-0 answers differ from probs @ (labels * X[:, j])")
