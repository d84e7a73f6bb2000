"""The four benchmark workloads.

Each workload builds its inputs from the run's seed (`setup`), runs one
round of program operations on them (`run_round`), turns the raw results
into plain records after the clock has stopped (`record`), and checks the
first round's records with `checks` (`check`). Every round of a run repeats
the same operations on the same inputs, so the median round time is taken
over identical work and every later round must reproduce the first.

The program is always reached through module attributes (`ml.learn_halfspace`,
not a name imported once), so the tracer's patches apply to these calls.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

from localsq import _rng, baselines, cli, core, ldp, lowerbound, sq
from localsq import margin_learner as ml

import checks

ROOT = Path(__file__).resolve().parent.parent


class Round:
    """The operations of one round, each run, timed and failure-counted."""

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.ops = []  # (kind, key, raw result or None)
        self.failures = []

    def op(self, kind: str, key, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        start = time.perf_counter()
        raw = None
        try:
            raw = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{kind} {key}: {type(exc).__name__}: {exc}")
        finally:
            if self.tracer is not None:
                self.tracer.end_op(kind, time.perf_counter() - start)
        self.ops.append((kind, key, raw))
        return raw


def same_records(a: dict, b: dict, fields) -> bool:
    for f in fields:
        x, y = a[f], b[f]
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# Margin halfspaces.

GAMMA, ALPHA, DELTA, EPSILON = 0.3, 0.15, 0.05, 1.0
HS_DIM, HS_SUPPORT = 50, 100
PROJ_DIM, PROJ_GAMMA = 400, 0.8


def _halfspace_record(oracle: str, src, gamma: float, raw) -> dict:
    hyp, info = raw
    if info.transcript is not None:
        entries = [(e.round, e.label_dependent, e.tolerance, e.answer)
                   for e in info.transcript.entries]
    else:
        entries = [(q["round"], q["label_dep"], q["tau"], q["answer"])
                   for q in info.protocol_report.queries]
    return {
        "oracle": oracle,
        "X": src.dist.matrix, "labels": src.labels, "probs": src.dist.probs,
        "w_true": src.target.w, "gamma": gamma, "alpha": ALPHA,
        "delta": DELTA, "epsilon": EPSILON,
        "proj": hyp.proj.matrix, "w": hyp.w, "entries": entries,
        "samples_used": info.samples_used, "answers": len(entries),
    }


_HS_OUTPUT = ("proj", "w", "entries", "samples_used")


def _check_halfspaces(records, need: float, need_tau: float) -> dict:
    results = [checks.check_halfspace_run(r) for r in records]
    good = checks.share_at_least(
        (r["error"] <= ALPHA for r in results), need, "runs with error <= alpha")
    tau_ok = checks.share_at_least(
        (r["within_tau"] for r in results), need_tau,
        "runs with every answer within tau")
    return {"runs": len(results), "share_error_le_alpha": good,
            "share_within_tau": tau_ok,
            "worst_error": max(r["error"] for r in results)}


class HalfspaceExact:
    """learn_halfspace with the exact oracle on criterion-06 sources."""

    name = "halfspace-exact"
    min_rounds = 3
    RUNS = 4

    def setup(self, seed: int):
        out = []
        for i in range(seed * self.RUNS, (seed + 1) * self.RUNS):
            src = core.make_margin_source(
                HS_DIM, GAMMA, HS_SUPPORT, _rng.derive_seed(0, "acc6-src", i))
            out.append((i, src, _rng.derive_seed(0, "acc6-exact-run", i)))
        return out

    def run_round(self, inputs, rnd: Round):
        for i, src, run_seed in inputs:
            rnd.op("exact-d50", i, ml.learn_halfspace, src, GAMMA, ALPHA,
                   DELTA, oracle="exact", epsilon=EPSILON, seed=run_seed)

    def record(self, inputs, workdir, kind, key, raw):
        src = next(s for i, s, _ in inputs if i == key)
        return _halfspace_record("exact", src, GAMMA, raw)

    def same(self, a, b):
        return same_records(a, b, _HS_OUTPUT)

    def check(self, inputs, records):
        # Criterion 06 asks for 90 of 100 exact runs within alpha.
        return _check_halfspaces(records, 0.9, 1.0)


class HalfspacePrivate:
    """The same sources through both compilers, plus projected LDP runs."""

    name = "halfspace-private"
    # Its round times spread most, so it measures at least four rounds
    # (about 25 s) however short --seconds is.
    min_rounds = 4
    RUNS = 1  # per channel at d=50
    PROJECTED = 1

    def setup(self, seed: int):
        out = []
        for i in range(seed * self.RUNS, (seed + 1) * self.RUNS):
            src = core.make_margin_source(
                HS_DIM, GAMMA, HS_SUPPORT, _rng.derive_seed(0, "acc6-src", i))
            for oracle in ("ldp", "comm"):
                out.append((f"{oracle}-d50", oracle, i, src, GAMMA,
                            _rng.derive_seed(0, f"acc6-{oracle}-run", i)))
        for k in range(self.PROJECTED):
            src = core.make_margin_source(
                PROJ_DIM, PROJ_GAMMA, HS_SUPPORT,
                _rng.derive_seed(seed, "bench-projected-src", k))
            out.append(("projected-ldp", "ldp", k, src, PROJ_GAMMA,
                        _rng.derive_seed(seed, "bench-projected-run", k)))
        return out

    def run_round(self, inputs, rnd: Round):
        for kind, oracle, key, src, gamma, run_seed in inputs:
            rnd.op(kind, key, ml.learn_halfspace, src, gamma, ALPHA, DELTA,
                   oracle=oracle, epsilon=EPSILON, seed=run_seed)

    def record(self, inputs, workdir, kind, key, raw):
        oracle, src, gamma = next((o, s, g) for k, o, i, s, g, _ in inputs
                                  if k == kind and i == key)
        return _halfspace_record(oracle, src, gamma, raw)

    def same(self, a, b):
        return same_records(a, b, _HS_OUTPUT)

    def check(self, inputs, records):
        # Criterion 06 asks for 80 of 100 private runs within alpha; every
        # answer must land within tau in a 1 - delta share of runs.
        return _check_halfspaces(records, 0.8, 1.0 - DELTA)


# ---------------------------------------------------------------------------
# Decision lists and the lower-bound lab.

DL_DIM, DL_LENGTH, DL_ALPHA, DL_TAU, DL_DELTA = 8, 5, 0.1, 0.005, 0.05
LP_BITS, LP_HYPOTHESES, LP_TARGET_LENGTH = 6, 16, 3


def _dl_ldp(src, stream_seed: int, channel_seed: int):
    cfg = baselines.DlLearnerConfig(dim=DL_DIM, alpha=DL_ALPHA, tau=DL_TAU)
    driver = baselines.DlDriver(cfg)
    batch = ldp.ldp_batch_size(driver.max_queries, DL_TAU, DL_DELTA, EPSILON)
    stream = core.SampleStream(src, driver.max_queries * batch, stream_seed)
    return ldp.compile_sq_to_ldp(driver, stream, EPSILON, DL_TAU, DL_DELTA,
                                 seed=channel_seed)


def _dl_exact(src):
    oracle = sq.ExactOracle(src)
    cfg = baselines.DlLearnerConfig(dim=DL_DIM, alpha=DL_ALPHA)
    return baselines.learn_decision_list_sq(oracle, cfg), oracle.transcript


class InteractiveLowerbound:
    """Decision lists exact and private, worst-correlation LPs, and the
    shipped negation demo."""

    name = "interactive-lowerbound"
    min_rounds = 3
    DL_TARGETS = 40
    LP_INSTANCES = 130
    DEMO_SEEDS = 200

    def setup(self, seed: int):
        dl = []
        for i in range(seed * self.DL_TARGETS, (seed + 1) * self.DL_TARGETS):
            target = core.random_decision_list(
                DL_DIM, DL_LENGTH, _rng.derive_seed(0, "acc10-target", i))
            dl.append((i, target, core.uniform_hypercube_source(DL_DIM, target),
                       _rng.derive_seed(0, "acc10-stream", i),
                       _rng.derive_seed(0, "acc10-chan", i)))
        points = tuple(
            core.embed_hypercube([(code >> b) & 1 for b in range(LP_BITS)])
            for code in range(1 << LP_BITS))
        lp = []
        for k in range(self.LP_INSTANCES):
            rng = _rng.generator(_rng.derive_seed(seed, "bench-lp-rows", k))
            rows = 2.0 * rng.integers(0, 2, (LP_HYPOTHESES, len(points))) - 1.0
            f = core.random_decision_list(
                LP_BITS, LP_TARGET_LENGTH,
                _rng.derive_seed(seed, "bench-lp-target", k))
            hset = lowerbound.HypothesisSet(tuple(
                lowerbound.table_function(points, row) for row in rows))
            lp.append((k, f, hset, rows))
        demos = range(seed * self.DEMO_SEEDS, (seed + 1) * self.DEMO_SEEDS)
        return {"dl": dl, "points": points, "lp": lp, "demos": demos}

    def run_round(self, inputs, rnd: Round):
        for i, _, src, stream_seed, channel_seed in inputs["dl"]:
            rnd.op("dl-exact", i, _dl_exact, src)
            rnd.op("dl-ldp", i, _dl_ldp, src, stream_seed, channel_seed)
        points = inputs["points"]
        for k, f, hset, _ in inputs["lp"]:
            rnd.op("lp", k, lowerbound.worst_correlation_distribution,
                   f, hset, points)
        for s in inputs["demos"]:
            rnd.op("negation-demo", s, lowerbound.run_shipped_negation_demo, s)

    def record(self, inputs, workdir, kind, key, raw):
        if kind.startswith("dl-"):
            _, target, src, _, _ = next(t for t in inputs["dl"] if t[0] == key)
            learned, log = raw
            if kind == "dl-exact":
                entries = [(e.round, e.label_dependent, e.tolerance, e.answer)
                           for e in log.entries]
                samples = 0
            else:
                entries = [(q["round"], q["label_dep"], q["tau"], q["answer"])
                           for q in log.queries]
                samples = log.samples_used
            return {
                "oracle": kind[3:], "X": src.dist.matrix, "labels": src.labels,
                "probs": src.dist.probs, "dim": DL_DIM,
                "target_items": target.items, "target_default": target.default,
                "learned_items": learned.items,
                "learned_default": learned.default, "entries": entries,
                "samples_used": samples, "tau": DL_TAU, "delta": DL_DELTA,
                "epsilon": EPSILON, "answers": len(entries),
            }
        if kind == "lp":
            _, f, _, rows = inputs["lp"][key]
            return {
                "X": raw.dist.matrix, "f_items": f.items,
                "f_default": f.default, "rows": rows,
                "D": raw.dist.probs, "value": raw.value, "answers": 0,
            }
        factory, _, demo_points, m = lowerbound.make_shipped_negation_demo(key)
        X = np.vstack([p.coords for p in demo_points])
        probe = factory().begin()[0].fn
        ones = np.ones(X.shape[0])
        cert = raw.certificate
        return {
            "found": raw.found, "m": m,
            "D": cert.dist.probs, "value": cert.value,
            "f_labels": np.asarray(cert.to_json()["target"]["labels"], float),
            "probe": (probe(X, ones) - probe(X, -ones)) / 2.0,
            "answers_target": list(raw.answers_target),
            "answers_negation": list(raw.answers_negation),
            "identical_transcripts": raw.identical_transcripts,
            "error_target": raw.error_target,
            "error_negation": raw.error_negation,
            "answers": len(raw.answers_target) + len(raw.answers_negation),
        }

    def same(self, a, b):
        fields = [k for k in a if k not in ("X", "labels", "probs")]
        return same_records(a, b, fields)

    def check(self, inputs, records):
        dl = {"exact": [], "ldp": []}
        lp = demos = 0
        for rec in records:
            if "learned_items" in rec:
                dl[rec["oracle"]].append(checks.check_dl_run(rec))
            elif "rows" in rec:
                checks.check_lp_instance(rec)
                lp += 1
            else:
                checks.check_negation_demo(rec)
                demos += 1
        # Criterion 10 asks for 95 exact and 85 private recoveries of 100.
        for oracle, need in (("exact", 0.95), ("ldp", 0.85)):
            checks.share_at_least((r["error"] <= DL_ALPHA for r in dl[oracle]),
                                  need, f"dl-{oracle} runs within alpha")
        checks.share_at_least((r["within_tau"] for r in dl["ldp"]),
                              1.0 - DL_DELTA, "dl-ldp runs within tau")
        return {"dl_runs": len(dl["exact"]) + len(dl["ldp"]),
                "lp_instances": lp, "negation_demos": demos}


# ---------------------------------------------------------------------------
# The command line at its defaults.


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CliDefaults:
    """All seven subcommands at their defaults with --check."""

    name = "cli-defaults"
    # Two rounds at least: the second is the repeated invocation whose
    # bytes must match the first.
    min_rounds = 2

    def setup(self, seed: int):
        return {"seed": seed,
                "argv": [[cmd, "--check", "--seed", str(seed)]
                         for cmd in cli.COMMANDS]}

    def run_round(self, inputs, rnd: Round):
        for argv in inputs["argv"]:
            out = rnd.workdir / argv[0]
            rnd.op(argv[0], argv[0], _run_cli, argv + ["--out", str(out)])

    def record(self, inputs, workdir, kind, key, raw):
        code, text = raw
        outdir = workdir / kind
        files = list(outdir.iterdir()) if outdir.is_dir() else []
        return {"code": code, "text": text, "cmd": kind, "dir": outdir,
                "answers": checks.cli_answers(outdir),
                "bytes": sum(p.stat().st_size for p in files)}

    def same(self, a, b):
        if a["code"] != b["code"]:
            return False
        try:
            checks.same_bytes(a["dir"], b["dir"])
        except checks.CheckError:
            return False
        return True

    def check(self, inputs, records):
        schemas = checks.SchemaSet(ROOT / "docs" / "schema")
        for rec in records:
            checks.require(rec["code"] == 0,
                           f"{rec['cmd']} exited {rec['code']}: {rec['text']}")
            checks.check_cli_artifacts(rec["dir"], schemas)
        seed = inputs["seed"]
        d, gamma, support, alpha = 20, 0.3, 100, 0.15
        src = core.make_margin_source(
            d, gamma, support, _rng.derive_seed(seed, "halfspace-source"))
        hs = next(r for r in records if r["cmd"] == "learn-halfspace")
        checks.check_halfspace_artifacts(
            hs["dir"], src.dist.matrix, src.labels, src.dist.probs, alpha)
        return {"commands": len(records)}


WORKLOADS = {w.name: w for w in (HalfspaceExact, HalfspacePrivate,
                                 CliDefaults, InteractiveLowerbound)}
