"""Experiment runner tying the learners, compilers, and the oracle lab together.

One root seed drives every run; all randomness is derived from it with
component labels, so a repeated invocation with the same configuration
writes byte-identical artifacts. Configuration comes from an optional
JSON file overridden by flags; the only environment variable consulted
is LOCALSQ_OUT, which overrides the default output directory.

Exit codes: 0 on success, 2 on budget or precondition errors, 3 when a
run invoked with --check fails its acceptance condition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from itertools import permutations, product
from pathlib import Path

import numpy as np

from ._rng import derive_seed, generator
from .baselines import DlDriver, DlLearnerConfig, learn_decision_list_sq
from .comm import ONE_BIT
from .core import DecisionList, Explicit, classification_error, \
    hypercube_rows, make_margin_source, point_rows, random_decision_list, \
    uniform_hypercube_source
from .errors import LocalSqError, PreconditionError, ProtocolError, \
    SolverError
from .ldp import ChannelOracle, compile_sq_to_ldp, ldp_channel
from .lowerbound import HypothesisSet, correlation_cover_check, \
    run_shipped_negation_demo, solve_lp, table_function
from .margin_learner import ProjectionMap, jl_dim, jl_map, learn_halfspace
from .schemas import SCHEMAS, validate, validate_artifact, \
    validate_config
from .sq import ExactOracle, StatQuery

__all__ = ["ExperimentConfig", "CheckFailure", "run", "main",
           "separation_experiment"]

# The command table: each command's help line and its flags in --help
# order, each with the default it takes when neither the flag nor the
# config file sets it (None: unset). The config schema types and bounds
# every key. --config, --out, --seed and --check follow on every command.
_TABLE = {
    "learn-halfspace": (
        "margin halfspace via averaged subgradient descent",
        {"gamma": 0.3, "alpha": 0.15, "delta": 0.05,
         "mode": "distribution_free", "oracle": "exact", "epsilon": 1.0,
         "d": 20, "support": 100}),
    "learn-dl": (
        "interactive decision-list learner",
        {"d": 8, "alpha": 0.1, "oracle": "exact", "epsilon": 1.0,
         "length": 5, "tau": None, "delta": 0.05}),
    "estimate-mean": (
        "Monte-Carlo validity sweep of a compiled protocol",
        {"epsilon": 1.0, "tau": 0.1, "delta": 0.1, "trials": 200,
         "queries": 10, "channel": "ldp"}),
    "adversary-demo": (
        "worst-case distribution certificates and the negation-fooling demo",
        {"class": "shipped", "d": 2, "m": 2}),
    "jl-check": (
        "Monte-Carlo margin preservation under random projection",
        {"d": 100, "gamma": 0.3, "delta": 0.05, "trials": 100,
         "support": 200}),
    "compile-report": (
        "run one compiled protocol and emit its report",
        {"epsilon": 1.0, "tau": 0.1, "delta": 0.1, "queries": 10,
         "channel": "ldp"}),
    "separation": (
        "the canonical adaptive-vs-non-adaptive contrast table", {}),
}
COMMANDS = tuple(_TABLE)

_COMMON_HELP = {
    "config": "JSON config file; flags override",
    "out": "output directory",
    "seed": None,
    "check": "exit 3 unless the run meets its acceptance condition",
}

# ExperimentConfig fields whose config key differs from the field name.
_KEY = {"dim": "d", "class_spec": "class"}

_ENV_OUT = "LOCALSQ_OUT"
_DEFAULT_OUT = "localsq-out"

# Probe setup shared by estimate-mean and compile-report: a small fixed
# source and a cycling mix of label-free and label-weighted coordinate
# means, so both compilers are exercised on both query kinds.
_PROBE_DIM = 3
_PROBE_SUPPORT = 12
_PROBE_GAMMA = 0.25


class CheckFailure(LocalSqError):
    """An acceptance condition requested with --check did not hold."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-resolved command invocation."""

    command: str
    seed: int = 0
    out: str = _DEFAULT_OUT
    check: bool = False
    dim: int | None = None
    support: int | None = None
    gamma: float | None = None
    alpha: float | None = None
    delta: float | None = None
    epsilon: float | None = None
    tau: float | None = None
    m: int | None = None
    oracle: str | None = None
    mode: str | None = None
    channel: str | None = None
    trials: int | None = None
    length: int | None = None
    queries: int | None = None
    class_spec: str | None = None

    def __post_init__(self):
        # One rule for flags, config files and direct callers.
        for f in fields(self):
            if getattr(self, f.name) is not None:
                _check_key(self.command, _KEY.get(f.name, f.name),
                           getattr(self, f.name))


def _check_key(command: str, key: str, value) -> None:
    """Refuse one set config value, naming its key: a non-finite number,
    or one the config schema refuses when paired with the command alone
    (the schema's bounds let NaN through)."""
    if isinstance(value, float) and not np.isfinite(value):
        raise PreconditionError(f"{key}: {value!r} is not a finite number")
    validate("config", {"command": command, key: value}, PreconditionError,
             f"{key}: ")


# ---------------------------------------------------------------------------
# Artifact emission. Everything is rendered with sorted keys and repr
# floats and carries no timestamps, so bytes depend only on (config, seed).


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool too: True is written 1
        return str(int(v))
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return ";".join(str(int(u)) for u in v)
    return str(v)


def _csv_text(name: str, columns: list, rows: list) -> str:
    lines = [f"# localsq-csv v1 {name}", ",".join(columns)]
    for row in rows:
        cells = [_fmt(row[c]) for c in columns]
        for cell in cells:
            if "," in cell or "\n" in cell:
                raise ProtocolError(f"CSV cell {cell!r} needs quoting")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _emit_json(outdir: Path, name: str, schema: str, obj) -> Path:
    validate_artifact(schema, obj)
    return _write(outdir, name, json.dumps(obj, sort_keys=True, indent=2)
                  + "\n")


def _emit_transcript(outdir: Path, transcript) -> Path:
    for block in transcript.blocks:  # its lines are the block's expansion
        validate_artifact("transcript_block", block.to_json())
    return _write(outdir, "transcript.jsonl", transcript.to_jsonl())


# ---------------------------------------------------------------------------
# The fixed probe protocol used by estimate-mean and compile-report.


def _probe_queries(t: int, tau: float) -> list:
    def probe(c: int, dep: bool):
        return (lambda X, y: y * X[:, c]) if dep else (lambda X, y: X[:, c])

    return [StatQuery(fn=probe(j % _PROBE_DIM, j % 2 == 1), tau=tau,
                      label_dependent=j % 2 == 1)
            for j in range(t)]


def _probe_source(seed: int):
    return make_margin_source(_PROBE_DIM, _PROBE_GAMMA, _PROBE_SUPPORT, seed)


def _probe_channel(cfg: ExperimentConfig):
    return ldp_channel(cfg.epsilon) if cfg.channel == "ldp" else ONE_BIT


def _probe_oracle(cfg: ExperimentConfig, src, seed: int) -> ChannelOracle:
    """The chosen channel, sized for the probe, as an oracle on src."""
    return ChannelOracle(src, _probe_channel(cfg), cfg.queries, cfg.tau,
                         cfg.delta, seed)


def _probe_answers(oracle, cfg: ExperimentConfig) -> list:
    """The oracle's answers to the probe, all asked in round 0."""
    return [oracle.ask(q, 0) for q in _probe_queries(cfg.queries, cfg.tau)]


# ---------------------------------------------------------------------------
# Command handlers.


def _cmd_learn_halfspace(cfg: ExperimentConfig) -> None:
    outdir = Path(cfg.out)
    src = make_margin_source(cfg.dim, cfg.gamma, cfg.support,
                             derive_seed(cfg.seed, "halfspace-source"))
    hyp, info = learn_halfspace(
        src, cfg.gamma, cfg.alpha, cfg.delta, mode=cfg.mode,
        oracle=cfg.oracle, epsilon=cfg.epsilon,
        seed=derive_seed(cfg.seed, "halfspace-run"),
    )
    error = classification_error(hyp, src)
    learner = info.learner_json()
    working_dim, ambient_dim = hyp.proj.matrix.shape
    report = {
        "command": "learn-halfspace",
        "seed": cfg.seed,
        "mode": cfg.mode,
        "oracle": cfg.oracle,
        "gamma": cfg.gamma,
        "alpha": cfg.alpha,
        "delta": cfg.delta,
        "epsilon": cfg.epsilon if cfg.oracle == "ldp" else None,
        "ambient_dim": ambient_dim,
        "working_dim": working_dim,
        "gamma_effective": info.driver.params.gamma,
        "projected": working_dim < ambient_dim,
        "rounds": info.rounds,
        "samples": info.samples_used,
        "error": error,
        "learner": learner,
    }
    _emit_json(outdir, "hypothesis.json", "hypothesis", hyp.to_json())
    _emit_json(outdir, "halfspace_report.json", "halfspace_report", report)
    _emit_transcript(outdir, info.transcript)
    _write(outdir, "results.csv", _csv_text(
        "learn-halfspace",
        ["command", "seed", "mode", "oracle", "ambient_dim", "working_dim",
         "rounds", "queries_total", "queries_label_dependent", "samples",
         "error"],
        [learner | report],
    ))
    lna = info.label_non_adaptive
    print(f"learn-halfspace seed={cfg.seed}: error={error!r} "
          f"alpha={cfg.alpha!r} rounds={info.rounds} "
          f"label_non_adaptive={lna} out={outdir}")
    if cfg.check:
        if error > cfg.alpha:
            raise CheckFailure(
                f"error {error!r} exceeds alpha {cfg.alpha!r}")
        if not lna:
            raise CheckFailure("transcript is not label-non-adaptive")


def _resolve_dl_tau(cfg: ExperimentConfig) -> float | None:
    if cfg.tau is not None:
        return cfg.tau
    if cfg.oracle == "ldp":
        # The admissibility default alpha/(8 d) prices simulation out of
        # reach; this looser tolerance still separates the candidate gaps
        # at desk scale.
        return 0.005
    return None


def _cmd_learn_dl(cfg: ExperimentConfig) -> None:
    outdir = Path(cfg.out)
    target = random_decision_list(cfg.dim, cfg.length,
                                  derive_seed(cfg.seed, "dl-target"))
    src = uniform_hypercube_source(cfg.dim, target)
    learner_cfg = DlLearnerConfig(dim=cfg.dim, alpha=cfg.alpha,
                                  tau=_resolve_dl_tau(cfg))
    if cfg.oracle == "exact":
        oracle = ExactOracle(src)
        learned = learn_decision_list_sq(oracle, learner_cfg)
    else:
        learned, oracle = compile_sq_to_ldp(
            DlDriver(learner_cfg), src, cfg.epsilon, learner_cfg.tau,
            cfg.delta, seed=derive_seed(cfg.seed, "dl-ldp"))
    transcript = oracle.transcript
    rounds = transcript.rounds_used()
    dep_rounds = transcript.label_dependent_rounds()
    error = classification_error(learned, src)
    report = {
        "command": "learn-dl",
        "seed": cfg.seed,
        "dim": cfg.dim,
        "length": cfg.length,
        "alpha": cfg.alpha,
        "tau": learner_cfg.tau,
        "delta": cfg.delta,
        "oracle": cfg.oracle,
        "epsilon": cfg.epsilon if cfg.oracle == "ldp" else None,
        "rounds": rounds,
        "label_dependent_rounds": dep_rounds,
        "queries": len(transcript),
        "samples": oracle.samples_used,
        "error": error,
        "target": target.to_json(),
        "learned": learned.to_json(),
    }
    _emit_json(outdir, "dl_report.json", "dl_report", report)
    _emit_json(outdir, "dl_hypothesis.json", "target", learned.to_json())
    _emit_transcript(outdir, transcript)
    _write(outdir, "results.csv", _csv_text(
        "learn-dl",
        ["command", "seed", "dim", "length", "alpha", "oracle", "rounds",
         "label_dependent_rounds", "queries", "samples", "error"],
        [report],
    ))
    print(f"learn-dl seed={cfg.seed}: error={error!r} alpha={cfg.alpha!r} "
          f"rounds={rounds} label_dependent_rounds={dep_rounds} "
          f"out={outdir}")
    if cfg.check and error > cfg.alpha:
        raise CheckFailure(f"error {error!r} exceeds alpha {cfg.alpha!r}")


def _cmd_estimate_mean(cfg: ExperimentConfig) -> None:
    outdir = Path(cfg.out)
    batch = _probe_channel(cfg).batch_size(cfg.queries, cfg.tau, cfg.delta)

    def trial(i: int) -> float:
        src = _probe_source(derive_seed(cfg.seed, "estimate-source", i))
        truth = _probe_answers(ExactOracle(src), cfg)
        answers = _probe_answers(_probe_oracle(
            cfg, src, derive_seed(cfg.seed, "estimate-channel", i)), cfg)
        return max(abs(a - t) for a, t in zip(answers, truth))

    deviations = [trial(i) for i in range(cfg.trials)]
    failures = sum(1 for dev in deviations if dev > cfg.tau)
    fraction = failures / cfg.trials
    report = {
        "command": "estimate-mean",
        "seed": cfg.seed,
        "channel": cfg.channel,
        "epsilon": cfg.epsilon if cfg.channel == "ldp" else None,
        "tau": cfg.tau,
        "delta": cfg.delta,
        "queries": cfg.queries,
        "batch": batch,
        "trials": cfg.trials,
        "failures": failures,
        "failure_fraction": fraction,
    }
    _emit_json(outdir, "estimate_report.json", "estimate_report", report)
    _write(outdir, "estimate_trials.csv", _csv_text(
        "estimate-mean",
        ["trial", "max_abs_deviation", "within_tau"],
        [{"trial": i, "max_abs_deviation": dev, "within_tau": dev <= cfg.tau}
         for i, dev in enumerate(deviations)],
    ))
    print(f"estimate-mean seed={cfg.seed}: channel={cfg.channel} "
          f"batch={batch} failure_fraction={fraction!r} "
          f"delta={cfg.delta!r} out={outdir}")
    if cfg.check and fraction > cfg.delta:
        raise CheckFailure(
            f"failure fraction {fraction!r} exceeds delta {cfg.delta!r}")


def _all_decision_lists(d: int, matrix) -> list:
    """Every decision list over d variables, deduplicated by label pattern."""
    seen = set()
    out = []
    for k in range(d + 1):
        for variables in permutations(range(d), k):
            for pols in product((0, 1), repeat=k):
                for outs in product((-1, 1), repeat=k):
                    items = list(zip(variables, pols, outs))
                    for default in (-1, 1):
                        dl = DecisionList(items, default)
                        key = np.asarray(dl.labels_for(matrix)).tobytes()
                        if key not in seen:
                            seen.add(key)
                            out.append(dl)
    return out


def _separable_patterns(matrix) -> list:
    """All homogeneous-halfspace label patterns on the rows of matrix."""
    n, d = matrix.shape
    out = []
    for pattern in product((-1, 1), repeat=n):
        y = np.asarray(pattern, dtype=float)
        # Feasibility of y_i <w, x_i> >= 1 with w = u - v, u, v >= 0.
        signed = y[:, None] * matrix
        a_ub = np.hstack([-signed, signed])
        try:
            solve_lp(c=np.zeros(2 * d), a_ub=a_ub, b_ub=-np.ones(n))
        except SolverError as e:
            if "infeasibility" not in e.dump:  # a failure, not a verdict
                raise
            continue
        out.append(Explicit(matrix, pattern))
    return out


def _load_explicit_class(path: str):
    obj = _read_json(path)
    validate("explicit_class", obj, PreconditionError,
             "invalid explicit class file: ")
    points = point_rows(obj["support"])
    targets = [Explicit(points, labels) for labels in obj["targets"]]
    return points, targets


def _adversary_instance(cfg: ExperimentConfig):
    spec = cfg.class_spec
    if spec in ("dl", "hs"):
        if cfg.dim > 3:
            raise PreconditionError(
                "class enumeration is supported for d <= 3")
        points = hypercube_rows(cfg.dim)
        if spec == "dl":
            return points, _all_decision_lists(cfg.dim, points)
        return points, _separable_patterns(points)
    if spec.startswith("explicit:"):
        return _load_explicit_class(spec[len("explicit:"):])
    raise PreconditionError(f"unknown class {spec!r}")


def _cmd_adversary(cfg: ExperimentConfig) -> None:
    outdir = Path(cfg.out)
    demo = witness_index = None
    if cfg.class_spec == "shipped":
        demo = run_shipped_negation_demo(cfg.seed)
        m, n_targets, found, certificate = 2, 2, demo.found, demo.certificate
    else:
        points, targets = _adversary_instance(cfg)
        rng = generator(derive_seed(cfg.seed, "adversary-hset"))
        rows = [tuple(1 if b else -1 for b in rng.integers(0, 2, len(points)))
                for _ in range(cfg.m)]
        hset = HypothesisSet(tuple(table_function(points, row) for row in rows))
        m, n_targets = cfg.m, len(targets)
        witness = correlation_cover_check(hset, targets, points, 1.0 / m)
        found = witness is not None
        witness_index, certificate = witness if found else (None, None)
    report = {
        "command": "adversary-demo",
        "seed": cfg.seed,
        "class": cfg.class_spec,
        "m": m,
        "threshold": 1.0 / m,
        "n_targets": n_targets,
        "found": found,
        "demo": demo.to_json() if demo else None,
        "witness_index": witness_index,
    }
    _emit_json(outdir, "adversary_report.json", "adversary_report", report)
    if found:
        _emit_json(outdir, "certificate.json", "certificate",
                   certificate.to_json())
    if demo is None:
        value = certificate.value if found else None
        print(f"adversary-demo seed={cfg.seed}: class={cfg.class_spec} "
              f"m={m} targets={n_targets} found={found} "
              f"value={value!r} out={outdir}")
        return
    print(f"adversary-demo seed={cfg.seed}: class=shipped "
          f"found={demo.found} max_error={demo.max_error!r} "
          f"identical_transcripts={demo.identical_transcripts} "
          f"out={outdir}")
    if cfg.check:
        if not (demo.found and demo.identical_transcripts):
            raise CheckFailure("shipped demo did not fool the probe")
        total = demo.error_target + demo.error_negation
        if abs(total - 1.0) > 1e-12:
            raise CheckFailure(f"errors sum to {total!r}, not 1")
        if demo.max_error < 0.5:
            raise CheckFailure(f"max error {demo.max_error!r} below 1/2")


def _cmd_jl_check(cfg: ExperimentConfig) -> None:
    outdir = Path(cfg.out)

    def trial(i: int) -> float:
        src = make_margin_source(cfg.dim, cfg.gamma, cfg.support,
                                 derive_seed(cfg.seed, "jl-source", i))
        proj = jl_map(src.dim, cfg.gamma, cfg.delta,
                      derive_seed(cfg.seed, "jl-map", i))
        # Margins read only |Mx| and <Mx, Mw>, which any F with F^T F = M^T M
        # gives alike: a tall map becomes the d x d Cholesky factor of its
        # Gram matrix. A map with d' <= d is used as it is.
        m = proj.matrix
        if m.shape[0] > m.shape[1]:
            proj = ProjectionMap(np.linalg.cholesky(m.T @ m).T)
        image = proj.matrix @ src.target.w
        norm = float(np.linalg.norm(image))
        if norm == 0.0:
            return 1.0
        margins = (proj.apply(src.dist.matrix) @ (image / norm)) * src.labels
        return float(np.mean(margins < cfg.gamma / 2.0))

    fractions = [trial(i) for i in range(cfg.trials)]
    ok_count = sum(1 for f in fractions if f <= cfg.delta)
    ok_fraction = ok_count / cfg.trials
    report = {
        "command": "jl-check",
        "seed": cfg.seed,
        "dim": cfg.dim,
        "gamma": cfg.gamma,
        "delta": cfg.delta,
        "target_dim": jl_dim(cfg.gamma, cfg.delta),
        "support": cfg.support,
        "trials": cfg.trials,
        "ok_count": ok_count,
        "ok_fraction": ok_fraction,
    }
    _emit_json(outdir, "jl_report.json", "jl_report", report)
    _write(outdir, "jl_trials.csv", _csv_text(
        "jl-check",
        ["trial", "violating_fraction", "ok"],
        [{"trial": i, "violating_fraction": f, "ok": f <= cfg.delta}
         for i, f in enumerate(fractions)],
    ))
    print(f"jl-check seed={cfg.seed}: ok_fraction={ok_fraction!r} "
          f"target=0.9 out={outdir}")
    if cfg.check and ok_fraction < 0.9:
        raise CheckFailure(
            f"margin preserved in only {ok_fraction!r} of trials")


def _cmd_compile_report(cfg: ExperimentConfig) -> None:
    outdir = Path(cfg.out)
    src = _probe_source(derive_seed(cfg.seed, "compile-source"))
    truth = _probe_answers(ExactOracle(src), cfg)
    proto = _probe_oracle(cfg, src, derive_seed(cfg.seed, "compile-channel"))
    answers = _probe_answers(proto, cfg)
    schema = "ldp_report" if cfg.channel == "ldp" else "comm_report"
    _emit_json(outdir, "protocol_report.json", schema, proto.to_json())
    deviation = max(abs(a - t) for a, t in zip(answers, truth))
    print(f"compile-report seed={cfg.seed}: channel={cfg.channel} "
          f"rounds={proto.rounds} n={proto.samples_used} "
          f"max_abs_deviation={deviation!r} out={outdir}")
    if cfg.check and deviation > cfg.tau:
        raise CheckFailure(
            f"deviation {deviation!r} exceeds tau {cfg.tau!r}")


def separation_experiment(seed: int):
    """Three-row contrast table: adaptive wins, non-adaptive is fooled,
    and the margin learner needs labels only up front.

    Returns (rows, shipped fooling report); the certificate inside the
    report backs the middle row.
    """
    rows = []
    # (a) the interactive decision-list learner through the private
    # compiler: label-dependent traffic in later rounds, low error.
    dl_cfg = DlLearnerConfig(dim=6, alpha=0.1, tau=0.005)
    target = random_decision_list(6, 3,
                                  derive_seed(seed, "separation-dl-target"))
    src = uniform_hypercube_source(6, target)
    learned, proto = compile_sq_to_ldp(
        DlDriver(dl_cfg), src, 1.0, dl_cfg.tau, 0.05,
        seed=derive_seed(seed, "separation-dl-ldp"),
    )
    rows.append({
        "algorithm": "decision-list-sq",
        "class": "decision lists (d=6)",
        "rounds": proto.transcript.rounds_used(),
        "label_dependent_rounds": proto.transcript.label_dependent_rounds(),
        "samples": proto.samples_used,
        "final_error": classification_error(learned, src),
    })
    # (b) a fixed label-non-adaptive probe against the adversarial
    # oracle: certified indistinguishable target pair, error >= 1/2.
    demo = run_shipped_negation_demo(seed)
    rows.append({
        "algorithm": "fixed-probe",
        "class": "negation pair (|X|=4)",
        "rounds": 1,
        "label_dependent_rounds": [0],
        "samples": 0,
        "final_error": demo.max_error,
    })
    # (c) the margin learner through the same compiler: succeeds with
    # label-dependent traffic confined to round 0.
    hs_src = make_margin_source(20, 0.3, 100,
                                derive_seed(seed, "separation-hs-source"))
    hyp, info = learn_halfspace(
        hs_src, 0.3, 0.15, 0.05, oracle="ldp", epsilon=1.0,
        seed=derive_seed(seed, "separation-hs-run"),
    )
    rows.append({
        "algorithm": "halfspace-psgd",
        "class": "margin halfspaces (d=20)",
        "rounds": info.rounds,
        "label_dependent_rounds": info.transcript.label_dependent_rounds(),
        "samples": info.samples_used,
        "final_error": classification_error(hyp, hs_src),
    })
    return rows, demo


def _cmd_separation(cfg: ExperimentConfig) -> None:
    outdir = Path(cfg.out)
    rows, demo = separation_experiment(cfg.seed)
    report = {
        "command": "separation",
        "seed": cfg.seed,
        "rows": rows,
        "certificate": (demo.certificate.to_json()
                        if demo.certificate else None),
    }
    _emit_json(outdir, "separation.json", "separation_report", report)
    _write(outdir, "separation.csv", _csv_text(
        "separation", ["algorithm", "class", "rounds",
                       "label_dependent_rounds", "samples", "final_error"],
        rows,
    ))
    for row in rows:
        print(f"separation seed={cfg.seed}: {row['algorithm']:>16} "
              f"rounds={row['rounds']} "
              f"label_dependent_rounds={row['label_dependent_rounds']} "
              f"samples={row['samples']} error={row['final_error']!r}")
    if cfg.check:
        if rows[0]["final_error"] > 0.1:
            raise CheckFailure(
                f"interactive run error {rows[0]['final_error']!r} "
                f"above 0.1")
        if rows[1]["final_error"] < 0.5:
            raise CheckFailure("the fixed probe was not fooled")
        if not set(rows[2]["label_dependent_rounds"]) <= {0}:
            raise CheckFailure(
                "halfspace label-dependent traffic left round 0")


_HANDLERS = {
    "learn-halfspace": _cmd_learn_halfspace,
    "learn-dl": _cmd_learn_dl,
    "estimate-mean": _cmd_estimate_mean,
    "adversary-demo": _cmd_adversary,
    "jl-check": _cmd_jl_check,
    "compile-report": _cmd_compile_report,
    "separation": _cmd_separation,
}


# ---------------------------------------------------------------------------
# Argument parsing and config resolution.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localsq",
        description="Statistical-query learning under local privacy and "
                    "communication limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = {"integer": int, "number": float, "string": str}
    props = SCHEMAS["config"]["properties"]
    for command, (help_line, flags) in _TABLE.items():
        sp = sub.add_parser(command, help=help_line, aliases=(
            ["adversary"] if command == "adversary-demo" else []))
        for key in [*flags, *_COMMON_HELP]:
            schema = props.get(key, {"type": "string"})
            if "enum" in schema:
                kind = {"choices": schema["enum"]}
            elif schema["type"] == "boolean":
                kind = {"action": "store_const", "const": True}
            else:
                kind = {"type": types[schema["type"]]}
            sp.add_argument(f"--{key}", help=_COMMON_HELP.get(key), **kind,
                            metavar=("{shipped,dl,hs,explicit:FILE}"
                                     if key == "class" else None))
    return parser


def _read_json(path: str):
    """The JSON value in the file at path; unreadable is a usage error."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise PreconditionError(f"cannot read JSON file {path}: {e}") from e


def _build_config(args) -> ExperimentConfig:
    command = "adversary-demo" if args.command == "adversary" else \
        args.command
    file_obj = {}
    if args.config:
        file_obj = _read_json(args.config)
        for key in SCHEMAS["config"]["properties"]:  # the per-key rule first
            if isinstance(file_obj, dict) and file_obj.get(key) is not None:
                _check_key(command, key, file_obj[key])
        validate_config(file_obj)
        file_command = file_obj.get("command", command)
        if file_command != command:
            raise PreconditionError(
                f"config file names command {file_command!r}, "
                f"invoked {command!r}")
    # A flag beats the file, which beats the table; the output directory
    # consults LOCALSQ_OUT between the flag and the file.
    values = {"command": command,
              "out": (args.out or os.environ.get(_ENV_OUT)
                      or file_obj.get("out") or _DEFAULT_OUT)}
    sources = (vars(args), file_obj, _TABLE[command][1])
    for f in fields(ExperimentConfig):
        key = _KEY.get(f.name, f.name)
        found = [s[key] for s in sources if s.get(key) is not None]
        if found and f.name not in values:
            values[f.name] = found[0]
    return ExperimentConfig(**values)


def run(cfg: ExperimentConfig) -> int:
    """Dispatch one resolved configuration; returns the process exit code."""
    try:
        _HANDLERS[cfg.command](cfg)
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 3
    except LocalSqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
    except LocalSqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
