"""Per-layer tracing from outside the program.

`install` wraps public functions and methods of each `localsq` module and
replaces every module binding of each wrapped function, so a call through
`from .ldp import compile_sq_to_ldp` in another module is traced too. A
timed wrapper opens a span; a span's self time is its duration minus the
time of the spans it encloses, and is summed per layer. Counter wrappers
only count calls, for functions too cheap to time. Values are also summed
per benchmark operation (`begin_op`/`end_op`), so shares such as the
ledger's part of the projected runs can be read off one traced round.
Spans opened in the command line's trial threads nest per thread, so a
layer's time there is summed over the threads that ran in parallel;
`bench.self_s`, the time outside every span, counts the main thread only.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("sq", "margin_learner", "ldp", "comm", "core", "schemas", "cli",
          "lowerbound", "baselines")


class Tracer:
    def __init__(self):
        self.values = defaultdict(float)
        self.op_values = defaultdict(float)
        self.op_wall = defaultdict(float)
        self._local = threading.local()  # per thread: child time of open spans
        self._lock = threading.Lock()
        self.main_covered = 0.0  # main-thread time inside outermost spans
        self._op = None
        self._undo = []

    # -- accounting -------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] += amount
            if self._op is not None:
                self.op_values[(self._op, name)] += amount

    def _stack(self) -> list:
        if not hasattr(self._local, "open"):
            self._local.open = []
        return self._local.open

    def begin_op(self, kind: str) -> None:
        self._op = kind

    def end_op(self, kind: str, seconds: float) -> None:
        self.op_wall[kind] += seconds
        self._op = None

    # -- wrappers -------------------------------------------------------------

    def span(self, layer, metric, count=None, after=None):
        """Factory for a timed wrapper; `metric` may be a function of the
        call's arguments, `after(tracer, args, result)` adds extra counts."""

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack()
                stack.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    took = time.perf_counter() - start
                    children = stack.pop()
                    if stack:
                        stack[-1] += took
                    elif threading.current_thread() is threading.main_thread():
                        self.main_covered += took
                    self.add(f"{layer}.self_s", took - children)
                    self.add(metric(args) if callable(metric) else metric, took)
                    if count is not None:
                        self.add(count, 1)
                if after is not None:
                    after(self, args, result)
                return result

            return wrapper

        return factory

    def counter(self, metric):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.add(metric, 1)
                return fn(*args, **kwargs)

            return wrapper

        return factory

    # -- patching ---------------------------------------------------------------

    def patch_function(self, module, name, factory) -> None:
        original = getattr(module, name)
        wrapped = factory(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("localsq"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original, True))
                    setattr(mod, attr, wrapped)

    def patch_method(self, cls, name, factory) -> None:
        own = name in cls.__dict__
        self._undo.append((cls, name, cls.__dict__.get(name), own))
        setattr(cls, name, factory(getattr(cls, name)))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value, own = self._undo.pop()
            if own:
                setattr(target, attr, value)
            else:
                delattr(target, attr)


def _clients(tracer, args, result):
    _, start, stop = args[:3]
    tracer.add("core.simulated_clients", stop - start)


def _pivots(tracer, args, result):
    tracer.add("lowerbound.lp_pivots", result.iterations)


def install(tracer: Tracer) -> None:
    from localsq import (_rng, baselines, cli, comm, core, ldp, lowerbound,
                         margin_learner, schemas, sq)

    t = tracer
    t.patch_method(sq.ExactOracle, "ask",
                   t.span("sq", "sq.exact_ask_s", count="sq.answers"))
    t.patch_method(sq.AdversarialOracle, "ask",
                   t.span("sq", "sq.adversarial_ask_s", count="sq.answers"))

    for method, count in (("begin", None), ("feed", "margin_learner.rounds")):
        t.patch_method(margin_learner.HalfspaceDriver, method,
                       t.span("margin_learner", "margin_learner.driver_s",
                              count=count))
    t.patch_function(margin_learner, "sign_weight",
                     t.counter("margin_learner.sign_weight_calls"))
    t.patch_function(margin_learner, "jl_project",
                     t.span("margin_learner", "margin_learner.jl_project_s"))
    t.patch_function(margin_learner, "learn_halfspace",
                     t.span("margin_learner", "margin_learner.learn_halfspace_s"))

    t.patch_method(ldp.PrivacyLedger, "charge_span",
                   t.span("ldp", "ldp.ledger_s", count="ldp.ledger_charges"))
    t.patch_function(ldp, "ldp_estimate_mean",
                     t.span("ldp", "ldp.estimate_s", count="ldp.estimates"))
    t.patch_function(ldp, "compile_sq_to_ldp", t.span("ldp", "ldp.compile_s"))
    t.patch_function(comm, "comm_estimate_mean",
                     t.span("comm", "comm.estimate_s", count="comm.estimates"))
    t.patch_function(comm, "compile_sq_to_comm",
                     t.span("comm", "comm.compile_s"))

    t.patch_method(core.SampleStream, "counts",
                   t.span("core", "core.stream_counts_s",
                          count="core.stream_batches", after=_clients))
    for name in ("make_margin_source", "uniform_hypercube_source"):
        t.patch_function(core, name, t.span("core", "core.make_source_s"))
    t.patch_function(_rng, "derive_seed", t.counter("rng.derive_seed_calls"))
    t.patch_function(_rng, "generator", t.counter("rng.generators"))

    for name in ("validate_artifact", "validate_config"):
        t.patch_function(schemas, name,
                         t.span("schemas", "schemas.validate_s",
                                count="schemas.validations"))
    t.patch_function(cli, "run", t.span(
        "cli", lambda args: f"cli.command_s.{args[0].command}"))

    t.patch_function(lowerbound, "solve_lp",
                     t.span("lowerbound", "lowerbound.solve_lp_s",
                            count="lowerbound.lp_solves", after=_pivots))
    t.patch_function(lowerbound, "worst_correlation_distribution",
                     t.span("lowerbound", "lowerbound.worst_correlation_s"))
    t.patch_function(lowerbound, "negation_fooling_demo",
                     t.span("lowerbound", "lowerbound.negation_demo_s"))

    for method, count in (("begin", None), ("feed", "baselines.dl_rounds")):
        t.patch_method(baselines.DlDriver, method,
                       t.span("baselines", "baselines.dl_driver_s", count=count))
    t.patch_function(baselines, "learn_decision_list_sq",
                     t.span("baselines", "baselines.learn_s"))


def per_layer(tracer: Tracer, setup_s: float, wall_s: float,
              untraced_wall_s: float, artifact_bytes: int) -> dict:
    """The per-layer metrics of one traced set-up plus one traced round."""
    v = tracer.values
    out = {name: v.get(name, 0.0) for name in (
        "sq.answers", "sq.exact_ask_s", "sq.adversarial_ask_s",
        "margin_learner.learn_halfspace_s", "margin_learner.driver_s",
        "margin_learner.rounds", "margin_learner.sign_weight_calls",
        "margin_learner.jl_project_s",
        "ldp.ledger_charges", "ldp.ledger_s", "ldp.estimates",
        "ldp.estimate_s", "ldp.compile_s",
        "comm.estimates", "comm.estimate_s", "comm.compile_s",
        "core.stream_batches", "core.stream_counts_s",
        "core.simulated_clients", "core.make_source_s",
        "rng.generators", "rng.derive_seed_calls",
        "schemas.validations", "schemas.validate_s",
        "lowerbound.lp_solves", "lowerbound.solve_lp_s",
        "lowerbound.lp_pivots", "lowerbound.worst_correlation_s",
        "lowerbound.negation_demo_s",
        "baselines.learn_s", "baselines.dl_driver_s", "baselines.dl_rounds",
    )}
    from localsq.cli import COMMANDS

    for cmd in COMMANDS:
        out[f"cli.command_s.{cmd}"] = v.get(f"cli.command_s.{cmd}", 0.0)
    out["cli.artifact_bytes"] = float(artifact_bytes)

    def ratio(num, den):
        return num / den if den else 0.0

    out["margin_learner.sign_weight_per_round"] = ratio(
        out["margin_learner.sign_weight_calls"], out["margin_learner.rounds"])
    out["sq.exact_ask_share"] = ratio(out["sq.exact_ask_s"], wall_s)
    out["lowerbound.solve_lp_share"] = ratio(out["lowerbound.solve_lp_s"],
                                             wall_s)
    out["ldp.ledger_share_projected"] = ratio(
        tracer.op_values[("projected-ldp", "ldp.ledger_s")],
        tracer.op_wall["projected-ldp"])
    out["schemas.validate_share_learn_halfspace"] = ratio(
        tracer.op_values[("learn-halfspace", "schemas.validate_s")],
        tracer.op_wall["learn-halfspace"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = v.get(f"{layer}.self_s", 0.0)
    out["bench.self_s"] = setup_s + wall_s - tracer.main_covered
    out["trace.setup_s"] = setup_s
    out["trace.wall_s"] = wall_s
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    return out
