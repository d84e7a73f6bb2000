"""One workload in one fresh process: set up, time whole rounds, check.

Started by run.py, never by hand. With --setup-only it stops once the
inputs are built and reports only the set-up time. Otherwise it repeats
the workload's round until --seconds have passed (and at least the
workload's minimum number of rounds ran), checks the first round's
outputs, checks that every later round reproduced them, and with
--trace 1 runs one more set-up and round under the tracer. The last line
of its standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def records_of(wl, inputs, rnd):
    return [None if raw is None else wl.record(inputs, rnd.workdir, kind, key, raw)
            for kind, key, raw in rnd.ops]


def reproduces(wl, first, records) -> bool:
    return len(first) == len(records) and all(
        a is None and b is None or a is not None and b is not None and wl.same(a, b)
        for a, b in zip(first, records))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken before the spawn")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.setup(args.seed)
    setup_s = monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks

    walls, errors, failures = [], [], []
    first = None
    attempted = 0
    start = time.perf_counter()
    while len(walls) < wl.min_rounds or time.perf_counter() - start < args.seconds:
        rnd = workloads.Round(args.tmp / f"round{len(walls)}")
        t = time.perf_counter()
        wl.run_round(inputs, rnd)
        walls.append(time.perf_counter() - t)
        attempted += len(rnd.ops)
        failures += rnd.failures
        records = records_of(wl, inputs, rnd)
        if first is None:
            first = records
        elif not reproduces(wl, first, records):
            errors.append(f"round {len(walls) - 1} differs from round 0")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done = [r for r in first if r is not None]
    summary = {}
    try:
        summary = wl.check(inputs, done)
    except checks.CheckError as exc:
        errors.append(str(exc))
    answers = sum(r["answers"] for r in done)

    trace = None
    if args.trace:
        import tracer as tracing

        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            t = time.perf_counter()
            traced_inputs = wl.setup(args.seed)
            traced_setup = time.perf_counter() - t
            rnd = workloads.Round(args.tmp / "traced", tracer=tr)
            t = time.perf_counter()
            wl.run_round(traced_inputs, rnd)
            traced_wall = time.perf_counter() - t
        finally:
            tr.uninstall()
        attempted += len(rnd.ops)
        failures += rnd.failures
        records = records_of(wl, traced_inputs, rnd)
        if not reproduces(wl, first, records):
            errors.append("the traced round differs from round 0")
        trace = tracing.per_layer(
            tr, traced_setup, traced_wall, statistics.median(walls),
            sum(r.get("bytes", 0) for r in records if r is not None))

    print(json.dumps({
        "setup_s": setup_s, "walls": walls, "answers_per_round": answers,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:10], "errors": errors,
        "peak_rss_mb": peak_rss_mb, "summary": summary, "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
