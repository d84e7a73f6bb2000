"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload halfspace-exact --seed 1 \
        --seconds 16 --trace 0

Run from the root of a source checkout (the package is imported from
src/). Every workload runs in fresh worker processes with the BLAS thread
count fixed to 1. With --trace 0 the set-up is timed in several fresh
interpreters, before and after the one that runs the timed rounds; the
result line carries the end-to-end metrics. With --trace 1 one
worker also runs a traced set-up and round, and the result line carries
the per-layer metrics. The full worker report is kept under
.perfbench-out/. Exit code 0 with a result line, 1 when a worker fails,
2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Timed set-ups per run: the main worker's, with half the rest before it
# and half after, so that their median spans the whole run. The median also
# drops the one set-up per checkout that compiles the bytecode cache.
SETUP_SAMPLES = 3
DEADLINE_S = 175.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(Exception):
    pass


def spawn(worker_args, deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *worker_args,
             "--t0", repr(t0)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "localsq" / "__init__.py").is_file():
        print(f"no localsq package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--tmp", str(tmp)]
    setup_only = common + ["--setup-only"]
    side = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        before = [spawn(setup_only, deadline)["setup_s"] for _ in range(side)]
        report = spawn(common, deadline)
        after = [spawn(setup_only, deadline)["setup_s"] for _ in range(side)]
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups = before + [report["setup_s"]] + after
    report["setup_samples"] = setups

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    if report["errors"]:
        print("\n".join(report["errors"]), file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in report["trace"].items()}
    else:
        wall = statistics.median(report["walls"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "queries_per_s": {"value": report["answers_per_round"] / wall,
                              "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or "_share_" in name:
        return "share"
    if name.endswith("_per_round"):
        return "calls/round"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
