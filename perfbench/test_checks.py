"""Each correctness check of the benchmark accepts a real output of the
program and rejects the same output with one thing corrupted.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from localsq import _rng, cli, core, lowerbound  # noqa: E402
from localsq import margin_learner as ml  # noqa: E402


def corrupted(rec: dict, **changes) -> dict:
    out = copy.deepcopy(rec)
    out.update(changes)
    return out


def replace_entry(entries, index, **fields):
    entries = list(entries)
    r, dep, tau, ans = entries[index]
    row = {"r": r, "dep": dep, "tau": tau, "ans": ans, **fields}
    entries[index] = (row["r"], row["dep"], row["tau"], row["ans"])
    return entries


@pytest.fixture(scope="module")
def halfspace_records():
    src = core.make_margin_source(50, 0.3, 100, _rng.derive_seed(0, "acc6-src", 0))
    out = {}
    for oracle in ("exact", "comm"):
        raw = ml.learn_halfspace(src, 0.3, 0.15, 0.05, oracle=oracle, seed=5)
        out[oracle] = workloads._halfspace_record(oracle, src, 0.3, raw)
    return out


def test_halfspace_exact_check(halfspace_records):
    rec = halfspace_records["exact"]
    assert checks.check_halfspace_run(rec)["error"] <= 0.15
    bad = [
        corrupted(rec, w=rec["w"] + 1e-6),
        corrupted(rec, entries=replace_entry(rec["entries"], 3,
                                             ans=rec["entries"][3][3] + 1e-6)),
        corrupted(rec, entries=replace_entry(rec["entries"], 150, dep=True)),
        corrupted(rec, labels=-rec["labels"]),
        corrupted(rec, samples_used=1),
    ]
    for b in bad:
        with pytest.raises(checks.CheckError):
            checks.check_halfspace_run(b)


def test_halfspace_compiled_check(halfspace_records):
    rec = halfspace_records["comm"]
    assert checks.check_halfspace_run(rec)["within_tau"]
    with pytest.raises(checks.CheckError):
        checks.check_halfspace_run(
            corrupted(rec, samples_used=rec["samples_used"] + 1))
    # The last round's answers drive a step past the averaged iterates, so
    # moving one past tau keeps w consistent: the run is then no longer
    # within tau, and the share check fails.
    moved = replace_entry(rec["entries"], -1, ans=rec["entries"][-1][3] + 0.2)
    result = checks.check_halfspace_run(corrupted(rec, entries=moved))
    assert not result["within_tau"]
    with pytest.raises(checks.CheckError):
        checks.share_at_least([result["within_tau"]], 0.95, "within tau")


def test_error_share_check(halfspace_records):
    rec = halfspace_records["exact"]
    error = checks.halfspace_error(rec["proj"], -rec["w"], rec["X"],
                                   rec["labels"], rec["probs"])
    assert error == pytest.approx(1.0)
    with pytest.raises(checks.CheckError):
        checks.share_at_least([error <= 0.15], 0.9, "runs within alpha")


@pytest.fixture(scope="module")
def dl_records():
    wl = workloads.InteractiveLowerbound()
    inputs = wl.setup(0)
    inputs["dl"] = inputs["dl"][:4]
    inputs["lp"] = inputs["lp"][:2]
    inputs["demos"] = range(2)
    rnd = workloads.Round(HERE)
    wl.run_round(inputs, rnd)
    assert not rnd.failures
    return [wl.record(inputs, HERE, kind, key, raw)
            for kind, key, raw in rnd.ops]


def test_dl_check(dl_records):
    exact = next(r for r in dl_records if r.get("oracle") == "exact"
                 and len(r["learned_items"]) > 1)
    private = next(r for r in dl_records if r.get("oracle") == "ldp")
    assert checks.check_dl_run(exact)["error"] <= 0.1
    assert checks.check_dl_run(private)["within_tau"]
    items = list(exact["learned_items"])
    bad = [
        corrupted(exact, entries=replace_entry(exact["entries"], 2,
                                               ans=exact["entries"][2][3] + 1e-6)),
        corrupted(exact, learned_items=items[::-1]),
        corrupted(exact, entries=[(r, False, t, a) if r > 0 else (r, d, t, a)
                                  for r, d, t, a in exact["entries"]]),
        corrupted(private, samples_used=private["samples_used"] - 1),
    ]
    for b in bad:
        with pytest.raises(checks.CheckError):
            checks.check_dl_run(b)


def test_lp_check(dl_records):
    rec = next(r for r in dl_records if "rows" in r)
    checks.check_lp_instance(rec)
    D = rec["D"] + np.linspace(0.0, 1.0, rec["D"].size) * 1e-3
    # A distribution whose value is reported truthfully but is not optimal.
    uniform = np.full(rec["D"].size, 1.0 / rec["D"].size)
    f = checks.dl_labels(rec["f_items"], rec["f_default"], rec["X"])
    uniform_value = float(np.max(np.abs((rec["rows"] * f) @ uniform)))
    assert uniform_value > rec["value"] + 1e-3
    for b in (corrupted(rec, value=rec["value"] + 1e-3),
              corrupted(rec, D=D / D.sum()),
              corrupted(rec, D=uniform, value=uniform_value)):
        with pytest.raises(checks.CheckError):
            checks.check_lp_instance(b)


def test_negation_check(dl_records):
    rec = next(r for r in dl_records if "probe" in r)
    checks.check_negation_demo(rec)
    for b in (corrupted(rec, answers_negation=[rec["answers_target"][0] + 0.5]),
              corrupted(rec, error_target=rec["error_target"] + 0.25),
              corrupted(rec, value=rec["value"] + 0.1)):
        with pytest.raises(checks.CheckError):
            checks.check_negation_demo(b)


def test_cli_checks(tmp_path):
    schemas = checks.SchemaSet(HERE.parent / "docs" / "schema")
    dirs = []
    for rep in range(2):
        out = tmp_path / f"run{rep}"
        code, _ = workloads._run_cli(["compile-report", "--seed", "1",
                                      "--out", str(out)])
        assert code == 0
        dirs.append(out)
    checks.check_cli_artifacts(dirs[0], schemas)
    checks.same_bytes(dirs[0], dirs[1])
    report = dirs[1] / "protocol_report.json"
    obj = json.loads(report.read_text())
    obj["rounds"] = -1
    report.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    with pytest.raises(checks.CheckError):
        checks.same_bytes(dirs[0], dirs[1])
    with pytest.raises(checks.CheckError):
        checks.check_cli_artifacts(dirs[1], schemas)


def test_halfspace_artifact_check(tmp_path):
    src = core.make_margin_source(5, 0.3, 30, 11)
    hyp, info = ml.learn_halfspace(src, 0.3, 0.15, 0.05, seed=2)
    error = float(core.classification_error(hyp, src))
    (tmp_path / "hypothesis.json").write_text(json.dumps(hyp.to_json()))
    (tmp_path / "transcript.jsonl").write_text(info.transcript.to_jsonl())
    args = (tmp_path, src.dist.matrix, src.labels, src.dist.probs, 0.15)
    for reported, ok in ((error, True), (error + 0.01, False)):
        (tmp_path / "halfspace_report.json").write_text(
            json.dumps({"error": reported}))
        if ok:
            checks.check_halfspace_artifacts(*args)
        else:
            with pytest.raises(checks.CheckError):
                checks.check_halfspace_artifacts(*args)
    lines = info.transcript.to_jsonl().splitlines()
    first = json.loads(lines[0])
    first["answer"] += 1e-6
    lines[0] = json.dumps(first)
    (tmp_path / "halfspace_report.json").write_text(json.dumps({"error": error}))
    (tmp_path / "transcript.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError):
        checks.check_halfspace_artifacts(*args)


def test_tracer_restores_every_binding():
    import tracer as tracing

    before = (lowerbound.solve_lp, cli.solve_lp, ml.compile_sq_to_ldp,
              cli.compile_sq_to_ldp, core.SampleStream.counts)
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        assert cli.solve_lp is lowerbound.solve_lp is not before[0]
        assert cli.compile_sq_to_ldp is ml.compile_sq_to_ldp is not before[2]
        lowerbound.run_shipped_negation_demo(0)
    finally:
        tr.uninstall()
    assert tr.values["lowerbound.lp_solves"] == 1
    assert (lowerbound.solve_lp, cli.solve_lp, ml.compile_sq_to_ldp,
            cli.compile_sq_to_ldp, core.SampleStream.counts) == before
