"""End-to-end tests of the command line: dispatch, artifacts, exit codes.

Commands run in-process through localsq.cli.main with artifact
directories under tmp_path. Determinism cases rerun a command and
compare raw bytes. Every emitted JSON artifact is validated against its
schema from localsq.schemas here as well, independently of the writer's
own validation.
"""

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from localsq import cli, margin_learner, schemas
from localsq.cli import COMMANDS, ExperimentConfig, _build_config, \
    _build_parser, _emit_transcript, main, separation_experiment
from localsq.core import make_margin_source
from localsq.errors import ContractViolation, PreconditionError, SolverError
from localsq.schemas import SCHEMAS, validate_artifact, validate_config
from localsq.sq import ExactOracle, StatQuery

REPO = Path(__file__).resolve().parent.parent


def read_json(outdir, name):
    return json.loads((Path(outdir) / name).read_text())


def read_lines(outdir, name):
    return (Path(outdir) / name).read_text().splitlines()


class TestConfig:
    def test_bad_rate_rejected(self):
        with pytest.raises(PreconditionError):
            ExperimentConfig(command="learn-halfspace", gamma=1.5)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(PreconditionError):
            ExperimentConfig(command="estimate-mean", epsilon=0.0)

    def test_bad_command_rejected(self):
        with pytest.raises(PreconditionError):
            ExperimentConfig(command="frobnicate")

    def test_bad_oracle_rejected(self):
        with pytest.raises(PreconditionError):
            ExperimentConfig(command="learn-dl", oracle="psychic")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"command": "learn-dl", "d": 6, "length": 3, "seed": 4}))
        out = tmp_path / "out"
        # The flag overrides the file's seed; d and length come from it.
        code = main(["learn-dl", "--config", str(cfg), "--seed", "1",
                     "--out", str(out), "--d", "5"])
        assert code == 0
        report = read_json(out, "dl_report.json")
        assert report["seed"] == 1
        assert report["dim"] == 5
        assert report["length"] == 3

    def test_config_file_command_mismatch(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "learn-dl"}))
        assert main(["jl-check", "--config", str(cfg)]) == 2

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "jl-check", "bogus": 1}))
        assert main(["jl-check", "--config", str(cfg)]) == 2

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        env_out = tmp_path / "from-env"
        monkeypatch.setenv("LOCALSQ_OUT", str(env_out))
        assert main(["adversary-demo", "--seed", "0"]) == 0
        assert (env_out / "adversary_report.json").exists()

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOCALSQ_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "flagged"
        assert main(["adversary-demo", "--seed", "0",
                     "--out", str(out)]) == 0
        assert (out / "adversary_report.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_config_file_learn_dl_comm_refused_before_work(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "learn-dl", "oracle": "comm"}))
        out = tmp_path / "out"
        assert main(["learn-dl", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid config: 'comm' is not one of "
            "['exact', 'ldp']\n")
        assert not out.exists()

    def test_learn_dl_comm_flag_refused_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["learn-dl", "--oracle", "comm", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: oracle: 'comm' is not one of ['exact', 'ldp']\n")
        assert not out.exists()

    def test_negative_seed_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["separation", "--seed", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: seed: -3 is less than the minimum of 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compile-report"], ["estimate-mean", "--trials", "5"],
        ["learn-dl", "--oracle", "ldp"],
        ["learn-halfspace", "--oracle", "ldp", "--d", "10", "--support", "50"],
    ], ids=lambda a: a[0])
    def test_large_epsilon_runs_and_infinite_is_refused(self, tmp_path,
                                                        capsys, argv):
        # 16 is near the largest epsilon float64 randomized response meets;
        # inf has no c at all.
        assert main(argv + ["--epsilon", "16",
                            "--out", str(tmp_path / "big")]) == 0
        assert main(argv + ["--epsilon", "inf",
                            "--out", str(tmp_path / "inf")]) == 2
        assert capsys.readouterr().err == (
            "error: epsilon must be positive and finite\n")

    @pytest.mark.parametrize("argv", [
        ["compile-report"], ["estimate-mean", "--trials", "5"],
        ["learn-dl", "--oracle", "ldp"],
        ["learn-halfspace", "--oracle", "ldp", "--d", "10", "--support", "50"],
    ], ids=lambda a: a[0])
    @pytest.mark.parametrize("epsilon", ["1000", "1e-20"])
    def test_uncertifiable_epsilon_refused_naming_it(self, tmp_path, capsys,
                                                     argv, epsilon):
        # At 1000 c rounds to 1 and a message has probability 0; at 1e-20
        # c rounds to 0. Both are refused before any draw, naming epsilon.
        assert main(argv + ["--epsilon", epsilon,
                            "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: epsilon = {float(epsilon)!r} ")

    @pytest.mark.parametrize("argv", [
        ["compile-report", "--tau", "1e-300"], ["estimate-mean", "--tau", "inf"],
    ], ids=lambda a: a[0])
    def test_extreme_tau_refused_naming_tau(self, tmp_path, capsys, argv):
        # No batch size exists: tau * tau underflows to 0, or tau is
        # infinite. Both are refused before any work, naming tau.
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: tau = {argv[2]} ")

    @pytest.mark.parametrize("argv", [
        ["learn-halfspace", "--gamma", "1e-200"],
        ["jl-check", "--gamma", "1e-200"],
        ["learn-halfspace", "--delta", "1e-320"],
        ["jl-check", "--delta", "1e-320"],
        ["learn-halfspace", "--alpha", "1e-300"],
        pytest.param(["jl-check", "--gamma", "1e-3"],
                     id="jl-check--gamma-map-too-large"),
    ], ids=lambda a: f"{a[0]}{a[1]}")
    def test_size_formula_without_a_finite_value_refused(
            self, tmp_path, capsys, monkeypatch, argv):
        # gamma^2 underflows to 0 in the JL dimension, 1/delta overflows,
        # the descent horizon's square overflows, or the JL map would take
        # 77 GB: refused naming the value, with no traceback, before a
        # single Gaussian of the map is drawn.
        def no_draws(seed):
            raise AssertionError("the JL map was about to be drawn")

        monkeypatch.setattr(margin_learner, "generator", no_draws)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{argv[1][2:]} = {float(argv[2])!r}" in err

    def test_oversized_learner_map_refusal_names_the_delta_given(
            self, tmp_path, capsys, monkeypatch):
        # The learner draws its map at delta/2 = 0.025, an 11,805 x 20,000
        # map, but the refusal names the delta the run was given.
        def no_draws(seed):
            raise AssertionError("the JL map was about to be drawn")

        monkeypatch.setattr(margin_learner, "generator", no_draws)
        assert main(["learn-halfspace", "--d", "20000", "--gamma", "0.1",
                     "--support", "20", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: gamma = 0.1 and delta = 0.05 ask for a 11,805 x "
                       "20,000 JL map, above 100,000,000 entries\n")

    def test_direct_config_refusal_names_the_key(self):
        with pytest.raises(PreconditionError, match="^tau: "):
            ExperimentConfig(command="learn-dl", tau=-1.0)
        with pytest.raises(PreconditionError, match="^out: "):
            ExperimentConfig(command="separation", out=3)

    @pytest.mark.parametrize("text", [None, "{not json"],
                             ids=["missing", "bad-json"])
    def test_unreadable_config_file_is_two(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["separation", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read JSON file {cfg}: ")


def option_kinds(subparser):
    """Each --flag of a subcommand with its type name or choices."""
    kinds = {}
    for action in subparser._actions:
        if "--help" in action.option_strings:
            continue
        if action.choices is not None:
            kinds[action.option_strings[0]] = list(action.choices)
        elif action.const is True:
            kinds[action.option_strings[0]] = "flag"
        else:
            kinds[action.option_strings[0]] = (action.type or str).__name__
    return kinds


COMMON_FLAGS = {"--config": "str", "--out": "str", "--seed": "int",
                "--check": "flag"}

# Recorded from the hand-written parser the command table replaced: each
# command's help line, its own flags in --help order, and the non-None
# fields the command alone resolves to beyond seed 0, check off and out
# localsq-out. Back then learn-dl's --oracle offered exact and ldp only.
PARSER_RECORD = {
    "learn-halfspace": (
        "margin halfspace via averaged subgradient descent",
        {"--gamma": "float", "--alpha": "float", "--delta": "float",
         "--mode": ["distribution_free", "known_distribution"],
         "--oracle": ["exact", "ldp", "comm"], "--epsilon": "float",
         "--d": "int", "--support": "int"},
        {"dim": 20, "support": 100, "gamma": 0.3, "alpha": 0.15,
         "delta": 0.05, "epsilon": 1.0, "oracle": "exact",
         "mode": "distribution_free"}),
    "learn-dl": (
        "interactive decision-list learner",
        {"--d": "int", "--alpha": "float", "--oracle": ["exact", "ldp"],
         "--epsilon": "float", "--length": "int", "--tau": "float",
         "--delta": "float"},
        {"dim": 8, "alpha": 0.1, "delta": 0.05, "epsilon": 1.0,
         "oracle": "exact", "length": 5}),
    "estimate-mean": (
        "Monte-Carlo validity sweep of a compiled protocol",
        {"--epsilon": "float", "--tau": "float", "--delta": "float",
         "--trials": "int", "--queries": "int",
         "--channel": ["ldp", "comm"]},
        {"delta": 0.1, "epsilon": 1.0, "tau": 0.1, "channel": "ldp",
         "trials": 200, "queries": 10}),
    "adversary-demo": (
        "worst-case distribution certificates and the negation-fooling demo",
        {"--class": "str", "--d": "int", "--m": "int"},
        {"dim": 2, "m": 2, "class_spec": "shipped"}),
    "jl-check": (
        "Monte-Carlo margin preservation under random projection",
        {"--d": "int", "--gamma": "float", "--delta": "float",
         "--trials": "int", "--support": "int"},
        {"dim": 100, "support": 200, "gamma": 0.3, "delta": 0.05,
         "trials": 100}),
    "compile-report": (
        "run one compiled protocol and emit its report",
        {"--epsilon": "float", "--tau": "float", "--delta": "float",
         "--queries": "int", "--channel": ["ldp", "comm"]},
        {"delta": 0.1, "epsilon": 1.0, "tau": 0.1, "channel": "ldp",
         "queries": 10}),
    "separation": (
        "the canonical adaptive-vs-non-adaptive contrast table", {}, {}),
}


class TestCommandTable:
    def test_commands_keep_their_order_and_match_the_schema(self):
        assert COMMANDS == tuple(PARSER_RECORD)
        assert list(COMMANDS) == SCHEMAS["config"]["properties"][
            "command"]["enum"]

    @pytest.mark.parametrize("command", list(PARSER_RECORD))
    def test_parser_reproduces_the_record(self, command, monkeypatch):
        monkeypatch.delenv("LOCALSQ_OUT", raising=False)
        help_line, flags, fields = PARSER_RECORD[command]
        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        helps = {a.dest: a.help for a in sub._choices_actions}
        assert helps[command] == help_line
        expected = {**flags, **COMMON_FLAGS}
        if command == "learn-dl":
            # The one intended difference: comm parses, then is refused.
            expected["--oracle"] = ["exact", "ldp", "comm"]
        kinds = option_kinds(sub.choices[command])
        assert list(kinds.items()) == list(expected.items())
        cfg = _build_config(parser.parse_args([command]))
        resolved = ExperimentConfig(command=command, seed=0,
                                    out="localsq-out", check=False,
                                    **fields)
        assert dataclasses.asdict(cfg) == dataclasses.asdict(resolved)


class TestLearnHalfspace:
    def test_exact_run_artifacts(self, tmp_path):
        out = tmp_path / "hs"
        code = main(["learn-halfspace", "--d", "12", "--support", "60",
                     "--seed", "3", "--out", str(out), "--check"])
        assert code == 0
        hyp = read_json(out, "hypothesis.json")
        validate_artifact("hypothesis", hyp)
        report = read_json(out, "halfspace_report.json")
        validate_artifact("halfspace_report", report)
        assert report["error"] <= report["alpha"]
        # Label-dependent entries only in round 0.
        for line in read_lines(out, "transcript.jsonl"):
            entry = json.loads(line)
            validate_artifact("transcript_entry", entry)
            if entry["label_dep"]:
                assert entry["round"] == 0
        rows = read_lines(out, "results.csv")
        assert rows[0] == "# localsq-csv v1 learn-halfspace"
        assert rows[1].startswith("command,seed,mode,oracle,")
        assert len(rows) == 3

    def test_known_distribution_reports_one_round(self, tmp_path):
        out = tmp_path / "hs"
        code = main(["learn-halfspace", "--mode", "known_distribution",
                     "--d", "10", "--support", "50", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        assert read_json(out, "halfspace_report.json")["rounds"] == 1

    @pytest.mark.parametrize("oracle", ["exact", "ldp", "comm"])
    def test_report_matches_transcript(self, tmp_path, oracle):
        # The report states the run's shape; transcript.jsonl is the one
        # record of its queries.
        out = tmp_path / "hs"
        code = main(["learn-halfspace", "--oracle", oracle, "--d", "10",
                     "--support", "50", "--seed", "2", "--out", str(out),
                     "--check"])
        assert code == 0
        report = read_json(out, "halfspace_report.json")
        validate_artifact("halfspace_report", report)
        assert "protocol" not in report
        entries = [json.loads(line)
                   for line in read_lines(out, "transcript.jsonl")]
        assert report["rounds"] == max(e["round"] for e in entries) + 1
        assert report["learner"]["queries_total"] == len(entries)
        assert all(e["round"] == 0 for e in entries if e["label_dep"])
        assert (report["samples"] > 0) == (oracle != "exact")
        assert report["epsilon"] == (1.0 if oracle == "ldp" else None)

    def test_transcript_refused_block_writes_nothing(self, tmp_path):
        oracle = ExactOracle(make_margin_source(3, 0.2, 6, seed=0))
        oracle.ask(StatQuery(fn=lambda X, y: y * X[:, 0], tau=0.1,
                             label_dependent=1), 0)
        with pytest.raises(ContractViolation):
            _emit_transcript(tmp_path, oracle.transcript)
        assert not (tmp_path / "transcript.jsonl").exists()

    def test_transcript_checked_once_per_block(self, tmp_path, monkeypatch):
        names = []
        original = schemas.validate

        def counting(name, *args):
            names.append(name)
            return original(name, *args)

        monkeypatch.setattr(schemas, "validate", counting)
        assert main(["learn-halfspace", "--out", str(tmp_path)]) == 0
        assert names.count("transcript_block") == 301
        assert "transcript_entry" not in names
        assert len(read_lines(tmp_path, "transcript.jsonl")) == 6020


class TestLearnDl:
    def test_exact_multi_round_recovery(self, tmp_path):
        out = tmp_path / "dl"
        code = main(["learn-dl", "--seed", "1", "--out", str(out),
                     "--check"])
        assert code == 0
        report = read_json(out, "dl_report.json")
        validate_artifact("dl_report", report)
        assert report["error"] <= report["alpha"]
        assert report["rounds"] >= 2
        assert any(r > 0 for r in report["label_dependent_rounds"])
        validate_artifact("target", read_json(out, "dl_hypothesis.json"))

    def test_ldp_leg(self, tmp_path):
        out = tmp_path / "dl"
        code = main(["learn-dl", "--oracle", "ldp", "--seed", "1",
                     "--out", str(out), "--check"])
        assert code == 0
        report = read_json(out, "dl_report.json")
        validate_artifact("dl_report", report)
        assert report["error"] <= report["alpha"]
        assert report["samples"] > 0
        assert report["tau"] == 0.005
        assert "protocol" not in report
        assert report["queries"] == len(read_lines(out, "transcript.jsonl"))


class TestEstimateMean:
    def test_default_sweep_meets_delta(self, tmp_path):
        # 200 trials at epsilon=1, tau=0.1, delta=0.1: the empirical
        # failure fraction stays within delta.
        out = tmp_path / "em"
        code = main(["estimate-mean", "--seed", "0", "--out", str(out),
                     "--check"])
        assert code == 0
        report = read_json(out, "estimate_report.json")
        validate_artifact("estimate_report", report)
        assert report["trials"] == 200
        assert report["failure_fraction"] <= report["delta"]
        rows = read_lines(out, "estimate_trials.csv")
        assert rows[0] == "# localsq-csv v1 estimate-mean"
        assert len(rows) == 202

    def test_comm_channel(self, tmp_path):
        out = tmp_path / "em"
        code = main(["estimate-mean", "--channel", "comm", "--trials",
                     "40", "--seed", "0", "--out", str(out), "--check"])
        assert code == 0
        report = read_json(out, "estimate_report.json")
        assert report["epsilon"] is None
        assert report["failure_fraction"] <= report["delta"]


class TestAdversary:
    def test_shipped_demo_emits_certificate(self, tmp_path):
        out = tmp_path / "adv"
        code = main(["adversary-demo", "--seed", "0", "--out", str(out),
                     "--check"])
        assert code == 0
        report = read_json(out, "adversary_report.json")
        validate_artifact("adversary_report", report)
        assert report["found"] is True
        demo = report["demo"]
        assert demo["identical_transcripts"] is True
        assert demo["error_f"] + demo["error_neg"] == 1.0
        cert = read_json(out, "certificate.json")
        validate_artifact("certificate", cert)
        assert abs(sum(cert["D"]) - 1.0) < 1e-12

    def test_alias_spelling(self, tmp_path):
        out = tmp_path / "adv"
        assert main(["adversary", "--seed", "1", "--out", str(out)]) == 0
        assert read_json(out, "adversary_report.json")["found"] is True

    def test_decision_list_class(self, tmp_path):
        out = tmp_path / "adv"
        code = main(["adversary-demo", "--class", "dl", "--d", "2",
                     "--m", "2", "--seed", "0", "--out", str(out)])
        assert code == 0
        report = read_json(out, "adversary_report.json")
        assert report["n_targets"] == 14
        if report["found"]:
            validate_artifact("certificate",
                              read_json(out, "certificate.json"))
            assert report["witness_index"] is not None

    def test_halfspace_class(self, tmp_path):
        out = tmp_path / "adv"
        code = main(["adversary-demo", "--class", "hs", "--d", "2",
                     "--m", "1", "--seed", "3", "--out", str(out)])
        assert code == 0
        # Homogeneous halfspaces label antipodal corners oppositely, so
        # the two-variable domain carries exactly four patterns.
        assert read_json(out, "adversary_report.json")["n_targets"] == 4

    def test_halfspace_class_solver_failure_is_not_inseparable(
            self, tmp_path, monkeypatch, capsys):
        # Only the infeasibility refusal means "not separable"; an
        # iteration cap must stop the command, not drop the pattern.
        def capped(*args, **kwargs):
            raise SolverError("phase 1: iteration cap 20000 exceeded",
                              dump={"iterations": 20001, "basis": [0],
                                    "objective": 1.0})

        monkeypatch.setattr(cli, "solve_lp", capped)
        out = tmp_path / "adv"
        code = main(["adversary-demo", "--class", "hs", "--d", "2",
                     "--m", "1", "--seed", "3", "--out", str(out)])
        assert code == 2
        assert "iteration cap" in capsys.readouterr().err
        assert not (out / "adversary_report.json").exists()

    def test_explicit_class_file(self, tmp_path):
        spec = tmp_path / "class.json"
        s = 0.5
        spec.write_text(json.dumps({
            "support": [[s, s], [s, -s], [-s, s], [-s, -s]],
            "targets": [[1, -1, -1, 1], [-1, 1, 1, -1]],
        }))
        out = tmp_path / "adv"
        code = main(["adversary-demo", "--class", f"explicit:{spec}",
                     "--m", "2", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert read_json(out, "adversary_report.json")["n_targets"] == 2

    def test_explicit_class_junk_rejected(self, tmp_path):
        spec = tmp_path / "class.json"
        spec.write_text(json.dumps({"support": [[0.5]], "targets": [[2]]}))
        assert main(["adversary-demo", "--class", f"explicit:{spec}",
                     "--out", str(tmp_path / "adv")]) == 2

    def test_explicit_class_nan_coordinate_is_two(self, tmp_path, capsys):
        # Python's json reads NaN; a point must still be finite.
        spec = tmp_path / "class.json"
        spec.write_text('{"support": [[NaN, 0.5], [0.5, -0.5]], '
                        '"targets": [[1, -1]]}')
        assert main(["adversary-demo", "--class", f"explicit:{spec}",
                     "--out", str(tmp_path / "adv")]) == 2
        assert capsys.readouterr().err == (
            "error: point coordinates must be finite\n")

    @pytest.mark.parametrize("text", [None, "{not json"],
                             ids=["missing", "bad-json"])
    def test_unreadable_explicit_class_file_is_two(self, tmp_path, capsys,
                                                   text):
        spec = tmp_path / "class.json"
        if text is not None:
            spec.write_text(text)
        assert main(["adversary-demo", "--class", f"explicit:{spec}",
                     "--out", str(tmp_path / "adv")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read JSON file {spec}: ")

    @pytest.mark.parametrize("row", [[1, -1, 1, 1, -1], [1, -1, 1]],
                             ids=["long", "short"])
    def test_explicit_label_row_of_wrong_length_is_two(self, tmp_path,
                                                       capsys, row):
        spec = tmp_path / "class.json"
        spec.write_text(json.dumps({
            "support": [[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]],
            "targets": [[1, -1, -1, 1], row]}))
        assert main(["adversary-demo", "--class", f"explicit:{spec}",
                     "--out", str(tmp_path / "adv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {len(row)} labels for 4 support points\n")

    def test_unknown_class_rejected(self, tmp_path):
        assert main(["adversary-demo", "--class", "sorcery",
                     "--out", str(tmp_path / "adv")]) == 2


class TestJlCheck:
    def test_reduced_sweep(self, tmp_path):
        out = tmp_path / "jl"
        code = main(["jl-check", "--d", "40", "--trials", "10",
                     "--support", "60", "--seed", "0", "--out", str(out),
                     "--check"])
        assert code == 0
        report = read_json(out, "jl_report.json")
        validate_artifact("jl_report", report)
        assert report["ok_fraction"] >= 0.9
        rows = read_lines(out, "jl_trials.csv")
        assert rows[0] == "# localsq-csv v1 jl-check"
        assert len(rows) == 12


class TestCompileReport:
    def test_ldp_report_schema(self, tmp_path):
        out = tmp_path / "cr"
        code = main(["compile-report", "--seed", "0", "--out", str(out),
                     "--check"])
        assert code == 0
        report = read_json(out, "protocol_report.json")
        validate_artifact("ldp_report", report)
        assert report["rounds"] == 1
        assert report["epsilon"] == 1.0
        assert len(report["queries"]) == 10

    def test_comm_report_schema(self, tmp_path):
        out = tmp_path / "cr"
        code = main(["compile-report", "--channel", "comm", "--seed", "0",
                     "--out", str(out), "--check"])
        assert code == 0
        report = read_json(out, "protocol_report.json")
        validate_artifact("comm_report", report)
        assert report["bits"] == 1


class TestSeparation:
    def test_table_and_artifacts(self, tmp_path):
        out = tmp_path / "sep"
        code = main(["separation", "--seed", "0", "--out", str(out),
                     "--check"])
        assert code == 0
        report = read_json(out, "separation.json")
        validate_artifact("separation_report", report)
        rows = report["rows"]
        assert [r["algorithm"] for r in rows] == [
            "decision-list-sq", "fixed-probe", "halfspace-psgd"]
        assert rows[0]["final_error"] <= 0.1
        assert rows[1]["final_error"] >= 0.5
        assert set(rows[2]["label_dependent_rounds"]) <= {0}
        assert report["certificate"] is not None
        csv_rows = read_lines(out, "separation.csv")
        assert csv_rows[0] == "# localsq-csv v1 separation"
        assert len(csv_rows) == 5

    def test_experiment_rows_shape(self):
        rows, demo = separation_experiment(5)
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"algorithm", "class", "rounds",
                                "label_dependent_rounds", "samples",
                                "final_error"}
        # Fooling soundness: errors sum to one, so the max is >= 1/2.
        assert demo.error_target + demo.error_negation == 1.0
        assert rows[1]["final_error"] >= 0.5


class TestExitCodes:
    def test_precondition_error_is_two(self, tmp_path):
        assert main(["learn-halfspace", "--gamma", "1.5",
                     "--out", str(tmp_path / "x")]) == 2

    def test_failed_check_is_three(self, tmp_path):
        # A margin far below what the compiled tolerance can resolve.
        code = main(["learn-halfspace", "--oracle", "ldp", "--gamma",
                     "0.04", "--alpha", "0.002", "--support", "400",
                     "--seed", "0", "--out", str(tmp_path / "x"),
                     "--check"])
        assert code == 3

    def test_same_run_without_check_is_zero(self, tmp_path):
        code = main(["learn-halfspace", "--oracle", "ldp", "--gamma",
                     "0.04", "--alpha", "0.002", "--support", "400",
                     "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == 0

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


DETERMINISM_RUNS = [
    ["learn-halfspace", "--d", "10", "--support", "40", "--seed", "3"],
    ["learn-halfspace", "--oracle", "comm", "--d", "8", "--support", "40",
     "--seed", "5"],
    ["learn-dl", "--oracle", "ldp", "--d", "5", "--length", "3",
     "--seed", "1"],
    ["estimate-mean", "--trials", "8", "--seed", "2"],
    ["adversary-demo", "--seed", "5"],
    ["jl-check", "--d", "30", "--trials", "5", "--support", "40",
     "--seed", "4"],
    ["compile-report", "--channel", "comm", "--queries", "6", "--seed",
     "6"],
    ["separation", "--seed", "2"],
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", DETERMINISM_RUNS,
                             ids=lambda a: a[0])
    def test_repeated_run_is_byte_identical(self, tmp_path, argv):
        snapshots = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert main(argv + ["--out", str(out)]) == 0
            snapshots.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert snapshots[0].keys() == snapshots[1].keys()
        for name in snapshots[0]:
            assert snapshots[0][name] == snapshots[1][name], name


# sha256 of every artifact, recorded before the halfspace rounds became
# block queries; the change kept every byte. The four private runs on a
# sample stream were re-recorded when a stream span's +1 count became one
# Binomial(n, q) draw; the two learn-halfspace ones again when a block's
# counts came to be drawn from one seed. The three private learn-halfspace
# runs were re-recorded when compiled runs began to write each query's own
# scale: hypothesis and results kept their bytes, and dropping the scale
# keys gives back the earlier records. The five halfspace_report.json and
# two dl_report.json digests were re-recorded when the learner reports
# dropped their "protocol" key (a second copy of transcript.jsonl, or
# null for exact runs): every other file kept its bytes, and deleting
# "protocol" from the earlier parsed report gives the new one. The
# estimate-mean, learn-halfspace-exact and learn-halfspace-known digests were
# re-recorded when an exact block's means became one probs @ values product
# instead of one product per column: the reports and results.csv kept their
# bytes; transcript answers, hypothesis weights and estimate-mean's
# max_abs_deviation moved by at most 1.7e-16. The figures hold for IEEE
# doubles and the numpy/BLAS builds this was recorded with.
GOLDEN_DIGESTS = {
    "learn-halfspace-exact": (["learn-halfspace", "--seed", "0"], {
        "halfspace_report.json": "1726655f1e2426a1d6c23be413dae87352ac72fe5973279e6434b55a449c173c",
        "hypothesis.json": "04efca718dcb7449f57efae12eda403731bad766e97a5d23fdaf1fef86766519",
        "results.csv": "8b17b11355f7f76e62399da8b0927f5bbec817a013280b0e2d25721348005a39",
        "transcript.jsonl": "682618b6a8af524f97d35fdf883eff8510ef74085fe0ea7fdab695c05288c4e9",
    }),
    "learn-halfspace-ldp": (["learn-halfspace", "--oracle", "ldp", "--d",
                             "10", "--seed", "0"], {
        "halfspace_report.json": "124f33ce61698562d1fa90635bbf96cecedaf82a130bf589ac6636555504ec43",
        "hypothesis.json": "ad2d92dd40575d7ed07f2cd7e8f4c4ac669809881e3da16e6eec693f8bebf197",
        "results.csv": "d316c9c7cbfc15c8267297d7b8624a1c335500accf4bd8960ce2ce362a47219f",
        "transcript.jsonl": "d6fa55b0c7820634df0862212de0c66ce5ae39a01090c8010f94c71fafa32a09",
    }),
    "learn-halfspace-comm": (["learn-halfspace", "--oracle", "comm", "--d",
                              "10", "--seed", "0"], {
        "halfspace_report.json": "a9dbb23df8649732b169984c9b741c992360120d95a43b95d0482d3726f1e5c9",
        "hypothesis.json": "f746f7acfa03968bdc1087a798158372f551db1a50060f87f717f1594cb9779c",
        "results.csv": "afcf16db8d3275438a5dc6128853639aa29bbc5ca5d460307f7c364dcbed572c",
        "transcript.jsonl": "f1235f25b42c9738376f9acbab1c576b7f1c8801882de639828e43d6eeac0620",
    }),
    "learn-halfspace-known": (["learn-halfspace", "--mode",
                               "known_distribution", "--seed", "0"], {
        "halfspace_report.json": "5acb7205ea91519647219a8c4ed2cb9d52a15dc314297b17c61fd05717df9f8d",
        "hypothesis.json": "87c38edf354588928133a122aab64ff48b9d222b043245e66cc48ccd948b8b00",
        "results.csv": "4457918432d8372f14ec9708c3314eb01582273156c490b6e167f41cb4c352df",
        "transcript.jsonl": "dcb393aeb0551f04796d41d57631a8e732dd1045acf6420dbf902894d13ff56d",
    }),
    "learn-halfspace-known-ldp": (["learn-halfspace", "--mode",
                                   "known_distribution", "--oracle", "ldp",
                                   "--d", "10", "--seed", "0"], {
        "halfspace_report.json": "e1fc96ee5f5336ea3c2cf81b46342714dcb25841477207cc574961929b8b73ed",
        "hypothesis.json": "5f85c746dc03187131a3785beb95e74dbf4259faf6e2d6bef3400f4f4bac2a59",
        "results.csv": "864faea40b505d6476e3a2a8071ad4909ced3e4f2211f7238a642d0a7514ab86",
        "transcript.jsonl": "77577c5052720824d7c6fe893bda18eff853763f07dd5be25bc26d6992fab4b0",
    }),
    "compile-report-comm": (["compile-report", "--channel", "comm", "--seed",
                             "0"], {
        "protocol_report.json": "99cda9da5091cedf5272619b2d6cee57ef76796e413baad6a0a37589876b1582",
    }),
    "compile-report-ldp": (["compile-report", "--channel", "ldp", "--seed",
                            "0"], {
        "protocol_report.json": "ccb8c1a3a4584430fe1351a7c1acb3e78f50d920e4c84088ae4b558a72995ace",
    }),
    "estimate-mean": (["estimate-mean", "--seed", "0"], {
        "estimate_report.json": "8a9ef411eb3c8ba5d196a88905487f2e50394e5cca8f9a159852e5aa939548e2",
        "estimate_trials.csv": "cdd3c8b45a5bbbd0d2d7b3812363f7a795053528ba5858e8958735c0b9e3a903",
    }),
    "learn-dl": (["learn-dl", "--seed", "1"], {
        "dl_hypothesis.json": "8c581c5dbdcbcff5de5a9c538ba4cc27e1680c0de872cbf64a71699bede95171",
        "dl_report.json": "26dd494add46198d0767c1b0411d3833c354a8938b29e4f1f95b0f61df9123c7",
        "results.csv": "ec5c572d4f6040d08a343dd85e05820e89d20ae8e02593a7918847e0ce5db91a",
        "transcript.jsonl": "422d944120b7b89227e90d5e24acc8812b58ea5a8c4a5cc7b13393fc737578bc",
    }),
    "learn-dl-ldp": (["learn-dl", "--oracle", "ldp", "--seed", "1"], {
        "dl_hypothesis.json": "02d350cb2bdb1fc25f703d24bfa04f6538d6de99f7ebdeadc050d779c3b41c82",
        "dl_report.json": "193ed1684730e90ee9fab8c2aaed7951052b76a20d6c96530e457c5da64e0d0c",
        "results.csv": "e62732b0a125560ed81399d570adc021ac998ed0dd7fb57ed3625381ba75f945",
        "transcript.jsonl": "0dbc67545586bac2988293c1ca000fe15b00bbd4757d4a11eee97da47db76997",
    }),
    "separation": (["separation", "--seed", "0"], {
        "separation.csv": "dced02a00fb9b20f206017677d94c1da80785af085437b31c298eebe17d1a9c4",
        "separation.json": "479b4eb018cf3a1f9f22e19862affd6fc91ac9d74a29ad1c735e8152f5f8928d",
    }),
    # The runs that write an LP certificate.
    "adversary-demo": (["adversary-demo", "--seed", "0"], {
        "adversary_report.json": "c6cbc657c5f17633105ba3822a0389548e15021f9810be9c4b772d1a8a7c2e0a",
        "certificate.json": "d727706bbabebf80bf1e696e2efc88be85a293b1fdbe46e792f4d225adb5c084",
    }),
    "adversary-demo-dl": (["adversary-demo", "--class", "dl", "--d", "3",
                           "--m", "3", "--seed", "0"], {
        "adversary_report.json": "74b9004e898d7ce893ed63b1223dd21453b6bf863d38404f5bc4b2e93a2db721",
        "certificate.json": "34e1ad461aa0c8bfafc7f73195bff2a62f0961536f72c29895466b313cf7b2d9",
    }),
    "adversary-demo-hs": (["adversary-demo", "--class", "hs", "--d", "3",
                           "--m", "2", "--seed", "0"], {
        "adversary_report.json": "f99140f4d9550d53706fce222c22f80cd8a18afb2a44b5ed0f2a69c6fbce2bcb",
        "certificate.json": "e8d39fea98c54579eafd2f8cad871807c18740b5cf266fc679052f5fbb3110c2",
    }),
    "jl-check": (["jl-check", "--seed", "0"], {
        "jl_report.json": "663dee80231e93dade4cc3aacf9f059ee2ee0b1e3e062b5ffdaa5607a98ed25f",
        "jl_trials.csv": "bf7780215dc9e4908f541989aa381160f77114129d0e3e4ff6dc2940e32a1fc4",
    }),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
    def test_artifacts_match_pinned_digests(self, tmp_path, case):
        argv, expected = GOLDEN_DIGESTS[case]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(tmp_path.iterdir())}
        assert digests == expected

    def test_explicit_class_file_matches_pinned_digests(self, tmp_path,
                                                        monkeypatch):
        # A relative path keeps the report's "class" field stable. The
        # support has a signed zero and a row that is rescaled onto the
        # sphere, both of which the loader must read as a point would.
        monkeypatch.chdir(tmp_path)
        Path("class.json").write_text(json.dumps(EXPLICIT_CLASS))
        argv = ["adversary-demo", "--class", "explicit:class.json", "--m",
                "2", "--seed", "0", "--out", "out"]
        assert main(argv) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path("out").iterdir())}
        assert digests == EXPLICIT_CLASS_DIGESTS


EXPLICIT_CLASS = {
    "support": [[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5],
                [-0.0, 0.9], [3.0, 4.0]],
    "targets": [[1, -1, -1, 1, 1, -1], [-1, 1, 1, -1, -1, 1],
                [1, 1, -1, -1, 1, 1], [-1, -1, 1, 1, -1, -1]],
}
EXPLICIT_CLASS_DIGESTS = {
    "adversary_report.json": "6759b69e7b508ddef72c17d8317efe51387027d827e948f6e9eda2b6914c6d4f",
    "certificate.json": "8b3a0cede73ae3069d8ae3fd95faf2ff5f416096750a91f22004d7ce2868ce0b",
}


class TestSchemaDocs:
    def test_docs_in_sync_with_registry(self):
        docs = REPO / "docs" / "schema"
        files = sorted(docs.glob("*.schema.json"))
        names = {p.name.removesuffix(".schema.json") for p in files}
        assert names == set(SCHEMAS)
        for path in files:
            doc = json.loads(path.read_text())
            name = path.name.removesuffix(".schema.json")
            doc.pop("$schema")
            assert doc.pop("title") == name
            assert doc == SCHEMAS[name]

    def test_schemas_are_valid_jsonschema(self):
        for name, schema in SCHEMAS.items():
            jsonschema.Draft202012Validator.check_schema(schema)


def jsonschema_message(name, obj):
    """The message jsonschema.validate gives for obj against a schema."""
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(obj, SCHEMAS[name])
    return info.value.message


# Each object breaks its schema in more than one place, so the reported
# error is the one jsonschema's best_match picks.
MALFORMED = {
    "transcript_entry": {"round": -1, "label_dep": "yes", "answer": 0.5},
    "halfspace_report": {"command": "learn-halfspace", "seed": "7",
                         "protocol": {"rounds": 1}},
    "config": {"command": "learn-halfspace", "gamma": 1.5, "colour": 1},
    "explicit_class": {"support": [[0.5]], "targets": [[2]], "extra": 0},
}


class TestValidation:
    @pytest.mark.parametrize("name", ["transcript_entry", "halfspace_report"])
    def test_malformed_artifact_refused_as_before(self, name):
        expected = jsonschema_message(name, MALFORMED[name])
        with pytest.raises(ContractViolation) as info:
            validate_artifact(name, MALFORMED[name])
        assert str(info.value) == (
            f"artifact does not match the {name} schema: {expected}")

    @pytest.mark.parametrize("change", [
        {"answers": []}, {"answers": [0.5, "0.25"]}, {"label_dep": 1},
        {"tau": 0.0}, {"round": -1}, {"answer": 0.5},
    ])
    def test_malformed_transcript_block_refused(self, change):
        block = {"round": 0, "label_dep": True, "tau": 0.1, "scale": -6.0,
                 "answers": [0.5, -0.25]}
        validate_artifact("transcript_block", block)
        with pytest.raises(ContractViolation):
            validate_artifact("transcript_block", block | change)

    def test_malformed_config_refused_as_before(self):
        expected = jsonschema_message("config", MALFORMED["config"])
        with pytest.raises(PreconditionError) as info:
            validate_config(MALFORMED["config"])
        assert str(info.value) == f"invalid config: {expected}"

    def test_malformed_explicit_class_refused_as_before(self, tmp_path,
                                                         capsys):
        expected = jsonschema_message("explicit_class",
                                      MALFORMED["explicit_class"])
        spec = tmp_path / "class.json"
        spec.write_text(json.dumps(MALFORMED["explicit_class"]))
        assert main(["adversary-demo", "--class", f"explicit:{spec}",
                     "--out", str(tmp_path / "adv")]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid explicit class file: {expected}\n")

    def test_schema_checked_at_most_once(self, monkeypatch):
        calls = []
        original = jsonschema.Draft202012Validator.check_schema

        def counting(schema, *args, **kwargs):
            calls.append(schema)
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema",
                            counting)
        entry = {"round": 0, "label_dep": False, "tau": 0.1, "answer": 0.5}
        for _ in range(5):
            validate_artifact("transcript_entry", entry)
        assert len(calls) <= 1
