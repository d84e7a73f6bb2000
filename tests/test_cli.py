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

from localsq.cli import COMMANDS, ExperimentConfig, _build_config, \
    _build_parser, main, separation_experiment
from localsq.errors import ContractViolation, PreconditionError
from localsq.schemas import SCHEMAS, validate_artifact, validate_config

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
        assert report["protocol"] is None
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

    def test_ldp_run_carries_protocol(self, tmp_path):
        out = tmp_path / "hs"
        code = main(["learn-halfspace", "--oracle", "ldp", "--d", "10",
                     "--support", "50", "--seed", "2", "--out", str(out),
                     "--check"])
        assert code == 0
        report = read_json(out, "halfspace_report.json")
        validate_artifact("halfspace_report", report)
        proto = report["protocol"]
        assert proto is not None
        validate_artifact("ldp_report", proto)
        assert report["samples"] == proto["n"] > 0
        assert report["epsilon"] == 1.0
        dep_rounds = {q["round"] for q in proto["queries"] if q["label_dep"]}
        assert dep_rounds == {0}


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
        validate_artifact("ldp_report", report["protocol"])


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
# Binomial(n, q) draw. The figures hold for IEEE doubles and the
# numpy/BLAS builds this was recorded with.
GOLDEN_DIGESTS = {
    "learn-halfspace-exact": (["learn-halfspace", "--seed", "0"], {
        "halfspace_report.json": "9ad7d62454b2b8ab30dd04c98513f5f17294c13feb81c45835669c88b87dd67a",
        "hypothesis.json": "2138338bca12ed6d9abb28941befba3bb3bc1f4dd8dea9aa0f4241ad96b77392",
        "results.csv": "8b17b11355f7f76e62399da8b0927f5bbec817a013280b0e2d25721348005a39",
        "transcript.jsonl": "dfda0674250a11eab3874bf804063fe9eb8ac03d83f9f05bb8b0447c18997def",
    }),
    "learn-halfspace-ldp": (["learn-halfspace", "--oracle", "ldp", "--d",
                             "10", "--seed", "0"], {
        "halfspace_report.json": "30f4782b40d94fd704a396e3a051b6b2c945fdeeda3d553488fa65de7b17c409",
        "hypothesis.json": "4941fd9dad50adfe565cc4b62a24fac1474fce688608d75bc2bfd187d4c58d3b",
        "results.csv": "d316c9c7cbfc15c8267297d7b8624a1c335500accf4bd8960ce2ce362a47219f",
        "transcript.jsonl": "480062cb115505688739da1d84485d6df3840c0a6976b10173c60ee553c2f0ec",
    }),
    "learn-halfspace-comm": (["learn-halfspace", "--oracle", "comm", "--d",
                              "10", "--seed", "0"], {
        "halfspace_report.json": "334b960113bce533eaccd0706b56119357c10e54b490f63584f7ea3800e79bc7",
        "hypothesis.json": "f2f69e598dfae268d49ad98a911e6d5b52377d5db04b03a24a777717d892a6cf",
        "results.csv": "afcf16db8d3275438a5dc6128853639aa29bbc5ca5d460307f7c364dcbed572c",
        "transcript.jsonl": "eb44192e035730466fe7385fa699e3e8fb077f7e3ed2c0ec5b7db9ae2ec5a8cf",
    }),
    "compile-report-comm": (["compile-report", "--channel", "comm", "--seed",
                             "0"], {
        "protocol_report.json": "99cda9da5091cedf5272619b2d6cee57ef76796e413baad6a0a37589876b1582",
    }),
    "learn-dl": (["learn-dl", "--seed", "1"], {
        "dl_hypothesis.json": "8c581c5dbdcbcff5de5a9c538ba4cc27e1680c0de872cbf64a71699bede95171",
        "dl_report.json": "baa9f4cc6d7e8cac7b4fde4ac0a9579fa2b0ad41a11f1239809eaf52ea817b65",
        "results.csv": "ec5c572d4f6040d08a343dd85e05820e89d20ae8e02593a7918847e0ce5db91a",
        "transcript.jsonl": "422d944120b7b89227e90d5e24acc8812b58ea5a8c4a5cc7b13393fc737578bc",
    }),
    "learn-dl-ldp": (["learn-dl", "--oracle", "ldp", "--seed", "1"], {
        "dl_hypothesis.json": "02d350cb2bdb1fc25f703d24bfa04f6538d6de99f7ebdeadc050d779c3b41c82",
        "dl_report.json": "a0788c67d2762c5a6193d0f5c4a91191d2f58c1730a01b601d7af9efc4f545c8",
        "results.csv": "e62732b0a125560ed81399d570adc021ac998ed0dd7fb57ed3625381ba75f945",
        "transcript.jsonl": "0dbc67545586bac2988293c1ca000fe15b00bbd4757d4a11eee97da47db76997",
    }),
    "separation": (["separation", "--seed", "0"], {
        "separation.csv": "dced02a00fb9b20f206017677d94c1da80785af085437b31c298eebe17d1a9c4",
        "separation.json": "479b4eb018cf3a1f9f22e19862affd6fc91ac9d74a29ad1c735e8152f5f8928d",
    }),
    # The two commands that write an LP certificate.
    "adversary-demo": (["adversary-demo", "--seed", "0"], {
        "adversary_report.json": "c6cbc657c5f17633105ba3822a0389548e15021f9810be9c4b772d1a8a7c2e0a",
        "certificate.json": "d727706bbabebf80bf1e696e2efc88be85a293b1fdbe46e792f4d225adb5c084",
    }),
    "adversary-demo-dl": (["adversary-demo", "--class", "dl", "--d", "3",
                           "--m", "3", "--seed", "0"], {
        "adversary_report.json": "74b9004e898d7ce893ed63b1223dd21453b6bf863d38404f5bc4b2e93a2db721",
        "certificate.json": "34e1ad461aa0c8bfafc7f73195bff2a62f0961536f72c29895466b313cf7b2d9",
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
