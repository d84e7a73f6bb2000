"""End-to-end tests of the command line: dispatch, artifacts, exit codes.

Commands run in-process through localsq.cli.main with artifact
directories under tmp_path. Determinism cases rerun a command and
compare raw bytes. Every emitted JSON artifact is validated against its
schema from localsq.schemas here as well, independently of the writer's
own validation.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from localsq.cli import ExperimentConfig, main, separation_experiment
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
