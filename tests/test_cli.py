"""CLI: exit codes, JSON-lines stdout, env overrides, output files."""

import json
import shutil

import jsonschema
import pytest

from constellation.cli import main
from conftest import SCENARIOS_DIR, load_schema


def run_cli(capsys, *argv):
    """Exit code and stdout records; a usage error's code is argparse's."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, lines


FIG4 = str(SCENARIOS_DIR / "fig4.json")


class TestValidate:
    def test_valid_constellation_exits_zero(self, capsys):
        code, lines = run_cli(capsys, "validate", "--constellation", FIG4)
        assert code == 0
        assert lines[-1]["event"] == "validated"
        assert lines[-1]["tasks"] == 5 and lines[-1]["edges"] == 5
        assert lines[-1]["violations"] == 0

    def test_violations_exit_one(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS_DIR / "fig4.json").read_text())
        for task in doc["tasks"]:
            if task["id"] == "A":
                task["result"] = "premature"  # result while still PENDING
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, lines = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 1
        assert any(line["event"] == "violation" for line in lines)
        assert lines[-1]["violations"] >= 1

    def test_unknown_condition_exits_one(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS_DIR / "fig4.json").read_text())
        doc["dependencies"][0].update(dep_type="CONDITIONAL", condition_id="never_registered")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, lines = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 1
        assert [line["kind"] for line in lines if line["event"] == "violation"] == [
            "UnknownCondition"
        ]

    @pytest.mark.parametrize("number", ["1e999", "NaN"])
    def test_a_result_json_has_not_exits_two(self, capsys, tmp_path, number):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tasks": [{"id": "A", "device": "d", "status": "COMPLETED", "result": %s}]}' % number)
        code, lines = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 2 and [line["event"] for line in lines] == ["error"]

    def test_failure_reason_on_a_pending_task_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        task = {"id": "A", "device": "d", "status": "PENDING", "failure_reason": "TIMEOUT"}
        bad.write_text(json.dumps({"tasks": [task]}))
        code, lines = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 2
        assert "tasks.0.status must be FAILED" in lines[-1]["error"]

    def test_dependencies_naming_no_edge_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tasks": [{"id": "A", "device": "d", "dependencies": ["ghost"]}]}))
        code, lines = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 1
        assert [line["kind"] for line in lines if line["event"] == "violation"] == ["DependencyMismatch"]

    def test_task_without_device_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tasks": [{"id": "A"}]}))
        code, lines = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 2
        assert "device" in lines[0]["error"]

    def test_missing_file_exits_two(self, capsys):
        code, lines = run_cli(capsys, "validate", "--constellation", "/no/such/file.json")
        assert code == 2
        assert lines == [{"event": "error", "error": lines[0]["error"]}]

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 2


    def test_non_integer_version_exits_two(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS_DIR / "fig4.json").read_text())
        doc["version"] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, lines = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 2
        assert lines == [{"event": "error", "error": lines[0]["error"]}]
        assert "version" in lines[0]["error"]

    def test_unknown_schema_version_exits_two(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS_DIR / "fig4.json").read_text())
        doc["schema_version"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, lines = run_cli(capsys, "validate", "--constellation", str(bad))
        assert code == 2
        assert "schema_version" in lines[0]["error"]


class TestRun:
    def test_missing_seed_exits_two(self, capsys):
        code, lines = run_cli(capsys, "run", "--constellation", FIG4)
        assert code == 2
        assert "--seed" in lines[0]["error"]

    def test_adhoc_success(self, capsys):
        code, lines = run_cli(capsys, "run", "--constellation", FIG4, "--seed", "0")
        assert code == 0
        record = lines[-1]
        assert record["event"] == "run"
        assert record["outcome"] == "SUCCESS"
        assert record["finished_at"] == 40.0

    def test_adhoc_writes_report_and_markdown(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _ = run_cli(
            capsys, "run", "--constellation", FIG4, "--seed", "0", "--out", str(out)
        )
        assert code == 0
        report = json.loads((out / "fig4.json").read_text())
        assert report["outcome"] == "SUCCESS"
        markdown = (out / "fig4.md").read_text()
        assert markdown.startswith("# Run:")

    def test_scenario_success_exits_zero(self, capsys):
        code, lines = run_cli(capsys, "run", "--scenario", "1", "--seed", "0")
        assert code == 0
        assert lines[-1]["outcome"] == "SUCCESS" and lines[-1]["verdict_ok"]

    def test_scenario_partial_exits_three(self, capsys):
        code, lines = run_cli(capsys, "run", "--scenario", "2", "--seed", "0")
        assert code == 3
        assert lines[-1]["outcome"] == "PARTIAL" and lines[-1]["verdict_ok"]

    def test_scenario_failed_exits_four(self, capsys):
        code, lines = run_cli(capsys, "run", "--scenario", "3", "--seed", "0")
        assert code == 4
        assert lines[-1]["outcome"] == "FAILED" and lines[-1]["verdict_ok"]

    def test_verdict_mismatch_exits_five(self, capsys, tmp_path):
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / "scenario1.json"
        doc = json.loads(path.read_text())
        doc["expected"]["outcome"] = "FAILED"
        path.write_text(json.dumps(doc))
        code, lines = run_cli(capsys, "run", "--scenario", str(path), "--seed", "0")
        assert code == 5
        assert not lines[-1]["verdict_ok"]
        assert lines[-1]["diffs"]

    def test_scenario_file_that_is_not_an_object_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "scenario.json"
        bad.write_text("[1]")
        code, lines = run_cli(capsys, "run", "--scenario", str(bad), "--seed", "0")
        assert code == 2
        assert "expected a JSON object" in lines[-1]["error"]

    def test_reasoner_file_that_is_not_an_object_exits_two(self, capsys, tmp_path):
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        (target / "linux_reasoner.json").write_text("[1]")
        code, lines = run_cli(capsys, "run", "--scenario", str(target / "scenario1.json"), "--seed", "0")
        assert code == 2
        assert "reasoner script" in lines[-1]["error"]

    def test_constellation_file_that_is_not_a_graph_exits_two_naming_it(self, capsys, tmp_path):
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / "fault_constellation.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["dependencies"].append({"id": "eDA", "from_task": "D", "to_task": "A"})
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, lines = run_cli(capsys, "run", "--scenario", str(target / "scenario1.json"), "--seed", "0")
        assert code == 2
        assert lines[-1]["error"].startswith(f"bad constellation {path.resolve()}: ")

    @pytest.mark.parametrize("value", ["-5", "nan", "0", "inf", "abc"])
    def test_a_deadline_that_is_not_finite_and_above_zero_exits_two(self, capsys, value):
        code, lines = run_cli(capsys, "run", "--constellation", FIG4, "--seed", "0", "--deadline", value)
        assert (code, lines) == (2, [])

    def test_a_deadline_stops_the_run_there(self, capsys):
        """Fig. 4's first layer completes at 10 and C is still running at 15."""
        code, lines = run_cli(capsys, "run", "--constellation", FIG4, "--seed", "0", "--deadline", "15")
        assert (code, lines[-1]["outcome"], lines[-1]["finished_at"]) == (3, "PARTIAL", 15.0)

    def test_a_deadline_from_the_environment_is_held_to_the_same_rule(self, capsys, monkeypatch):
        monkeypatch.setenv("CONSTELLATION_DEADLINE", "-5")
        code, lines = run_cli(capsys, "run", "--scenario", "1", "--seed", "0")
        assert (code, lines) == (2, [])

    def test_a_scenario_file_with_a_nan_deadline_exits_two(self, capsys, tmp_path):
        """``NaN`` is not JSON: the file is refused before its schema, whose
        ``exclusiveMinimum`` a NaN would pass, is checked."""
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        scenario = target / "scenario1.json"
        scenario.write_text(scenario.read_text().replace('"deadline": 120.0', '"deadline": NaN'))
        code, lines = run_cli(capsys, "run", "--scenario", str(scenario), "--seed", "0")
        assert code == 2
        assert lines == [{"event": "error", "error": f"cannot load scenario {scenario}: NaN is not a JSON number"}]

    def test_a_scenario_file_with_a_deadline_past_the_float_range_exits_two(self, capsys, tmp_path):
        """``1e999`` is JSON, which ``json`` reads as infinity: the reader of
        every document refuses it, as JSON has no infinity."""
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        scenario = target / "scenario1.json"
        scenario.write_text(scenario.read_text().replace('"deadline": 120.0', '"deadline": 1e999'))
        code, lines = run_cli(capsys, "run", "--scenario", str(scenario), "--seed", "0")
        assert code == 2
        assert lines == [{"event": "error", "error": f"cannot load scenario {scenario}: 1e999 is not a JSON number"}]

    @pytest.mark.parametrize("value", ["-5", "nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_a_task_duration_that_is_not_finite_and_at_least_zero_exits_two(self, capsys, monkeypatch, source, value):
        argv = ["run", "--constellation", FIG4, "--seed", "0"]
        if source == "flag":
            argv.append(f"--task-duration={value}")
        else:
            monkeypatch.setenv("CONSTELLATION_TASK_DURATION", value)
        code, lines = run_cli(capsys, *argv)
        assert (code, lines) == (2, [])

    @pytest.mark.parametrize(
        "script, field, value",
        [
            ("linux_reasoner.json", "next_state", "BOGUS"),
            ("linux_reasoner.json", "duration", "soon"),
            ("linux_reasoner.json", "duration", -1),
            ("scenario1_planner.json", "next_state", "BOGUS"),
            ("scenario1_planner.json", "next_state", "START"),
            ("scenario1_planner.json", "duration", "soon"),
            ("scenario1_planner.json", "duration", -1),
            ("scenario1_planner.json", "delta", [{"op": "explode"}]),
            ("linux_executor.json", "duration", -1),
            ("linux_executor.json", "duration", "soon"),
            ("linux_executor.json", "status", "0"),
            ("linux_executor.json", "stdout", 5),
        ],
    )
    def test_malformed_script_entry_exits_two(self, capsys, tmp_path, script, field, value):
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / script
        doc = json.loads(path.read_text())
        (doc["table"] if "table" in doc else doc["entries"])[0][field] = value
        path.write_text(json.dumps(doc))
        code, lines = run_cli(capsys, "run", "--scenario", str(target / "scenario1.json"), "--seed", "0")
        assert code == 2
        assert lines == [{"event": "error", "error": lines[0]["error"]}]

    def test_refused_planner_edit_op_exits_two_naming_the_script_and_the_entry(self, capsys, tmp_path):
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / "scenario1_planner.json"
        doc = json.loads(path.read_text())
        del doc["entries"][2]["delta"][0]["task_id"]
        path.write_text(json.dumps(doc))
        code, lines = run_cli(capsys, "run", "--scenario", str(target / "scenario1.json"), "--seed", "0")
        assert code == 2
        assert lines == [{"event": "error", "error": (
            f"bad planner script {path}: entries.2.delta.0.task_id is required")}]

    @pytest.mark.parametrize(
        "script, old, new, field",
        [
            ("scenario1_planner.json", '"strict": true', '"strcit": false', "strcit"),
            ("linux_executor.json", '"duration"', '"duraton"', "table.0.duraton"),
            ("linux_reasoner.json", '"result"', '"reslt"', "entries.1.reslt"),
        ],
    )
    def test_misspelt_script_key_exits_two(self, capsys, tmp_path, script, old, new, field):
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / script
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        code, lines = run_cli(capsys, "run", "--scenario", str(target / "scenario1.json"), "--seed", "0")
        assert code == 2
        assert lines == [{"event": "error", "error": lines[0]["error"]}]
        assert lines[0]["error"].endswith(f" {path}: unknown field(s) {field}")

    @pytest.mark.parametrize(
        "path, value",
        [
            (("devices", "linux1", "executor"), None),
            (("devices", "linux1", "latency"), "fast"),
            (("devices", "linux1", "outages"), [[5.0]]),
            (("devices", "linux1", "outages"), [[5.0, 40.0], [30.0, 50.0]]),
            (("deadline",), "soon"),
            (("devices",), [1]),
            (("pending_dispatch_timeout",), -5),
            (("execution_timeout",), 0),
            (("expected", "result_timing_count"), "3"),
            (("expected", "no_fabricated_timings"), 1),
        ],
        ids=str,
    )
    def test_malformed_scenario_field_exits_two(self, capsys, tmp_path, path, value):
        """None deletes the field."""
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        scenario = target / "scenario1.json"
        doc = json.loads(scenario.read_text())
        *parents, name = path
        owner = doc
        for key in parents:
            owner = owner[key]
        if value is None:
            del owner[name]
        else:
            owner[name] = value
        scenario.write_text(json.dumps(doc))
        code, lines = run_cli(capsys, "run", "--scenario", str(scenario), "--seed", "0")
        assert code == 2
        assert lines == [{"event": "error", "error": lines[0]["error"]}]
        assert lines[0]["error"].startswith(f"bad scenario {scenario}: ")

    @pytest.mark.parametrize(
        "value, argv, code",
        [
            ("0", ("run", "--constellation", FIG4), 0),
            ("abc", ("run", "--constellation", FIG4), 2),
            ("abc", ("run", "--constellation", FIG4, "--seed", "0"), 0),
            ("abc", ("validate", "--constellation", FIG4), 0),
            ("abc", ("explore", "--max-states", "100"), 7),
        ],
    )
    def test_seed_from_environment(self, capsys, monkeypatch, value, argv, code):
        """The variable is ``--seed``'s default: a malformed one is a usage
        error of ``run`` only, and a flag given on the command line wins."""
        monkeypatch.setenv("CONSTELLATION_SEED", value)
        got, lines = run_cli(capsys, *argv)
        assert got == code
        if argv[0] == "run" and code == 0:
            assert lines[-1]["seed"] == 0

    @pytest.mark.parametrize("value, finished_at", [("0", 0.0), ("2.5", 10.0), ("", 40.0)])
    def test_task_duration_from_environment(self, capsys, monkeypatch, value, finished_at):
        """Fig. 4 runs four tasks in sequence; a zero duration is zero, not
        the 10 s default, and an empty variable is unset."""
        monkeypatch.setenv("CONSTELLATION_TASK_DURATION", value)
        code, lines = run_cli(capsys, "run", "--constellation", FIG4, "--seed", "0")
        assert code == 0
        assert lines[-1]["finished_at"] == finished_at


class TestExplore:
    def test_check_golden_passes(self, capsys):
        code, lines = run_cli(capsys, "explore", "--check-golden")
        assert code == 0
        record = lines[0]
        assert record["event"] == "explored"
        assert record["distinct"] == 7168 and record["generated"] == 93633

    def test_bound_exceeded_exits_seven(self, capsys):
        code, lines = run_cli(capsys, "explore", "--max-states", "100")
        assert code == 7
        assert "bound" in lines[0]["error"]

    def test_extended_mode(self, capsys):
        code, lines = run_cli(capsys, "explore", "--mode", "extended")
        assert code == 0
        assert lines[0]["mode"] == "extended" and lines[0]["distinct"] == 880

    def test_check_golden_rejected_for_extended(self, capsys):
        code, _ = run_cli(capsys, "explore", "--mode", "extended", "--check-golden")
        assert code == 6

    def test_report_file(self, capsys, tmp_path):
        report = tmp_path / "stats.json"
        code, _ = run_cli(capsys, "explore", "--report", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 1
        assert doc["by_action"]["UpdateDevices"] == 6272

    @pytest.mark.parametrize("mode", ["tla-mirror", "extended"])
    def test_report_file_conforms_to_its_schema(self, capsys, tmp_path, mode):
        report = tmp_path / "stats.json"
        code, _ = run_cli(capsys, "explore", "--mode", mode, "--report", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        jsonschema.validate(doc, load_schema("explore_stats.schema.json"))
        assert doc["mode"] == mode

    @pytest.mark.parametrize(
        "value, argv, code",
        [
            ("extended", ("explore",), 0),
            ("bogus", ("explore",), 2),
            ("bogus", ("explore", "--mode", "extended"), 0),
            ("extended", ("explore", "--mode", "bogus"), 2),
            ("bogus", ("validate", "--constellation", FIG4), 0),
        ],
    )
    def test_mode_from_environment(self, capsys, monkeypatch, value, argv, code):
        """A mode outside ``--mode``'s choices is a usage error of
        ``explore`` whether it comes from the variable or the flag; a flag
        given on the command line wins."""
        monkeypatch.setenv("CONSTELLATION_MODE", value)
        got, lines = run_cli(capsys, *argv)
        assert got == code
        if argv[0] == "explore" and code == 0:
            assert lines[0]["mode"] == "extended"

    @pytest.mark.parametrize("value, code", [("100", 7), ("0", 7), ("abc", 2)])
    def test_max_states_from_environment(self, capsys, monkeypatch, value, code):
        """A bound of 0 is a bound, not the million-state default."""
        monkeypatch.setenv("CONSTELLATION_MAX_STATES", value)
        got, _ = run_cli(capsys, "explore")
        assert got == code
