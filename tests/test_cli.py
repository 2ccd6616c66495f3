"""CLI: exit codes, JSON-lines stdout, env overrides, output files."""

import json
import shutil

import pytest

from constellation.cli import main
from conftest import SCENARIOS_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
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

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CONSTELLATION_SEED", "0")
        code, lines = run_cli(capsys, "run", "--constellation", FIG4)
        assert code == 0
        assert lines[-1]["seed"] == 0


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

    def test_max_states_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CONSTELLATION_MAX_STATES", "100")
        code, _ = run_cli(capsys, "explore")
        assert code == 7
