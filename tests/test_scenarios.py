"""Fault-injection scenarios: verdicts, golden event logs, session hygiene,
and schema conformance of the shipped scenario files."""

import ast
import copy
import importlib.resources
import json
import os
import re
import shutil
from pathlib import Path

import jsonschema
import pytest

import constellation
from constellation import ParseError, RunOutcome
from constellation.serial import serialize
from constellation.simnet import scenarios
from constellation.simnet.scenarios import load_scenario, run_scenario
from conftest import GOLDEN_DIR, SCENARIOS_DIR, load_json, load_schema


@pytest.fixture(scope="module")
def results():
    return {n: run_scenario(n, seed=0) for n in (1, 2, 3)}


def golden_events(n):
    return json.loads((GOLDEN_DIR / f"scenario{n}_events.json").read_text())


def roundtrip(events):
    return json.loads(json.dumps(events, sort_keys=True))


class TestScenario1:
    """Transient device outage: the planner retries on the same device."""

    def test_verdict(self, results):
        r = results[1]
        assert r.report.outcome is RunOutcome.SUCCESS
        assert r.verdict_ok, r.diffs

    def test_retry_replaces_failed_task(self, results):
        final = {t["id"]: t for t in results[1].report.final_document["tasks"]}
        assert final["A"]["status"] == "FAILED"
        assert final["A"]["failure_reason"] == "AGENT_DISCONNECTED"
        assert final["A2"]["status"] == "COMPLETED"
        assert final["A2"]["device"] == final["A"]["device"] == "linux1"

    def test_aggregate_result_carries_three_timings(self, results):
        assert results[1].report.result.count("runtime:") == 3

    def test_event_log_matches_golden(self, results):
        assert roundtrip(results[1].report.events) == golden_events(1)


class TestScenario2:
    """Permanent single-device outage: retry fails, run degrades gracefully."""

    def test_verdict(self, results):
        r = results[2]
        assert r.report.outcome is RunOutcome.PARTIAL
        assert r.verdict_ok, r.diffs

    def test_failure_trace_collapses_retries(self, results):
        final = {t["id"]: t for t in results[2].report.final_document["tasks"]}
        assert final["A"]["status"] == final["A2"]["status"] == "FAILED"
        aggregate = final["D"]["description"]
        assert aggregate.count("FAILED (") == 1
        assert "tasks A, A2" in aggregate

    def test_only_live_devices_report_timings(self, results):
        assert results[2].report.result.count("runtime:") == 2

    def test_event_log_matches_golden(self, results):
        assert roundtrip(results[2].report.events) == golden_events(2)

    def test_report_keeps_the_disconnect_text(self, results):
        timing = results[2].report.as_dict()["timings"]["A"]
        assert (timing["status"], timing["error"]) == ("FAILED", "agent linux1 disconnected")


class TestScenario3:
    """All capable devices down: the run fails without fabricating output."""

    def test_verdict(self, results):
        r = results[3]
        assert r.report.outcome is RunOutcome.FAILED
        assert r.verdict_ok, r.diffs

    def test_dependent_task_never_dispatched(self, results):
        report = results[3].report
        final = {t["id"]: t for t in report.final_document["tasks"]}
        assert final["D"]["status"] == "PENDING"
        assert "D" not in report.timings

    def test_no_fabricated_timings_in_result(self, results):
        assert "runtime:" not in (results[3].report.result or "")

    def test_event_log_matches_golden(self, results):
        assert roundtrip(results[3].report.events) == golden_events(3)


class TestSessionLogs:
    def all_logs(self, results):
        for result in results.values():
            yield from result.session_logs.items()

    def test_every_task_session_has_exactly_one_task_end(self, results):
        # Correlation totality: one TASK, one TASK_END per session per side,
        # counting the synthetic entries written at disconnect detection.
        for name, log in self.all_logs(results):
            kinds = [entry["msg_type"] for entry in log]
            assert kinds.count("TASK") == 1, name
            assert kinds.count("TASK_END") == 1, name

    def test_sent_sequence_numbers_are_fifo(self, results):
        for name, log in self.all_logs(results):
            sent = [entry["seq"] for entry in log if entry["direction"] == "sent"]
            assert sent == sorted(sent), name
            assert len(sent) == len(set(sent)), name

    def test_synthetic_entries_are_local_and_unsequenced(self, results):
        synthetic = [
            entry
            for _, log in self.all_logs(results)
            for entry in log
            if entry.get("synthetic")
        ]
        assert synthetic, "expected disconnect-synthesised TASK_END entries"
        for entry in synthetic:
            assert entry["direction"] == "local"
            assert entry["seq"] is None
            assert entry["msg_type"] == "TASK_END"


class TestHarness:
    def test_runs_are_deterministic(self):
        first = run_scenario(1, seed=0)
        second = run_scenario(1, seed=0)
        assert first.markdown == second.markdown
        assert first.report.as_dict() == second.report.as_dict()

    def test_verdict_mismatch_is_listed_in_diffs(self):
        doc = load_scenario(1)
        doc["expected"] = dict(doc["expected"], outcome="FAILED")
        assert run_scenario(doc, seed=0).diffs == ["outcome: expected FAILED, got SUCCESS"]

    @pytest.mark.parametrize(
        "path, name",
        [((), "deadlin"), (("devices", "linux1"), "latncy"), (("expected",), "outcom")],
        ids=["scenario", "device", "expected"],
    )
    def test_unknown_field_is_a_parse_error(self, path, name):
        doc = load_scenario(1)
        owner = doc
        for key in path:
            owner = owner[key]
        owner[name] = 5.0
        field = ".".join((*path, name))
        with pytest.raises(ParseError, match=rf"bad scenario document: unknown field\(s\) {field}$"):
            run_scenario(doc, seed=0)

    @pytest.mark.parametrize(
        "layer, value, message",
        [
            ("manifest", {"os": 3}, "devices.linux2.manifest.os must be a string, got 3"),
            ("telemetry", {"capabilities": "cli"}, "devices.linux2.telemetry.capabilities must be an array, got 'cli'"),
            ("manifest", ["Ubuntu"], "devices.linux2.manifest must be an object or a null, got ['Ubuntu']"),
        ],
        ids=["manifest os", "telemetry capabilities", "manifest list"],
    )
    def test_an_ill_typed_profile_layer_is_a_parse_error(self, layer, value, message):
        """A device's manifest and telemetry have the shape a REGISTER's
        profile layers have, so the device they would keep out of the pool
        is refused when the scenario is loaded."""
        doc = load_scenario(1)
        doc["devices"]["linux2"][layer] = value
        with pytest.raises(ParseError, match=f"bad scenario document: {re.escape(message)}$"):
            run_scenario(doc, seed=0)

    @pytest.mark.parametrize("path", [("deadline",), ("execution_timeout",), ("devices", "linux1", "latency")], ids=".".join)
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=str)
    def test_a_number_that_is_not_finite_is_a_parse_error(self, path, value):
        """JSON has no NaN or Infinity, so the schema refuses either where a
        number goes, by path, before the run starts: a NaN latency would
        reach the clock mid-run, and an infinite one a link that never
        delivers."""
        doc = load_scenario(1)
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        message = f"{'.'.join(path)} must be a number, got {value!r}"
        with pytest.raises(ParseError, match=f"^bad scenario document: {re.escape(message)}$"):
            run_scenario(doc, seed=0)

    @pytest.mark.parametrize("outage", [[40.0, 5.0], [5.0, 5.0]], ids=str)
    def test_an_outage_that_does_not_end_after_it_starts_is_a_parse_error(self, outage):
        """Such an outage would never take the link down."""
        doc = load_scenario(1)
        doc["devices"]["linux1"]["outages"] = [outage]
        message = f"devices.linux1.outages: an outage must end after it starts, not [{outage[0]}, {outage[1]})"
        with pytest.raises(ParseError, match=f"^bad scenario document: {re.escape(message)}$"):
            load_scenario(doc)

    def test_run_leaves_the_callers_document_unchanged(self):
        doc = load_json(SCENARIOS_DIR / "scenario1.json")
        before = copy.deepcopy(doc)
        assert run_scenario(doc, seed=0).diffs == []
        assert doc == before

    def test_scenario_file_that_is_not_an_object_is_a_parse_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("[1]")
        with pytest.raises(ParseError, match="expected a JSON object, got list"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "text, error",
        [
            (None, "[Errno 2] No such file or directory: '{path}'"),
            ("{\n", "Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"),
        ],
        ids=["missing", "not JSON"],
    )
    def test_an_unreadable_constellation_file_is_a_parse_error(self, tmp_path, text, error):
        """The constellation file is read as every file a scenario names is:
        its fault is a ``ParseError`` that names the file."""
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / "fault_constellation.json"
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        real = os.path.realpath(path)
        message = f"cannot load constellation {real}: {error.format(path=real)}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            run_scenario(target / "scenario1.json", seed=0)

    def test_the_constellation_file_is_judged_once(self, tmp_path, monkeypatch):
        """The whole-document check of the constellation schema runs once per
        load: in ``from_document``, not first in ``read_document`` too."""
        from constellation import model, schema

        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        judged, check_of = [], schema.check_of

        def counted(kind, definition=""):
            judged.append((kind, definition))
            return check_of(kind, definition)

        monkeypatch.setattr(model, "check_of", counted)
        monkeypatch.setattr(schema, "check_of", counted)
        run_scenario(target / "scenario1.json", seed=0)
        assert judged.count(("constellation", "")) == 1

    def test_a_constellation_file_that_is_not_a_graph_is_a_parse_error(self, tmp_path):
        """A constellation file that its schema accepts but whose graph is
        invalid, here through an added D->A edge, is refused naming the file,
        as every other fault of a scenario's files is."""
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / "fault_constellation.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["dependencies"].append({"id": "eDA", "from_task": "D", "to_task": "A"})
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = f"bad constellation {os.path.realpath(path)}: CycleIntroduced: cycle through {{A, D}}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as refused:
            run_scenario(target / "scenario1.json", seed=0)
        assert [v.kind for v in refused.value.__cause__.violations] == ["CycleIntroduced"]

    @pytest.mark.parametrize("field, error", [
        ("bogus", "unknown field(s) tasks.0.bogus"),
        ("device", "tasks.0.device must be a string, got 5"),
    ])
    def test_a_constellation_file_its_schema_refuses_is_a_parse_error(self, tmp_path, field, error):
        """The schema's refusal, made once by ``from_document``, names the
        file as ``read_document`` names any other."""
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / "fault_constellation.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["tasks"][0][field] = 5
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = f"bad constellation {os.path.realpath(path)}: {error}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as refused:
            run_scenario(target / "scenario1.json", seed=0)
        assert str(refused.value.__cause__) == error


def entry_schema(name):
    """The constellation schema's definition of one task or dependency entry."""
    defs = load_schema("constellation.schema.json")["$defs"]
    return {"$defs": defs, "$ref": f"#/$defs/{name}"}


class TestShippedFixtures:
    @pytest.mark.parametrize("path", sorted(SCENARIOS_DIR.glob("*_planner.json")), ids=lambda p: p.name)
    def test_planner_scripts_conform(self, path):
        script = load_json(path)
        jsonschema.validate(script, load_schema("planner_script.schema.json"))
        task, dependency = entry_schema("task"), entry_schema("dependency")
        for entry in script["entries"]:
            for op in entry.get("delta", []):
                if op["op"] == "add_task":
                    jsonschema.validate(op["spec"], task)
                elif op["op"] == "add_dependency":
                    jsonschema.validate(op["spec"], dependency)
                elif op["op"] == "build_constellation":
                    for spec in op["config"].get("tasks", []):
                        jsonschema.validate(spec, task)
                    for spec in op["config"].get("dependencies", []):
                        jsonschema.validate(spec, dependency)

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS_DIR.glob("scenario?.json")))
    def test_every_file_a_scenario_names_is_packaged(self, name):
        """An installed package runs ``--scenario N``: the scenario and each
        file it names are resources of the package."""
        packaged = importlib.resources.files("constellation") / "scenarios"
        doc = json.loads((packaged / name).read_text(encoding="utf-8"))
        named = {doc["constellation"], doc["planner_script"]}
        for device in doc["devices"].values():
            named |= {device["executor"], device["reasoner"]}
        assert len(named) >= 6
        assert all((packaged / file).is_file() for file in named), named

    @pytest.mark.parametrize("path", sorted(SCENARIOS_DIR.glob("scenario?.json")), ids=lambda p: p.name)
    def test_scenarios_conform(self, path):
        jsonschema.validate(load_json(path), load_schema("scenario.schema.json"))

    @pytest.mark.parametrize("path", sorted(SCENARIOS_DIR.glob("*_reasoner.json")), ids=lambda p: p.name)
    def test_reasoner_scripts_conform(self, path):
        jsonschema.validate(load_json(path), load_schema("reasoner_script.schema.json"))

    @pytest.mark.parametrize("path", sorted(SCENARIOS_DIR.glob("*_executor.json")), ids=lambda p: p.name)
    def test_executor_tables_conform(self, path):
        jsonschema.validate(load_json(path), load_schema("executor_table.schema.json"))


PACKAGE_DIR = Path(constellation.__file__).parent


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE_DIR).as_posix()
)
def test_no_module_imports_random(path):
    """Nothing in a run draws a random number: no module of the package
    imports ``random``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "random" for alias in node.names), path
        elif isinstance(node, ast.ImportFrom):
            assert node.level or (node.module or "").split(".")[0] != "random", path


def count_reads(monkeypatch):
    """The names of the files ``Path.read_text`` reads from now on."""
    reads = []
    read_text = Path.read_text

    def counting_read_text(path, *args, **kwargs):
        reads.append(path.name)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    return reads


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_a_process_reads_each_named_file_once(scenario, monkeypatch):
    """Devices naming one executor or reasoner file share the one object
    loaded from it: the scenario, its constellation, its planner script and
    four scripts are seven reads, made by the first run of a process only."""
    run_scenario(scenario, seed=0)  # compiles the schemas the files are judged by
    monkeypatch.setattr(scenarios, "_LOADED", {})
    reads = count_reads(monkeypatch)
    run_scenario(scenario, seed=0)
    assert len(reads) == len(set(reads)) == 7
    reads.clear()
    run_scenario(scenario, seed=0)
    assert reads == []


def loaded_record(loaded):
    """Everything a loaded scenario holds, as plain values."""
    return copy.deepcopy(
        (
            loaded.doc,
            serialize(loaded.template),
            {name: executor.table for name, executor in loaded.executors.items()},
            {name: reasoner.entries for name, reasoner in loaded.reasoners.items()},
            loaded.script,
        )
    )


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_a_run_never_writes_the_loaded_scenario(scenario, monkeypatch):
    """Runs share what a scenario loads and only read it: two runs from one
    memo entry give byte-identical output and leave the entry as it was."""
    monkeypatch.setattr(scenarios, "_LOADED", {})
    loaded = scenarios._loaded(scenario)
    before = loaded_record(loaded)
    first, second = run_scenario(scenario, seed=0), run_scenario(scenario, seed=0)
    assert scenarios._loaded(scenario) is loaded
    assert first.report.to_json() == second.report.to_json()
    assert first.markdown == second.markdown
    assert json.dumps(first.session_logs) == json.dumps(second.session_logs)
    assert loaded_record(loaded) == before


class TestStaleMemo:
    """A memo entry is reused only while every file it read keeps its
    ``st_mtime_ns`` and ``st_size``; a miss reads and judges them again."""

    @pytest.fixture
    def scenario(self, tmp_path):
        target = tmp_path / "scenarios"
        shutil.copytree(SCENARIOS_DIR, target)
        path = target / "scenario1.json"
        assert run_scenario(path, seed=0).verdict_ok
        return path

    def test_a_rewritten_file_is_judged_again(self, scenario):
        executor = scenario.parent / "linux_executor.json"
        text = executor.read_text()
        executor.write_text(text.replace('"duration": 30', '"duration": -1'))  # the same size
        stat = executor.stat()
        # A filesystem with coarse timestamps may keep the mtime of a quick rewrite.
        os.utime(executor, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        with pytest.raises(ParseError, match=r"bad executor table .*linux_executor\.json: table\.0\.duration"):
            run_scenario(scenario, seed=0)
        executor.write_text(text)
        assert run_scenario(scenario, seed=0).verdict_ok

    def test_a_deleted_file_is_a_parse_error(self, scenario):
        (scenario.parent / "linux_reasoner.json").unlink()
        with pytest.raises(ParseError, match=r"cannot load reasoner script .*linux_reasoner\.json"):
            run_scenario(scenario, seed=0)

    def test_a_relative_path_names_the_file_it_resolves_to(self, scenario, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        reads = count_reads(monkeypatch)
        assert run_scenario("scenarios/scenario1.json", seed=0).verdict_ok
        assert reads == []
        # The same relative path from another directory is another file.
        other = tmp_path / "other"
        shutil.copytree(scenario.parent, other / "scenarios")
        doc = json.loads((other / "scenarios" / "scenario1.json").read_text())
        doc["expected"]["outcome"] = "FAILED"
        (other / "scenarios" / "scenario1.json").write_text(json.dumps(doc))
        monkeypatch.chdir(other)
        assert run_scenario("scenarios/scenario1.json", seed=0).diffs == ["outcome: expected FAILED, got SUCCESS"]
