"""Fault-injection scenarios: verdicts, golden event logs, session hygiene,
and schema conformance of the shipped scenario files."""

import json

import jsonschema
import pytest

from constellation import RunOutcome, VerdictMismatch
from constellation.simnet.scenarios import (
    load_scenario,
    run_scenario,
    run_scenario_strict,
)
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

    def test_strict_runner_raises_on_verdict_mismatch(self):
        doc = load_scenario(1)
        doc["expected"] = dict(doc["expected"], outcome="FAILED")
        with pytest.raises(VerdictMismatch):
            run_scenario_strict(doc, seed=0)

    def test_strict_runner_passes_clean_scenarios(self):
        for n in (1, 2, 3):
            assert run_scenario_strict(n, seed=0).verdict_ok


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

    @pytest.mark.parametrize("path", sorted(SCENARIOS_DIR.glob("scenario?.json")), ids=lambda p: p.name)
    def test_scenarios_conform(self, path):
        jsonschema.validate(load_json(path), load_schema("scenario.schema.json"))
