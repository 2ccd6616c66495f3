"""Orchestrator: locked edit cycles, scheduling, outcomes, timeouts."""

import pytest

from constellation import (
    AddDependency,
    EditDelta,
    EngineConfig,
    FailureReason,
    NoopPlanner,
    Orchestrator,
    Planner,
    RunOutcome,
    ScriptedDispatcher,
    ScriptedPlanner,
    TaskStatus,
    VirtualClock,
    build_constellation,
    deserialize,
    load_script,
)
from conftest import SCENARIOS_DIR, layered_config


def fig4_constellation():
    return deserialize((SCENARIOS_DIR / "fig4.json").read_text(encoding="utf-8"))


def run_fig4(durations=None, failures=None, planner=None, config=None, default_duration=10.0):
    clock = VirtualClock()
    engine = Orchestrator(
        clock,
        planner or NoopPlanner(),
        ScriptedDispatcher(
            clock, durations=durations, failures=failures, default_duration=default_duration
        ),
        constellation=fig4_constellation(),
        config=config or EngineConfig(),
    )
    return engine.run()


class TestHappyPath:
    def test_fig4_schedule_and_outcome(self):
        report = run_fig4()
        assert report.outcome is RunOutcome.SUCCESS
        assert report.finished_at == 40.0
        starts = {tid: t.dispatched_at for tid, t in report.timings.items()}
        assert starts == {"A": 0.0, "B": 0.0, "C": 10.0, "D": 20.0, "E": 30.0}

    def test_events_cover_every_task_start_and_finish(self):
        report = run_fig4()
        started = [e["task_id"] for e in report.events if e["kind"] == "TASK_STARTED"]
        completed = [e["task_id"] for e in report.events if e["kind"] == "TASK_COMPLETED"]
        assert sorted(started) == sorted(completed) == ["A", "B", "C", "D", "E"]

    def test_lock_trace_is_balanced_and_alternating(self):
        report = run_fig4()
        actions = [entry["action"] for entry in report.lock_trace]
        assert actions[::2] == ["acquire"] * (len(actions) // 2)
        assert actions[1::2] == ["release"] * (len(actions) // 2)

    def test_no_assignments_while_lock_held(self):
        report = run_fig4()
        assert report.assignments_while_held == 0

    def test_availability_change_inside_dispatch_sends_each_task_once(self):
        """A dispatcher may report an availability change from inside
        dispatch(); the nested reschedule must not leave the outer loop
        holding already-dispatched tasks."""

        class ReentrantDispatcher(ScriptedDispatcher):
            def set_availability_listener(self, listener):
                self.listener = listener

            def dispatch(self, task, on_done):
                super().dispatch(task, on_done)
                self.listener()

        clock = VirtualClock()
        dispatcher = ReentrantDispatcher(clock, default_duration=10.0)
        report = Orchestrator(
            clock, NoopPlanner(), dispatcher, constellation=fig4_constellation()
        ).run()
        assert report.outcome is RunOutcome.SUCCESS
        started = [e["task_id"] for e in report.events if e["kind"] == "TASK_STARTED"]
        assert sorted(started) == ["A", "B", "C", "D", "E"]

    def test_synchronous_failure_inside_dispatch_stops_dispatching(self):
        """A failure reported from inside dispatch() takes the lock at once;
        the tasks after it wait for the release instead of being sent under
        the held lock."""

        class FailsAInline(ScriptedDispatcher):
            def dispatch(self, task, on_done):
                if task.id == "a":
                    on_done("a", TaskStatus.FAILED, None, FailureReason.AGENT_DISCONNECTED)
                else:
                    super().dispatch(task, on_done)

        clock = VirtualClock()
        constellation = build_constellation(
            {
                "request": "three independent tasks",
                "tasks": [{"id": t, "description": f"job {t}", "device": "dev"} for t in "abc"],
            }
        )
        report = Orchestrator(
            clock, NoopPlanner(), FailsAInline(clock), constellation=constellation
        ).run()
        assert report.assignments_while_held == 0
        assert report.outcome is RunOutcome.PARTIAL
        started = [e["task_id"] for e in report.events if e["kind"] == "TASK_STARTED"]
        assert started == ["a", "b", "c"]


    def test_large_layered_graph_runs_to_success(self):
        """160 layers of 10 tasks, each task taking 1.0 s: the run must end
        once the last layer completes, at virtual time 160.0."""
        clock = VirtualClock()
        constellation = build_constellation(layered_config(1600, width=10, fan_in=2))
        engine = Orchestrator(
            clock, NoopPlanner(), ScriptedDispatcher(clock), constellation=constellation
        )
        report = engine.run()
        assert report.outcome is RunOutcome.SUCCESS
        assert report.finished_at == 160.0
        assert len(report.timings) == 1600


class TestOutcomeRule:
    def test_failure_without_retry_is_partial(self):
        report = run_fig4(failures={"C": "EXECUTION_ERROR"})
        # D still runs (UNCONDITIONAL from C); E never can (SUCCESS_ONLY).
        assert report.outcome is RunOutcome.PARTIAL
        final = {t["id"]: t["status"] for t in report.final_document["tasks"]}
        assert final == {
            "A": "COMPLETED",
            "B": "COMPLETED",
            "C": "FAILED",
            "D": "COMPLETED",
            "E": "PENDING",
        }

    def test_failure_with_identical_retry_is_success(self):
        script = {
            "strict": False,
            "entries": [
                {
                    "trigger": [{"kind": "TASK_FAILED", "task": "A"}],
                    "next_state": "CONTINUE",
                    "delta": [
                        {
                            "op": "add_task",
                            "spec": {
                                "id": "A2",
                                "name": "retry",
                                "description": "Build the data set",
                                "device": "linux",
                            },
                        },
                        {"op": "remove_dependency", "edge_id": "eAC"},
                        {
                            "op": "add_dependency",
                            "spec": {"id": "eA2C", "from_task": "A2", "to_task": "C"},
                        },
                    ],
                }
            ],
        }
        report = run_fig4(
            failures={"A": "EXECUTION_ERROR"}, planner=ScriptedPlanner(load_script(script))
        )
        assert report.outcome is RunOutcome.SUCCESS
        final = {t["id"]: t["status"] for t in report.final_document["tasks"]}
        assert final["A"] == "FAILED" and final["A2"] == "COMPLETED"

    def test_total_failure_is_failed(self):
        report = run_fig4(
            failures={tid: "EXECUTION_ERROR" for tid in ("A", "B", "C", "D", "E")}
        )
        assert report.outcome is RunOutcome.FAILED

    def test_planner_fail_is_failed_even_with_completions(self):
        script = {
            "strict": False,
            "entries": [
                {
                    "trigger": [{"kind": "TASK_COMPLETED", "task": "A"}],
                    "next_state": "FAIL",
                    "result": "operator abort",
                }
            ],
        }
        report = run_fig4(planner=ScriptedPlanner(load_script(script)))
        assert report.outcome is RunOutcome.FAILED
        assert report.result == "operator abort"

    def test_planner_finish_with_failed_tasks_is_partial(self):
        script = {
            "strict": False,
            "entries": [
                {
                    "trigger": [{"kind": "TASK_FAILED", "task": "*"}],
                    "next_state": "FINISH",
                    "result": "gave up early",
                }
            ],
        }
        report = run_fig4(
            failures={tid: "EXECUTION_ERROR" for tid in ("A", "B", "C", "D", "E")},
            planner=ScriptedPlanner(load_script(script)),
        )
        assert report.outcome is RunOutcome.PARTIAL


class TestPlannerFsm:
    def test_return_to_start_aborts_the_run(self):
        script = {
            "strict": False,
            "entries": [
                {"trigger": [{"kind": "TASK_COMPLETED", "task": "*"}], "next_state": "START"}
            ],
        }
        report = run_fig4(planner=ScriptedPlanner(load_script(script)))
        assert report.outcome is RunOutcome.FAILED
        assert "planner may not move CONTINUE -> START" in report.error
        assert [cycle.next_state for cycle in report.edit_cycles] == ["CONTINUE"]
        assert report.lock_trace[-1]["action"] == "release"


class TestRejectedDelta:
    def script_with_cycle_then(self, second_entry):
        return {
            "strict": False,
            "entries": [
                {
                    "trigger": [{"kind": "TASK_COMPLETED", "task": "A"}],
                    "next_state": "CONTINUE",
                    "delta": [
                        {
                            "op": "add_dependency",
                            "spec": {"id": "eDC", "from_task": "D", "to_task": "C"},
                        }
                    ],
                },
                second_entry,
            ],
        }

    def test_rejected_delta_represented_once_with_violations(self):
        seen = {}

        class Probe(ScriptedPlanner):
            def edit(self, planner_input):
                if planner_input.violations:
                    seen["violations"] = planner_input.violations
                return super().edit(planner_input)

        # Same trigger shape: on re-presentation the batch is unchanged, so
        # the first (cyclic) entry matches again and the run aborts.
        script = self.script_with_cycle_then(
            {"trigger": [{"kind": "TASK_COMPLETED", "task": "Z"}], "next_state": "CONTINUE"}
        )
        report = run_fig4(planner=Probe(load_script(script)))
        assert report.outcome is RunOutcome.FAILED
        assert "rejected twice" in report.error
        assert any("cycle" in v.lower() for v in seen["violations"])

    def test_corrected_re_presentation_commits_and_is_recorded(self):
        from constellation import PlannerOutput, PlannerState

        class Corrects(ScriptedPlanner):
            def edit(self, planner_input):
                if planner_input.violations:
                    return PlannerOutput(
                        observation="delta was rejected; dropping the edit",
                        thought="retry without the cyclic edge",
                        next_state=PlannerState.CONTINUE,
                    )
                return super().edit(planner_input)

        script = self.script_with_cycle_then(
            {"trigger": [{"kind": "TASK_COMPLETED", "task": "Z"}], "next_state": "CONTINUE"}
        )
        report = run_fig4(planner=Corrects(load_script(script)))
        assert report.outcome is RunOutcome.SUCCESS
        assert any(cycle.represented for cycle in report.edit_cycles)


    def test_malformed_entry_is_represented_not_aborted(self):
        """A delta whose entry fails to parse is a rejected delta like any
        other: the planner sees the batch again with the error."""
        from constellation import PlannerOutput, PlannerState

        seen = []

        class BadDepType(Planner):
            def edit(self, planner_input):
                seen.append(planner_input.violations)
                delta = EditDelta()
                if planner_input.round_index == 0 and not planner_input.violations:
                    spec = {"id": "eAB", "from_task": "A", "to_task": "B", "dep_type": "BOGUS"}
                    delta = EditDelta([AddDependency(spec)])
                return PlannerOutput(
                    observation="", thought="", next_state=PlannerState.CONTINUE, delta=delta
                )

        report = run_fig4(planner=BadDepType())
        assert report.error is None
        assert report.outcome is RunOutcome.SUCCESS
        assert seen[0] == () and "BOGUS" in seen[1][0]
        assert report.edit_cycles[0].represented


class TestTimeouts:
    def test_pending_dispatch_timeout_fails_pending_task(self):
        class NoDevices(ScriptedDispatcher):
            def available_devices(self):
                return set()

        clock = VirtualClock()
        engine = Orchestrator(
            clock,
            NoopPlanner(),
            NoDevices(clock),
            constellation=fig4_constellation(),
            config=EngineConfig(pending_dispatch_timeout=60.0, deadline=500.0),
        )
        report = engine.run()
        assert report.outcome is RunOutcome.FAILED
        final = {t["id"]: t["status"] for t in report.final_document["tasks"]}
        assert final["A"] == "FAILED" and final["B"] == "FAILED"
        by_id = {t["id"]: t for t in report.final_document["tasks"]}
        assert by_id["A"]["failure_reason"] == "TIMEOUT"

    def test_execution_timeout_fails_running_task(self):
        report = run_fig4(
            durations={"A": 1000.0},
            config=EngineConfig(execution_timeout=50.0, deadline=2000.0),
        )
        by_id = {t["id"]: t for t in report.final_document["tasks"]}
        assert by_id["A"]["status"] == "FAILED"
        assert by_id["A"]["failure_reason"] == "TIMEOUT"

    def test_deadline_marks_report(self):
        report = run_fig4(
            durations={"A": 1000.0}, config=EngineConfig(deadline=5.0)
        )
        assert report.deadline_exceeded


class TestVersioning:
    def test_version_rises_once_per_committed_delta_only(self):
        script = {
            "strict": False,
            "entries": [
                {
                    "trigger": [{"kind": "TASK_COMPLETED", "task": "A"}],
                    "next_state": "CONTINUE",
                    "delta": [
                        {"op": "add_task", "spec": {"id": "F", "device": "linux"}},
                        {
                            "op": "add_dependency",
                            "spec": {"id": "eEF", "from_task": "E", "to_task": "F"},
                        },
                    ],
                }
            ],
        }
        report = run_fig4(planner=ScriptedPlanner(load_script(script)))
        initial = report.initial_document["version"]
        assert report.final_document["version"] == initial + 1
        deltas = [c for c in report.edit_cycles if c.summary]
        assert len(deltas) == 1
