"""Planner FSM, scripted trigger matching, template substitution."""

import pytest

from constellation import (
    AddTask,
    EditDelta,
    FailureReason,
    PlannerInput,
    PlannerState,
    ScriptedPlanner,
    TaskConstellation,
    TaskStatus,
    apply_delta,
    build_constellation,
    load_script,
)
from constellation.errors import IllegalTransition, ParseError, ScriptMiss
from constellation.events import EventKind, OrchestratorEvent
from constellation.planner import Trigger, fsm_advance


def event(kind, task_id, **payload):
    return OrchestratorEvent(kind, task_id, 0.0, payload)


def pinput(snapshot=None, batch=()):
    return PlannerInput(
        snapshot=snapshot or TaskConstellation(), batch=tuple(batch), round_index=0
    )


class TestFsm:
    def test_legal_paths(self):
        state = PlannerState.START
        state = fsm_advance(state, PlannerState.CONTINUE)
        state = fsm_advance(state, PlannerState.CONTINUE)
        assert fsm_advance(state, PlannerState.FINISH) is PlannerState.FINISH

    @pytest.mark.parametrize("terminal", [PlannerState.FINISH, PlannerState.FAIL])
    def test_terminal_states_have_no_exits(self, terminal):
        with pytest.raises(IllegalTransition):
            fsm_advance(terminal, PlannerState.CONTINUE)

    def test_start_is_not_reenterable(self):
        with pytest.raises(IllegalTransition):
            fsm_advance(PlannerState.CONTINUE, PlannerState.START)


class TestTrigger:
    def test_multiset_matching_is_order_free(self):
        trig = Trigger(
            ((EventKind.TASK_COMPLETED, "A"), (EventKind.TASK_FAILED, "B"))
        )
        batch = [event(EventKind.TASK_FAILED, "B"), event(EventKind.TASK_COMPLETED, "A")]
        assert trig.matches(batch)

    def test_length_mismatch_never_matches(self):
        trig = Trigger(((EventKind.TASK_COMPLETED, "A"),))
        assert not trig.matches([])
        assert not trig.matches(
            [event(EventKind.TASK_COMPLETED, "A"), event(EventKind.TASK_COMPLETED, "A")]
        )

    def test_glob_patterns(self):
        trig = Trigger(((EventKind.TASK_COMPLETED, "[BC]"),))
        assert trig.matches([event(EventKind.TASK_COMPLETED, "B")])
        assert trig.matches([event(EventKind.TASK_COMPLETED, "C")])
        assert not trig.matches([event(EventKind.TASK_COMPLETED, "A")])

    def test_patterns_consume_distinct_events(self):
        trig = Trigger(
            ((EventKind.TASK_COMPLETED, "*"), (EventKind.TASK_COMPLETED, "A"))
        )
        # Only one event available for two patterns of the same shape.
        assert not trig.matches([event(EventKind.TASK_COMPLETED, "A")])
        assert trig.matches(
            [event(EventKind.TASK_COMPLETED, "A"), event(EventKind.TASK_COMPLETED, "Z")]
        )

    def test_empty_trigger_matches_only_empty_batch(self):
        trig = Trigger(())
        assert trig.matches([])
        assert not trig.matches([event(EventKind.TASK_COMPLETED, "A")])


class TestScriptedPlanner:
    def script(self, strict=True):
        return load_script(
            {
                "strict": strict,
                "entries": [
                    {
                        "trigger": [{"kind": "TASK_COMPLETED", "task": "A"}],
                        "observation": "A finished",
                        "next_state": "CONTINUE",
                    },
                    {
                        "trigger": [{"kind": "TASK_COMPLETED", "task": "*"}],
                        "next_state": "FINISH",
                        "result": "done",
                    },
                ],
            }
        )

    def test_first_matching_entry_in_file_order_wins(self):
        planner = ScriptedPlanner(self.script())
        out = planner.edit(pinput(batch=[event(EventKind.TASK_COMPLETED, "A")]))
        assert out.observation == "A finished"
        assert out.next_state is PlannerState.CONTINUE

    def test_fallthrough_to_later_entry(self):
        planner = ScriptedPlanner(self.script())
        out = planner.edit(pinput(batch=[event(EventKind.TASK_COMPLETED, "Z")]))
        assert out.next_state is PlannerState.FINISH
        assert out.result == "done"

    def test_strict_miss_raises(self):
        planner = ScriptedPlanner(self.script(strict=True))
        with pytest.raises(ScriptMiss):
            planner.edit(pinput(batch=[event(EventKind.TASK_FAILED, "A")]))

    def test_lenient_miss_continues_without_edits(self):
        planner = ScriptedPlanner(self.script(strict=False))
        out = planner.edit(pinput(batch=[event(EventKind.TASK_FAILED, "A")]))
        assert out.next_state is PlannerState.CONTINUE
        assert not out.delta

    def test_bad_script_document_rejected(self):
        with pytest.raises(ParseError):
            load_script({"entries": [{"trigger": [{"kind": "NOT_A_KIND"}]}]})


class TestTemplates:
    def snapshot(self):
        c = build_constellation(
            {
                "tasks": [
                    {"id": tid, "device": "linux1" if tid.startswith("A") else "linux2",
                     "description": "Run job" if tid != "C" else "Other job"}
                    for tid in ("A", "A2", "B", "C")
                ]
            }
        )
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.FAILED, failure_reason=FailureReason.AGENT_DISCONNECTED)
        c.transition("A2", TaskStatus.RUNNING)
        c.transition("A2", TaskStatus.FAILED, failure_reason=FailureReason.TIMEOUT)
        c.transition("B", TaskStatus.RUNNING)
        c.transition("B", TaskStatus.COMPLETED, result="B-output")
        c.transition("C", TaskStatus.RUNNING)
        c.transition("C", TaskStatus.FAILED, failure_reason=FailureReason.EXECUTION_ERROR)
        return c

    def planner_for(self, text):
        return ScriptedPlanner(
            load_script(
                {
                    "entries": [
                        {"trigger": [], "next_state": "CONTINUE", "observation": text}
                    ]
                }
            )
        )

    def fill(self, text):
        planner = self.planner_for(text)
        return planner.edit(pinput(snapshot=self.snapshot())).observation

    def test_completed_results_sorted_by_id(self):
        assert self.fill("$completed_results") == "B: B-output"

    def test_failure_traces_group_retries_into_one(self):
        traces = self.fill("$failure_traces")
        # A and A2 share (description, device) -> one trace; C gets its own.
        assert traces.count("FAILED (") == 2
        assert "tasks A, A2" in traces
        assert "TIMEOUT" in traces  # latest retry's reason wins

    def test_failure_traces_skip_jobs_with_completed_retry(self):
        retry = AddTask({"id": "A3", "device": "linux1", "description": "Run job"})
        c, _ = apply_delta(self.snapshot(), EditDelta([retry]))
        c.transition("A3", TaskStatus.RUNNING)
        c.transition("A3", TaskStatus.COMPLETED, result="recovered")
        planner = self.planner_for("$failure_traces")
        out = planner.edit(pinput(snapshot=c))
        assert "linux1" not in out.observation
        assert out.observation.count("FAILED (") == 1

    def test_task_result_token(self):
        assert self.fill("out=$task_result:B") == "out=B-output"
        assert self.fill("out=$task_result:MISSING") == "out="

    def test_substitution_recurses_into_deltas(self):
        planner = ScriptedPlanner(
            load_script(
                {
                    "entries": [
                        {
                            "trigger": [],
                            "next_state": "CONTINUE",
                            "delta": [
                                {
                                    "op": "update_task",
                                    "task_id": "D",
                                    "patch": {"description": "got $completed_results"},
                                }
                            ],
                        }
                    ]
                }
            )
        )
        out = planner.edit(pinput(snapshot=self.snapshot()))
        assert out.delta.ops[0].patch == {"description": "got B: B-output"}
