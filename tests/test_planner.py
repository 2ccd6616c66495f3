"""Scripted trigger matching, template substitution."""

import fnmatch
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from constellation.errors import ParseError, ScriptMiss
from constellation.events import EventKind, OrchestratorEvent
from constellation.planner import Trigger


def event(kind, task_id, **payload):
    return OrchestratorEvent(kind, task_id, 0.0, payload)


def pinput(snapshot=None, batch=()):
    return PlannerInput(
        snapshot=snapshot or TaskConstellation(), batch=tuple(batch), round_index=0
    )


KINDS = (EventKind.TASK_COMPLETED, EventKind.TASK_FAILED)
GLOBS = ("*", "A", "B", "[AB]", "A*", "?", "C*")
IDS = ("A", "B", "C", "AB", "AA", "C1")


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

    def test_matching_agrees_with_backtracking_oracle(self):
        kinds = (EventKind.TASK_COMPLETED, EventKind.TASK_FAILED)
        globs = ("*", "A", "B", "[AB]", "C*", "?")
        ids = ("A", "B", "C", "C1", "AB")
        outcomes = {True: 0, False: 0}
        for seed in range(3000):
            rng = random.Random(seed)
            size = rng.randint(0, 6)
            patterns = tuple((rng.choice(kinds), rng.choice(globs)) for _ in range(size))
            batch = [event(rng.choice(kinds), rng.choice(ids)) for _ in range(size)]
            expected = backtracking_match(list(patterns), batch)
            assert Trigger(patterns).matches(batch) is expected, (patterns, batch)
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 500, outcomes

    def test_unmatchable_trigger_needs_one_glob_test_per_pair(self, monkeypatch):
        """63 completions and a failure against 64 completions: backtracking
        tries every assignment of the 63 patterns before giving up."""
        size = 64
        patterns = ((EventKind.TASK_COMPLETED, "*"),) * (size - 1) + ((EventKind.TASK_FAILED, "*"),)
        batch = [event(EventKind.TASK_COMPLETED, f"t{i}") for i in range(size)]
        calls = []
        fnmatchcase = fnmatch.fnmatchcase

        def counted(name, pattern):
            calls.append(1)
            return fnmatchcase(name, pattern)

        monkeypatch.setattr(fnmatch, "fnmatchcase", counted)
        assert not Trigger(patterns).matches(batch)
        assert len(calls) <= size * size


    def test_identical_patterns_are_matched_in_linear_time(self, monkeypatch):
        """2 000 identical patterns against 2 000 completions: one glob test
        per event, as the patterns form one group, and no recursion."""
        size = 2000
        patterns = ((EventKind.TASK_COMPLETED, "*"),) * size
        batch = [event(EventKind.TASK_COMPLETED, f"t{i}") for i in range(size)]
        calls = []
        fnmatchcase = fnmatch.fnmatchcase

        def counted(name, pattern):
            calls.append(1)
            return fnmatchcase(name, pattern)

        monkeypatch.setattr(fnmatch, "fnmatchcase", counted)
        started = time.process_time()
        assert Trigger(patterns).matches(batch)
        assert not Trigger(patterns[1:] + ((EventKind.TASK_FAILED, "*"),)).matches(batch)
        assert time.process_time() - started < 0.1
        assert len(calls) == 2 * size  # a glob meets only the events of its kind

    def test_augmenting_paths_undo_greedy_choices(self):
        """Each event first takes the first group with room: A1 takes "*",
        which leaves B without one, so A1 moves on to "A*"."""
        trigger = Trigger(((EventKind.TASK_COMPLETED, "*"), (EventKind.TASK_COMPLETED, "A*")))
        assert trigger.matches([event(EventKind.TASK_COMPLETED, "A1"), event(EventKind.TASK_COMPLETED, "B")])
        assert not trigger.matches([event(EventKind.TASK_COMPLETED, "B"), event(EventKind.TASK_COMPLETED, "C")])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(GLOBS)), max_size=6).flatmap(
            lambda patterns: st.tuples(
                st.just(tuple(patterns)),
                st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(IDS)),
                         min_size=len(patterns), max_size=len(patterns)),
            )
        )
    )
    def test_matching_agrees_with_every_permutation(self, case):
        """Up to six patterns of random kinds and globs: a trigger matches
        exactly when some permutation of the batch matches it pattern by
        pattern."""
        patterns, pairs = case
        batch = [event(kind, task_id) for kind, task_id in pairs]
        expected = any(
            all(e.kind is kind and fnmatch.fnmatchcase(e.task_id, glob) for (kind, glob), e in zip(patterns, order))
            for order in itertools.permutations(batch)
        )
        assert Trigger(patterns).matches(batch) is expected


def backtracking_match(patterns, events):
    """The former ``Trigger._match``: try each event for the first pattern,
    then match the rest recursively."""
    if not patterns:
        return True
    kind, glob = patterns[0]
    for i, candidate in enumerate(events):
        if candidate.kind is kind and fnmatch.fnmatchcase(candidate.task_id, glob):
            if backtracking_match(patterns[1:], events[:i] + events[i + 1 :]):
                return True
    return False


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

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("next_state", "BOGUS", "next_state"),
            ("next_state", "START", "next_state"),
            ("duration", "soon", "duration"),
            ("duration", -1, "duration"),
            ("delta", [{"op": "explode"}], "explode"),
            ("delta", [{"op": "remove_task", "task_id": "A", "why": "x"}], "unknown field"),
            ("delta", [{"op": "remove_task"}], "task_id is required"),
        ],
    )
    def test_malformed_entry_rejected_at_load(self, field, value, match):
        with pytest.raises(ParseError, match=match):
            load_script({"entries": [{"trigger": [], field: value}]})

    def test_refused_edit_op_names_the_script_and_the_entry(self, tmp_path):
        entries = [{"trigger": []}, {"trigger": [], "delta": []}, {"trigger": [], "delta": [
            {"op": "remove_task", "task_id": "A"}, {"op": "remove_task"}]}]
        path = tmp_path / "planner.json"
        path.write_text(json.dumps({"entries": entries}))
        refusal = "entries.2.delta.1.task_id is required"
        with pytest.raises(ParseError) as raised:
            load_script(path)
        assert str(raised.value) == f"bad planner script {path}: {refusal}"
        with pytest.raises(ParseError) as raised:
            load_script(str(path))
        assert str(raised.value) == f"bad planner script {path}: {refusal}"
        with pytest.raises(ParseError) as raised:
            load_script({"entries": entries})
        assert str(raised.value) == f"bad planner script document: {refusal}"

    def test_script_file_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "planner.json"
        path.write_text("[1]")
        with pytest.raises(ParseError, match="expected a JSON object, got list"):
            load_script(path)


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
