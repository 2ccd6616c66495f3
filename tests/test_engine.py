"""Orchestrator: locked edit cycles, scheduling, outcomes, timeouts."""

import random
import sys
from collections import Counter

from constellation import (
    AddDependency,
    AddTask,
    BuildConstellation,
    EditDelta,
    EngineConfig,
    FailureReason,
    NoopPlanner,
    Orchestrator,
    Planner,
    PlannerOutput,
    PlannerState,
    RunOutcome,
    ScriptedDispatcher,
    ScriptedPlanner,
    TaskConstellation,
    TaskStatus,
    VirtualClock,
    build_constellation,
    deserialize,
    load_script,
    serialize,
)
from conftest import SCENARIOS_DIR, layered_config, random_dag


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
        dispatch(); the reschedule it asks for runs after the dispatch pass,
        so no task is sent twice."""

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

    def test_synchronous_failure_inside_dispatch_takes_effect_after_the_pass(self):
        """A failure reported from inside dispatch() waits in the intake until
        the clock's next step: the dispatch pass sends every ready task with
        the lock free, and the failure is recorded after all of them."""

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
        kinds = [(e["kind"], e["task_id"]) for e in report.events if e["kind"].startswith("TASK_")]
        assert kinds[:4] == [
            ("TASK_STARTED", "a"),
            ("TASK_STARTED", "b"),
            ("TASK_STARTED", "c"),
            ("TASK_FAILED", "a"),
        ]

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

    def test_readiness_work_is_linear_in_tasks_and_edges(self, monkeypatch):
        """A 2 000-task layered run looks at each edge a bounded number of
        times: readiness is kept per task, not rescanned every round."""
        calls = dict.fromkeys(("incoming", "edge_satisfied"), 0)
        for name in calls:

            def counted(self, *args, _name=name, _original=getattr(TaskConstellation, name)):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(TaskConstellation, name, counted)
        config = layered_config(2000, width=10, fan_in=2)
        clock = VirtualClock()
        engine = Orchestrator(
            clock, NoopPlanner(), ScriptedDispatcher(clock), constellation=build_constellation(config)
        )
        assert engine.run().outcome is RunOutcome.SUCCESS
        size = len(config["tasks"]) + len(config["dependencies"])
        assert sum(calls.values()) <= 2 * size, calls


def three_independent_tasks():
    return build_constellation(
        {
            "request": "three independent tasks",
            "tasks": [{"id": t, "description": f"job {t}", "device": "dev"} for t in "abc"],
        }
    )


class TestHostileDispatchers:
    def test_raising_dispatch_fails_the_task(self):
        """An exception out of dispatch() is the task's EXECUTION_ERROR,
        reported like a synchronous failure; it does not escape run()."""

        class RaisesForA(ScriptedDispatcher):
            def dispatch(self, task, on_done):
                if task.id == "a":
                    raise RuntimeError("device driver crashed")
                super().dispatch(task, on_done)

        clock = VirtualClock()
        report = Orchestrator(
            clock, NoopPlanner(), RaisesForA(clock), constellation=three_independent_tasks()
        ).run()
        assert report.outcome is RunOutcome.PARTIAL
        by_id = {t["id"]: t for t in report.final_document["tasks"]}
        assert by_id["a"]["status"] == "FAILED"
        assert by_id["a"]["failure_reason"] == "EXECUTION_ERROR"
        assert report.assignments_while_held == 0
        started = [e["task_id"] for e in report.events if e["kind"] == "TASK_STARTED"]
        assert started == ["a", "b", "c"]
        assert report.as_dict()["timings"]["a"]["error"] == "device driver crashed"
        failed = [e for e in report.events if e["kind"] == "TASK_FAILED"]
        assert [e["payload"] for e in failed] == [{"failure_reason": "EXECUTION_ERROR"}]

    def test_duplicate_completions_are_counted_not_recorded(self):
        class CompletesTwice(ScriptedDispatcher):
            def dispatch(self, task, on_done):
                super().dispatch(task, on_done)
                super().dispatch(task, on_done)

        clock = VirtualClock()
        report = Orchestrator(
            clock, NoopPlanner(), CompletesTwice(clock), constellation=three_independent_tasks()
        ).run()
        assert report.outcome is RunOutcome.SUCCESS
        completed = [e["task_id"] for e in report.events if e["kind"] == "TASK_COMPLETED"]
        assert sorted(completed) == ["a", "b", "c"]
        assert report.dropped_completions == 3
        assert report.as_dict()["instrumentation"]["dropped_completions"] == 3

    def test_completion_after_execution_timeout_is_counted_not_recorded(self):
        clock = VirtualClock()
        constellation = build_constellation(
            {
                "tasks": [{"id": t, "device": "dev"} for t in "abc"],
                "dependencies": [{"id": "ebc", "from_task": "b", "to_task": "c"}],
            }
        )
        report = Orchestrator(
            clock,
            NoopPlanner(),
            ScriptedDispatcher(clock, durations={"a": 60.0, "b": 40.0, "c": 40.0}),
            constellation=constellation,
            config=EngineConfig(execution_timeout=50.0),
        ).run()
        assert report.finished_at == 80.0  # the run outlives a's completion at 60
        assert report.dropped_completions == 1
        assert (report.timings["a"].finished_at, report.timings["a"].status) == (50.0, "FAILED")
        a_events = [e["kind"] for e in report.events if e["task_id"] == "a"]
        assert a_events == ["TASK_STARTED", "TASK_FAILED"]
        by_id = {t["id"]: t for t in report.final_document["tasks"]}
        assert by_id["a"]["failure_reason"] == "TIMEOUT"

    HOSTILE_BEHAVIOURS = ("clock", "complete inline", "fail inline", "twice", "raise", "listener")

    @staticmethod
    def hostile_run(seed):
        """One seeded 2-6 task DAG run against a dispatcher that picks, per
        task, one hostile way to report back; planner rounds take 0 or 1 s."""
        rng = random.Random(seed)
        constellation = random_dag(rng, max_nodes=6, min_nodes=2)
        behaviours = {
            tid: rng.choice(TestHostileDispatchers.HOSTILE_BEHAVIOURS)
            for tid in sorted(constellation.tasks)
        }
        durations = {tid: rng.choice((0.0, 1.0, 2.0)) for tid in sorted(constellation.tasks)}
        planner = rng.choice((NoopPlanner, SlowNoopPlanner))()
        snapshots = []  # each round's snapshot and its document at round start

        class Recording(Planner):
            def edit(self, planner_input):
                snapshots.append((planner_input.snapshot, serialize(planner_input.snapshot)))
                return planner.edit(planner_input)

        class SnapshotChecked(Orchestrator):
            """Callbacks fired during a round leave its snapshot as it was."""

            def _commit_round(self, planner_input, *args):
                snapshot, at_start = snapshots[-1]
                assert snapshot is planner_input.snapshot
                assert serialize(snapshot) == at_start
                super()._commit_round(planner_input, *args)

        class Hostile(ScriptedDispatcher):
            def available_devices(self):
                return {"dev0", "dev1", "dev2"}

            def set_availability_listener(self, listener):
                self.listener = listener

            def dispatch(self, task, on_done):
                behaviour = behaviours[task.id]
                if behaviour == "raise":
                    raise RuntimeError(f"{task.id} refused")
                if behaviour == "complete inline":
                    on_done(task.id, TaskStatus.COMPLETED, "inline", None)
                elif behaviour == "fail inline":
                    on_done(task.id, TaskStatus.FAILED, "inline", FailureReason.AGENT_DISCONNECTED)
                elif behaviour == "twice":
                    on_done(task.id, TaskStatus.COMPLETED, "inline", None)
                    super().dispatch(task, on_done)
                else:
                    if behaviour == "listener":
                        self.listener()
                    super().dispatch(task, on_done)

        clock = VirtualClock()
        dispatcher = Hostile(clock, durations=durations)
        return SnapshotChecked(clock, Recording(), dispatcher, constellation=constellation).run()

    def test_fuzzed_hostile_dispatchers_keep_the_invariants(self):
        """Whatever a dispatcher does inside dispatch(), nothing is sent under
        the held lock, no task starts twice, every start ends exactly once,
        each round's snapshot is unchanged at its commit, the run ends with
        an outcome, and a seed always yields one report."""
        for seed in range(200):
            report = self.hostile_run(seed)
            assert report.outcome is not None, seed
            assert report.assignments_while_held == 0, seed
            started = Counter(e["task_id"] for e in report.events if e["kind"] == "TASK_STARTED")
            ended = Counter(
                e["task_id"]
                for e in report.events
                if e["kind"] in ("TASK_COMPLETED", "TASK_FAILED")
            )
            assert max(started.values(), default=1) == 1, (seed, started)
            assert ended == started, (seed, started, ended)
            assert self.hostile_run(seed).to_json() == report.to_json(), seed


class SlowNoopPlanner(NoopPlanner):
    """A NoopPlanner whose every round takes ``duration`` (1 s by default);
    it finishes on a batch that reports ``finish_on``."""

    def __init__(self, finish_on=None, duration=1.0):
        self.finish_on = finish_on
        self.duration = duration

    def edit(self, planner_input):
        output = super().edit(planner_input)
        finish = any(e.task_id == self.finish_on for e in planner_input.batch)
        return PlannerOutput(
            observation=output.observation,
            thought=output.thought,
            next_state=PlannerState.FINISH if finish else output.next_state,
            duration=self.duration,
        )


def chain_config(devices, dependencies=()):
    return {
        "request": "same-instant order",
        "tasks": [{"id": tid, "device": device} for tid, device in devices.items()],
        "dependencies": [
            {"id": f"{a}>{b}", "from_task": a, "to_task": b} for a, b in dependencies
        ],
    }


def task_trace(report):
    return [(e["kind"], e["task_id"], e["at"]) for e in report.events]


def lock_trace(report):
    return [(entry["action"], entry["at"]) for entry in report.lock_trace]


class TestSameInstantOrder:
    """A dispatcher's callback that the clock fires before an engine timer of
    the same instant acts before that timer, as if it had run directly."""

    def test_completion_due_with_a_commit_joins_the_held_lock_batch(self):
        clock = VirtualClock()
        constellation = build_constellation(
            chain_config({"A": "dev", "B": "dev", "C": "dev"}, [("A", "C")])
        )
        report = Orchestrator(
            clock,
            SlowNoopPlanner(),
            ScriptedDispatcher(clock, durations={"A": 1.0, "B": 2.0}),
            constellation=constellation,
        ).run()
        # B completes at 3.0, the instant the round over A's completion
        # commits: it joins that lock hold, and C is sent only after it.
        assert lock_trace(report) == [
            ("acquire", 0.0), ("release", 1.0),
            ("acquire", 2.0), ("release", 4.0),
            ("acquire", 5.0), ("release", 6.0),
        ]
        assert task_trace(report) == [
            ("TASK_STARTED", "A", 1.0),
            ("TASK_STARTED", "B", 1.0),
            ("TASK_COMPLETED", "A", 2.0),
            ("TASK_COMPLETED", "B", 3.0),
            ("TASK_STARTED", "C", 4.0),
            ("TASK_COMPLETED", "C", 5.0),
        ]

    def test_completion_due_with_a_finishing_commit_is_recorded(self):
        clock = VirtualClock()
        report = Orchestrator(
            clock,
            SlowNoopPlanner(finish_on="A"),
            ScriptedDispatcher(clock, durations={"A": 1.0, "B": 2.0}),
            constellation=build_constellation(chain_config({"A": "dev", "B": "dev"})),
        ).run()
        assert report.finished_at == 3.0
        assert report.timings["B"].finished_at == 3.0
        assert task_trace(report)[-1] == ("TASK_COMPLETED", "B", 3.0)

    def test_completion_due_with_a_pending_timeout_comes_first(self):
        class DevOnly(ScriptedDispatcher):
            def available_devices(self):
                return {"dev"}

        clock = VirtualClock()
        report = Orchestrator(
            clock,
            NoopPlanner(),
            DevOnly(clock, durations={"A": 2.0}),
            constellation=build_constellation(chain_config({"A": "dev", "X": "off"})),
            config=EngineConfig(pending_dispatch_timeout=2.0),
        ).run()
        assert report.outcome is RunOutcome.PARTIAL
        assert task_trace(report) == [
            ("TASK_STARTED", "A", 0.0),
            ("TASK_COMPLETED", "A", 2.0),
            ("TASK_FAILED", "X", 2.0),
        ]
        batches = [[e["task_id"] for e in cycle.batch] for cycle in report.edit_cycles]
        assert batches[-2:] == [["A"], ["X"]]


class TestHostilePlanner:
    def test_mutating_the_snapshot_leaves_the_run_unchanged(self):
        """A planner that moves statuses and runs raw ops on its snapshot
        changes only its own copy: the engine's graph, events and outcome
        are those of a planner that only reads."""

        class MutatesSnapshot(NoopPlanner):
            rounds = 0

            def edit(self, planner_input):
                snapshot = planner_input.snapshot
                for task_id, task in sorted(snapshot.tasks.items()):
                    if task.status is TaskStatus.PENDING:
                        snapshot.transition(
                            task_id, TaskStatus.FAILED, failure_reason=FailureReason.PLANNER_CANCELLED
                        )
                    elif task.status is TaskStatus.RUNNING:
                        snapshot.transition(task_id, TaskStatus.COMPLETED, result="forged")
                snapshot._remove_task(sorted(snapshot.tasks)[0])
                snapshot._add_task({"id": "forged", "device": "dev"})
                self.rounds += 1
                return super().edit(planner_input)

        runs = []
        for planner in (NoopPlanner(), MutatesSnapshot()):
            clock = VirtualClock()
            engine = Orchestrator(
                clock,
                planner,
                ScriptedDispatcher(clock, default_duration=10.0),
                constellation=fig4_constellation(),
            )
            report = engine.run()
            runs.append((serialize(engine.constellation), report.events, report.outcome))
        assert planner.rounds >= 5
        assert runs[1] == runs[0]
        assert runs[0][2] is RunOutcome.SUCCESS


class TestPlannerSnapshot:
    """Each round borrows the committed graph for the planner: nothing is
    copied per round, and the first write to a snapshot copies it."""

    def test_only_apply_delta_copies_the_graph(self, monkeypatch):
        callers = []
        clone = TaskConstellation.clone

        def counted_clone(self):
            callers.append(sys._getframe(1).f_code.co_name)
            return clone(self)

        class BuildsThenAddsOne(Planner):
            rounds = 0

            def edit(self, planner_input):
                self.rounds += 1
                ops = []
                if planner_input.round_index == 0:
                    ops = [BuildConstellation(layered_config(100, width=10, fan_in=2))]
                elif planner_input.round_index == 3:
                    ops = [AddTask({"id": "late", "device": "dev0"})]
                return PlannerOutput("", "", PlannerState.CONTINUE, delta=EditDelta(ops))

        monkeypatch.setattr(TaskConstellation, "clone", counted_clone)
        clock = VirtualClock()
        planner = BuildsThenAddsOne()
        report = Orchestrator(clock, planner, ScriptedDispatcher(clock)).run()
        assert report.outcome is RunOutcome.SUCCESS and len(report.timings) == 101
        assert planner.rounds >= 20
        assert callers == ["apply_delta", "apply_delta"]

    def test_writes_to_the_snapshot_stay_in_the_snapshot(self):
        """Odd rounds move statuses on the snapshot, even rounds run raw ops
        on it; the engine's graph, and so the next round's snapshot, never
        shows a write. Checked after the run: the engine turns an exception
        inside ``edit()`` into an aborted run."""

        class Writes(NoopPlanner):
            checks = []
            written = set()

            def edit(self, planner_input):
                snapshot = planner_input.snapshot
                committed = serialize(self.engine.constellation)
                fresh = serialize(snapshot) == committed and "forged" not in snapshot.tasks
                write = "transition" if planner_input.round_index % 2 else "raw op"
                if write == "transition":
                    for task_id, task in sorted(snapshot.tasks.items()):
                        if not task.status.terminal:
                            snapshot.transition(
                                task_id, TaskStatus.FAILED, failure_reason=FailureReason.PLANNER_CANCELLED
                            )
                else:
                    snapshot._add_task({"id": "forged", "device": "dev"})
                    snapshot._remove_dependency(sorted(snapshot.edges)[0])
                if serialize(snapshot) != committed:
                    self.written.add(write)
                self.checks.append((fresh, serialize(self.engine.constellation) == committed))
                return super().edit(planner_input)

        clock = VirtualClock()
        planner = Writes()
        engine = Orchestrator(
            clock,
            planner,
            ScriptedDispatcher(clock, default_duration=10.0),
            constellation=fig4_constellation(),
        )
        planner.engine = engine
        assert engine.run().outcome is RunOutcome.SUCCESS
        assert len(planner.checks) >= 5 and set(planner.checks) == {(True, True)}
        assert planner.written == {"transition", "raw op"}

    def test_a_represented_round_gets_the_same_snapshot(self):
        seen = []

        class CyclicOnce(Planner):
            def edit(self, planner_input):
                seen.append(planner_input)
                ops = []
                if planner_input.round_index == 1 and not planner_input.violations:
                    ops = [AddDependency({"id": "eDC", "from_task": "D", "to_task": "C"})]
                return PlannerOutput("", "", PlannerState.CONTINUE, delta=EditDelta(ops))

        report = run_fig4(planner=CyclicOnce())
        assert report.outcome is RunOutcome.SUCCESS
        refused, represented = [i for i in seen if i.round_index == 1]
        assert represented.violations and not refused.violations
        assert represented.snapshot is refused.snapshot


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
        script = load_script(
            {
                "strict": False,
                "entries": [
                    {"trigger": [{"kind": "TASK_COMPLETED", "task": "*"}], "next_state": "CONTINUE"}
                ],
            }
        )
        # load_script refuses START, so a planner asking for it is built here.
        script.entries[0].output_doc["next_state"] = "START"
        report = run_fig4(planner=ScriptedPlanner(script))
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

    def test_task_without_device_is_represented(self):
        from constellation import PlannerOutput, PlannerState

        seen = []

        class NoDevice(Planner):
            def edit(self, planner_input):
                seen.append(planner_input.violations)
                delta = EditDelta()
                if planner_input.round_index == 0 and not planner_input.violations:
                    delta = EditDelta([AddTask({"id": "F"})])
                return PlannerOutput(
                    observation="", thought="", next_state=PlannerState.CONTINUE, delta=delta
                )

        report = run_fig4(planner=NoDevice())
        assert report.error is None
        assert report.outcome is RunOutcome.SUCCESS
        assert seen[0] == () and seen[1] == ("task 'F' requires a device",)
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
        # A and B still run and nothing completed: the run did not succeed.
        assert report.outcome is RunOutcome.FAILED

    def test_deadline_with_some_tasks_completed_is_partial(self):
        report = run_fig4(durations={"A": 1000.0}, config=EngineConfig(deadline=15.0))
        assert report.deadline_exceeded
        final = {t["id"]: t["status"] for t in report.final_document["tasks"]}
        assert final == {
            "A": "RUNNING",
            "B": "COMPLETED",
            "C": "PENDING",
            "D": "PENDING",
            "E": "PENDING",
        }
        assert report.outcome is RunOutcome.PARTIAL

    def test_deadline_during_a_planner_round_releases_the_lock(self):
        """The first planner round takes 50 s and the run stops at 30 s: no
        task ran, so it failed, and the held lock is released at the deadline."""
        report = run_fig4(
            planner=SlowNoopPlanner(duration=50.0), config=EngineConfig(deadline=30.0)
        )
        assert report.deadline_exceeded
        assert report.outcome is RunOutcome.FAILED
        assert report.timings == {}
        assert lock_trace(report) == [("acquire", 0.0), ("release", 30.0)]
        assert report.finished_at == 30.0

    def test_empty_graph_stopped_before_a_commit_is_not_a_success(self):
        """No task is left PENDING or RUNNING, but the planner never had a
        round committed, so nothing says the request was served."""
        clock = VirtualClock()
        report = Orchestrator(
            clock,
            SlowNoopPlanner(duration=50.0),
            ScriptedDispatcher(clock),
            constellation=TaskConstellation(),
            config=EngineConfig(deadline=30.0),
        ).run()
        assert report.deadline_exceeded and report.edit_cycles == []
        assert report.outcome is RunOutcome.FAILED


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
