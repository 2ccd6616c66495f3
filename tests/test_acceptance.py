"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints a single ``[PASS] criterion N`` line on success (pytest's
normal failure reporting covers the fail case) and enforces a wall-clock
budget alongside its functional assertions.
"""

import copy
import json
import random
import time

import pytest

from constellation import (
    AddDependency,
    AddTask,
    EditDelta,
    GOLDEN_STATS,
    Orchestrator,
    Planner,
    PlannerOutput,
    PlannerState,
    RunOutcome,
    ScriptedDispatcher,
    ScriptedPlanner,
    TaskStar,
    TaskStatus,
    UpdateTask,
    VirtualClock,
    analytic_distinct_count,
    apply_delta,
    build_constellation,
    explore,
    load_script,
    serialize,
)
from constellation.model import FailureReason
from constellation.simnet.metrics import metrics_from_durations
from constellation.simnet.scenarios import run_scenario
from conftest import GOLDEN_DIR, random_dag
from test_aip import VALID_BODIES, build_pair, advance
from test_simnet import (
    fig4_with_uniform_durations,
    oracle_longest_path,
    oracle_schedule,
    oracle_width,
)

from constellation.aip.backoff import BackoffPolicy
from constellation.aip.messages import AipMessage, MessageType, decode, encode, validate


@pytest.fixture
def passed(capsys):
    def emit(number, text):
        with capsys.disabled():
            print(f"[PASS] criterion {number}: {text}")

    return emit


@pytest.fixture(scope="module")
def scenario_results():
    return {n: run_scenario(n, seed=0) for n in (1, 2, 3)}


# -- criterion 1: exploration statistics match the goldens exactly ----------


def test_criterion_1_explorer_golden_stats(passed):
    t0 = time.monotonic()
    stats = explore()
    elapsed = time.monotonic() - t0
    assert stats.distinct == GOLDEN_STATS.distinct == 7168
    assert stats.generated == GOLDEN_STATS.generated == 93633
    assert stats.depth == GOLDEN_STATS.depth == 8
    assert stats.by_action == {
        "Init": 1,
        "Enqueue": 6,
        "Acquire": 448,
        "Dispatch": 441,
        "UpdateDevices": 6272,
    }
    assert stats.violations == 0
    assert elapsed < 5.0
    passed(1, f"7168 distinct / 93633 generated / depth 8 in {elapsed:.2f}s")


# -- criterion 2: analytic state count cross-checks the search --------------


def test_criterion_2_analytic_state_count(passed):
    t0 = time.monotonic()
    assert analytic_distinct_count() == 4**3 * 2 * 7 * 8 == 7168
    assert analytic_distinct_count() == GOLDEN_STATS.distinct
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    passed(2, "closed-form 4^3*2*7*8 = 7168 equals the explored distinct count")


# -- criterion 3: the three fault scenarios reproduce their verdicts --------


def test_criterion_3_fault_scenarios(passed):
    t0 = time.monotonic()
    expectations = {1: RunOutcome.SUCCESS, 2: RunOutcome.PARTIAL, 3: RunOutcome.FAILED}
    for n, outcome in expectations.items():
        started = time.monotonic()
        result = run_scenario(n, seed=0)
        assert time.monotonic() - started < 5.0
        assert not result.diffs, result.diffs
        report = result.report
        assert report.outcome is outcome
        golden = json.loads((GOLDEN_DIR / f"scenario{n}_events.json").read_text())
        assert json.loads(json.dumps(report.events, sort_keys=True)) == golden
        final = {t["id"]: t for t in report.final_document["tasks"]}
        if n == 1:
            assert final["A2"]["status"] == "COMPLETED" and final["A2"]["device"] == "linux1"
            assert report.result.count("runtime:") == 3
        elif n == 2:
            assert final["A"]["status"] == final["A2"]["status"] == "FAILED"
            assert final["D"]["description"].count("FAILED (") == 1
            assert report.result.count("runtime:") == 2
        else:
            assert final["D"]["status"] == "PENDING" and "D" not in report.timings
            assert "runtime:" not in (report.result or "")
    elapsed = time.monotonic() - t0
    passed(3, f"scenarios 1-3 verdicts and golden event logs in {elapsed:.2f}s")


# -- criterion 4: safety invariants over 1000 randomised runs ---------------


class RandomEditPlanner(Planner):
    """CONTINUE-only planner that asserts I1/I2 inside every locked round
    and occasionally commits a locality-respecting random delta."""

    def __init__(self, rng):
        self.rng = rng
        self.engine = None
        self.spawned = 0
        self.rounds_checked = 0

    def edit(self, planner_input):
        snapshot = planner_input.snapshot
        assert snapshot.validate() == []  # I2 on the committed snapshot
        engine = self.engine
        assert engine.lock_held  # rounds only run under the lock
        for tid, task in engine.constellation.tasks.items():
            if task.status is TaskStatus.RUNNING:
                assert tid in engine.report.timings  # I1
        self.rounds_checked += 1
        if planner_input.violations:
            return PlannerOutput("rejected", "drop the edit", PlannerState.CONTINUE)
        ops = []
        if self.spawned < 3 and self.rng.random() < 0.35:
            new_id = f"n{self.spawned}"
            self.spawned += 1
            ops.append(
                AddTask({"id": new_id, "name": new_id, "description": f"spawn {new_id}",
                         "device": "dev0"})
            )
            anchors = sorted(snapshot.tasks)
            if anchors and self.rng.random() < 0.8:
                ops.append(
                    AddDependency(
                        {"id": f"e_{new_id}", "from_task": self.rng.choice(anchors),
                         "to_task": new_id}
                    )
                )
        pending = sorted(
            tid for tid, t in snapshot.tasks.items() if t.status is TaskStatus.PENDING
        )
        if pending and self.rng.random() < 0.2:
            ops.append(
                UpdateTask(self.rng.choice(pending), {"description": "retargeted work"})
            )
        return PlannerOutput(
            observation="random property round",
            thought="keep going",
            next_state=PlannerState.CONTINUE,
            delta=EditDelta(ops),
            duration=self.rng.choice([0.0, 0.0, 1.0]),
        )


def oracle_outcome(document):
    tasks = document["tasks"]
    failed = [t for t in tasks if t["status"] == "FAILED"]
    completed = [t for t in tasks if t["status"] == "COMPLETED"]
    if not failed:
        return "SUCCESS"
    if all(
        any(c["description"] == f["description"] and c["device"] == f["device"] for c in completed)
        for f in failed
    ):
        return "SUCCESS"
    return "PARTIAL" if completed else "FAILED"


def test_criterion_4_randomised_safety_properties(passed, scenario_results):
    t0 = time.monotonic()
    rounds_checked = 0
    for seed in range(1000):
        rng = random.Random(seed)
        constellation = random_dag(rng, max_nodes=8)
        failures = {
            tid: "EXECUTION_ERROR" for tid in constellation.tasks if rng.random() < 0.25
        }
        durations = {tid: rng.choice([1.0, 2.0, 5.0]) for tid in constellation.tasks}
        clock = VirtualClock()
        planner = RandomEditPlanner(rng)
        engine = Orchestrator(
            clock,
            planner,
            ScriptedDispatcher(clock, durations=durations, failures=failures),
            constellation=constellation,
        )
        planner.engine = engine
        report = engine.run()
        rounds_checked += planner.rounds_checked
        # Lock exclusion: no task was ever assigned while the lock was held,
        # and the lock trace is strictly acquire/release balanced.
        assert report.assignments_while_held == 0
        actions = [entry["action"] for entry in report.lock_trace]
        assert actions[::2] == ["acquire"] * (len(actions) // 2)
        assert actions[1::2] == ["release"] * (len(actions) // 2)
        # Terminal state: structurally valid, nothing left RUNNING, and the
        # outcome matches an independent statement of the outcome rule.
        final = report.final_document
        assert not any(t["status"] == "RUNNING" for t in final["tasks"])
        assert report.outcome.value == oracle_outcome(final)
    # Disconnect convergence on the outage scenarios: nothing is RUNNING at
    # termination and every task bound to a dead device failed with the
    # disconnect reason or was never started.
    for result in scenario_results.values():
        final_tasks = result.report.final_document["tasks"]
        assert not any(t["status"] == "RUNNING" for t in final_tasks)
    s3 = {t["id"]: t for t in scenario_results[3].report.final_document["tasks"]}
    for tid in ("A", "B", "C"):
        assert s3[tid]["failure_reason"] == "AGENT_DISCONNECTED"
    elapsed = time.monotonic() - t0
    assert rounds_checked >= 1000
    assert elapsed < 60.0
    passed(4, f"1000 runs, {rounds_checked} locked rounds checked in {elapsed:.2f}s")


# -- criterion 5: edit-sync confluence --------------------------------------


def test_criterion_5_edit_sync_confluence(passed):
    t0 = time.monotonic()
    checked = 0
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        base = random_dag(rng, max_nodes=6)
        for tid in base.ready_tasks():
            base.transition(tid, TaskStatus.RUNNING)
        running = sorted(
            tid for tid, t in base.tasks.items() if t.status is TaskStatus.RUNNING
        )
        events = [
            (tid, rng.random() < 0.5) for tid in running if rng.random() < 0.7
        ]
        new_id = f"x{seed}"
        ops = [AddTask({"id": new_id, "name": new_id, "description": "joined late",
                        "device": "dev1"})]
        anchors = sorted(base.tasks)
        if anchors and rng.random() < 0.8:
            ops.append(
                AddDependency(
                    {"id": f"ex{seed}", "from_task": rng.choice(anchors), "to_task": new_id}
                )
            )
        pending = sorted(
            tid for tid, t in base.tasks.items() if t.status is TaskStatus.PENDING
        )
        if pending and rng.random() < 0.5:
            ops.append(UpdateTask(rng.choice(pending), {"description": "amended"}))
        delta = EditDelta(ops)

        def apply_events(c):
            for tid, ok in events:
                if ok:
                    c.transition(tid, TaskStatus.COMPLETED, result="r")
                else:
                    c.transition(
                        tid, TaskStatus.FAILED, failure_reason=FailureReason.EXECUTION_ERROR
                    )

        events_first = base.clone()
        apply_events(events_first)
        events_first, _ = apply_delta(events_first, delta)

        delta_first, _ = apply_delta(base.clone(), delta)
        apply_events(delta_first)

        assert serialize(events_first) == serialize(delta_first)
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 200 and elapsed < 30.0
    passed(5, f"200 event/delta interleavings fold to identical states in {elapsed:.2f}s")


# -- criterion 6: readiness against a brute-force oracle --------------------


def oracle_ready(constellation):
    ready = []
    for tid in sorted(constellation.tasks):
        if constellation.tasks[tid].status.value != "PENDING":
            continue
        satisfied = True
        for edge in constellation.incoming(tid):
            upstream = constellation.tasks[edge.from_task].status.value
            kind = edge.dep_type.kind.value
            if kind == "SUCCESS_ONLY":
                ok = upstream == "COMPLETED"
            else:  # UNCONDITIONAL, or CONDITIONAL with the "always" predicate
                ok = upstream in ("COMPLETED", "FAILED")
            if not ok:
                satisfied = False
                break
        if satisfied:
            ready.append(tid)
    return ready


def test_criterion_6_readiness_oracle(passed):
    t0 = time.monotonic()
    for seed in range(1000):
        rng = random.Random(20_000 + seed)
        c = random_dag(rng, max_nodes=8)
        for tid in sorted(c.tasks):
            roll = rng.random()
            if roll < 0.25:
                continue  # stays PENDING
            c.transition(tid, TaskStatus.RUNNING)
            if roll < 0.5:
                continue  # stays RUNNING
            if roll < 0.75:
                c.transition(tid, TaskStatus.COMPLETED, result="done")
            else:
                c.transition(
                    tid, TaskStatus.FAILED, failure_reason=FailureReason.EXECUTION_ERROR
                )
        assert c.ready_tasks() == oracle_ready(c)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    passed(6, f"readiness equals the oracle on 1000 random graphs in {elapsed:.2f}s")


# -- criterion 7: parallelism metrics against brute force -------------------


def all_dags_up_to(n_max):
    """Every DAG on <= n_max nodes under a topological labelling (edges only
    run from lower to higher index, which covers all DAGs up to relabelling)."""
    for n in range(1, n_max + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(2 ** len(pairs)):
            yield n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1]


def build_graph(n, edges):
    return build_constellation(
        {
            "tasks": [{"id": f"t{i}", "device": "dev"} for i in range(n)],
            "dependencies": [
                {"id": f"e{k}", "from_task": f"t{i}", "to_task": f"t{j}"}
                for k, (i, j) in enumerate(edges)
            ],
        }
    )


def test_criterion_7_metrics_oracle(passed):
    t0 = time.monotonic()
    rng = random.Random(7)
    graphs = 0
    for n, edges in all_dags_up_to(5):
        c = build_graph(n, edges)
        for durations in (
            {f"t{i}": 1.0 for i in range(n)},
            {f"t{i}": rng.choice([0.0, 0.5, 2.0, 7.0]) for i in range(n)},
        ):
            m = metrics_from_durations(c, durations)
            assert m.total_work == pytest.approx(sum(durations.values()), abs=1e-9)
            expected_l = oracle_longest_path(c, durations)
            assert m.critical_path == pytest.approx(expected_l, abs=1e-9)
            assert m.max_parallel_width == oracle_width(
                list(oracle_schedule(c, durations).values())
            )
            if expected_l > 0:
                assert m.parallelism_ratio == pytest.approx(
                    m.total_work / expected_l, abs=1e-9
                )
        graphs += 1
    # Reference five-task pipeline at 10s per task.
    fig4, durations = fig4_with_uniform_durations()
    m = metrics_from_durations(fig4, durations)
    assert m.total_work == 50.0
    assert m.critical_path == oracle_longest_path(fig4, durations) == 40.0
    assert m.max_parallel_width == 2
    assert m.parallelism_ratio == pytest.approx(50.0 / 40.0, abs=1e-9)
    elapsed = time.monotonic() - t0
    assert graphs == 1 + 2 + 8 + 64 + 1024
    assert elapsed < 30.0
    passed(7, f"metrics match brute force on all {graphs} DAGs <=5 nodes in {elapsed:.2f}s")


# -- criterion 8: protocol conformance --------------------------------------


def random_message(rng):
    msg_type = rng.choice(list(MessageType))
    body = copy.deepcopy(VALID_BODIES[msg_type])
    if msg_type is MessageType.HEARTBEAT:
        body["timestamp"] = rng.uniform(0.0, 1e6)
    elif msg_type is MessageType.TASK:
        body["task"] = {"id": f"T{rng.randrange(10_000)}", "description": "job"}
        body["request"] = f"request {rng.randrange(100)}"
    elif msg_type is MessageType.REGISTER:
        body["client_id"] = f"dev{rng.randrange(1000)}"
        body["metadata"] = {"slot": rng.randrange(64)}
    elif msg_type is MessageType.TASK_END and rng.random() < 0.5:
        body = {"status": "FAILED", "error": "boom", "failure_reason": "TIMEOUT"}
    elif msg_type is MessageType.COMMAND:
        body["response_id"] = f"c{rng.randrange(10_000)}"
        body["actions"] = [{"function": "EXEC_CLI", "args": {"command_line": "x"}}]
    session = f"s{rng.randrange(100)}" if rng.random() < 0.8 else None
    return AipMessage(msg_type, body, session_id=session)


def test_criterion_8_aip_conformance(passed, scenario_results):
    t0 = time.monotonic()
    rng = random.Random(8)
    for _ in range(10_000):
        msg = random_message(rng)
        validate(msg)
        assert decode(encode(msg)) == msg
    # Correlation totality and per-session FIFO on real scenario traffic.
    for result in scenario_results.values():
        for name, log in result.session_logs.items():
            kinds = [entry["msg_type"] for entry in log]
            assert kinds.count("TASK") == 1, name
            assert kinds.count("TASK_END") == 1, name
            sent = [entry["seq"] for entry in log if entry["direction"] == "sent"]
            assert sent == sorted(sent) and len(sent) == len(set(sent)), name
    # Duplicate TASK delivery issues no second command batch.
    clock, network, _, orchestrator, server = build_pair(outages=[])
    advance(clock, 1.0)
    orchestrator.dispatch(TaskStar("T", "dev", description="job"), lambda *a: None)
    advance(clock, 1.1)
    duplicate = AipMessage(
        MessageType.TASK,
        {"task": {"id": "T", "description": "job"}, "request": "req"},
        session_id=next(iter(server.active_runs)),
    )
    before = sum(1 for f in network.wire_log if f["summary"] == "COMMAND")
    server.handle("orchestrator", duplicate)
    advance(clock, 1.2)
    assert sum(1 for f in network.wire_log if f["summary"] == "COMMAND") == before
    # Reconnect backoff follows base * 2^n, capped, summing to base*(2^5-1).
    policy = BackoffPolicy(jitter=0.0)
    delays = [policy.nominal_delay(n) for n in range(5)]
    assert delays == [min(policy.base * 2**n, policy.max_delay) for n in range(5)]
    assert sum(delays) == policy.base * (2**5 - 1) == 31
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    passed(8, f"10000 round-trips, session hygiene, idempotency, backoff in {elapsed:.2f}s")


# -- criterion 9: byte-identical repeated runs ------------------------------


def test_criterion_9_deterministic_reports(passed):
    t0 = time.monotonic()
    for n in (1, 2, 3):
        renders = []
        for _ in range(3):
            result = run_scenario(n, seed=0)
            report_bytes = json.dumps(
                result.report.as_dict(), sort_keys=True, indent=2
            ).encode("utf-8")
            renders.append((report_bytes, result.markdown.encode("utf-8")))
        assert renders[0] == renders[1] == renders[2]
    elapsed = time.monotonic() - t0
    assert elapsed < 15.0
    passed(9, f"three repeats per scenario byte-identical in {elapsed:.2f}s")


# -- criterion 10: planning overlaps execution ------------------------------


def test_criterion_10_planning_overlaps_execution(passed):
    t0 = time.monotonic()
    c = build_constellation(
        {
            "request": "overlap probe",
            "tasks": [
                {"id": "A", "name": "A", "description": "first leg", "device": "dev0"},
                {"id": "B", "name": "B", "description": "second leg", "device": "dev1"},
            ],
        }
    )
    edit_time = 5.0
    durations = {"A": 10.0, "B": 18.0, "C": 10.0}
    script = load_script(
        {
            "strict": False,
            "entries": [
                {
                    "trigger": [{"kind": "TASK_COMPLETED", "task": "A"}],
                    "next_state": "CONTINUE",
                    "duration": edit_time,
                    "delta": [
                        {
                            "op": "add_task",
                            "spec": {"id": "C", "name": "C", "description": "follow-up",
                                     "device": "dev0"},
                        },
                        {
                            "op": "add_dependency",
                            "spec": {"id": "eAC", "from_task": "A", "to_task": "C"},
                        },
                    ],
                }
            ],
        }
    )
    clock = VirtualClock()
    engine = Orchestrator(
        clock,
        ScriptedPlanner(script),
        ScriptedDispatcher(clock, durations=durations),
        constellation=c,
    )
    report = engine.run()
    assert report.outcome is RunOutcome.SUCCESS
    makespan = report.finished_at
    serial_bound = edit_time + sum(durations.values())  # 43s if nothing overlaps
    assert makespan < serial_bound
    assert makespan < sum(durations.values())  # the edit itself is also absorbed
    # The 5s planning round (committed while B was still running) overlapped
    # task execution rather than extending the schedule.
    edit_round = next(cycle for cycle in report.edit_cycles if cycle.summary)
    assert edit_round.committed_at - edit_round.started_at == edit_time
    b = report.timings["B"]
    assert b.dispatched_at < edit_round.started_at < edit_round.committed_at < b.finished_at
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    passed(10, f"makespan {makespan:.1f}s < serial bound {serial_bound:.1f}s in {elapsed:.2f}s")
