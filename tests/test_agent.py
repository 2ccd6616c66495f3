"""Device agent: scripted executor/reasoner, server strategy loop."""

import pytest

from constellation import VirtualClock
from constellation.agent import (
    AgentFsmState,
    AgentServer,
    ScriptedExecutor,
    ScriptedReasoner,
)
from constellation.errors import ParseError, ScriptMiss

# A table's last entry, answering every command no earlier entry matches.
NOT_SCRIPTED = {"pattern": "*", "status": 127, "stderr": "not scripted"}


class TestScriptedExecutor:
    TABLE = [
        {"pattern": "bash long_job.sh", "stdout": "runtime: 30s", "duration": 30.0},
        {"pattern": "bash *", "status": 2, "stderr": "script not found"},
        {"pattern": "NOTEPAD_WRITE *", "stdout": "saved"},
    ]

    def executor(self, *tail):
        return ScriptedExecutor(table=[*self.TABLE, *tail])

    def test_exec_cli_exact_match_wins_over_glob(self):
        result, duration = self.executor().execute(
            {"function": "EXEC_CLI", "args": {"command_line": "bash long_job.sh"}}
        )
        assert result == {"status": 0, "stdout": "runtime: 30s", "stderr": ""}
        assert duration == 30.0

    def test_exec_cli_glob_fallback(self):
        result, _ = self.executor().execute(
            {"function": "EXEC_CLI", "args": {"command_line": "bash other.sh"}}
        )
        assert result["status"] == 2 and result["stderr"] == "script not found"

    def test_notepad_write_echoes_written_content(self):
        result, _ = self.executor().execute(
            {"function": "NOTEPAD_WRITE", "args": {"content": "times: 30s"}}
        )
        assert result["written"] == "times: 30s"
        assert result["stdout"] == "saved"

    def test_unmatched_command_raises(self):
        with pytest.raises(ScriptMiss, match="no executor entry matches 'python3 x.py'"):
            self.executor().execute(
                {"function": "EXEC_CLI", "args": {"command_line": "python3 x.py"}}
            )

    def test_catch_all_entry_answers_an_unmatched_command(self):
        result, duration = self.executor(NOT_SCRIPTED).execute(
            {"function": "EXEC_CLI", "args": {"command_line": "python3 x.py"}}
        )
        assert result == {"status": 127, "stdout": "", "stderr": "not scripted"}
        assert duration == 0.0

    def test_unknown_function_is_an_error_result(self):
        result, _ = self.executor().execute({"function": "REBOOT"})
        assert result["status"] == 1 and "REBOOT" in result["stderr"]

    def test_load_from_dict(self):
        ex = ScriptedExecutor.load({"table": [{"pattern": "*", "stdout": "ok"}]})
        result, _ = ex.execute({"function": "EXEC_CLI", "args": {"command_line": "x"}})
        assert result["stdout"] == "ok"

    @pytest.mark.parametrize("load", [ScriptedExecutor.load, ScriptedReasoner.load], ids=["executor", "reasoner"])
    def test_load_refuses_a_strict_flag(self, load):
        with pytest.raises(ParseError, match="unknown field"):
            load({"strict": False})

    def test_load_refuses_a_document_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "executor.json"
        path.write_text("[1]")
        with pytest.raises(ParseError, match="expected a JSON object, got list"):
            ScriptedExecutor.load(path)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("pattern", 5),
            ("stdout", ["ok"]),
            ("stderr", None),
            ("status", "0"),
            ("status", 0.5),
            ("status", True),
            ("duration", -1),
            ("duration", "soon"),
        ],
    )
    def test_load_refuses_a_malformed_entry(self, field, value):
        with pytest.raises(ParseError, match="bad executor table"):
            ScriptedExecutor.load({"table": [{"pattern": "*"}, {"pattern": "x", field: value}]})

    @pytest.mark.parametrize("table", [5, ["entry"]])
    def test_load_refuses_a_table_that_is_not_a_list_of_objects(self, table):
        with pytest.raises(ParseError, match="bad executor table"):
            ScriptedExecutor.load({"table": table})

    def test_load_accepts_every_field_at_its_edge(self):
        entry = {"pattern": "", "status": -1, "stdout": "", "stderr": "", "duration": 0}
        assert ScriptedExecutor.load({"table": [entry, {}]}).table == [entry, {}]


class TestScriptedReasoner:
    def test_step_keyed_entries_and_substitution(self):
        reasoner = ScriptedReasoner(
            [
                {
                    "when": {"step": 0},
                    "commands": [
                        {
                            "function": "EXEC_CLI",
                            "args": {"command_line": "bash $task_description"},
                        }
                    ],
                    "thought": "running $task_description",
                    "next_state": "CONTINUE",
                },
                {
                    "when": {"step": 1},
                    "next_state": "FINISH",
                    "result": "saw $last_stdout",
                },
            ]
        )
        out0 = reasoner.choose(0, {"description": "long_job.sh"}, [])
        assert out0.commands[0]["args"]["command_line"] == "bash long_job.sh"
        assert out0.thought == "running long_job.sh"
        memory = [{"results": [{"stdout": "runtime: 30s"}]}]
        out1 = reasoner.choose(1, {"description": "long_job.sh"}, memory)
        assert out1.next_state is AgentFsmState.FINISH
        assert out1.result == "saw runtime: 30s"

    def test_always_entry_catches_any_step(self):
        reasoner = ScriptedReasoner([{"when": {"always": True}, "next_state": "FINISH"}])
        assert reasoner.choose(7, {}, []).next_state is AgentFsmState.FINISH

    def test_missing_step_raises(self):
        with pytest.raises(ScriptMiss, match="no reasoner entry for step 0"):
            ScriptedReasoner([]).choose(0, {}, [])

    def test_load_refuses_a_document_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "reasoner.json"
        path.write_text("[1]")
        with pytest.raises(ParseError, match="expected a JSON object, got list"):
            ScriptedReasoner.load(path)

    @pytest.mark.parametrize(
        "field, value",
        [("next_state", "BOGUS"), ("duration", "soon"), ("duration", -1), ("duration", True)],
    )
    def test_load_refuses_a_malformed_entry(self, field, value):
        with pytest.raises(ParseError, match="bad reasoner script"):
            ScriptedReasoner.load({"entries": [{"when": {"step": 0}, field: value}]})

    def test_load_accepts_every_state_and_any_duration_from_zero(self):
        entries = [
            {"when": {"step": 0}, "next_state": "CONTINUE", "duration": 0},
            {"when": {"step": 1}, "next_state": "FAIL", "duration": 2.5},
            {"when": {"step": 2}, "next_state": "FINISH"},
        ]
        assert ScriptedReasoner.load({"entries": entries}).entries == entries

    def test_catch_all_entry_answers_a_missing_step(self):
        reasoner = ScriptedReasoner(
            [
                {"when": {"step": 0}, "next_state": "CONTINUE"},
                {"when": {"always": True}, "next_state": "FINISH"},
            ]
        )
        assert reasoner.choose(0, {}, []).next_state is AgentFsmState.CONTINUE
        out = reasoner.choose(3, {}, [])
        assert out.next_state is AgentFsmState.FINISH and out.result == ""

    def test_last_stdout_scans_memory_backwards(self):
        reasoner = ScriptedReasoner(
            [{"when": {"step": 0}, "next_state": "FINISH", "result": "$last_stdout"}]
        )
        memory = [
            {"results": [{"stdout": "first"}]},
            {"results": [{"stderr": "noise"}, {"stdout": "latest"}]},
        ]
        assert reasoner.choose(0, {}, memory).result == "latest"


class LocalClient:
    """Runs command batches against a ScriptedExecutor on the virtual clock."""

    def __init__(self, clock, executor):
        self.clock = clock
        self.executor = executor
        self.batches = []
        self.callbacks = []

    def __call__(self, commands, on_results):
        self.batches.append(commands)
        self.callbacks.append(on_results)
        results, total = [], 0.0
        for command in commands:
            result, duration = self.executor.execute(command)
            results.append(result)
            total += duration
        self.clock.call_later(total, lambda: on_results(results))


def serve(reasoner_entries, executor_table, task=None):
    clock = VirtualClock()
    server = AgentServer(clock, ScriptedReasoner(reasoner_entries))
    client = LocalClient(clock, ScriptedExecutor([*executor_table, NOT_SCRIPTED]))
    ends = []
    run = server.serve_task(
        task if task is not None else {"description": "long_job.sh"},
        client,
        lambda status, payload: ends.append((status, payload, clock.now)),
    )
    clock.run()
    return run, client, ends


class TestAgentServer:
    TWO_STEP = [
        {
            "when": {"step": 0},
            "commands": [
                {"function": "EXEC_CLI", "args": {"command_line": "bash $task_description"}}
            ],
            "thought": "execute the job",
            "next_state": "CONTINUE",
            "duration": 2.0,
        },
        {
            "when": {"step": 1},
            "next_state": "FINISH",
            "result": "$last_stdout",
            "duration": 1.0,
        },
    ]
    TABLE = [{"pattern": "bash long_job.sh", "stdout": "runtime: 30s", "duration": 30.0}]

    def test_two_step_completion_result_and_timing(self):
        run, client, ends = serve(self.TWO_STEP, self.TABLE)
        assert ends == [("COMPLETED", {"result": "runtime: 30s"}, 33.0)]
        assert run.state is AgentFsmState.FINISH
        assert client.batches[0][0]["args"]["command_line"] == "bash long_job.sh"

    def test_strategy_order_per_round(self):
        run, _, _ = serve(self.TWO_STEP, self.TABLE)
        per_round = [
            [t["strategy"] for t in run.strategy_trace if t["step"] == step]
            for step in (0, 1)
        ]
        assert per_round[0] == ["LLM_INTERACTION", "ACTION_EXECUTION", "MEMORY_UPDATE"]
        assert per_round[1] == ["LLM_INTERACTION", "ACTION_EXECUTION", "MEMORY_UPDATE"]

    def test_memory_records_commands_results_and_thoughts(self):
        run, _, _ = serve(self.TWO_STEP, self.TABLE)
        assert len(run.memory) == 2
        first = run.memory[0]
        assert first["step"] == 0
        assert first["thought"] == "execute the job"
        assert first["results"] == [{"status": 0, "stdout": "runtime: 30s", "stderr": ""}]
        assert first["next_state"] == "CONTINUE"
        assert run.memory[1]["commands"] == []

    def test_fail_state_reports_error(self):
        entries = [
            {"when": {"always": True}, "next_state": "FAIL", "error": "cannot comply"}
        ]
        _, _, ends = serve(entries, [])
        status, payload, _ = ends[0]
        assert status == "FAILED"
        assert payload == {"error": "cannot comply", "failure_reason": "EXECUTION_ERROR"}

    def test_step_limit_fails_with_timeout(self):
        entries = [{"when": {"always": True}, "next_state": "CONTINUE", "duration": 1.0}]
        run, _, ends = serve(entries, [])
        status, payload, at = ends[0]
        assert status == "FAILED"
        assert payload["failure_reason"] == "TIMEOUT"
        assert "25" in payload["error"]
        assert run.step == 25 and at == 25.0

    def test_empty_description_fails_without_any_round(self):
        run, client, ends = serve(self.TWO_STEP, self.TABLE, task={"description": ""})
        status, payload, at = ends[0]
        assert status == "FAILED"
        assert payload["failure_reason"] == "EXECUTION_ERROR"
        assert at == 0.0 and run.strategy_trace == [] and client.batches == []

    def test_reasoner_exception_fails_execution_error(self):
        run, _, ends = serve([], [])  # a reasoner with no entries
        status, payload, _ = ends[0]
        assert status == "FAILED"
        assert payload["failure_reason"] == "EXECUTION_ERROR"
        assert "no reasoner entry" in payload["error"]

    def test_abort_mid_run_emits_single_failed_end(self):
        clock = VirtualClock()
        server = AgentServer(clock, ScriptedReasoner(self.TWO_STEP))
        client = LocalClient(clock, ScriptedExecutor([*self.TABLE, NOT_SCRIPTED]))
        ends = []
        run = server.serve_task(
            {"description": "long_job.sh"},
            client,
            lambda status, payload: ends.append((status, payload)),
        )
        clock.call_later(
            5.0, lambda: server.abort(run, "agent disconnected", "AGENT_DISCONNECTED")
        )
        clock.run()
        assert ends == [
            ("FAILED", {"error": "agent disconnected", "failure_reason": "AGENT_DISCONNECTED"})
        ]
        assert run.state is AgentFsmState.FAIL

    def test_client_never_decides_state(self):
        # The client result payload cannot flip the FSM: state moves only via
        # reasoner next_state, regardless of command exit status.
        table = [{"pattern": "*", "status": 1, "stderr": "boom"}]
        run, _, ends = serve(self.TWO_STEP, table)
        assert ends[0][0] == "COMPLETED"
        assert run.state is AgentFsmState.FINISH


class TestEndedRun:
    """An ended run ignores COMMAND_RESULTS that arrive late: they add no
    strategy_trace or memory entry and fire no second end."""

    COMMAND = {"function": "EXEC_CLI", "args": {"command_line": "bash long_job.sh"}}

    def start(self, entries):
        clock = VirtualClock()
        server = AgentServer(clock, ScriptedReasoner(entries))
        client = LocalClient(clock, ScriptedExecutor([*TestAgentServer.TABLE, NOT_SCRIPTED]))
        ends = []
        run = server.serve_task(
            {"description": "long_job.sh"}, client, lambda status, payload: ends.append(payload)
        )
        return clock, server, run, client, ends

    def test_results_of_a_batch_in_flight_at_an_abort(self):
        clock, server, run, client, ends = self.start(TestAgentServer.TWO_STEP)
        clock.run(deadline=5.0)  # the batch went out at 2 s; its results are due at 32 s
        assert len(client.batches) == 1
        server.abort(run, "agent disconnected", "AGENT_DISCONNECTED")
        clock.run()
        assert clock.now == 32.0
        assert run.strategy_trace == [
            {"step": 0, "strategy": "LLM_INTERACTION"},
            {"step": 0, "strategy": "ACTION_EXECUTION"},
        ]
        assert run.memory == [] and run.step == 0
        assert ends == [{"error": "agent disconnected", "failure_reason": "AGENT_DISCONNECTED"}]
        assert run.state is AgentFsmState.FAIL

    @pytest.mark.parametrize(
        "next_state, failure_reason, step",
        [("CONTINUE", "TIMEOUT", 25), ("FAIL", "EXECUTION_ERROR", 1)],
    )
    def test_repeated_results_after_the_step_limit_or_fail(self, next_state, failure_reason, step):
        entries = [{"when": {"always": True}, "commands": [self.COMMAND], "next_state": next_state}]
        clock, _, run, client, ends = self.start(entries)
        clock.run()
        assert [payload["failure_reason"] for payload in ends] == [failure_reason]
        trace, memory = list(run.strategy_trace), list(run.memory)
        client.callbacks[-1]([{"status": 0, "stdout": "late", "stderr": ""}])
        clock.run()
        assert run.strategy_trace == trace and run.memory == memory
        assert len(ends) == 1 and run.step == step
        assert run.state is AgentFsmState.FAIL

    def test_abort_after_the_run_finished_reports_nothing(self):
        clock, server, run, _, ends = self.start(TestAgentServer.TWO_STEP)
        clock.run()
        server.abort(run, "agent disconnected", "AGENT_DISCONNECTED")
        assert ends == [{"result": "runtime: 30s"}]
        assert run.state is AgentFsmState.FINISH
