"""Server side of the device agent: one FSM loop per task run.

The server owns all workflow logic — every state transition is decided here;
the client (executor) only runs command batches it is handed. A run stays in
CONTINUE until the reasoner asks for FINISH or FAIL. Each round runs three
strategies in order, one method each: ``_reason`` (LLM interaction), ``_act``
(action execution) and ``_remember`` (memory update). A task that has not
ended after ``STEP_LIMIT`` rounds fails with TIMEOUT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from ..clock import TimerHandle, VirtualClock
from .reasoner import AgentFsmState, ReasonerOutput, ScriptedReasoner

STEP_LIMIT = 25


class StrategyKind(Enum):
    LLM_INTERACTION = "LLM_INTERACTION"
    ACTION_EXECUTION = "ACTION_EXECUTION"
    MEMORY_UPDATE = "MEMORY_UPDATE"


SendCommands = Callable[[List[Dict[str, Any]], Callable[[List[Dict[str, Any]]], None]], None]
EndCallback = Callable[[str, Dict[str, Any]], None]  # (status, payload)


@dataclass
class TaskRun:
    """One task's run on a device, moved along by its reasoning steps."""
    task: Dict[str, Any]
    send_commands: SendCommands
    on_end: EndCallback
    state: AgentFsmState = AgentFsmState.CONTINUE
    step: int = 0
    memory: List[Dict[str, Any]] = field(default_factory=list)
    strategy_trace: List[Dict[str, Any]] = field(default_factory=list)
    _timer: Optional[TimerHandle] = None

    def record_strategy(self, kind: StrategyKind) -> None:
        self.strategy_trace.append({"step": self.step, "strategy": kind.value})

    def end(self, status: str, payload: Dict[str, Any]) -> None:
        """Move to FINISH (COMPLETED) or FAIL (FAILED) and report, once."""
        if self.state.terminal:
            return
        self.state = AgentFsmState.FINISH if status == "COMPLETED" else AgentFsmState.FAIL
        self.on_end(status, payload)


class AgentServer:
    def __init__(self, clock: VirtualClock, reasoner: ScriptedReasoner):
        self.clock = clock
        self.reasoner = reasoner

    def serve_task(
        self, task: Dict[str, Any], send_commands: SendCommands, on_end: EndCallback
    ) -> TaskRun:
        run = TaskRun(task, send_commands, on_end)
        if task.get("description"):
            self._reason(run)
        else:
            run.end("FAILED", {"error": "empty task description", "failure_reason": "EXECUTION_ERROR"})
        return run

    def abort(self, run: TaskRun, error: str, failure_reason: str) -> None:
        if run._timer is not None:
            run._timer.cancel()
        run.end("FAILED", {"error": error, "failure_reason": failure_reason})

    # -- one round: reason -> act -> remember ----------------------------

    def _reason(self, run: TaskRun) -> None:
        if run.step >= STEP_LIMIT:
            run.end("FAILED", {"error": f"step limit {STEP_LIMIT} exceeded", "failure_reason": "TIMEOUT"})
            return
        run.record_strategy(StrategyKind.LLM_INTERACTION)
        try:
            output = self.reasoner.choose(run.step, run.task, run.memory)
        except Exception as exc:
            run.end("FAILED", {"error": str(exc), "failure_reason": "EXECUTION_ERROR"})
            return
        # ``abort`` cancels this timer, so ``_act`` never runs for an ended run.
        run._timer = self.clock.call_later(output.duration, partial(self._act, run, output))

    def _act(self, run: TaskRun, output: ReasonerOutput) -> None:
        run.record_strategy(StrategyKind.ACTION_EXECUTION)
        if output.commands:
            run.send_commands(output.commands, partial(self._remember, run, output))
        else:
            self._remember(run, output, [])

    def _remember(self, run: TaskRun, output: ReasonerOutput, results: List[Dict[str, Any]]) -> None:
        if run.state.terminal:
            return  # results that arrive after the run ended
        run.record_strategy(StrategyKind.MEMORY_UPDATE)
        run.memory.append(
            {
                "step": run.step,
                "commands": output.commands,
                "results": results,
                "thought": output.thought,
                "next_state": output.next_state.value,
            }
        )
        run.step += 1
        if output.next_state is AgentFsmState.FINISH:
            run.end("COMPLETED", {"result": output.result})
        elif output.next_state is AgentFsmState.FAIL:
            run.end(
                "FAILED",
                {"error": output.error or "agent reported failure", "failure_reason": "EXECUTION_ERROR"},
            )
        else:
            self._reason(run)
