"""Server side of the device agent: FSM loop over a strategy pipeline.

The server owns all workflow logic — every state transition is decided here;
the client (executor) only runs command batches it is handed. Per FSM round
the strategies of ``STRATEGY_ORDER`` execute in that order exactly once each,
and a task that has not ended after ``STEP_LIMIT`` rounds fails with TIMEOUT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..clock import TimerHandle, VirtualClock
from .fsm import AgentFsmState, fsm_step
from .reasoner import ReasonerOutput, ScriptedReasoner

STEP_LIMIT = 25


class StrategyKind(Enum):
    LLM_INTERACTION = "LLM_INTERACTION"
    ACTION_EXECUTION = "ACTION_EXECUTION"
    MEMORY_UPDATE = "MEMORY_UPDATE"


STRATEGY_ORDER = (
    StrategyKind.LLM_INTERACTION,
    StrategyKind.ACTION_EXECUTION,
    StrategyKind.MEMORY_UPDATE,
)

SendCommands = Callable[[List[Dict[str, Any]], Callable[[List[Dict[str, Any]]], None]], None]
EndCallback = Callable[[str, Dict[str, Any]], None]  # (status, payload)


@dataclass
class TaskRun:
    task: Dict[str, Any]
    state: AgentFsmState = AgentFsmState.CONTINUE
    step: int = 0
    memory: List[Dict[str, Any]] = field(default_factory=list)
    strategy_trace: List[Dict[str, Any]] = field(default_factory=list)
    ended: bool = False
    _timer: Optional[TimerHandle] = None

    def record_strategy(self, kind: StrategyKind) -> None:
        self.strategy_trace.append({"step": self.step, "strategy": kind.value})


class AgentServer:
    def __init__(self, clock: VirtualClock, reasoner: ScriptedReasoner):
        self.clock = clock
        self.reasoner = reasoner

    def serve_task(
        self, task: Dict[str, Any], send_commands: SendCommands, on_end: EndCallback
    ) -> TaskRun:
        run = TaskRun(task=task)
        if not task.get("description"):
            self._end(run, on_end, "FAILED", {"error": "empty task description", "failure_reason": "EXECUTION_ERROR"})
            return run
        self._round(run, send_commands, on_end)
        return run

    def abort(self, run: TaskRun, error: str, failure_reason: str, on_end: EndCallback) -> None:
        if run.ended:
            return
        if run._timer is not None:
            run._timer.cancel()
        self._end(run, on_end, "FAILED", {"error": error, "failure_reason": failure_reason})

    # -- FSM loop --------------------------------------------------------

    def _round(self, run: TaskRun, send_commands: SendCommands, on_end: EndCallback) -> None:
        if run.ended:
            return
        if run.step >= STEP_LIMIT:
            self._end(
                run,
                on_end,
                "FAILED",
                {"error": f"step limit {STEP_LIMIT} exceeded", "failure_reason": "TIMEOUT"},
            )
            return
        output: Optional[ReasonerOutput] = None
        results: List[Dict[str, Any]] = []

        def run_strategy(index: int) -> None:
            nonlocal output, results
            if run.ended:
                return
            if index >= len(STRATEGY_ORDER):
                finish_round()
                return
            kind = STRATEGY_ORDER[index]
            run.record_strategy(kind)
            if kind is StrategyKind.LLM_INTERACTION:
                try:
                    output = self.reasoner.choose(run.step, run.task, run.memory)
                except Exception as exc:
                    self._end(
                        run,
                        on_end,
                        "FAILED",
                        {"error": str(exc), "failure_reason": "EXECUTION_ERROR"},
                    )
                    return
                run._timer = self.clock.call_later(
                    output.duration, lambda: run_strategy(index + 1), label="reasoner"
                )
            elif kind is StrategyKind.ACTION_EXECUTION:
                assert output is not None
                if output.commands:
                    def on_results(action_results: List[Dict[str, Any]]) -> None:
                        nonlocal results
                        if run.ended:
                            return
                        results = action_results
                        run_strategy(index + 1)

                    send_commands(output.commands, on_results)
                else:
                    run_strategy(index + 1)
            else:  # StrategyKind.MEMORY_UPDATE
                assert output is not None
                run.memory.append(
                    {
                        "step": run.step,
                        "commands": output.commands,
                        "results": results,
                        "thought": output.thought,
                        "next_state": output.next_state.value,
                    }
                )
                run_strategy(index + 1)

        def finish_round() -> None:
            assert output is not None
            next_state, round_end = fsm_step(run.state, output.next_state)
            run.state = next_state
            run.step += 1
            if round_end:
                if next_state is AgentFsmState.FINISH:
                    self._end(run, on_end, "COMPLETED", {"result": output.result})
                else:
                    self._end(
                        run,
                        on_end,
                        "FAILED",
                        {
                            "error": output.error or "agent reported failure",
                            "failure_reason": "EXECUTION_ERROR",
                        },
                    )
                return
            self._round(run, send_commands, on_end)

        run_strategy(0)

    @staticmethod
    def _end(run: TaskRun, on_end: EndCallback, status: str, payload: Dict[str, Any]) -> None:
        if run.ended:
            return
        run.ended = True
        on_end(status, payload)
