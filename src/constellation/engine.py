"""The orchestrator: event queue, assignment lock and batched edit cycles.

Completion and failure events are queued; whenever the lock is free and the
queue is non-empty the orchestrator acquires the lock and runs edit cycles
(drain the queue as one batch, synchronize statuses, ask the planner for a
delta, commit atomically, publish the modification) until the queue is
empty, then releases the lock and reschedules ready tasks. Dispatching only
ever happens with the lock free, against the latest committed version. As
nothing writes the graph under the lock, each round lends it to the planner
(``borrow``) instead of copying it.
A dispatcher may call back at any time, even inside ``dispatch()``: its
``on_done``, its availability listener and a raising ``dispatch()`` (its
task's EXECUTION_ERROR) go to one intake, which the clock drains in arrival
order at its next step of the same virtual instant. The engine's own timers
(commits, timeouts) drain it first, so callbacks fired before them act first.
A completion for a task already finished, or never dispatched, is counted in
``RunReport.dropped_completions`` and otherwise ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Protocol, Set, Tuple

from .clock import TimerHandle, VirtualClock
from .edits import apply_delta
from .errors import ConstellationError, ValidationFailed
from .events import EventKind, OrchestratorEvent
from .model import FailureReason, TaskConstellation, TaskStar, TaskStatus, unrecovered_failures
from .planner import Planner, PlannerInput, PlannerOutput, PlannerState, fsm_advance
from .report import EditCycleRecord, RunOutcome, RunReport, TaskTiming
from .serial import to_document

# on_done(task_id, status, text, failure_reason): the text is a COMPLETED
# task's result, or the error a FAILED one reports (kept out of its event).
DoneCallback = Callable[[str, TaskStatus, Optional[str], Optional[FailureReason]], None]


class Dispatcher(Protocol):
    """``on_done`` and the listener may be called at any time, even inside
    ``dispatch()``; they act at the clock's next step of the same instant."""

    def available_devices(self) -> Set[str]:
        ...

    def dispatch(self, task: TaskStar, on_done: DoneCallback) -> None:
        ...

    def set_availability_listener(self, listener: Callable[[], None]) -> None:
        ...


class ScriptedDispatcher:
    """Test double: every device is always available and each task completes
    after a fixed duration looked up by task id (default applies otherwise)."""

    def __init__(
        self,
        clock: VirtualClock,
        durations: Optional[Dict[str, float]] = None,
        default_duration: float = 1.0,
        failures: Optional[Dict[str, str]] = None,
    ):
        self.clock = clock
        self.durations = dict(durations or {})
        self.default_duration = default_duration
        self.failures = dict(failures or {})

    def available_devices(self) -> Set[str]:
        return {"*"}

    def set_availability_listener(self, listener: Callable[[], None]) -> None:
        pass

    def dispatch(self, task: TaskStar, on_done: DoneCallback) -> None:
        if task.id in self.failures:
            report = (task.id, TaskStatus.FAILED, None, FailureReason(self.failures[task.id]))
        else:
            report = (task.id, TaskStatus.COMPLETED, f"{task.id} done", None)
        duration = self.durations.get(task.id, self.default_duration)
        self.clock.call_later(duration, partial(on_done, *report))


@dataclass
class EngineConfig:
    initial_round: bool = True
    pending_dispatch_timeout: float = 60.0
    execution_timeout: float = 300.0
    deadline: Optional[float] = None


class Orchestrator:
    def __init__(
        self,
        clock: VirtualClock,
        planner: Planner,
        dispatcher: Dispatcher,
        constellation: Optional[TaskConstellation] = None,
        config: Optional[EngineConfig] = None,
    ):
        self.clock = clock
        self.planner = planner
        self.dispatcher = dispatcher
        self.constellation = constellation if constellation is not None else TaskConstellation()
        self.config = config or EngineConfig()
        self.report = RunReport(request=self.constellation.request)

        self.lock_held = False
        self.queue: List[OrchestratorEvent] = []
        self.planner_state = PlannerState.START
        self.done = False
        self._round_index = 0
        self._pending_timers: Dict[str, TimerHandle] = {}
        self._execution_timers: Dict[str, TimerHandle] = {}
        self._intake: List[Tuple[Callable[..., None], Tuple[Any, ...]]] = []
        self.dispatcher.set_availability_listener(partial(self._take, self._on_availability_change))

    # -- public driver ---------------------------------------------------

    def run(self) -> RunReport:
        self.report.initial_document = to_document(self.constellation)
        if self.config.initial_round:
            self._begin_cycle()
        else:
            self._reschedule()
        self.clock.run(until=lambda: self.done, deadline=self.config.deadline)
        if not self.done:
            if self.config.deadline is not None and self.clock.now >= self.config.deadline:
                self.report.deadline_exceeded = True
            if self.lock_held:  # a planner round still in flight
                self._release_lock()
            self._finish(self._outcome_from_statuses(stopped=True))
        return self.report

    # -- event intake ----------------------------------------------------

    def _take(self, handler: Callable[..., None], *args: Any) -> None:
        """Queues a dispatcher's call for the drain, scheduled once per burst."""
        if not self._intake:
            self.clock.call_later(0.0, self._drain)
        self._intake.append((handler, args))

    def _report_done(self, *args: Any) -> None:
        """The on_done of ``dispatch()``: a method, as a stored partial forms a cycle."""
        self._take(self._on_task_done, *args)

    def _fire(self, handler: Callable[..., None], *args: Any) -> None:
        """An engine timer: drained at once behind the callbacks that fired before it."""
        self._intake.append((handler, args))
        self._drain()

    def _drain(self) -> None:
        calls, self._intake = self._intake, []
        for handler, args in calls:
            if self.done:
                return
            handler(*args)

    def _enqueue(self, event: OrchestratorEvent) -> None:
        self.queue.append(event)
        self.report.record_event(event)
        if not self.lock_held:
            self._begin_cycle()

    def _on_task_done(
        self,
        task_id: str,
        status: TaskStatus,
        result: Optional[str],
        failure_reason: Optional[FailureReason],
    ) -> None:
        timing = self.report.timings.get(task_id)
        if timing is None or timing.finished_at is not None:
            # Never dispatched, or already finished (a second or late call).
            self.report.dropped_completions += 1
            return
        timing.finished_at = self.clock.now
        timing.status = status._value_
        self._cancel_timer(self._execution_timers, task_id)
        kind = EventKind.TASK_COMPLETED if status is TaskStatus.COMPLETED else EventKind.TASK_FAILED
        payload = {}
        if status is TaskStatus.FAILED:
            timing.error = result
        elif result is not None:
            payload["result"] = result
        if failure_reason is not None:
            payload["failure_reason"] = failure_reason._value_
        self._enqueue(OrchestratorEvent(kind, task_id, self.clock.now, payload))

    def _on_availability_change(self) -> None:
        if not self.lock_held:
            self._reschedule()

    # -- locked edit cycles ----------------------------------------------

    def _begin_cycle(self) -> None:
        self.lock_held = True
        self.report.record_lock("acquire", self.clock.now)
        self._start_round()

    def _start_round(self) -> None:
        batch = tuple(self.queue)
        self.queue.clear()
        self._synchronize(batch)
        planner_input = PlannerInput(
            snapshot=self.constellation.borrow(),
            batch=batch,
            round_index=self._round_index,
        )
        self._run_round(planner_input, represented=False)

    def _run_round(self, planner_input: PlannerInput, represented: bool) -> None:
        started_at = self.clock.now
        try:
            output = self.planner.edit(planner_input)
        except Exception as exc:
            self._abort(f"planner error: {exc}")
            return
        self.clock.call_later(
            output.duration,
            partial(self._fire, self._commit_round, planner_input, output, started_at, represented),
        )

    def _commit_round(
        self,
        planner_input: PlannerInput,
        output: PlannerOutput,
        started_at: float,
        represented: bool,
    ) -> None:
        summary_doc: Dict[str, int] = {}
        if output.delta:
            try:
                new_constellation, summary = apply_delta(self.constellation, output.delta)
            except ConstellationError as exc:
                # A refused delta re-presents the same batch once, with the
                # refusal: an op's parse or lookup error, or each violation
                # of the result.
                if represented:
                    self._abort(f"planner delta rejected twice: {exc}")
                    return
                violations = (
                    tuple(str(v) for v in exc.violations)
                    if isinstance(exc, ValidationFailed)
                    else (str(exc),)
                )
                retry_input = PlannerInput(
                    snapshot=planner_input.snapshot,
                    batch=planner_input.batch,
                    round_index=self._round_index,
                    violations=violations,
                )
                self._run_round(retry_input, represented=True)
                return
            except Exception as exc:
                self._abort(f"planner delta failed: {exc}")
                return
            self.constellation = new_constellation
            summary_doc = summary.as_dict()
            self.report.record_event(
                OrchestratorEvent(
                    EventKind.CONSTELLATION_MODIFIED,
                    "",
                    self.clock.now,
                    {"summary": summary_doc, "version": self.constellation.version},
                )
            )
        try:
            self.planner_state = fsm_advance(self.planner_state, output.next_state)
        except Exception as exc:
            self._abort(str(exc))
            return
        self.report.edit_cycles.append(
            EditCycleRecord(
                round_index=self._round_index,
                started_at=started_at,
                committed_at=self.clock.now,
                batch=[e.as_dict() for e in planner_input.batch],
                observation=output.observation,
                thought=output.thought,
                next_state=output.next_state._value_,
                summary=summary_doc,
                version_after=self.constellation.version,
                represented=represented,
            )
        )
        self._round_index += 1
        if self.planner_state is PlannerState.FINISH:
            self._release_lock()
            self.report.result = output.result
            outcome = self._outcome_from_statuses()
            if outcome is RunOutcome.FAILED:
                # The planner declared the request finished, so the run is at
                # worst partial even if every remaining task failed.
                outcome = RunOutcome.PARTIAL
            self._finish(outcome)
            return
        if self.planner_state is PlannerState.FAIL:
            self._release_lock()
            self.report.result = output.result
            self._finish(RunOutcome.FAILED)
            return
        if self.queue:
            self._start_round()
            return
        self._release_lock()
        self._reschedule()
        if not self._pending_timers and self.constellation.is_quiescent():
            self._finish(self._outcome_from_statuses())

    def _release_lock(self) -> None:
        self.lock_held = False
        self.report.record_lock("release", self.clock.now)

    def _synchronize(self, batch) -> None:
        for event in batch:
            task = self.constellation.tasks.get(event.task_id)
            if task is None or task.status.terminal:
                continue
            if event.kind is EventKind.TASK_COMPLETED:
                self.constellation.transition(
                    event.task_id, TaskStatus.COMPLETED, result=event.payload.get("result")
                )
            elif event.kind is EventKind.TASK_FAILED:
                reason = FailureReason(
                    event.payload.get("failure_reason", FailureReason.EXECUTION_ERROR.value)
                )
                self.constellation.transition(
                    event.task_id, TaskStatus.FAILED, failure_reason=reason
                )

    # -- scheduling ------------------------------------------------------

    def _reschedule(self) -> None:
        available = self.dispatcher.available_devices()
        for task_id in self.constellation.ready_tasks():
            task = self.constellation.tasks[task_id]
            if "*" in available or task.device in available:
                self._dispatch(task)
            elif task_id not in self._pending_timers:
                self._pending_timers[task_id] = self.clock.call_later(
                    self.config.pending_dispatch_timeout,
                    partial(self._fire, self._pending_timeout, task_id),
                )

    def _dispatch(self, task: TaskStar) -> None:
        if self.lock_held:
            self.report.assignments_while_held += 1
        self._cancel_timer(self._pending_timers, task.id)
        self.constellation.transition(task.id, TaskStatus.RUNNING)
        self.report.timings[task.id] = TaskTiming(
            task_id=task.id, device=task.device, dispatched_at=self.clock.now
        )
        self.report.record_event(
            OrchestratorEvent(
                EventKind.TASK_STARTED,
                task.id,
                self.clock.now,
                {"device": task.device, "version": self.constellation.version},
            )
        )
        self._execution_timers[task.id] = self.clock.call_later(
            self.config.execution_timeout,
            partial(self._fire, self._execution_timeout, task.id),
        )
        try:
            self.dispatcher.dispatch(self.constellation.tasks[task.id], self._report_done)
        except Exception as exc:
            self._report_done(task.id, TaskStatus.FAILED, str(exc), FailureReason.EXECUTION_ERROR)

    def _pending_timeout(self, task_id: str) -> None:
        self._pending_timers.pop(task_id, None)
        task = self.constellation.tasks.get(task_id)
        if task is None or task.status is not TaskStatus.PENDING:
            return
        self._enqueue(
            OrchestratorEvent(
                EventKind.TASK_FAILED,
                task_id,
                self.clock.now,
                {"failure_reason": FailureReason.TIMEOUT.value},
            )
        )

    def _execution_timeout(self, task_id: str) -> None:
        # Only a RUNNING task has this timer: its completion and _finish cancel it.
        self._execution_timers.pop(task_id, None)
        self._on_task_done(task_id, TaskStatus.FAILED, None, FailureReason.TIMEOUT)

    # -- termination -----------------------------------------------------

    def _outcome_from_statuses(self, stopped: bool = False) -> RunOutcome:
        """A run ``stopped`` before it finished succeeds only if a planner
        round committed and no task is left PENDING or RUNNING."""
        tasks = self.constellation.tasks.values()
        unfinished = stopped and (not self.report.edit_cycles or any(not t.status.terminal for t in tasks))
        if not unfinished and not unrecovered_failures(self.constellation):
            return RunOutcome.SUCCESS
        if any(t.status is TaskStatus.COMPLETED for t in tasks):
            return RunOutcome.PARTIAL
        return RunOutcome.FAILED

    def _abort(self, message: str) -> None:
        self.report.error = message
        self._release_lock()  # every abort comes from a planner round
        self._finish(RunOutcome.FAILED)

    def _finish(self, outcome: RunOutcome) -> None:
        if self.done:
            return
        self.done = True
        self.report.outcome = outcome
        self.report.finished_at = self.clock.now
        self.report.final_document = to_document(self.constellation)
        for timers in (self._pending_timers, self._execution_timers):
            for handle in timers.values():
                handle.cancel()
            timers.clear()

    @staticmethod
    def _cancel_timer(timers: Dict[str, TimerHandle], key: str) -> None:
        handle = timers.pop(key, None)
        if handle is not None:
            handle.cancel()
