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
The execution and pending-dispatch deadlines are two ``TimerLane`` FIFOs:
only each lane's first live deadline is a clock timer, and every deadline
fires at the (time, sequence) place a timer of its own would take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Protocol, Set, Tuple

from .clock import TimerLane, VirtualClock
from .edits import apply_delta
from .errors import ConstellationError, ValidationFailed
from .events import EventKind, OrchestratorEvent
from .model import _REASONS, FailureReason, TaskConstellation, TaskStar, TaskStatus, unrecovered_failures
from .planner import Planner, PlannerInput, PlannerOutput, PlannerState
from .report import EditCycleRecord, RunOutcome, RunReport, TaskTiming
from .serial import to_document

# Members the per-completion and per-round paths compare: a global costs a
# fraction of an ``Enum`` class attribute read.
_COMPLETED, _FAILED, _RUNNING = TaskStatus.COMPLETED, TaskStatus.FAILED, TaskStatus.RUNNING
_TASK_COMPLETED, _TASK_FAILED = EventKind.TASK_COMPLETED, EventKind.TASK_FAILED
_START, _FINISH, _FAIL, _RUN_FAILED = PlannerState.START, PlannerState.FINISH, PlannerState.FAIL, RunOutcome.FAILED

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
            report = (task.id, _FAILED, None, FailureReason(self.failures[task.id]))
        else:
            report = (task.id, _COMPLETED, f"{task.id} done", None)
        duration = self.durations.get(task.id, self.default_duration)
        self.clock.call_later(duration, partial(on_done, *report))


@dataclass
class EngineConfig:
    """A run's settings, judged when built."""
    initial_round: bool = True
    pending_dispatch_timeout: float = 60.0
    execution_timeout: float = 300.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("pending_dispatch_timeout", "execution_timeout", "deadline"):
            value = getattr(self, name)
            if (value is not None or name != "deadline") and not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite number of seconds above 0, not {value!r}")


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
        # The report's dict of each event in ``queue``, and of each event in
        # the round's batch: the round's record lists them again.
        self._queued: List[Dict[str, Any]] = []
        self._batch_docs: List[Dict[str, Any]] = []
        self.done = False
        self._round_index = 0
        self._pending = TimerLane(clock, self.config.pending_dispatch_timeout, partial(self._fire, self._pending_timeout))
        self._running = TimerLane(clock, self.config.execution_timeout, partial(self._fire, self._execution_timeout))
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
            if self.done:  # so a finished run's timers and callbacks do nothing
                return
            handler(*args)

    def _enqueue(self, event: OrchestratorEvent) -> None:
        self.queue.append(event)
        self._queued.append(self.report.record_event(event))
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
        self._running.discard(task_id)
        kind = _TASK_COMPLETED if status is _COMPLETED else _TASK_FAILED
        payload = {}
        if status is _FAILED:
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
        self._batch_docs, self._queued = self._queued, []
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
        summary: Dict[str, int] = {}
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
            # The lock may be held past a pending deadline, so one whose task
            # the delta removed or blocked again goes now, not at a reschedule.
            if self._pending.live:
                for task_id in self._pending.live.keys() - self.constellation.ready_tasks():
                    self._pending.discard(task_id)
            self.report.record_event(
                OrchestratorEvent(
                    EventKind.CONSTELLATION_MODIFIED,
                    "",
                    self.clock.now,
                    {"summary": summary, "version": self.constellation.version},
                )
            )
        if output.next_state is _START:
            # The one move a planner may not make: FINISH and FAIL end the
            # run below, and a planner is in START until a round commits.
            current = "CONTINUE" if self._round_index else "START"
            self._abort(f"planner may not move {current} -> START")
            return
        self.report.edit_cycles.append(
            EditCycleRecord(
                round_index=self._round_index,
                started_at=started_at,
                committed_at=self.clock.now,
                batch=self._batch_docs,
                observation=output.observation,
                thought=output.thought,
                next_state=output.next_state._value_,
                summary=summary,
                version_after=self.constellation.version,
                represented=represented,
            )
        )
        self._round_index += 1
        if output.next_state is _FINISH:
            self._release_lock()
            self.report.result = output.result
            outcome = self._outcome_from_statuses()
            if outcome is _RUN_FAILED:
                # The planner declared the request finished, so the run is at
                # worst partial even if every remaining task failed.
                outcome = RunOutcome.PARTIAL
            self._finish(outcome)
            return
        if output.next_state is _FAIL:
            self._release_lock()
            self.report.result = output.result
            self._finish(_RUN_FAILED)
            return
        if self.queue:
            self._start_round()
            return
        self._release_lock()
        self._reschedule()
        if self.constellation.is_quiescent():
            self._finish(self._outcome_from_statuses())

    def _release_lock(self) -> None:
        self.lock_held = False
        self.report.record_lock("release", self.clock.now)

    def _synchronize(self, batch) -> None:
        for event in batch:
            task = self.constellation.tasks.get(event.task_id)
            if task is None or task.status.terminal:
                continue
            if event.kind is _TASK_COMPLETED:
                self.constellation.transition(event.task_id, _COMPLETED, result=event.payload.get("result"))
            elif event.kind is _TASK_FAILED:
                reason = _REASONS[event.payload.get("failure_reason", "EXECUTION_ERROR")]
                self.constellation.transition(event.task_id, _FAILED, failure_reason=reason)

    # -- scheduling ------------------------------------------------------

    def _reschedule(self) -> None:
        available = self.dispatcher.available_devices()
        pending = self._pending
        for task_id in self.constellation.ready_tasks():
            task = self.constellation.tasks[task_id]
            if "*" in available or task.device in available:
                self._dispatch(task)
            elif task_id not in pending.live:
                pending.add(task_id)

    def _dispatch(self, task: TaskStar) -> None:
        if self.lock_held:
            self.report.assignments_while_held += 1
        if task.id in self._pending.live:
            self._pending.discard(task.id)
        self.constellation.transition(task.id, _RUNNING)
        self.report.timings[task.id] = TaskTiming(
            task_id=task.id, device=task.device, dispatched_at=self.clock.now
        )
        # ``OrchestratorEvent.as_dict`` of the TASK_STARTED event, built
        # directly: no event object is made, as no round's batch holds one.
        payload = {"device": task.device, "version": self.constellation.version}
        self.report.events.append({"kind": "TASK_STARTED", "at": self.clock.now, "task_id": task.id, "payload": payload})
        self._running.add(task.id)
        try:
            self.dispatcher.dispatch(self.constellation.tasks[task.id], self._report_done)
        except Exception as exc:
            self._report_done(task.id, TaskStatus.FAILED, str(exc), FailureReason.EXECUTION_ERROR)

    def _pending_timeout(self, task_id: str) -> None:
        # Only a ready task has this deadline: its dispatch discards it, as
        # does a commit that removes it or blocks it again.
        self._enqueue(
            OrchestratorEvent(
                EventKind.TASK_FAILED,
                task_id,
                self.clock.now,
                {"failure_reason": FailureReason.TIMEOUT.value},
            )
        )

    def _execution_timeout(self, task_id: str) -> None:
        # Only a RUNNING task has this deadline: its completion discards it.
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
        self.done = True
        # A finished run's deadlines call nothing, as ``_drain`` would, and the
        # lanes let go of the engine, so no reference cycle outlives the run.
        self._pending.callback = self._running.callback = lambda task_id: None
        self.report.outcome = outcome
        self.report.finished_at = self.clock.now
        self.report.final_document = to_document(self.constellation)
