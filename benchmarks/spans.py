"""Span recorder for the benchmark's traced run.

Tracing lives in the benchmark, not in the program: ``Recorder`` replaces
public functions and methods of ``constellation`` where their callers look
them up (a module global such as ``constellation.engine.apply_delta``, or a
class attribute such as ``TaskConstellation.ready_tasks``) with wrappers
that record spans, and puts the originals back when the ``installed`` block
ends. Nothing
under ``src/`` changes, and no wall-clock value reaches a run report.

A span has a name, a start, an end, a parent span and a request id. Self time
is a span's duration minus the time its child spans cover. Durations are
the thread's CPU time, as for the untraced requests. Totals per name
are accumulated as spans close; the raw spans of the first few requests are
kept in memory and written out, in Chrome's trace-event format, when the run
ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import thread_time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# (span name, module, attribute path). Functions imported by name into
# another module are wrapped at each import site the request path uses.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("model.ready_tasks", "constellation.model", "TaskConstellation.ready_tasks"),
    ("model.is_quiescent", "constellation.model", "TaskConstellation.is_quiescent"),
    ("model.clone", "constellation.model", "TaskConstellation.clone"),
    ("model.validate", "constellation.model", "TaskConstellation.validate"),
    ("edits.build_constellation", "constellation.edits", "build_constellation"),
    ("edits.apply_delta", "constellation.edits", "apply_delta"),
    ("edits.apply_delta", "constellation.engine", "apply_delta"),
    ("edits.edit_locality_violations", "constellation.edits", "edit_locality_violations"),
    ("serial.to_document", "constellation.serial", "to_document"),
    ("serial.to_document", "constellation.engine", "to_document"),
    ("engine.run", "constellation.engine", "Orchestrator.run"),
    ("planner.edit", "constellation.planner", "ScriptedPlanner.edit"),
    ("planner.trigger_matches", "constellation.planner", "Trigger.matches"),
    ("aip.encode", "constellation.aip.endpoints", "encode"),
    ("aip.decode", "constellation.aip.endpoints", "decode"),
    ("simnet.send", "constellation.simnet.network", "SimNetwork.send"),
    ("agent.reasoner_choose", "constellation.agent.reasoner", "ScriptedReasoner.choose"),
    ("agent.executor_execute", "constellation.agent.executor", "ScriptedExecutor.execute"),
    ("explorer.successors", "constellation.explorer", "successors"),
    ("explorer.check_invariants", "constellation.explorer", "check_invariants"),
)

# Cheap calls made in large numbers: counted, not timed, so their time stays
# in the caller's self time.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("model.transition", "constellation.model", "TaskConstellation.transition"),
    ("serial.task_to_doc", "constellation.serial", "task_to_doc"),
    ("clock.step", "constellation.clock", "VirtualClock.step"),
    ("agent.serve_task", "constellation.agent.server", "AgentServer.serve_task"),
)

REQUEST = "request"


@dataclass
class Totals:
    """Per-name sums over the spans closed since the last ``take``."""

    calls: Dict[str, int] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)
    raised: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)


class Recorder:
    def __init__(self, planners: Sequence[type] = (), keep_requests: int = 0):
        self.totals = Totals()
        self.events: List[Dict[str, Any]] = []
        self.keep_requests = keep_requests
        self._stack: List[List[Any]] = []
        self._ids = itertools.count(1)
        self._request: Optional[int] = None
        self._keep = False
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        targets = [(name, self._span, *_resolve(module, path)) for name, module, path in SPANS]
        # Benchmark planners run in the planner layer too.
        targets += [("planner.edit", self._span, cls, "edit") for cls in planners]
        targets += [(name, self._counter, *_resolve(module, path)) for name, module, path in COUNTERS]
        for name, wrap, owner, attr in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, wrap(name, original)))

    # -- patching ---------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator[None]:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Root span of one request; raw spans are kept for the first
        ``keep_requests`` request ids."""
        self._request = request_id
        self._keep = request_id < self.keep_requests
        frame = self._open()
        try:
            yield
        finally:
            self._close(REQUEST, frame, raised=False)
            self._request = None

    def take(self) -> Totals:
        """Returns the totals so far and starts new ones."""
        taken, self.totals = self.totals, Totals()
        return taken

    # -- spans ------------------------------------------------------------

    def _open(self) -> List[Any]:
        parent = self._stack[-1][2] if self._stack else None
        frame = [thread_time(), 0.0, next(self._ids), parent]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: List[Any], raised: bool) -> None:
        end = thread_time()
        self._stack.pop()
        duration = end - frame[0]
        if self._stack:
            self._stack[-1][1] += duration
        totals = self.totals
        totals.calls[name] = totals.calls.get(name, 0) + 1
        totals.self_s[name] = totals.self_s.get(name, 0.0) + duration - frame[1]
        if raised:
            totals.raised[name] = totals.raised.get(name, 0) + 1
        if self._keep:
            self.events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": frame[0] * 1e6,
                    "dur": duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"request": self._request, "span": frame[2], "parent": frame[3]},
                }
            )

    def _span(self, name: str, fn: Callable) -> Callable:
        # The size of each encoded frame is counted where it is made.
        count_bytes = name == "aip.encode"

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self._open()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(name, frame, raised)
            if count_bytes:
                self._count("aip.bytes_encoded", len(result))
            return result

        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            self._count(name, 1)
            return fn(*args, **kwargs)

        return counted

    def _count(self, name: str, amount: int) -> None:
        counts = self.totals.counts
        counts[name] = counts.get(name, 0) + amount

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"traceEvents": self.events, "displayTimeUnit": "ms", "otherData": meta}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr
