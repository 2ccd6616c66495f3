"""Role endpoints of the agent-interaction protocol.

Three roles talk over the simulated network:

- ``ConstellationEndpoint`` — the orchestrator side and the engine's
  dispatcher: the device pool, task dispatch, heartbeat monitoring and
  disconnect synthesis. The pool is its silence lane's live keys: REGISTER
  and each accepted HEARTBEAT add an agent, a re-add replacing its deadline.
  A REGISTER's metadata is typed at ``decode`` and read by no one. The
  endpoint turns each session's TASK_END, received or synthesised, into the
  one engine completion of the task the session carried.
- ``DeviceServerEndpoint`` — the per-device agent server: runs the agent
  FSM, issues command batches to its executor client, reports TASK_END,
  heartbeats, and registers with exponential backoff, at start and after an
  outage, until the orchestrator accepts.
- ``DeviceClientEndpoint`` — the executor: runs command batches and
  returns results; it never originates a state transition.

Each role logs and acts on only the frame types in its table of handlers.
A session is its log: ``sessions`` maps a session id to the list of its
entries, which ``_log`` alone appends. A session opens at its TASK, sent or
received, so the orchestrator and the device server keep logs and the
executor client, which never sees a TASK, keeps none. A sent entry's ``seq``
counts the sent entries before it in its log. A frame without a session id
(REGISTER, HEARTBEAT, most ERRORs) makes no log call, and TASK, COMMAND,
COMMAND_RESULTS and TASK_END must carry one. When either side aborts a task
because of a disconnect, it logs a local TASK_END entry, marked synthetic,
so that every TASK is matched by exactly one TASK_END in the combined logs
even though no frame crossed the wire. A frame that fails to decode or comes
from another peer than its own is answered with an ERROR frame and ignored,
at every role.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..clock import TimerHandle, TimerLane, VirtualClock
from ..engine import DoneCallback
from ..errors import SchemaViolation
from ..model import FailureReason, TaskStar, TaskStatus
from ..simnet.network import SimNetwork
from ..agent.server import AgentServer, TaskRun
from .messages import AipMessage, MessageType, decode, encode
from .liveness import HEARTBEAT_INTERVAL, MISSED_K, RECONNECT_ATTEMPTS, reconnect_delay

_HEARTBEAT = MessageType.HEARTBEAT  # read once: an Enum class attribute costs more than a global


class _Endpoint:
    """Shared plumbing: frame IO and session logs."""

    _handlers: Dict[str, Callable[..., None]] = {}  # type value -> handler, for each frame type the role takes

    def __init__(self, clock: VirtualClock, network: SimNetwork, address: str):
        self.clock = clock
        self.network = network
        self.address = address
        self.sessions: Dict[str, List[Dict[str, Any]]] = {}  # session id -> its log
        network.attach(address, self._on_frame)

    def _log(self, direction: str, msg: AipMessage) -> None:
        """Append a frame that has a session id, "sent", "received" or
        "local", to its session's log; a TASK opens the session. A sent
        entry's ``seq`` counts the sent entries before it, and a local one
        is marked synthetic: no frame crossed the wire."""
        kind = msg.msg_type._value_
        if kind != "TASK" and msg.session_id not in self.sessions:
            return
        log = self.sessions.setdefault(msg.session_id, [])
        entry: Dict[str, Any] = {"at": self.clock.now, "direction": direction, "msg_type": kind,
                                 "body": msg.body, "seq": None}
        if direction == "sent":
            entry["seq"] = sum(e["direction"] == "sent" for e in log)
        elif direction == "local":
            entry["synthetic"] = True
        log.append(entry)

    def send(self, dst: str, msg: AipMessage) -> None:
        if msg.session_id is not None:
            self._log("sent", msg)
        self.network.send(self.address, dst, encode(msg), msg.msg_type._value_)

    def _on_frame(self, src: str, frame: bytes) -> None:
        try:
            msg = decode(frame)
        except SchemaViolation as exc:
            refusal = f"SchemaViolation: {exc}"
        else:
            refusal = self.refusal(src, msg)
        if refusal is not None:
            self._refuse(src, refusal)
            return
        self.handle(src, msg)

    def _refuse(self, src: str, error: str) -> None:
        self.send(src, AipMessage(MessageType.ERROR, {"error": error, "context": {}}))

    def refusal(self, src: str, msg: AipMessage) -> Optional[str]:
        """Why this role does not act on ``msg`` from ``src``, or None."""
        return None

    def handle(self, src: str, msg: AipMessage) -> None:
        """Log and act on a decoded frame of a type this role takes; ignore any other."""
        act = self._handlers.get(msg.msg_type._value_)
        if act is not None:
            if msg.session_id is not None:
                self._log("received", msg)
            act(self, src, msg)


class ConstellationEndpoint(_Endpoint):
    """The engine's ``Dispatcher``: each dispatched task goes out as one TASK
    frame in a new session, whose TASK_END calls the task's ``on_done``."""

    def __init__(
        self,
        clock: VirtualClock,
        network: SimNetwork,
        request: str,
        address: str = "orchestrator",
    ):
        super().__init__(clock, network, address)
        self.request = request
        self._availability_listener: Callable[[], None] = lambda: None
        # The pool: a silent agent leaves it, and only a REGISTER brings it back.
        self._silence = TimerLane(clock, HEARTBEAT_INTERVAL * MISSED_K, self._on_silence)
        self._device_address: Dict[str, str] = {}  # every agent that registered
        self._outstanding: Dict[str, Tuple[TaskStar, DoneCallback]] = {}  # by session id
        self._task_address: Dict[str, str] = {}  # session id -> where its TASK went
        self._seq = itertools.count(1)

    # -- dispatcher port -------------------------------------------------

    def available_devices(self) -> Set[str]:
        return set(self._silence.live)

    def set_availability_listener(self, listener: Callable[[], None]) -> None:
        self._availability_listener = listener

    def dispatch(self, task: TaskStar, on_done: DoneCallback) -> None:
        if task.device not in self._silence.live:
            error = f"device {task.device!r} is not in the scheduling pool"
            on_done(task.id, TaskStatus.FAILED, error, FailureReason.AGENT_DISCONNECTED)
            return
        session_id = f"s{next(self._seq)}-{task.device}-{task.id}"
        self._outstanding[session_id] = (task, on_done)
        self._task_address[session_id] = address = self._device_address[task.device]
        task_doc = {"id": task.id, "name": task.name, "description": task.description,
                    "device": task.device, "tips": list(task.tips)}
        body = {"task": task_doc, "request": self.request}
        self.send(address, AipMessage(MessageType.TASK, body, session_id=session_id))

    # -- inbound ---------------------------------------------------------

    def refusal(self, src: str, msg: AipMessage) -> Optional[str]:
        """A HEARTBEAT from its agent's address while in the pool; a TASK_END from where its TASK went."""
        kind = msg.msg_type._value_  # a string compare costs less than an Enum attribute
        if kind == "HEARTBEAT":
            agent_id = msg.body.get("agent_id", src)
            if not isinstance(agent_id, str) or self._device_address.get(agent_id) != src:
                return f"NotFound: no registered agent {agent_id!r} at {src!r}"
            if agent_id not in self._silence.live:
                return f"PeerDisconnected: agent {agent_id!r} must register again"
        elif kind == "TASK_END" and self._task_address.get(msg.session_id) != src:
            return f"NotFound: no session {msg.session_id!r} sent to {src!r}"
        return None

    def _on_register(self, src: str, msg: AipMessage) -> None:
        client_id = msg.body["client_id"]
        self._device_address[client_id] = src
        self._silence.add(client_id)
        self._ack(src)
        self._availability_listener()

    def _on_heartbeat(self, src: str, msg: AipMessage) -> None:
        self._silence.add(msg.body.get("agent_id", src))
        self._ack(src)

    def _ack(self, src: str) -> None:
        """Answer an accepted REGISTER or HEARTBEAT."""
        ack = {"timestamp": self.clock.now, "status": "OK"}
        self.send(src, tuple.__new__(AipMessage, (_HEARTBEAT, ack, None)))

    def _on_task_end(self, src: str, msg: AipMessage) -> None:
        """A session's first TASK_END is its task's completion; a later one
        is dropped, as the session is already resolved."""
        entry = self._outstanding.pop(msg.session_id, None)
        if entry is None:
            return
        task, on_done = entry
        if msg.body["status"] == "COMPLETED":
            on_done(task.id, TaskStatus.COMPLETED, msg.body["result"], None)
        else:
            reason = FailureReason(msg.body.get("failure_reason", "EXECUTION_ERROR"))
            on_done(task.id, TaskStatus.FAILED, msg.body["error"], reason)

    _handlers = {"REGISTER": _on_register, "HEARTBEAT": _on_heartbeat, "TASK_END": _on_task_end}

    # -- liveness --------------------------------------------------------

    def _on_silence(self, agent_id: str) -> None:
        """The agent's deadline, added at REGISTER and replaced by each
        accepted HEARTBEAT, fell due ``MISSED_K`` intervals after the last:
        the agent has left the pool, and each of its outstanding tasks ends
        FAILED. The availability listener is not told: the engine reads the
        pool afresh whenever it next schedules."""
        for session_id in sorted(self._outstanding):
            if self._outstanding[session_id][0].device != agent_id:
                continue
            synthetic = AipMessage(
                MessageType.TASK_END,
                {
                    "status": "FAILED",
                    "error": f"agent {agent_id} disconnected",
                    "failure_reason": "AGENT_DISCONNECTED",
                },
                session_id=session_id,
            )
            self._log("local", synthetic)
            self._on_task_end(self.address, synthetic)


class DeviceClientEndpoint(_Endpoint):
    """Executor client: runs command batches sequentially, returns results."""

    def __init__(self, clock: VirtualClock, network: SimNetwork, address: str, executor):
        super().__init__(clock, network, address)
        self.executor = executor

    def _on_command(self, src: str, msg: AipMessage) -> None:
        results: List[Dict[str, Any]] = []
        total = 0.0
        for action in msg.body["actions"]:
            try:
                result, duration = self.executor.execute(action)
            except Exception as exc:
                result, duration = {"status": 1, "stdout": "", "stderr": str(exc)}, 0.0
            results.append(result)
            total += duration
        reply = AipMessage(
            MessageType.COMMAND_RESULTS,
            {"action_results": results, "prev_response_id": msg.body["response_id"]},
            session_id=msg.session_id,
        )
        self.clock.call_later(total, lambda: self.send(src, reply))

    _handlers = {"COMMAND": _on_command}


class DeviceServerEndpoint(_Endpoint):
    def __init__(
        self,
        clock: VirtualClock,
        network: SimNetwork,
        address: str,
        agent_id: str,
        agent_server: AgentServer,
        orchestrator_address: str,
        client_address: str,
        manifest: Optional[Dict[str, Any]] = None,
        telemetry: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(clock, network, address)
        self.agent_id = agent_id
        self.agent_server = agent_server
        self.orchestrator_address = orchestrator_address
        self.client_address = client_address
        self._peer = {"HEARTBEAT": orchestrator_address, "TASK": orchestrator_address,  # by type value
                      "COMMAND_RESULTS": client_address}
        self.manifest = dict(manifest or {})
        self.telemetry = dict(telemetry or {})

        self.permanently_failed = False
        self.active_runs: Dict[str, TaskRun] = {}  # session_id -> run
        self._silence = TimerLane(clock, HEARTBEAT_INTERVAL * MISSED_K, self._local_disconnect)
        self._reconnect_attempt = 0
        self._cmd_seq = itertools.count(1)
        self._pending_results: Dict[str, Callable[[List[Dict[str, Any]]], None]] = {}

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Register, and keep registering on the backoff schedule until the
        orchestrator accepts, so a lost first REGISTER is sent again."""
        self._register()

    def refusal(self, src: str, msg: AipMessage) -> Optional[str]:
        """HEARTBEAT and TASK come from the orchestrator, COMMAND_RESULTS from the client."""
        taken = self._peer.get(msg.msg_type._value_, src) == src
        return None if taken else f"NotFound: no {msg.msg_type._value_} is taken from {src!r}"

    def _on_ack(self, src: str, msg: AipMessage) -> None:
        if self.orchestrator_address not in self._silence.live:  # connected just while the lane holds it
            self.permanently_failed = False
            self._link_timer.cancel()
            self._schedule_beat()
        self._silence.add(self.orchestrator_address)

    # -- task execution --------------------------------------------------

    def _on_task(self, src: str, msg: AipMessage) -> None:
        session_id = msg.session_id
        task = msg.body["task"]
        if session_id in self.active_runs:
            return  # a duplicate TASK is not re-executed

        def send_commands(actions, on_results):
            command_id = f"c{next(self._cmd_seq)}-{self.agent_id}"
            self._pending_results[command_id] = on_results
            self.send(
                self.client_address,
                AipMessage(
                    MessageType.COMMAND,
                    {"actions": actions, "response_id": command_id},
                    session_id=session_id,
                ),
            )

        run = self.agent_server.serve_task(task, send_commands, partial(self._end_task, session_id))
        if not run.state.terminal:  # a run can end inside serve_task; only live runs are kept
            self.active_runs[session_id] = run

    def _on_results(self, src: str, msg: AipMessage) -> None:
        callback = self._pending_results.pop(msg.body["prev_response_id"], None)
        if callback is not None:
            callback(msg.body["action_results"])

    _handlers = {"HEARTBEAT": _on_ack, "TASK": _on_task, "COMMAND_RESULTS": _on_results}

    def _end_task(self, session_id: str, status: str, payload: Dict[str, Any]) -> None:
        self.active_runs.pop(session_id, None)
        body = {"status": status}
        body.update(payload)
        reply = AipMessage(MessageType.TASK_END, body, session_id=session_id)
        if self.orchestrator_address in self._silence.live:
            self.send(self.orchestrator_address, reply)
        else:
            self._log("local", reply)

    # -- liveness / reconnection -----------------------------------------

    # One link timer: the next beat while connected, else the next REGISTER
    # attempt. ``start`` arms it before any ack can arrive; the accepting ack
    # and ``_local_disconnect`` each cancel it and arm the other kind.
    _link_timer: TimerHandle

    def _schedule_beat(self) -> None:
        self._link_timer = self.clock.call_later(HEARTBEAT_INTERVAL, self._beat)

    def _beat(self) -> None:
        beat = {"timestamp": self.clock.now, "agent_id": self.agent_id}
        self.send(self.orchestrator_address, tuple.__new__(AipMessage, (_HEARTBEAT, beat, None)))
        self._schedule_beat()

    def _local_disconnect(self, orchestrator_address: str) -> None:
        """No ack came for ``MISSED_K`` intervals."""
        self._link_timer.cancel()
        # Abort ongoing work: both sides converge on FAILED statuses.
        for _, run in sorted(self.active_runs.items()):
            self.agent_server.abort(run, "connection to orchestrator lost", "AGENT_DISCONNECTED")
        self._reconnect_attempt = 0
        self._schedule_reconnect()

    def _schedule_reconnect(self) -> None:
        if self._reconnect_attempt >= RECONNECT_ATTEMPTS:
            self.permanently_failed = True
            return
        delay = reconnect_delay(self._reconnect_attempt)
        self._reconnect_attempt += 1
        self._link_timer = self.clock.call_later(delay, self._register)

    def _register(self) -> None:
        """Send REGISTER, and arm the next attempt."""
        layers = {"service_manifest": self.manifest, "client_telemetry": self.telemetry}
        body = {"client_id": self.agent_id, "metadata": layers}
        self.send(self.orchestrator_address, AipMessage(MessageType.REGISTER, body))
        self._schedule_reconnect()
