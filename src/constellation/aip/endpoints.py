"""Role endpoints of the agent-interaction protocol.

Three roles talk over the simulated network:

- ``ConstellationEndpoint`` — the orchestrator side and the engine's
  dispatcher: registry, task dispatch, heartbeat monitoring and disconnect
  synthesis. It turns each session's TASK_END, received or synthesised,
  into the one engine completion of the task the session carried.
- ``DeviceServerEndpoint`` — the per-device agent server: runs the agent
  FSM, issues command batches to its executor client, reports TASK_END,
  heartbeats, and reconnects with exponential backoff after an outage.
- ``DeviceClientEndpoint`` — the executor: runs command batches and
  returns results; it never originates a state transition.

Both sides keep per-session logs. When either side aborts a task because of
a disconnect, it records a synthetic TASK_END entry locally so that every
TASK is matched by exactly one TASK_END in the combined logs even though no
frame crossed the wire. A frame that fails to decode is answered with an
ERROR frame and otherwise ignored, at every role.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..clock import TimerHandle, VirtualClock
from ..engine import DoneCallback
from ..errors import SchemaViolation
from ..model import FailureReason, TaskStar, TaskStatus
from ..simnet.network import SimNetwork
from ..agent.server import AgentServer, TaskRun
from .backoff import BackoffPolicy
from .messages import AipMessage, MessageType, decode, encode
from .profile import HEARTBEAT_INTERVAL, AgentStatus, ProfileRegistry, Watchdog, merge_profile
from .session import SessionState


class _Endpoint:
    """Shared plumbing: frame IO and session bookkeeping."""

    def __init__(self, clock: VirtualClock, network: SimNetwork, address: str):
        self.clock = clock
        self.network = network
        self.address = address
        self.sessions: Dict[str, SessionState] = {}
        network.attach(address, self._on_frame)

    def session(self, session_id: str) -> SessionState:
        if session_id not in self.sessions:
            self.sessions[session_id] = SessionState(session_id)
        return self.sessions[session_id]

    def send(self, dst: str, msg: AipMessage) -> None:
        if msg.session_id is not None:
            self.session(msg.session_id).record("sent", msg, self.clock.now)
        self.network.send(self.address, dst, encode(msg), summary=msg.msg_type._value_)

    def _on_frame(self, src: str, frame: bytes) -> None:
        try:
            msg = decode(frame)
        except SchemaViolation as exc:
            self._refuse(src, f"SchemaViolation: {exc}")
            return
        if msg.session_id is not None:
            self.session(msg.session_id).record("received", msg, self.clock.now)
        self.handle(src, msg)

    def _refuse(self, src: str, error: str) -> None:
        self.send(src, AipMessage(MessageType.ERROR, {"error": error, "context": {}}))

    def handle(self, src: str, msg: AipMessage) -> None:
        raise NotImplementedError


class ConstellationEndpoint(_Endpoint):
    """The engine's ``Dispatcher``: each dispatched task goes out as one TASK
    frame in a new session, whose TASK_END calls the task's ``on_done``."""

    def __init__(
        self,
        clock: VirtualClock,
        network: SimNetwork,
        request: str,
        address: str = "orchestrator",
        registry: Optional[ProfileRegistry] = None,
    ):
        super().__init__(clock, network, address)
        self.request = request
        self.registry = registry or ProfileRegistry()
        self._availability_listener: Callable[[], None] = lambda: None
        self._watchdogs: Dict[str, Watchdog] = {}
        self._device_address: Dict[str, str] = {}
        self._outstanding: Dict[str, Tuple[TaskStar, DoneCallback]] = {}  # by session id
        self._seq = itertools.count(1)

    # -- dispatcher port -------------------------------------------------

    def available_devices(self) -> Set[str]:
        return set(self.registry.available())

    def set_availability_listener(self, listener: Callable[[], None]) -> None:
        self._availability_listener = listener

    def dispatch(self, task: TaskStar, on_done: DoneCallback) -> None:
        profile = self.registry.profiles.get(task.device)
        if profile is None or profile.status is AgentStatus.DISCONNECTED:
            error = f"device {task.device!r} is not in the scheduling pool"
            on_done(task.id, TaskStatus.FAILED, error, FailureReason.AGENT_DISCONNECTED)
            return
        session_id = f"s{next(self._seq)}-{task.device}-{task.id}"
        self._outstanding[session_id] = (task, on_done)
        task_doc = {
            "id": task.id,
            "name": task.name,
            "description": task.description,
            "device": task.device,
            "tips": list(task.tips),
        }
        self.send(
            self._device_address[task.device],
            AipMessage(
                MessageType.TASK, {"task": task_doc, "request": self.request}, session_id=session_id
            ),
        )

    # -- inbound ---------------------------------------------------------

    def handle(self, src: str, msg: AipMessage) -> None:
        if msg.msg_type is MessageType.REGISTER:
            self._on_register(src, msg)
        elif msg.msg_type is MessageType.HEARTBEAT:
            agent_id = msg.body.get("agent_id", src)
            if not isinstance(agent_id, str) or agent_id not in self.registry.profiles:
                self._refuse(src, f"NotFound: no registered agent {agent_id!r}")
                return
            if self.registry.profiles[agent_id].status is AgentStatus.DISCONNECTED:
                self._refuse(src, f"PeerDisconnected: agent {agent_id!r} must register again")
                return
            self._watchdogs[agent_id].feed()
            self._ack(src)
        elif msg.msg_type is MessageType.TASK_END:
            self._on_task_end(msg.session_id, msg.body)

    def _on_register(self, src: str, msg: AipMessage) -> None:
        client_id = msg.body.get("client_id", "")
        if not isinstance(client_id, str) or not client_id.strip():
            self._refuse(src, "SchemaViolation: client_id must be non-empty")
            return
        metadata = msg.body.get("metadata", {})
        try:
            profile = merge_profile(
                client_id,
                service_manifest=metadata.get("service_manifest"),
                client_telemetry=metadata.get("client_telemetry"),
            )
        except SchemaViolation as exc:
            self._refuse(src, f"SchemaViolation: {exc}")
            return
        self.registry.register(profile)
        self._device_address[client_id] = src
        if client_id not in self._watchdogs:
            self._watchdogs[client_id] = Watchdog(self.clock, partial(self._on_silence, client_id))
        self._watchdogs[client_id].start()
        self._ack(src)
        self._availability_listener()

    def _ack(self, src: str) -> None:
        """Answer an accepted REGISTER or HEARTBEAT."""
        ack = {"timestamp": self.clock.now, "status": "OK"}
        self.send(src, AipMessage(MessageType.HEARTBEAT, ack))

    def _on_task_end(self, session_id: Optional[str], body: Dict[str, Any]) -> None:
        """A session's first TASK_END is its task's completion; a later one
        is dropped, as the session is already resolved."""
        entry = self._outstanding.pop(session_id, None)
        if entry is None:
            return
        task, on_done = entry
        if body["status"] == "COMPLETED":
            on_done(task.id, TaskStatus.COMPLETED, body["result"], None)
        else:
            reason = FailureReason(body.get("failure_reason", "EXECUTION_ERROR"))
            on_done(task.id, TaskStatus.FAILED, body["error"], reason)

    # -- liveness --------------------------------------------------------

    def _on_silence(self, agent_id: str) -> None:
        """The agent's watchdog, started at REGISTER and fed by each
        accepted HEARTBEAT, saw no beat for ``MISSED_K`` intervals: the agent
        leaves the pool and each of its outstanding tasks ends FAILED."""
        self.registry.mark_disconnected(agent_id)
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
            self.session(session_id).record("local", synthetic, self.clock.now, synthetic=True)
            self._on_task_end(session_id, synthetic.body)
        self._availability_listener()


class DeviceClientEndpoint(_Endpoint):
    """Executor client: runs command batches sequentially, returns results."""

    def __init__(self, clock: VirtualClock, network: SimNetwork, address: str, executor):
        super().__init__(clock, network, address)
        self.executor = executor

    def handle(self, src: str, msg: AipMessage) -> None:
        if msg.msg_type is MessageType.COMMAND:
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
        backoff: Optional[BackoffPolicy] = None,
        seed: int = 0,
    ):
        super().__init__(clock, network, address)
        self.agent_id = agent_id
        self.agent_server = agent_server
        self.orchestrator_address = orchestrator_address
        self.client_address = client_address
        self.manifest = dict(manifest or {})
        self.telemetry = dict(telemetry or {})
        self.backoff = backoff or BackoffPolicy()
        self.rng = random.Random(f"{seed}:{agent_id}")

        self.connected = False
        self.permanently_failed = False
        self.active_runs: Dict[str, TaskRun] = {}  # session_id -> run
        self._beat_timer: Optional[TimerHandle] = None
        self._watchdog = Watchdog(clock, self._local_disconnect)
        self._reconnect_timer: Optional[TimerHandle] = None
        self._reconnect_attempt = 0
        self._cmd_seq = itertools.count(1)
        self._pending_results: Dict[str, Callable[[List[Dict[str, Any]]], None]] = {}

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._send_register()

    def _send_register(self) -> None:
        self.send(
            self.orchestrator_address,
            AipMessage(
                MessageType.REGISTER,
                {
                    "client_id": self.agent_id,
                    "metadata": {
                        "service_manifest": self.manifest,
                        "client_telemetry": self.telemetry,
                    },
                },
            ),
        )

    def handle(self, src: str, msg: AipMessage) -> None:
        if msg.msg_type is MessageType.HEARTBEAT:
            self._on_ack()
        elif msg.msg_type is MessageType.TASK:
            self._on_task(msg)
        elif msg.msg_type is MessageType.COMMAND_RESULTS:
            callback = self._pending_results.pop(msg.body["prev_response_id"], None)
            if callback is not None:
                callback(msg.body["action_results"])

    def _on_ack(self) -> None:
        if self.connected:
            self._watchdog.feed()
            return
        self.connected = True
        self.permanently_failed = False
        self._reconnect_attempt = 0
        if self._reconnect_timer is not None:
            self._reconnect_timer.cancel()
            self._reconnect_timer = None
        self._schedule_beat()
        self._watchdog.start()

    # -- task execution --------------------------------------------------

    def _on_task(self, msg: AipMessage) -> None:
        session_id = msg.session_id or ""
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

    def _end_task(self, session_id: str, status: str, payload: Dict[str, Any]) -> None:
        self.active_runs.pop(session_id, None)
        body = {"status": status}
        body.update(payload)
        reply = AipMessage(MessageType.TASK_END, body, session_id=session_id)
        if self.connected:
            self.send(self.orchestrator_address, reply)
        else:
            self.session(session_id).record("local", reply, self.clock.now, synthetic=True)

    # -- liveness / reconnection -----------------------------------------

    def _schedule_beat(self) -> None:
        if self._beat_timer is not None:
            self._beat_timer.cancel()
        self._beat_timer = self.clock.call_later(HEARTBEAT_INTERVAL, self._beat)

    def _beat(self) -> None:
        if not self.connected:
            return
        self.send(
            self.orchestrator_address,
            AipMessage(
                MessageType.HEARTBEAT,
                {"timestamp": self.clock.now, "agent_id": self.agent_id},
            ),
        )
        self._schedule_beat()

    def _local_disconnect(self) -> None:
        self.connected = False
        if self._beat_timer is not None:
            self._beat_timer.cancel()
            self._beat_timer = None
        # Abort ongoing work: both sides converge on FAILED statuses.
        for _, run in sorted(self.active_runs.items()):
            self.agent_server.abort(run, "connection to orchestrator lost", "AGENT_DISCONNECTED")
        self._pending_results.clear()
        self._reconnect_attempt = 0
        self._schedule_reconnect()

    def _schedule_reconnect(self) -> None:
        if self._reconnect_attempt >= self.backoff.max_attempts:
            self.permanently_failed = True
            return
        delay = self.backoff.delay(self._reconnect_attempt, self.rng)
        self._reconnect_attempt += 1
        self._reconnect_timer = self.clock.call_later(delay, self._attempt_reconnect)

    def _attempt_reconnect(self) -> None:
        self._reconnect_timer = None
        if self.connected:
            return
        self._send_register()
        self._schedule_reconnect()
