"""Role endpoints of the agent-interaction protocol.

Three roles talk over the simulated network:

- ``ConstellationEndpoint`` — the orchestrator side: registry, task
  dispatch, heartbeat monitoring and disconnect synthesis.
- ``DeviceServerEndpoint`` — the per-device agent server: runs the agent
  FSM, issues command batches to its executor client, reports TASK_END,
  heartbeats, and reconnects with exponential backoff after an outage.
- ``DeviceClientEndpoint`` — the executor: runs command batches and
  returns results; it never originates a state transition.

Both sides keep per-session logs. When either side aborts a task because of
a disconnect, it records a synthetic TASK_END entry locally so that every
TASK is matched by exactly one TASK_END in the combined logs even though no
frame crossed the wire.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional

from ..clock import TimerHandle, VirtualClock
from ..errors import AttemptsExhausted, PeerDisconnected
from ..simnet.network import SimNetwork
from ..agent.server import AgentServer, TaskRun
from .backoff import BackoffPolicy
from .messages import AipMessage, MessageType, decode, encode
from .profile import AgentStatus, ProfileRegistry, merge_profile
from .session import SessionState

DEFAULT_HEARTBEAT_INTERVAL = 5.0
DEFAULT_MISSED_K = 3


class _Endpoint:
    """Shared plumbing: frame IO and session bookkeeping."""

    def __init__(self, clock: VirtualClock, network: SimNetwork, address: str):
        self.clock = clock
        self.network = network
        self.address = address
        self.sessions: Dict[str, SessionState] = {}
        network.attach(address, self._on_frame)

    def session(self, session_id: str, remote: str) -> SessionState:
        if session_id not in self.sessions:
            self.sessions[session_id] = SessionState(
                session_id=session_id, local_peer=self.address, remote_peer=remote
            )
        return self.sessions[session_id]

    def send(self, dst: str, msg: AipMessage) -> None:
        if msg.session_id is not None:
            self.session(msg.session_id, dst).record("sent", msg, self.clock.now)
        self.network.send(self.address, dst, encode(msg), summary=msg.msg_type.value)

    def _on_frame(self, src: str, frame: bytes) -> None:
        msg = decode(frame)
        if msg.session_id is not None:
            self.session(msg.session_id, src).record("received", msg, self.clock.now)
        self.handle(src, msg)

    def handle(self, src: str, msg: AipMessage) -> None:
        raise NotImplementedError


class ConstellationEndpoint(_Endpoint):
    def __init__(
        self,
        clock: VirtualClock,
        network: SimNetwork,
        address: str = "orchestrator",
        registry: Optional[ProfileRegistry] = None,
        user_configs: Optional[Dict[str, Dict[str, Any]]] = None,
    ):
        super().__init__(clock, network, address)
        self.registry = registry or ProfileRegistry()
        self.user_configs = dict(user_configs or {})
        self.availability_listener: Optional[Callable[[], None]] = None
        self._deadline_timers: Dict[str, TimerHandle] = {}
        self._device_address: Dict[str, str] = {}
        # session_id -> (device_id, task_id, callback)
        self._outstanding: Dict[str, Any] = {}
        self._seq = itertools.count(1)

    # -- inbound ---------------------------------------------------------

    def handle(self, src: str, msg: AipMessage) -> None:
        if msg.msg_type is MessageType.REGISTER:
            self._on_register(src, msg)
        elif msg.msg_type is MessageType.HEARTBEAT:
            agent_id = msg.body.get("agent_id", src)
            self.registry.heartbeat(agent_id, self.clock.now)
            self._arm_deadline(agent_id)
            self.send(
                src,
                AipMessage(
                    MessageType.HEARTBEAT,
                    {"timestamp": self.clock.now, "status": "OK"},
                ),
            )
        elif msg.msg_type is MessageType.TASK_END:
            self._on_task_end(msg)
        elif msg.msg_type is MessageType.DEVICE_INFO_RESPONSE:
            pass  # responses surface through session logs only
        elif msg.msg_type is MessageType.ERROR:
            pass

    def _on_register(self, src: str, msg: AipMessage) -> None:
        client_id = msg.body.get("client_id", "")
        if not isinstance(client_id, str) or not client_id.strip():
            self.send(
                src,
                AipMessage(
                    MessageType.ERROR,
                    {"error": "SchemaViolation: client_id must be non-empty", "context": {}},
                ),
            )
            return
        metadata = msg.body.get("metadata", {})
        profile = merge_profile(
            client_id,
            user_config=self.user_configs.get(client_id),
            service_manifest=metadata.get("service_manifest"),
            client_telemetry=metadata.get("client_telemetry"),
        )
        self.registry.register(profile, self.clock.now)
        self._device_address[client_id] = src
        self._arm_deadline(client_id)
        self.send(
            src,
            AipMessage(MessageType.HEARTBEAT, {"timestamp": self.clock.now, "status": "OK"}),
        )
        if self.availability_listener is not None:
            self.availability_listener()

    def _on_task_end(self, msg: AipMessage) -> None:
        entry = self._outstanding.pop(msg.session_id, None)
        if entry is None:
            return  # duplicate TASK_END: idempotent, already resolved
        _device_id, task_id, callback = entry
        callback(task_id, msg.body["status"], msg.body)

    # -- outbound --------------------------------------------------------

    def dispatch_task(
        self,
        device_id: str,
        task: Dict[str, Any],
        request: str,
        callback: Callable[[str, str, Dict[str, Any]], None],
    ) -> str:
        profile = self.registry.profiles.get(device_id)
        if profile is None or profile.status is AgentStatus.DISCONNECTED:
            raise PeerDisconnected(f"device {device_id!r} is not in the scheduling pool")
        session_id = f"s{next(self._seq)}-{device_id}-{task['id']}"
        self._outstanding[session_id] = (device_id, task["id"], callback)
        self.send(
            self._device_address[device_id],
            AipMessage(
                MessageType.TASK, {"task": task, "request": request}, session_id=session_id
            ),
        )
        return session_id

    # -- liveness --------------------------------------------------------

    def _arm_deadline(self, agent_id: str) -> None:
        old = self._deadline_timers.pop(agent_id, None)
        if old is not None:
            old.cancel()
        deadline = self.registry.deadline_for(agent_id)
        self._deadline_timers[agent_id] = self.clock.call_at(
            max(deadline, self.clock.now),
            lambda: self._on_deadline(agent_id),
            label=f"hb-deadline:{agent_id}",
        )

    def _on_deadline(self, agent_id: str) -> None:
        self._deadline_timers.pop(agent_id, None)
        profile = self.registry.profiles.get(agent_id)
        if profile is None or profile.status is AgentStatus.DISCONNECTED:
            return
        if self.clock.now < self.registry.deadline_for(agent_id):
            self._arm_deadline(agent_id)
            return
        self.registry.mark_disconnected(agent_id)
        for session_id, (device_id, task_id, callback) in sorted(self._outstanding.items()):
            if device_id != agent_id:
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
            self.session(session_id, self._device_address[agent_id]).record(
                "local", synthetic, self.clock.now, synthetic=True
            )
            del self._outstanding[session_id]
            callback(task_id, "FAILED", synthetic.body)
        if self.availability_listener is not None:
            self.availability_listener()


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
            self.clock.call_later(total, lambda: self.send(src, reply), label="command-exec")
        elif msg.msg_type is MessageType.DEVICE_INFO_REQUEST:
            info, _ = self.executor.execute({"function": "SYS_INFO"})
            self.send(
                src,
                AipMessage(
                    MessageType.DEVICE_INFO_RESPONSE,
                    {"result": info, "response_id": msg.body["request_id"]},
                    session_id=msg.session_id,
                ),
            )


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
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        missed_k: int = DEFAULT_MISSED_K,
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
        self.heartbeat_interval = heartbeat_interval
        self.missed_k = missed_k
        self.backoff = backoff or BackoffPolicy()
        self.rng = random.Random(f"{seed}:{agent_id}")

        self.connected = False
        self.permanently_failed = False
        self.last_ack = 0.0
        self.active_runs: Dict[str, TaskRun] = {}  # session_id -> run
        self._run_tasks: Dict[str, Dict[str, Any]] = {}
        self._beat_timer: Optional[TimerHandle] = None
        self._ack_deadline_timer: Optional[TimerHandle] = None
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
        elif msg.msg_type is MessageType.DEVICE_INFO_REQUEST:
            # Forward to the executor client, which owns the telemetry.
            self.send(self.client_address, msg)
        elif msg.msg_type is MessageType.DEVICE_INFO_RESPONSE:
            self.send(self.orchestrator_address, msg)

    def _on_ack(self) -> None:
        self.last_ack = self.clock.now
        if not self.connected:
            self.connected = True
            self.permanently_failed = False
            self._reconnect_attempt = 0
            if self._reconnect_timer is not None:
                self._reconnect_timer.cancel()
                self._reconnect_timer = None
            self._schedule_beat()
        self._arm_ack_deadline()

    # -- task execution --------------------------------------------------

    def _on_task(self, msg: AipMessage) -> None:
        session_id = msg.session_id or ""
        task = msg.body["task"]
        if session_id in self.active_runs:
            return  # limited idempotency: duplicate TASK is not re-executed
        self._run_tasks[session_id] = task

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

        def on_end(status: str, payload: Dict[str, Any]) -> None:
            self.active_runs.pop(session_id, None)
            body = {"status": status}
            body.update(payload)
            reply = AipMessage(MessageType.TASK_END, body, session_id=session_id)
            if self.connected:
                self.send(self.orchestrator_address, reply)
            else:
                self.session(session_id, self.orchestrator_address).record(
                    "local", reply, self.clock.now, synthetic=True
                )

        self.active_runs[session_id] = self.agent_server.serve_task(
            task, send_commands, on_end
        )

    # -- liveness / reconnection -----------------------------------------

    def _schedule_beat(self) -> None:
        if self._beat_timer is not None:
            self._beat_timer.cancel()
        self._beat_timer = self.clock.call_later(
            self.heartbeat_interval, self._beat, label=f"beat:{self.agent_id}"
        )

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

    def _arm_ack_deadline(self) -> None:
        if self._ack_deadline_timer is not None:
            self._ack_deadline_timer.cancel()
        deadline = self.last_ack + self.heartbeat_interval * self.missed_k
        self._ack_deadline_timer = self.clock.call_at(
            max(deadline, self.clock.now),
            self._on_ack_deadline,
            label=f"ack-deadline:{self.agent_id}",
        )

    def _on_ack_deadline(self) -> None:
        self._ack_deadline_timer = None
        if not self.connected:
            return
        if self.clock.now < self.last_ack + self.heartbeat_interval * self.missed_k:
            self._arm_ack_deadline()
            return
        self._local_disconnect()

    def _local_disconnect(self) -> None:
        self.connected = False
        if self._beat_timer is not None:
            self._beat_timer.cancel()
            self._beat_timer = None
        # Abort ongoing work: both sides converge on FAILED statuses.
        for session_id in sorted(self.active_runs):
            run = self.active_runs[session_id]
            self.agent_server.abort(
                run,
                "connection to orchestrator lost",
                "AGENT_DISCONNECTED",
                lambda status, payload, sid=session_id: self._record_aborted(sid, status, payload),
            )
        self.active_runs.clear()
        self._pending_results.clear()
        self._reconnect_attempt = 0
        self._schedule_reconnect()

    def _record_aborted(self, session_id: str, status: str, payload: Dict[str, Any]) -> None:
        body = {"status": status}
        body.update(payload)
        self.session(session_id, self.orchestrator_address).record(
            "local",
            AipMessage(MessageType.TASK_END, body, session_id=session_id),
            self.clock.now,
            synthetic=True,
        )

    def _schedule_reconnect(self) -> None:
        if self._reconnect_attempt >= self.backoff.max_attempts:
            self.permanently_failed = True
            return
        delay = self.backoff.delay(self._reconnect_attempt, self.rng)
        self._reconnect_attempt += 1
        self._reconnect_timer = self.clock.call_later(
            delay, self._attempt_reconnect, label=f"reconnect:{self.agent_id}"
        )

    def _attempt_reconnect(self) -> None:
        self._reconnect_timer = None
        if self.connected:
            return
        self._send_register()
        self._schedule_reconnect()

    def reconnect_exhausted(self) -> bool:
        return self.permanently_failed
