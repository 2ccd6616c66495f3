"""Protocol layer: message vocabulary, profiles, liveness, backoff."""

import copy
import json
import struct
from collections import Counter

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constellation import VirtualClock
from constellation.aip.backoff import BackoffPolicy
from constellation.aip.endpoints import (
    ConstellationEndpoint,
    DeviceClientEndpoint,
    DeviceServerEndpoint,
)
from constellation.aip.messages import (
    AipMessage,
    MessageType,
    decode,
    encode,
    validate,
)
from constellation.aip.profile import (
    HEARTBEAT_INTERVAL,
    MISSED_K,
    AgentStatus,
    ProfileRegistry,
    Watchdog,
    merge_profile,
)
from constellation.agent.executor import ScriptedExecutor
from constellation.agent.reasoner import ScriptedReasoner
from constellation.agent.server import AgentServer
from constellation.errors import SchemaViolation
from constellation.model import FailureReason, TaskStar, TaskStatus
from constellation.simnet.network import LinkSpec, SimNetwork
from conftest import load_schema

import random

MESSAGE_SCHEMA = load_schema("aip_message.schema.json")

VALID_BODIES = {
    MessageType.REGISTER: {"client_id": "linux1", "metadata": {}},
    MessageType.TASK: {"task": {"id": "A"}, "request": "run it"},
    MessageType.COMMAND: {"actions": [], "response_id": "c1"},
    MessageType.COMMAND_RESULTS: {"action_results": [], "prev_response_id": "c1"},
    MessageType.TASK_END: {"status": "COMPLETED", "result": "ok"},
    MessageType.HEARTBEAT: {"timestamp": 12.5},
    MessageType.ERROR: {"error": "boom", "context": {}},
}


class TestMessages:
    @pytest.mark.parametrize("msg_type", list(MessageType))
    def test_round_trip_every_type(self, msg_type):
        msg = AipMessage(msg_type, VALID_BODIES[msg_type], session_id="s1")
        assert decode(encode(msg)) == msg

    @pytest.mark.parametrize("msg_type", list(MessageType))
    def test_wire_payload_conforms_to_schema(self, msg_type):
        msg = AipMessage(msg_type, VALID_BODIES[msg_type], session_id="s1")
        payload = json.loads(encode(msg)[4:].decode("utf-8"))
        jsonschema.validate(payload, MESSAGE_SCHEMA)

    def test_length_prefix_is_big_endian_frame_length(self):
        frame = encode(AipMessage(MessageType.HEARTBEAT, {"timestamp": 1.0}))
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    @pytest.mark.parametrize(
        "msg_type,body",
        [
            (MessageType.REGISTER, {"metadata": {}}),
            (MessageType.TASK_END, {"status": "COMPLETED"}),  # missing result
            (MessageType.TASK_END, {"status": "FAILED"}),  # missing error
            (MessageType.TASK_END, {"status": "MAYBE", "result": "x"}),
            (MessageType.TASK_END, {"status": "FAILED", "error": "x", "failure_reason": "BOGUS"}),
            (MessageType.HEARTBEAT, {"timestamp": "yesterday"}),
            (MessageType.COMMAND, {"actions": []}),
        ],
    )
    def test_schema_violations_rejected(self, msg_type, body):
        with pytest.raises(SchemaViolation):
            validate(AipMessage(msg_type, body))

    @pytest.mark.parametrize("reason", ["BOGUS", None, ["TIMEOUT"]])
    def test_schema_refuses_an_unknown_failure_reason(self, reason):
        payload = {
            "msg_type": "TASK_END",
            "session_id": "s1",
            "body": {"status": "FAILED", "error": "x", "failure_reason": reason},
        }
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, MESSAGE_SCHEMA)

    def test_truncated_frame_rejected(self):
        frame = encode(AipMessage(MessageType.HEARTBEAT, {"timestamp": 1.0}))
        with pytest.raises(SchemaViolation):
            decode(frame[:-3])

    @settings(max_examples=200, deadline=None)
    @given(
        timestamp=st.floats(allow_nan=False, allow_infinity=False),
        session=st.one_of(st.none(), st.text(max_size=20)),
    )
    def test_heartbeat_round_trip_fuzzed(self, timestamp, session):
        msg = AipMessage(MessageType.HEARTBEAT, {"timestamp": timestamp}, session_id=session)
        assert decode(encode(msg)) == msg


# -- reference codec: the earlier json.dumps / Enum-call implementation ----

_REFERENCE_SCHEMAS = {
    MessageType.REGISTER: {"client_id": str, "metadata": dict},
    MessageType.TASK: {"task": dict, "request": str},
    MessageType.COMMAND: {"actions": list, "response_id": str},
    MessageType.COMMAND_RESULTS: {"action_results": list, "prev_response_id": str},
    MessageType.TASK_END: {"status": str},
    MessageType.HEARTBEAT: {"timestamp": (int, float)},
    MessageType.ERROR: {"error": str, "context": dict},
}


def reference_validate(msg):
    schema = _REFERENCE_SCHEMAS.get(msg.msg_type)
    if schema is None:
        raise SchemaViolation("msg_type", f"unknown message type {msg.msg_type!r}")
    for name, expected in schema.items():
        if name not in msg.body:
            raise SchemaViolation(name, f"required by {msg.msg_type.value}")
        if not isinstance(msg.body[name], expected):
            raise SchemaViolation(
                name, f"expected {expected}, got {type(msg.body[name]).__name__}"
            )
        if expected is str and not msg.body[name]:
            raise SchemaViolation(name, "must be non-empty")
    if msg.msg_type is MessageType.TASK_END:
        statuses = ("COMPLETED", "FAILED")
        if msg.body["status"] not in statuses:
            raise SchemaViolation("status", f"must be one of {statuses}")
        if msg.body["status"] == "COMPLETED" and "result" not in msg.body:
            raise SchemaViolation("result", "required for COMPLETED TASK_END")
        if msg.body["status"] == "FAILED" and "error" not in msg.body:
            raise SchemaViolation("error", "required for FAILED TASK_END")
        if "failure_reason" in msg.body:
            try:
                FailureReason(msg.body["failure_reason"])
            except ValueError:
                reasons = tuple(reason.value for reason in FailureReason)
                raise SchemaViolation("failure_reason", f"must be one of {reasons}") from None
    if msg.msg_type is MessageType.REGISTER and not msg.body["client_id"].strip():
        raise SchemaViolation("client_id", "must be non-empty")


def reference_encode(msg):
    reference_validate(msg)
    doc = {"msg_type": msg.msg_type.value, "body": msg.body}
    if msg.session_id is not None:
        doc["session_id"] = msg.session_id
    payload = json.dumps(doc, ensure_ascii=False, sort_keys=True).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def reference_decode(frame):
    if len(frame) < 4:
        raise SchemaViolation("frame", "shorter than the length prefix")
    (length,) = struct.unpack(">I", frame[:4])
    payload = frame[4:]
    if len(payload) != length:
        raise SchemaViolation("frame", f"length prefix {length} != payload {len(payload)}")
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaViolation("frame", f"invalid JSON payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation("frame", "payload must be a JSON object")
    try:
        msg_type = MessageType(doc["msg_type"])
    except (KeyError, ValueError) as exc:
        raise SchemaViolation("msg_type", f"unknown or missing: {exc}") from exc
    body = doc.get("body")
    if not isinstance(body, dict):
        raise SchemaViolation("body", "must be a JSON object")
    if "session_id" in doc and not isinstance(doc["session_id"], str):
        raise SchemaViolation("session_id", f"must be a string, got {doc['session_id']!r}")
    msg = AipMessage(msg_type=msg_type, body=body, session_id=doc.get("session_id"))
    reference_validate(msg)
    return msg


def outcome(codec, arg):
    """What a codec call gives: its value, or the field and reason it refuses."""
    try:
        return ("ok", codec(arg))
    except SchemaViolation as exc:
        return ("refused", exc.field, exc.reason)


def raw_frame(doc):
    payload = json.dumps(doc).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**64), 2**64),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=10,
)
json_objects = st.dictionaries(st.text(max_size=6), json_values, max_size=3)
FIELD_VALUES = {
    str: st.text(min_size=1, max_size=8).filter(str.strip),
    dict: json_objects,
    list: st.lists(json_values, max_size=3),
    (int, float): st.one_of(
        st.integers(-(2**64), 2**64), st.floats(allow_nan=False, allow_infinity=False)
    ),
}


@st.composite
def valid_messages(draw):
    msg_type = draw(st.sampled_from(list(MessageType)))
    body = draw(json_objects)  # extra fields ride along untouched
    for name, expected in _REFERENCE_SCHEMAS[msg_type].items():
        body[name] = draw(FIELD_VALUES[expected])
    if msg_type is MessageType.TASK_END:
        body["status"] = draw(st.sampled_from(["COMPLETED", "FAILED"]))
        body["result" if body["status"] == "COMPLETED" else "error"] = draw(json_values)
        if draw(st.booleans()):
            body["failure_reason"] = draw(st.sampled_from([r.value for r in FailureReason]))
    session_id = draw(st.one_of(st.none(), st.text(max_size=8)))
    return AipMessage(msg_type, body, session_id=session_id)


MALFORMED_DOCS = {
    "unknown type": {"msg_type": "NOPE", "body": {}},
    "type by name case": {"msg_type": "heartbeat", "body": {"timestamp": 1.0}},
    "missing type": {"body": {"timestamp": 1.0}},
    "int type": {"msg_type": 5, "body": {}},
    "null type": {"msg_type": None, "body": {}},
    "true type": {"msg_type": True, "body": {}},
    "list type": {"msg_type": ["HEARTBEAT"], "body": {}},
    "object type": {"msg_type": {"HEARTBEAT": 1}, "body": {}},
    "list body": {"msg_type": "HEARTBEAT", "body": [1.0]},
    "missing body": {"msg_type": "HEARTBEAT"},
    "missing field": {"msg_type": "COMMAND", "body": {"actions": []}},
    "wrong field type": {"msg_type": "HEARTBEAT", "body": {"timestamp": "now"}},
    "blank client": {"msg_type": "REGISTER", "body": {"client_id": " ", "metadata": {}}},
    "bad status": {"msg_type": "TASK_END", "body": {"status": "MAYBE"}},
    "bad failure reason": {
        "msg_type": "TASK_END",
        "body": {"status": "FAILED", "error": "x", "failure_reason": "BOGUS"},
    },
    "null failure reason": {
        "msg_type": "TASK_END",
        "body": {"status": "COMPLETED", "result": "x", "failure_reason": None},
    },
    "list session": {"msg_type": "HEARTBEAT", "session_id": [1], "body": {"timestamp": 1.0}},
    "object session": {"msg_type": "TASK", "session_id": {"a": 1}, "body": {}},
    "int session": {"msg_type": "HEARTBEAT", "session_id": 7, "body": {"timestamp": 1.0}},
    "null session": {"msg_type": "HEARTBEAT", "session_id": None, "body": {"timestamp": 1.0}},
}


class TestCodecOracle:
    """``encode``/``decode`` agree byte for byte, and refusal for refusal,
    with the reference codec above."""

    @settings(max_examples=200, deadline=None)
    @given(msg=valid_messages())
    def test_valid_messages_match_the_reference(self, msg):
        frame = encode(msg)
        assert frame == reference_encode(msg)
        assert decode(frame) == msg == reference_decode(frame)

    @settings(max_examples=50, deadline=None)
    @given(msg=valid_messages())
    def test_encoder_without_the_c_accelerator_matches_the_reference(self, msg):
        from constellation.aip import messages

        c_encode, messages._C_ENCODE = messages._C_ENCODE, None
        try:
            assert encode(msg) == reference_encode(msg)
        finally:
            messages._C_ENCODE = c_encode

    @pytest.mark.parametrize("doc", list(MALFORMED_DOCS.values()), ids=list(MALFORMED_DOCS))
    def test_malformed_frames_refused_like_the_reference(self, doc):
        frame = raw_frame(doc)
        refusal = outcome(reference_decode, frame)
        assert refusal[0] == "refused"
        assert outcome(decode, frame) == refusal

    @pytest.mark.parametrize(
        "frame",
        [
            b"",
            b"\x00\x00",
            b"\x00\x00\x00\x09{}",
            b"\x00\x00\x00\x02\xff\xfe",
            raw_frame([1, 2]),
            raw_frame("HEARTBEAT"),
            b"\x00\x00\x00\x03{x}",
            b"\x00\x00\x00\x05\xef\xbb\xbf{}",
            b"\x00\x00\x00\x05\xef\xbb\xbf{\xff",
        ],
    )
    def test_broken_frames_refused_like_the_reference(self, frame):
        refusal = outcome(reference_decode, frame)
        assert refusal[0] == "refused"
        assert outcome(decode, frame) == refusal

    @settings(max_examples=200, deadline=None)
    @given(
        msg_type=st.one_of(st.sampled_from([m.value for m in MessageType]), json_values),
        body=st.one_of(json_objects, json_values),
        session_id=st.one_of(st.none(), json_values),
    )
    def test_fuzzed_frames_decode_like_the_reference(self, msg_type, body, session_id):
        doc = {"msg_type": msg_type, "body": body, "session_id": session_id}
        frame = raw_frame(doc)
        assert outcome(decode, frame) == outcome(reference_decode, frame)

    @pytest.mark.parametrize("msg_type", ["TASK", "HEARTBEAT", "NOPE"])
    def test_validate_refuses_a_plain_string_type(self, msg_type):
        msg = AipMessage(msg_type, {"timestamp": 1.0})
        refusal = ("refused", "msg_type", f"unknown message type {msg_type!r}")
        assert outcome(validate, msg) == refusal == outcome(reference_validate, msg)


class TestProfileMerge:
    def test_later_stages_win_with_source_stamps(self):
        profile = merge_profile(
            "gpu1",
            service_manifest={
                "capabilities": ["cli", "file_system"],
                "os": "Ubuntu 20.04",
                "paths": {"home": "/home/u"},
            },
            client_telemetry={
                "os": "Ubuntu 22.04",
                "performance": {"cpu_cores": 96, "memory_gb": 866.1, "gpus": ["A100"] * 4},
            },
        )
        assert profile.os == "Ubuntu 22.04"
        assert profile.sources["os"] == "client-telemetry"
        assert profile.paths == {"home": "/home/u"}
        assert profile.sources["paths"] == "service-manifest"
        assert profile.sources["capabilities"] == "service-manifest"
        assert profile.sources["performance"] == "client-telemetry"
        assert profile.performance["cpu_cores"] == 96
        assert profile.performance["memory_gb"] == 866.1
        assert len(profile.performance["gpus"]) == 4

    def test_available_excludes_disconnected(self):
        registry = ProfileRegistry()
        for agent in ("a", "b"):
            registry.register(merge_profile(agent))
        registry.mark_disconnected("a")
        assert registry.available() == ["b"]


class TestBackoff:
    def test_nominal_schedule(self):
        policy = BackoffPolicy(jitter=0.0)
        assert [policy.nominal_delay(n) for n in range(5)] == [1, 2, 4, 8, 16]
        # Cumulative wait from disconnect detection to the final attempt.
        assert sum(policy.nominal_delay(n) for n in range(5)) == policy.base * (2**5 - 1)

    def test_cap_applies(self):
        policy = BackoffPolicy(max_attempts=8, jitter=0.0)
        assert policy.nominal_delay(7) == 30.0

    def test_jitter_stays_within_band(self):
        policy = BackoffPolicy(jitter=0.1)
        rng = random.Random(3)
        for n in range(5):
            nominal = policy.nominal_delay(n)
            for _ in range(50):
                assert abs(policy.delay(n, rng) - nominal) <= 0.1 * nominal + 1e-12


def build_pair(outages, seed=0, exec_duration=1.0):
    """One orchestrator endpoint plus one device server/client pair."""
    clock = VirtualClock()
    network = SimNetwork(clock, seed=seed)
    registry = ProfileRegistry()
    orchestrator = ConstellationEndpoint(clock, network, "request", registry=registry)
    executor = ScriptedExecutor.load(
        {"table": [{"pattern": "*", "stdout": "ok", "duration": exec_duration}]}
    )
    reasoner = ScriptedReasoner.load(
        {
            "entries": [
                {
                    "when": {"step": 0},
                    "commands": [{"function": "EXEC_CLI", "args": {"command_line": "job"}}],
                    "next_state": "CONTINUE",
                },
                {"when": {"step": 1}, "next_state": "FINISH", "result": "$last_stdout"},
            ]
        }
    )
    DeviceClientEndpoint(clock, network, "dev-client", executor)
    server = DeviceServerEndpoint(
        clock,
        network,
        "dev",
        agent_id="dev",
        agent_server=AgentServer(clock, reasoner),
        orchestrator_address="orchestrator",
        client_address="dev-client",
        backoff=BackoffPolicy(jitter=0.0),
        seed=seed,
    )
    network.add_link("orchestrator", "dev", LinkSpec(latency=0.001, outages=outages))
    network.add_link("dev", "dev-client", LinkSpec(latency=0.001))
    server.start()
    return clock, network, registry, orchestrator, server


def advance(clock, until):
    clock.run(until=lambda: False, deadline=until)


class TestLiveness:
    def test_watchdog_reports_silence_once_after_the_last_feed(self):
        """Started at 10 and fed at 20, the watchdog is silent at 20 + 15:
        its timer, armed at 25, re-checks the last feed and is re-armed at
        35, where silence is reported once and nothing is armed again."""
        clock = VirtualClock(now=10.0)
        silences = []
        watchdog = Watchdog(clock, lambda: silences.append(clock.now))
        watchdog.start()
        advance(clock, 20.0)
        watchdog.feed()
        assert watchdog.last_seen == 20.0
        clock.run()
        assert silences == [20.0 + HEARTBEAT_INTERVAL * MISSED_K]
        assert not clock.step()

    def test_watchdog_restart_replaces_the_armed_timer(self):
        """An agent that registers again while still counted alive restarts
        its watchdog: silence is reported once, 15 s after the restart."""
        clock = VirtualClock()
        silences = []
        watchdog = Watchdog(clock, lambda: silences.append(clock.now))
        watchdog.start()
        advance(clock, 4.0)
        watchdog.start()
        clock.run()
        assert silences == [4.0 + HEARTBEAT_INTERVAL * MISSED_K]

    def test_heartbeats_keep_agent_idle(self):
        clock, _, registry, _, server = build_pair(outages=[])
        advance(clock, 60.0)
        assert registry.profiles["dev"].status is AgentStatus.IDLE
        assert server.connected

    def test_deadline_timers_are_re_armed_on_expiry_not_per_beat(self):
        """Over 60 s of beats every 5 s, each side schedules its liveness
        deadline at most once per 15 s (its first arm included), where one
        per beat would be 13: a beat only moves the time the armed timer
        re-checks when it expires."""
        clock, _, registry, _, server = build_pair(outages=[])
        armed = Counter()
        schedule = clock.call_at

        def call_at(when, callback):
            if getattr(callback, "__qualname__", "") == "Watchdog._expire":
                armed["device" if callback.__self__ is server._watchdog else "orchestrator"] += 1
            return schedule(when, callback)

        clock.call_at = call_at
        advance(clock, 60.0)
        assert registry.profiles["dev"].status is AgentStatus.IDLE and server.connected
        bound = 1 + 60.0 / (HEARTBEAT_INTERVAL * MISSED_K)
        assert set(armed) == {"orchestrator", "device"}
        assert all(count <= bound for count in armed.values()), armed

    def test_both_sides_detect_after_three_missed_beats(self):
        clock, _, registry, _, server = build_pair(outages=[(5.0, 100000.0)])
        advance(clock, 14.9)
        assert registry.profiles["dev"].status is AgentStatus.IDLE
        assert server.connected
        advance(clock, 15.1)
        assert registry.profiles["dev"].status is AgentStatus.DISCONNECTED
        assert not server.connected
        assert registry.available() == []

    def test_reconnect_schedule_is_cumulative_and_exhausts(self):
        clock, network, _, _, server = build_pair(outages=[(5.0, 100000.0)])
        advance(clock, 100.0)
        register_times = [
            round(f["at"], 3)
            for f in network.wire_log
            if f["src"] == "dev" and f["summary"] == "REGISTER"
        ]
        # Initial registration, then detection (~15) + 1, 3, 7, 15, 31.
        assert register_times[0] == 0.0
        deltas = [round(t - 15.001, 1) for t in register_times[1:]]
        assert deltas == [1.0, 3.0, 7.0, 15.0, 31.0]
        assert server.permanently_failed

    def test_beat_after_the_orchestrator_gave_up_is_refused_so_the_device_registers(self):
        """An outage ending just as the orchestrator's deadline expires lets
        the device's next beat through before its own deadline does: the
        beat is refused, not acked, so the device times out and registers
        again, and the agent rejoins the pool."""
        clock, network, registry, _, server = build_pair(outages=[(5.0, 15.0)])
        advance(clock, 200.0)
        registers = [f for f in network.wire_log if f["summary"] == "REGISTER"]
        assert registry.available() == ["dev"] and server.connected
        assert len(registers) == 2

    def test_outage_recovery_rejoins_pool_via_reregister(self):
        clock, _, registry, _, server = build_pair(outages=[(5.0, 40.0)])
        advance(clock, 45.0)
        # 15 detection + 31 cumulative backoff lands the winning attempt ~46.
        assert registry.profiles["dev"].status is AgentStatus.DISCONNECTED
        advance(clock, 50.0)
        assert registry.profiles["dev"].status is AgentStatus.IDLE
        assert server.connected
        assert not server.permanently_failed

    def test_running_task_synthesizes_failed_task_end_on_both_sides(self):
        clock, _, registry, orchestrator, server = build_pair(
            outages=[(5.0, 100000.0)], exec_duration=30.0
        )
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(
            TaskStar("T", "dev", description="long job"), lambda *args: outcomes.append(args)
        )
        advance(clock, 30.0)
        assert outcomes == [
            ("T", TaskStatus.FAILED, "agent dev disconnected", FailureReason.AGENT_DISCONNECTED)
        ]
        assert server.active_runs == {}
        # Each side logged a synthetic TASK_END for the orphaned session.
        for endpoint in (orchestrator, server):
            synthetic = [
                entry
                for session in endpoint.sessions.values()
                for entry in session.log
                if entry.get("synthetic") and entry["msg_type"] == "TASK_END"
            ]
            assert len(synthetic) == 1

    def test_duplicate_task_delivery_not_re_executed(self):
        clock, network, _, orchestrator, server = build_pair(outages=[])
        advance(clock, 1.0)
        orchestrator.dispatch(TaskStar("T", "dev", description="job"), lambda *a: None)
        advance(clock, 1.1)
        assert len(server.active_runs) == 1
        msg = AipMessage(
            MessageType.TASK,
            {"task": {"id": "T", "description": "job"}, "request": "request"},
            session_id=next(iter(server.active_runs)),
        )
        commands_before = sum(
            1 for f in network.wire_log if f["summary"] == "COMMAND"
        )
        server.handle("orchestrator", msg)  # duplicate delivery
        advance(clock, 1.2)
        commands_after = sum(1 for f in network.wire_log if f["summary"] == "COMMAND")
        assert commands_after == commands_before
        assert len(server.active_runs) == 1

    def test_run_ended_inside_serve_task_is_not_kept_active(self):
        """An empty description fails the task before serve_task returns: its
        TASK_END is sent and no ended run is left in active_runs."""
        clock, _, _, _, server = build_pair(outages=[])
        advance(clock, 1.0)
        task = {"task": {"id": "T", "description": ""}, "request": "request"}
        server.handle("orchestrator", AipMessage(MessageType.TASK, task, session_id="s1"))
        assert server.active_runs == {}
        assert [e["msg_type"] for e in server.sessions["s1"].log] == ["TASK_END"]

    def test_duplicate_task_end_fires_the_callback_once(self):
        clock, network, _, orchestrator, _ = build_pair(outages=[])
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(
            TaskStar("T", "dev", description="job"),
            lambda task_id, status, text, reason: outcomes.append((task_id, status)),
        )
        advance(clock, 10.0)
        (session_id,) = orchestrator.sessions
        (body,) = [
            entry["body"]
            for entry in orchestrator.sessions[session_id].log
            if entry["msg_type"] == "TASK_END"
        ]
        duplicate = AipMessage(MessageType.TASK_END, body, session_id=session_id)
        network.send("dev", "orchestrator", encode(duplicate))  # delivered a second time
        advance(clock, 11.0)
        received = [e for e in orchestrator.sessions[session_id].log if e["msg_type"] == "TASK_END"]
        assert len(received) == 2
        assert outcomes == [("T", TaskStatus.COMPLETED)]

    def test_task_completes_end_to_end(self):
        clock, _, _, orchestrator, _ = build_pair(outages=[])
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(TaskStar("T", "dev", description="job"), lambda *args: outcomes.append(args))
        advance(clock, 10.0)
        assert outcomes == [("T", TaskStatus.COMPLETED, "ok", None)]


class TestFramesFromOutside:
    """A frame the orchestrator endpoint cannot act on is answered with an
    ERROR frame; no watchdog is armed or fed and the registry is left as it
    was."""

    def send_from_rogue(self, msg):
        clock, network, registry, orchestrator, _ = build_pair(outages=[])
        advance(clock, 1.0)
        received = []
        network.attach("rogue", lambda src, frame: received.append(decode(frame)))
        network.add_link("rogue", "orchestrator", LinkSpec(latency=0.001))
        profiles = copy.deepcopy(registry.profiles)

        def watchdogs():
            return {a: (w.last_seen, w._timer) for a, w in orchestrator._watchdogs.items()}

        before = watchdogs()
        network.send("rogue", "orchestrator", encode(msg))
        advance(clock, 2.0)
        assert [m.msg_type for m in received] == [MessageType.ERROR]
        assert watchdogs() == before
        assert registry.profiles == profiles
        return received[0].body["error"]

    @pytest.mark.parametrize("agent_id", ["ghost", ["ghost"]])
    def test_heartbeat_of_unregistered_agent(self, agent_id):
        error = self.send_from_rogue(
            AipMessage(MessageType.HEARTBEAT, {"timestamp": 1.0, "agent_id": agent_id})
        )
        assert error.startswith("NotFound") and "ghost" in error

    @pytest.mark.parametrize(
        "metadata",
        [
            {"service_manifest": "hosts"},
            {"client_telemetry": {"capabilities": 5}},
            {"service_manifest": {"paths": ["ab"]}},
        ],
    )
    def test_register_with_malformed_profile_layer(self, metadata):
        error = self.send_from_rogue(
            AipMessage(MessageType.REGISTER, {"client_id": "ghost", "metadata": metadata})
        )
        assert error.startswith("SchemaViolation")


class TestFramesTheCodecRefuses:
    """A frame that fails to decode is answered with an ERROR frame, at
    every role, and the run goes on."""

    def refused_by(self, target, frame):
        """The ERROR bodies ``target`` answers ``frame`` with; the device
        stays registered and connected."""
        clock, network, registry, _, server = build_pair(outages=[])
        advance(clock, 1.0)
        received = []
        network.attach("rogue", lambda src, reply: received.append(decode(reply)))
        network.add_link("rogue", target, LinkSpec(latency=0.001))
        network.send("rogue", target, frame)
        advance(clock, 60.0)
        assert registry.available() == ["dev"] and server.connected
        assert {m.msg_type for m in received} == {MessageType.ERROR}
        return [m.body["error"] for m in received]

    @pytest.mark.parametrize("target", ["orchestrator", "dev", "dev-client"])
    def test_undecodable_frame_is_answered_with_an_error(self, target):
        error = "SchemaViolation: msg_type: unknown or missing: 'msg_type'"
        assert self.refused_by(target, b"\x00\x00\x00\x02{}") == [error]

    @pytest.mark.parametrize("target", ["orchestrator", "dev", "dev-client"])
    def test_device_info_request_is_not_a_message_type(self, target):
        body = {"target_id": "dev", "request_id": "r1"}
        frame = raw_frame({"msg_type": "DEVICE_INFO_REQUEST", "session_id": "s1", "body": body})
        error = (
            "SchemaViolation: msg_type: unknown or missing: "
            "'DEVICE_INFO_REQUEST' is not a valid MessageType"
        )
        assert self.refused_by(target, frame) == [error]

    @pytest.mark.parametrize("target", ["orchestrator", "dev", "dev-client"])
    @pytest.mark.parametrize("session_id", [[1], {"a": 1}, 7], ids=["list", "object", "int"])
    def test_session_id_that_is_not_a_string_is_answered_with_an_error(self, target, session_id):
        frame = raw_frame(
            {"msg_type": "HEARTBEAT", "session_id": session_id, "body": {"timestamp": 1.0}}
        )
        error = f"SchemaViolation: session_id: must be a string, got {session_id!r}"
        assert self.refused_by(target, frame) == [error]

    def test_task_end_with_unknown_failure_reason_leaves_the_session_outstanding(self):
        clock, network, _, orchestrator, _ = build_pair(outages=[], exec_duration=5.0)
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(
            TaskStar("T", "dev", description="job"), lambda *args: outcomes.append(args)
        )
        (session_id,) = orchestrator.sessions
        body = {"status": "FAILED", "error": "boom", "failure_reason": "BOGUS"}
        frame = raw_frame({"msg_type": "TASK_END", "session_id": session_id, "body": body})
        network.send("dev", "orchestrator", frame)
        advance(clock, 2.0)
        assert outcomes == [] and session_id in orchestrator._outstanding
        refusals = [(f["src"], f["dst"]) for f in network.wire_log if f["summary"] == "ERROR"]
        assert refusals == [("orchestrator", "dev")]
        advance(clock, 10.0)
        assert outcomes == [("T", TaskStatus.COMPLETED, "ok", None)]


class TestFramesTheEndpointsSend:
    """``encode`` checks nothing, as ``decode`` is the one check of a frame.
    The sender-side check it made moves here: every frame the endpoints send
    in scenarios 1-3 and in the fingerprint's outage sweep passes
    ``validate`` and the packaged schema."""

    def frames_sent(self, monkeypatch, runs):
        from constellation.aip import endpoints

        sent = []

        def recording_encode(msg):
            frame = encode(msg)
            sent.append((msg, frame))
            return frame

        monkeypatch.setattr(endpoints, "encode", recording_encode)
        for _ in runs():
            pass
        return sent

    def check(self, sent):
        """Validates every message and puts each distinct frame through the
        schema once; counts the frames by type."""
        for msg, _ in sent:
            validate(msg)
        schema = jsonschema.Draft202012Validator(MESSAGE_SCHEMA)
        for frame in {frame for _, frame in sent}:
            schema.validate(json.loads(frame[4:].decode("utf-8")))
        return Counter(msg.msg_type for msg, _ in sent)

    def test_validate_runs_once_per_delivered_frame_at_decode(self, monkeypatch):
        from constellation.aip import endpoints, messages
        from constellation.simnet.scenarios import run_scenario

        calls = Counter()

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(messages, "validate", counting("validate", messages.validate))
        monkeypatch.setattr(endpoints, "decode", counting("decode", decode))
        monkeypatch.setattr(endpoints, "encode", counting("encode", encode))
        run_scenario(1, 0)
        assert calls["validate"] == calls["decode"] > 0 and calls["encode"] > calls["decode"]

    def test_scenario_frames(self, monkeypatch):
        from constellation.simnet.scenarios import run_scenario

        sent = self.frames_sent(monkeypatch, lambda: [run_scenario(s, 0) for s in (1, 2, 3)])
        kinds = self.check(sent)
        assert len(sent) == 323 and kinds[MessageType.HEARTBEAT] == 243
        assert kinds[MessageType.REGISTER] == 37

    def test_outage_sweep_frames(self, monkeypatch):
        from test_fingerprints import outage_sweep

        sent = self.frames_sent(monkeypatch, outage_sweep)
        kinds = self.check(sent)
        assert set(kinds) == set(MessageType)
