"""Byte-level goldens for the prover wire protocol: the trace
``RecordingProver.dump`` writes, the lines ``ProverServer`` answers with, the
lines ``WireProver`` sends, and the replay of the literal trace.  Old traces
must keep replaying, so these literals never change with a refactor."""

import json
import socket

import pytest

from proofseek.errors import SessionClosed, TheoryLoadError
from proofseek.prover import (
    HAMMER_STEP,
    MockOutcome,
    MockProver,
    ProverConfig,
    ProverServer,
    RecordingProver,
    ReplayProver,
    WireProver,
)

from fixtures import LineServer

GOLDEN_TRACE = (
    b'{"request": {"command": "init", "session_id": null, "step": "theory Bad", "timeout_s": 120.0}, '
    b'"response": {"status": "error", "state_id": null, "message": "bad header", "is_done": false}}\n'
    b'{"request": {"command": "init", "session_id": null, "step": "theory T", "timeout_s": 120.0}, '
    b'"response": {"status": "ok", "state_id": "s-1/0", "message": "", "is_done": false}}\n'
    b'{"request": {"command": "apply", "session_id": "s-1", "step": "have a: \\"x\\" by simp", "timeout_s": 10.0}, '
    b'"response": {"status": "ok", "state_id": "s-1/1", "message": "", "is_done": false}}\n'
    b'{"request": {"command": "apply", "session_id": "s-1", "step": "by blast", "timeout_s": 10.0}, '
    b'"response": {"status": "error", "state_id": null, "message": "step failed", "is_done": false}}\n'
    b'{"request": {"command": "apply", "session_id": "s-1", "step": "by slow", "timeout_s": 10.0}, '
    b'"response": {"status": "timeout", "state_id": null, "message": "step exceeded 10.0s", "is_done": false}}\n'
    b'{"request": {"command": "apply", "session_id": "s-1", "step": "\\u27e8hammer\\u27e9", "timeout_s": 40.0}, '
    b'"response": {"status": "ok", "state_id": "s-1/2", "message": "by (metis foo)", "is_done": false}}\n'
    b'{"request": {"command": "close", "session_id": "s-1", "step": "", "timeout_s": null}, '
    b'"response": {"status": "ok", "state_id": null, "message": "", "is_done": false}}\n'
)

# (request line sent, response line the server writes back)
GOLDEN_SERVER_EXCHANGE = [
    (b'{"command": "init", "session_id": null, "step": "theory Bad", "timeout_s": 120.0}\n',
     b'{"status": "error", "state_id": null, "message": "bad header", "is_done": false, "error_kind": "theory"}\n'),
    (b'{"command": "init", "session_id": null, "step": "theory T", "timeout_s": 120.0}\n',
     b'{"status": "ok", "state_id": "s-1/0", "message": "", "is_done": false}\n'),
    (b'{"command": "apply", "session_id": "s-1", "step": "have a: \\"x\\" by simp", "timeout_s": 10.0}\n',
     b'{"status": "ok", "state_id": "s-1/1", "message": "", "is_done": false}\n'),
    (b'{"command": "apply", "session_id": "s-1", "step": "\\u27e8hammer\\u27e9", "timeout_s": 40.0}\n',
     b'{"status": "ok", "state_id": "s-1/2", "message": "by (metis foo)", "is_done": false}\n'),
    (b'{"command": "frobnicate", "session_id": "s-1", "step": "", "timeout_s": null}\n',
     b'{"status": "error", "state_id": null, "message": "unknown command \'frobnicate\'", "is_done": false, "error_kind": "protocol"}\n'),
    (b'{"command": "close", "session_id": "s-1", "step": "", "timeout_s": null}\n',
     b'{"status": "ok", "state_id": null, "message": "", "is_done": false}\n'),
    (b'{"command": "apply", "session_id": "s-1", "step": "by simp", "timeout_s": 10.0}\n',
     b'{"status": "error", "state_id": null, "message": "session s-1 is not open", "is_done": false, "error_kind": "session"}\n'),
]


def _mock() -> MockProver:
    return MockProver(
        table={'have a: "x"': "ok", 'have a: "x" by simp': "ok",
               "by slow": MockOutcome("ok", delay_s=30.0)},
        hammer="by (metis foo)",
        reject_theory=lambda text: "bad header" if "Bad" in text else None)


def _drive(prover) -> list:
    """One run over every response kind; returns what each call gave."""
    seen = []
    with pytest.raises(TheoryLoadError, match="bad header"):
        prover.init_session("theory Bad")
    session = prover.init_session("theory T")
    seen.append(session)
    for step, timeout_s in [('have a: "x" by simp', 10.0), ("by blast", 10.0),
                            ("by slow", 10.0), (HAMMER_STEP, 40.0)]:
        result = prover.apply(session, step, timeout_s)
        seen.append((result.status, result.new_state_id, result.message,
                     result.is_done))
    prover.close(session)
    return seen


EXPECTED_RESULTS = [
    "s-1",
    ("ok", "s-1/1", "", False),
    ("error", None, "step failed", False),
    ("timeout", None, "step exceeded 10.0s", False),
    ("ok", "s-1/2", "by (metis foo)", False),
]


def test_recording_dump_is_byte_golden_and_replays(tmp_path):
    recorder = RecordingProver(_mock())
    assert _drive(recorder) == EXPECTED_RESULTS
    path = tmp_path / "trace.jsonl"
    recorder.dump(path)
    assert path.read_bytes() == GOLDEN_TRACE

    literal = tmp_path / "literal.jsonl"
    literal.write_bytes(GOLDEN_TRACE)
    assert _drive(ReplayProver(literal)) == EXPECTED_RESULTS


def test_server_writes_golden_lines():
    server = ProverServer(_mock()).start()
    host, port = server.address.rsplit(":", 1)
    conn = socket.create_connection((host, int(port)), timeout=5.0)
    reader = conn.makefile("rb")
    try:
        for request, response in GOLDEN_SERVER_EXCHANGE:
            conn.sendall(request)
            assert reader.readline() == response
    finally:
        reader.close()
        conn.close()
        server.stop()


def test_wire_client_sends_golden_lines():
    responses = dict(GOLDEN_SERVER_EXCHANGE)
    server = LineServer(lambda _index, line: responses[line])
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        with pytest.raises(TheoryLoadError, match="bad header"):
            client.init_session("theory Bad")
        session = client.init_session("theory T")
        assert client.apply(session, 'have a: "x" by simp').new_state_id == "s-1/1"
        hammer = client.apply(session, HAMMER_STEP, 40.0)
        assert (hammer.ok, hammer.message) == (True, "by (metis foo)")
        client.close(session)
        with pytest.raises(SessionClosed):
            client.apply(session, "by simp")
    finally:
        client.shutdown()
        server.stop()
    sent = [request for request, _ in GOLDEN_SERVER_EXCHANGE
            if json.loads(request)["command"] != "frobnicate"]
    assert server.lines == sent
