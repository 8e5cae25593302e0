"""Byte-level goldens for the prover wire protocol: the trace
``RecordingProver.dump`` writes, the lines ``ProverServer`` answers with, the
lines ``WireProver`` sends, and the replay of the literal trace.  Old traces
must keep replaying, so these literals never change with a refactor.  The
server's accepted-``init`` reply was edited twice: it gained a
``capabilities`` list, and lost it again when every server took runs of
steps.  The trace's refused ``init`` gained ``"error_kind": "theory"``, as
the server writes it; a trace recorded without it still replays."""

import json
import socket

import pytest

from proofseek.errors import SessionClosed, TheoryLoadError
from proofseek.isar import parse_script
from proofseek.prover import (
    COMMANDS,
    HAMMER_STEP,
    MockOutcome,
    MockProver,
    ProverConfig,
    ProverServer,
    RecordingProver,
    ReplayProver,
    WireProver,
    check_script,
)

from fixtures import LineServer

GOLDEN_TRACE = (
    b'{"request": {"command": "init", "session_id": null, "step": "theory Bad", "timeout_s": 120.0}, '
    b'"response": {"status": "error", "state_id": null, "message": "bad header", "is_done": false, "error_kind": "theory"}}\n'
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
               "by slow": MockOutcome("ok", delay_s=30.0),
               "by (metis foo)": MockOutcome("ok", is_done=False)},
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
    # a refusal recorded before it carried its error_kind replays as one too
    literal.write_bytes(GOLDEN_TRACE.replace(b', "error_kind": "theory"', b""))
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


# ---------------------------------------------------------------------------
# runs of steps

# (request line sent, response line the server writes back): a run of
# steps in one request, stopped at the first refusal
GOLDEN_RUN_EXCHANGE = [
    GOLDEN_SERVER_EXCHANGE[1],
    (b'{"command": "apply_steps", "session_id": "s-1", "steps": '
     b'["have a: \\"x\\" by simp", "by blast", "qed"], "timeout_s": 10.0}\n',
     b'{"status": "ok", "results": ['
     b'{"status": "ok", "state_id": "s-1/1", "message": "", "is_done": false}, '
     b'{"status": "error", "state_id": null, "message": "step failed", "is_done": false}'
     b']}\n'),
]

_RUN = ['have a: "x" by simp', "by blast", "qed"]


def test_server_answers_a_run_in_golden_lines():
    server = ProverServer(_mock()).start()
    host, port = server.address.rsplit(":", 1)
    conn = socket.create_connection((host, int(port)), timeout=5.0)
    reader = conn.makefile("rb")
    try:
        for request, response in GOLDEN_RUN_EXCHANGE:
            conn.sendall(request)
            assert reader.readline() == response
    finally:
        reader.close()
        conn.close()
        server.stop()


def test_wire_client_sends_a_run_in_golden_lines():
    responses = dict(GOLDEN_RUN_EXCHANGE)
    server = LineServer(lambda _index, line: responses[line])
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        session = client.init_session("theory T")
        results = client.apply_steps(session, _RUN, 10.0)
        assert [(r.status, r.new_state_id) for r in results] == [
            ("ok", "s-1/1"), ("error", None)]
    finally:
        client.shutdown()
        server.stop()
    assert server.lines == [request for request, _ in GOLDEN_RUN_EXCHANGE]


def test_a_recorded_run_is_the_golden_apply_entries_and_replays(tmp_path):
    # However its steps travelled, a run is recorded as the apply entries
    # one request per step gives, and replays through them.
    recorder = RecordingProver(_mock())
    session = recorder.init_session("theory T")
    assert len(recorder.apply_steps(session, _RUN, 10.0)) == 2
    path = tmp_path / "trace.jsonl"
    recorder.dump(path)
    assert path.read_bytes() == b"".join(GOLDEN_TRACE.splitlines(True)[1:4])
    replay = ReplayProver(path)
    session = replay.init_session("theory T")
    assert [r.status for r in replay.apply_steps(session, _RUN, 10.0)] == [
        "ok", "error"]


_CHECKED = 'theorem t:\n  shows "P"\n  oops'


def _answer(_index, line):
    """Canned replies: every step accepted, the proof done at ``qed``."""
    request = json.loads(line)
    reply = {"status": "ok", "state_id": None, "message": "", "is_done": False}
    if request["command"] == "init":
        reply["state_id"] = "s-1/0"
    elif request["command"] == "apply_steps":
        reply = {"status": "ok", "results": [
            {"status": "ok", "state_id": f"s-1/{i}", "message": "",
             "is_done": text == "qed"}
            for i, text in enumerate(request["steps"], 1)]}
    return (json.dumps(reply) + "\n").encode("utf-8")


def test_checking_a_long_script_takes_three_requests():
    server = LineServer(_answer)
    client = WireProver(ProverConfig(endpoint=server.address))
    steps = ["proof -", *(f'have "g{i}" by simp' for i in range(38)), "qed"]
    try:
        assert check_script(client, _CHECKED,
                            parse_script("\n".join(steps))).success
    finally:
        client.shutdown()
        server.stop()
    assert [json.loads(line)["command"] for line in server.lines] == [
        "init", "apply_steps", "close"]
    assert json.loads(server.lines[1])["steps"] == steps


def test_every_command_has_golden_request_and_reply_bytes():
    # Each row of COMMANDS is pinned here by a request line, carrying its
    # payload field, and the reply line the server writes back: a new
    # command lands with its bytes.
    pinned = {}
    for request, _reply in GOLDEN_SERVER_EXCHANGE + GOLDEN_RUN_EXCHANGE:
        fields = json.loads(request)
        pinned.setdefault(fields["command"], fields)
    assert set(COMMANDS) <= set(pinned)
    for name, command in COMMANDS.items():
        assert command.payload in pinned[name]
