"""Properties of the prover wire protocol over every shape of line: a reply
of any shape is read as typed results or as a fault, by the wire client and
by replay alike, and the reference server answers any request line with a
well-shaped reply and keeps the connection open."""

import json
import socket

from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofseek.errors import TheoryLoadError, TransportError
from proofseek.prover import (
    MockProver,
    ProverConfig,
    ProverServer,
    ReplayProver,
    StepResult,
    WireProver,
)

from fixtures import MISSING, LineServer, json_field, json_objects, json_values

STATUSES = ("ok", "error", "timeout")
ERROR_KINDS = ("theory", "session", "protocol", "internal")
FAULTS = (TransportError, TheoryLoadError)
DEEP = b"[" * 100_000  # nested past any decoder's recursion limit

_STEP_FIELDS = dict(
    status=json_field(*STATUSES), state_id=json_field("s-1/1", None),
    message=json_field("", "no"), is_done=json_field(True, False),
    error_kind=json_field(*ERROR_KINDS))
step_replies = json_objects(**_STEP_FIELDS)
# a capabilities field, of any value, is ignored
init_replies = json_objects(**_STEP_FIELDS,
                            capabilities=json_field(["apply_steps"], []))
run_replies = json_objects(
    status=json_field("ok"), error_kind=json_field(*ERROR_KINDS),
    results=st.one_of(st.just(MISSING), json_values,
                      st.lists(step_replies, min_size=1, max_size=3)))


def _outcome(call):
    """What ``call`` returned, or the fault it raised; any other exception
    escapes and fails the property."""
    try:
        return call()
    except FAULTS as exc:
        return exc


def _check_verdict(result, reply) -> None:
    """``result`` is a StepResult whose every field came typed from
    ``reply``; ``is_done`` is True only for a literal ``true``."""
    assert isinstance(result, StepResult)
    assert result.status in STATUSES and result.status == reply["status"]
    assert result.new_state_id == reply.get("state_id")
    assert isinstance(result.message, str)
    assert result.message == reply.get("message", "")
    assert type(result.is_done) is bool
    assert result.is_done == (reply.get("is_done") is True)


def _check_init(outcome, reply) -> None:
    if not isinstance(outcome, Exception):
        assert isinstance(outcome, str)
        assert reply["status"] == "ok"
        assert outcome == reply["state_id"].split("/")[0]


def _check_apply(outcome, reply) -> None:
    if not isinstance(outcome, Exception):
        _check_verdict(outcome, reply)


def _check_run(outcome, reply, sent: int) -> None:
    if not isinstance(outcome, Exception):
        assert isinstance(outcome, list) and 0 < len(outcome) <= sent
        assert len(outcome) == len(reply["results"])
        for result, step in zip(outcome, reply["results"]):
            _check_verdict(result, step)


_INIT = {"command": "init", "session_id": None, "step": "theory T",
         "timeout_s": 120.0}
_APPLY = {"command": "apply", "session_id": "s-1", "step": "by simp",
          "timeout_s": 10.0}
_RUN = ["proof -", "by simp", "qed"]


def test_any_reply_is_typed_results_or_a_fault_on_the_wire_and_in_replay():
    replies = {}

    def respond(_index, line):
        return (json.dumps(replies[json.loads(line)["command"]])
                + "\n").encode("utf-8")

    server = LineServer(respond)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        @settings(max_examples=80, deadline=None, database=None)
        @given(init=init_replies, apply=step_replies, run=run_replies)
        def check(init, apply, run):
            replies.update(init=init, apply=apply, apply_steps=run)
            _check_init(_outcome(lambda: client.init_session("theory T")),
                        init)
            _check_apply(_outcome(lambda: client.apply("s-1", "by simp")),
                         apply)
            _check_run(_outcome(lambda: client.apply_steps("s-1", _RUN)),
                       run, len(_RUN))
            replay = ReplayProver([{"request": _INIT, "response": init},
                                   {"request": _APPLY, "response": apply}])
            _check_init(_outcome(lambda: replay.init_session("theory T")),
                        init)
            _check_apply(_outcome(lambda: replay.apply("s-1", "by simp")),
                         apply)

        check()
    finally:
        client.shutdown()
        server.stop()


# ---------------------------------------------------------------------------
# the server twin

def _request_lines():
    """Request objects near the protocol's shapes, as lines."""
    return json_objects(
        command=json_field("init", "apply", "apply_steps", "close"),
        session_id=json_field("s-1", None), step=json_field("", "by simp"),
        steps=json_field(["by simp"], []), timeout_s=json_field(10.0, None),
    ).map(lambda request: json.dumps(request).encode("utf-8"))


_INIT_LINE = (json.dumps(_INIT) + "\n").encode("utf-8")


def _check_shape(reply) -> None:
    """A reply a client can read: an object with a known status, and either
    the results of a run or one verdict's fields."""
    assert isinstance(reply, dict) and reply["status"] in STATUSES
    assert reply.get("error_kind", "theory") in ERROR_KINDS
    for verdict in reply.get("results", [reply]):
        assert verdict["status"] in STATUSES
        # a close is answered ok with no state
        assert verdict["state_id"] is None or (
            verdict["status"] == "ok" and isinstance(verdict["state_id"], str))
        assert isinstance(verdict["message"], str)
        assert isinstance(verdict["is_done"], bool)


def test_server_answers_any_line_and_keeps_the_connection_open():
    server = ProverServer(MockProver(default="ok")).start()
    host, port = server.address.rsplit(":", 1)
    conn = socket.create_connection((host, int(port)), timeout=10.0)
    reader = conn.makefile("rb")
    try:
        @settings(max_examples=100, deadline=None, database=None)
        @given(line=st.one_of(st.binary(max_size=40), _request_lines())
               .map(lambda line: line.replace(b"\n", b"")))
        @example(line=DEEP)
        def check(line):
            # a blank line gets no reply; any other line gets one, and the
            # init after it is served on the same connection
            conn.sendall(line + b"\n")
            if line.strip():
                _check_shape(json.loads(reader.readline()))
            conn.sendall(_INIT_LINE)
            assert json.loads(reader.readline())["status"] == "ok"

        check()
    finally:
        reader.close()
        conn.close()
        server.stop()
