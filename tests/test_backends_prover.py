import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from proofseek.bench import BenchmarkProblem, BenchmarkSpec, run_benchmark
from proofseek.curate import TheoremProofPair, filter_self_contained
from proofseek.engine import BudgetConfig, prove
from proofseek.errors import (
    ReplayMismatch,
    SessionClosed,
    TheoryLoadError,
    TransportError,
)
from proofseek.isar import parse_script
from proofseek.model import MockModel
from proofseek.prover import (
    HAMMER_STEP,
    MockOutcome,
    MockProver,
    ProverConfig,
    ProverServer,
    RecordingProver,
    ReplayProver,
    StepResult,
    WireProver,
    check_script,
)

from fixtures import GOLDEN_FORMAL_STATEMENT, LineServer, accepting_mock


# ---------------------------------------------------------------------------
# config and result invariants

def test_prover_config_defaults():
    config = ProverConfig()
    assert config.pool_size == 4
    assert config.step_timeout_s == 10.0
    assert config.hammer_timeout_s == 40.0


@pytest.mark.parametrize("kwargs", [
    {"pool_size": 0}, {"step_timeout_s": 0}, {"hammer_timeout_s": -1},
])
def test_prover_config_invariants(kwargs):
    with pytest.raises(ValueError):
        ProverConfig(**kwargs)


def test_step_result_state_id_iff_ok():
    with pytest.raises(ValueError):
        StepResult("ok", None)
    with pytest.raises(ValueError):
        StepResult("error", "s-1/1")


@pytest.mark.parametrize("outcome", ["done", {"status": "done"}])
def test_mock_outcome_status_is_a_wire_status(outcome):
    with pytest.raises(ValueError, match="done"):
        MockOutcome.of(outcome)


# ---------------------------------------------------------------------------
# mock prover

def test_mock_session_numbering():
    mock = MockProver()
    assert mock.init_session("theory T") == "s-1"
    assert mock.init_session("theory T") == "s-2"


def test_mock_rejects_theory():
    mock = MockProver(reject_theory="bad header")
    with pytest.raises(TheoryLoadError):
        mock.init_session("theory X")


def test_mock_table_and_advancement():
    mock = MockProver(table={"by simp": MockOutcome("ok", is_done=True)})
    session = mock.init_session("t")
    result = mock.apply(session, "by simp")
    assert result.ok and result.is_done
    assert result.new_state_id == "s-1/1"


def test_mock_failed_apply_does_not_advance():
    mock = MockProver(table={"by simp": "ok"})
    session = mock.init_session("t")
    assert not mock.apply(session, "by blast").ok
    assert mock.apply(session, "by simp").new_state_id == "s-1/1"


def test_mock_injected_delay_times_out():
    mock = MockProver(table={"by slow": MockOutcome("ok", delay_s=30.0)})
    session = mock.init_session("t")
    result = mock.apply(session, "by slow", timeout_s=10.0)
    assert result.status == "timeout"
    assert result.new_state_id is None


def test_mock_unlisted_justified_step_is_its_body_then_its_tactic():
    mock = MockProver(table={'have "x"': "ok", "by simp": "ok",
                             "by slow": MockOutcome("ok", delay_s=30.0)})
    session = mock.init_session("t")
    assert mock.apply(session, 'have "y" by simp').status == "error"
    assert mock.apply(session, 'have "x" by blast').status == "error"
    assert mock.apply(session, 'have "x" by slow').status == "timeout"
    result = mock.apply(session, 'have "x" by simp')
    assert result.ok and not result.is_done


def test_mock_bare_tactic_after_a_body_answers_for_the_whole_step():
    mock = MockProver(table={'have "x"': "ok", 'have "x" by simp': "error",
                             "by simp": "ok"})
    session = mock.init_session("t")
    assert mock.apply(session, 'have "x"').ok
    assert mock.apply(session, "by simp").status == "error"
    # with no goal body open, the bare step has its own entry
    assert mock.apply(mock.init_session("t"), "by simp").ok


@pytest.mark.parametrize("body", [None, "error", MockOutcome("ok", delay_s=30.0)])
def test_mock_table_that_accepts_one_form_only_is_rejected(body):
    # `have "x" by simp` is accepted, but `have "x"` (unlisted: the default
    # error) would stop its two-step form
    table = {'have "x" by simp': "ok"}
    if body is not None:
        table['have "x"'] = body
    with pytest.raises(ValueError, match="incoherent"):
        MockProver(table=table)
    MockProver(table={**table, 'have "x"': "ok"})


def test_mock_table_with_a_by_inside_a_quoted_goal_is_coherent():
    # the goal's `by` is no justification: `have "x` is not its body
    mock = MockProver(table={'have "x by y"': "ok"})
    assert mock.apply(mock.init_session("t"), 'have "x by y"').ok


def test_mock_holds_a_quoted_goal_with_a_by_as_an_open_goal_body():
    mock = MockProver(table={'have "x by y"': "ok",
                             'have "x by y" by simp': "ok"})
    session = mock.init_session("t")
    assert mock.apply(session, 'have "x by y"').ok
    assert mock.apply(session, "by simp").ok


def test_mock_auto_done_at_closing_qed():
    mock = accepting_mock(['proof - have "a" by simp qed'])
    session = mock.init_session("t")
    assert not mock.apply(session, "proof -").is_done
    assert not mock.apply(session, 'have "a" by simp').is_done
    assert mock.apply(session, "qed").is_done


def test_mock_refuses_every_step_after_a_finished_proof():
    # Isabelle answers "no goals left"; the mock accepted `by simp` again
    mock = MockProver(table={"by simp": "ok"}, hammer="simp")
    session = mock.init_session("t")
    assert mock.apply(session, "by simp").is_done
    for step in ("by simp", "qed", HAMMER_STEP):
        result = mock.apply(session, step)
        assert (result.status, result.message) == ("error", "no goals left")
    assert mock.apply(mock.init_session("t"), "by simp").is_done


def test_mock_hammer_sequence():
    mock = MockProver(hammer=[None, "by (metis foo)"])
    session = mock.init_session("t")
    first = mock.apply(session, HAMMER_STEP, timeout_s=40.0)
    assert not first.ok
    second = mock.apply(session, HAMMER_STEP, timeout_s=40.0)
    assert second.ok and second.message == "by (metis foo)"


def test_mock_hammer_takes_one_outcome_object():
    mock = MockProver(hammer={"status": "ok", "message": "by (metis foo)"})
    session = mock.init_session("t")
    for _ in range(2):
        result = mock.apply(session, HAMMER_STEP, timeout_s=40.0)
        assert result.ok and result.message == "by (metis foo)"


def test_mock_accepts_a_found_step_whole_as_after_its_body():
    # The table refuses `show "d" by h1`, but the hammer found `by h1` for
    # the goal `show "d"`: a later session accepts it in either form.
    mock = MockProver(table={"proof -": "ok", 'show "d"': "ok",
                             'show "d" by h1': "error"}, hammer="by h1")
    session = mock.init_session("t")
    for step in ("proof -", 'show "d"', HAMMER_STEP):
        assert mock.apply(session, step, timeout_s=40.0).ok
    for steps in (['show "d"', "by h1"], ['show "d" by h1']):
        session = mock.init_session("t")
        assert mock.apply(session, "proof -").ok
        assert [mock.apply(session, step).ok for step in steps] == \
            [True] * len(steps)


def test_mock_closed_session_raises():
    mock = MockProver()
    session = mock.init_session("t")
    mock.close(session)
    with pytest.raises(SessionClosed):
        mock.apply(session, "by simp")


def test_session_isolation():
    mock = MockProver(default="ok")
    s1 = mock.init_session("t")
    s2 = mock.init_session("t")
    assert mock.apply(s1, "have a").new_state_id == "s-1/1"
    assert mock.apply(s2, "have b").new_state_id == "s-2/1"
    assert mock.apply(s1, "have c").new_state_id == "s-1/2"


def test_concurrent_inits_distinct_ids():
    mock = MockProver(default="ok")
    ids: list[str] = []
    lock = threading.Lock()

    def worker():
        sid = mock.init_session("t")
        with lock:
            ids.append(sid)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(ids)) == 2


# ---------------------------------------------------------------------------
# check_script

def test_check_script_golden_success(golden_proof_body, golden_mock):
    golden_mock = RecordingProver(golden_mock)
    report = check_script(golden_mock, "theorem t: shows \"A\" oops",
                          parse_script(golden_proof_body))
    assert report.success
    assert report.failing_index is None
    assert len(golden_mock.requests()) == 9


def test_check_script_failing_step():
    script = parse_script("have a by x have b by y have c by z")
    mock = RecordingProver(
        MockProver(table={"have a": "ok", "have a by x": "ok",
                          "have b": "ok", "have b by y": "ok"}))
    report = check_script(mock, "thm", script)
    assert not report.success
    assert report.failing_index == 2
    assert len(mock.requests()) == 3


def test_check_script_empty_script():
    from proofseek.isar import slice_steps
    empty = slice_steps(parse_script("by simp"), 0)
    report = check_script(MockProver(default="ok"), "thm", empty)
    assert not report.success and report.failing_index == 0
    # a script that runs out with goals remaining has no failing step
    mock = MockProver(table={"have a": "ok",
                             "have a by x": MockOutcome("ok", is_done=False)})
    report = check_script(mock, "thm", parse_script("have a by x"))
    assert (report.success, report.failing_index) == (False, None)


def test_check_script_stops_after_first_failure():
    script = parse_script("have a by x have b by y have c by z "
                          "have d by w have e by v have f by u")
    mock = RecordingProver(MockProver(table={
        text: "ok" for c, j in
        [("a", "x"), ("b", "y"), ("c", "z"), ("d", "w"), ("e", "v")]
        for text in (f"have {c}", f"have {c} by {j}")}))
    # step 5 fails: exactly 6 apply calls issued
    report = check_script(mock, "thm", script)
    assert report.failing_index == 5
    assert len(mock.requests()) == 6


# ---------------------------------------------------------------------------
# replay prover

def _record_trace(script_text):
    mock = accepting_mock([script_text])
    recorder = RecordingProver(mock)
    session = recorder.init_session("theory T")
    statuses = []
    for step in parse_script(script_text).steps:
        statuses.append(recorder.apply(session, step.text, 10.0).status)
    recorder.close(session)
    return recorder.trace, statuses


def test_replay_reproduces_recorded_statuses(golden_proof_body):
    trace, statuses = _record_trace(golden_proof_body)
    replay = ReplayProver(trace)
    session = replay.init_session("theory T")
    got = [replay.apply(session, step.text, 10.0).status
           for step in parse_script(golden_proof_body).steps]
    assert got == statuses
    replay.close(session)


def test_replay_trace_file(tmp_path, golden_proof_body):
    mock = accepting_mock([golden_proof_body])
    recorder = RecordingProver(mock)
    session = recorder.init_session("theory T")
    recorder.apply(session, "proof -", 10.0)
    recorder.close(session)
    path = tmp_path / "trace.jsonl"
    recorder.dump(path)
    replay = ReplayProver(path)
    session = replay.init_session("theory T")
    assert replay.apply(session, "proof -", 10.0).ok


def test_replay_mismatch_detected():
    trace, _ = _record_trace("by simp")
    replay = ReplayProver(trace)
    replay.init_session("theory T")
    with pytest.raises(ReplayMismatch):
        replay.apply("s-1", "by blast", 10.0)


@pytest.mark.parametrize("reply", [
    {"status": "ok", "state_id": "s-1/1", "message": "", "is_done": "false"},
    {"status": "ok", "message": ""},
    "nope",
])
def test_replay_reads_a_recorded_reply_as_the_wire_client_does(reply):
    # Passed straight to StepResult, the string "false" was a completed
    # proof of False, a reply without a state id a ValueError and a reply
    # that is no object a TypeError: each is a transport fault, as on the
    # wire.
    trace = [
        {"request": {"command": "init", "session_id": None,
                     "step": 'theory Scratch\n  imports Main\nbegin\n\n'
                             'lemma "False"', "timeout_s": 120.0},
         "response": {"status": "ok", "state_id": "s-1/0", "message": "",
                      "is_done": False}},
        {"request": {"command": "apply", "session_id": "s-1",
                     "step": 'have "x" sorry', "timeout_s": 10.0},
         "response": reply},
        {"request": {"command": "close", "session_id": "s-1", "step": "",
                     "timeout_s": None},
         "response": {"status": "ok", "state_id": None, "message": "",
                      "is_done": False}},
    ]
    with pytest.raises(TransportError, match="malformed prover reply"):
        check_script(ReplayProver(trace), 'lemma "False"',
                     parse_script('have "x" sorry'))


# ---------------------------------------------------------------------------
# wire protocol over a real socket

@pytest.fixture
def served_mock(golden_proof_body):
    mock = RecordingProver(accepting_mock([golden_proof_body],
                                          hammer="by (metis served)"))
    server = ProverServer(mock).start()
    yield server, mock
    server.stop()


def test_wire_round_trip(served_mock, golden_proof_body):
    server, _ = served_mock
    client = WireProver(ProverConfig(endpoint=server.address))
    session = client.init_session("theory T")
    results = [client.apply(session, step.text)
               for step in parse_script(golden_proof_body).steps]
    assert all(r.ok for r in results)
    assert results[-1].is_done
    client.close(session)
    client.shutdown()


def test_wire_hammer_message(served_mock):
    server, _ = served_mock
    client = WireProver(ProverConfig(endpoint=server.address))
    session = client.init_session("theory T")
    result = client.apply(session, HAMMER_STEP, timeout_s=40.0)
    assert result.ok and result.message == "by (metis served)"
    client.shutdown()


def test_wire_session_closed_surfaces(served_mock):
    server, _ = served_mock
    client = WireProver(ProverConfig(endpoint=server.address))
    session = client.init_session("theory T")
    client.close(session)
    with pytest.raises(SessionClosed):
        client.apply(session, "by simp")
    client.shutdown()


def test_wire_theory_rejection():
    mock = MockProver(reject_theory="no such constant")
    server = ProverServer(mock).start()
    try:
        client = WireProver(ProverConfig(endpoint=server.address))
        with pytest.raises(TheoryLoadError):
            client.init_session("theory X")
        client.shutdown()
    finally:
        server.stop()


def test_server_stop_returns_without_waiting_out_a_long_poll():
    server = ProverServer(MockProver()).start()
    client = WireProver(ProverConfig(endpoint=server.address))
    client.close(client.init_session("theory T"))
    client.shutdown()
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.25


def test_wire_unreachable_is_transport_error():
    client = WireProver(ProverConfig(endpoint="127.0.0.1:1",
                                     init_timeout_s=0.3))
    with pytest.raises(TransportError):
        client.init_session("theory T")


def test_wire_requests_carry_timeouts(served_mock):
    server, mock = served_mock
    client = WireProver(ProverConfig(endpoint=server.address))
    session = client.init_session("theory T")
    client.apply(session, "proof -", timeout_s=10.0)
    client.apply(session, HAMMER_STEP, timeout_s=40.0)
    applies = mock.requests()
    assert applies[0]["timeout_s"] == 10.0
    assert applies[1]["timeout_s"] == 40.0
    client.shutdown()


class BarrierProver(MockProver):
    """Accepts every step, but an apply returns only once ``parties``
    applies are in flight at the same time."""

    def __init__(self, parties: int):
        super().__init__(default="ok")
        self.barrier = threading.Barrier(parties, timeout=5)

    def apply(self, session_id, step_text, timeout_s=None):
        self.barrier.wait()
        return super().apply(session_id, step_text, timeout_s)


def _apply_at_once(client, parties):
    """One session per caller, then one apply per caller, all at once."""
    sessions = [client.init_session("theory T") for _ in range(parties)]
    with ThreadPoolExecutor(parties) as pool:
        futures = [pool.submit(client.apply, sid, "by simp")
                   for sid in sessions]
        return [f.result(timeout=30) for f in futures]


def test_wire_concurrent_callers_are_in_flight_at_once():
    server = ProverServer(BarrierProver(2)).start()
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        assert [r.ok for r in _apply_at_once(client, 2)] == [True, True]
    finally:
        client.shutdown()
        server.stop()


def test_wire_shutdown_ends_the_server_connection_thread():
    # Four callers at once hold four connections; shutdown closes them all,
    # so every server connection thread sees EOF and exits.
    server = ProverServer(BarrierProver(4)).start()
    client = WireProver(ProverConfig(endpoint=server.address))
    before = set(threading.enumerate())
    try:
        assert all(r.ok for r in _apply_at_once(client, 4))
        handlers = set(threading.enumerate()) - before  # one per connection
        assert len(handlers) == 4
        client.shutdown()
        for thread in handlers:
            thread.join(1.0)
        assert not any(t.is_alive() for t in handlers)
    finally:
        client.shutdown()
        server.stop()


def test_wire_reconnects_after_a_dropped_connection():
    # The first connection is dropped after one request; the failing call is
    # a transport fault, and the next call reconnects.  The dropped
    # connection is not reused, and the new one is.
    ok = b'{"status": "ok", "state_id": "s-1/0", "message": "", "is_done": false}\n'
    server = LineServer(lambda index, _line: None if index == 0 else ok)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        with pytest.raises(TransportError):
            client.init_session("theory T")
        assert client.init_session("theory T") == "s-1"
        assert client.init_session("theory T") == "s-1"
        assert server.connections == 2
    finally:
        client.shutdown()
        server.stop()


def test_wire_call_after_shutdown_reconnects():
    ok = b'{"status": "ok", "state_id": "s-1/0", "message": "", "is_done": false}\n'
    server = LineServer(lambda _index, _line: ok)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        assert client.init_session("theory T") == "s-1"
        client.shutdown()
        assert client.init_session("theory T") == "s-1"
        assert server.connections == 2
    finally:
        client.shutdown()
        server.stop()


def _crash(*args, **kwargs):
    raise RuntimeError("backend crashed")


@pytest.mark.parametrize("method", ["init_session", "apply"])
def test_wire_server_fault_is_a_transport_error(method, tmp_path):
    # A backend crash says nothing about the proof: it is neither a rejected
    # step nor a theory that will not load, so the problem is undetermined.
    backend = MockProver(default="ok")
    setattr(backend, method, _crash)
    server = ProverServer(backend).start()
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        with pytest.raises(TransportError, match="backend crashed"):
            client.apply(client.init_session("theory T"), "by simp")
        spec = BenchmarkSpec(
            "crash", (BenchmarkProblem("p", GOLDEN_FORMAL_STATEMENT),),
            BudgetConfig(sample_budget=1))
        model = MockModel({"whole_proof": [["by simp"]]})
        [record] = run_benchmark(spec, model, client,
                                 tmp_path / "records.jsonl", pool_size=1)
        assert record.undetermined and not record.success
    finally:
        client.shutdown()
        server.stop()


_INIT_OK = b'{"status": "ok", "state_id": "s-1/0", "message": "", "is_done": false}\n'


@pytest.mark.parametrize("reply", [
    b'[]\n',
    b'"ok"\n',
    b'{"state_id": "s-1/1"}\n',
    b'{"status": "done", "state_id": "s-1/1"}\n',
    b'{"status": "ok"}\n',
    b'{"status": "ok", "state_id": null}\n',
    b'{"status": "ok", "state_id": 5}\n',
    b'{"status": "error", "state_id": "s-1/1"}\n',
    b'{"status": "timeout", "state_id": "s-1/1"}\n',
    b'{"status": "ok", "state_id": "s-1/1", "message": ["by simp"]}\n',
])
def test_wire_reply_of_the_wrong_shape_is_a_transport_error(reply):
    server = LineServer(lambda _index, _line: reply)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        with pytest.raises(TransportError, match="malformed prover reply"):
            client.init_session("theory T")
        with pytest.raises(TransportError, match="malformed prover reply"):
            client.apply("s-1", "by simp")
    finally:
        client.shutdown()
        server.stop()


@pytest.mark.parametrize("is_done", [b'"false"', b'"true"', b'1', b'0',
                                     b'null', b'[]'])
def test_wire_verdict_that_is_not_a_json_boolean_is_a_transport_error(is_done):
    # Read with bool(), the string "false" was a completed proof: a checker
    # took `have "x" sorry` for a proof of False.
    reply = (b'{"status": "ok", "state_id": "s-1/1", "message": "", '
             b'"is_done": %s}\n' % is_done)
    server = LineServer(
        lambda _index, line: _INIT_OK if b'"init"' in line else reply)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        with pytest.raises(TransportError, match="malformed prover reply"):
            check_script(client, 'lemma "False"', parse_script('have "x" sorry'))
    finally:
        client.shutdown()
        server.stop()


@pytest.mark.parametrize("reply", [b'{"status": "ok"}\n', b'[]\n'])
def test_wire_reply_of_the_wrong_shape_leaves_the_problem_undetermined(
        reply, tmp_path):
    # Only the problem whose apply got the reply is undetermined; the run
    # goes on and writes its record.
    server = LineServer(
        lambda _index, line: _INIT_OK if b'"init"' in line else reply)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        spec = BenchmarkSpec(
            "shape", (BenchmarkProblem("p", GOLDEN_FORMAL_STATEMENT),),
            BudgetConfig(sample_budget=1))
        model = MockModel({"whole_proof": [["by simp"]]})
        [record] = run_benchmark(spec, model, client,
                                 tmp_path / "records.jsonl", pool_size=1)
        assert record.undetermined and not record.success
    finally:
        client.shutdown()
        server.stop()


def test_wire_init_timeout_leaves_the_problem_undetermined():
    # A theory load that timed out is no verdict on the statement: proving
    # it is undetermined, and so is curating a pair on it.
    timeout = (b'{"status": "timeout", "state_id": null, '
               b'"message": "init exceeded 120.0s", "is_done": false}\n')
    server = LineServer(lambda _index, _line: timeout)
    client = WireProver(ProverConfig(endpoint=server.address, pool_size=1))
    try:
        with pytest.raises(TransportError, match="timed out"):
            client.init_session("theory T")
        with pytest.raises(TransportError):
            prove(GOLDEN_FORMAL_STATEMENT,
                  MockModel({"whole_proof": [["by simp"]]}), client,
                  BudgetConfig(sample_budget=1))
        pair = TheoremProofPair(GOLDEN_FORMAL_STATEMENT, "by simp")
        result = filter_self_contained([pair], client)
        assert [p for p, _ in result.undetermined] == [pair]
        assert result.rl_pool == result.sft_pool == ()
    finally:
        client.shutdown()
        server.stop()


def test_wire_protocol_fault_is_a_transport_error():
    fault = (b'{"status": "error", "state_id": null, "message": "bad request", '
             b'"is_done": false, "error_kind": "protocol"}\n')
    server = LineServer(lambda _index, _line: fault)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        with pytest.raises(TransportError, match="bad request"):
            client.init_session("theory T")
        with pytest.raises(TransportError, match="bad request"):
            client.apply("s-1", "by simp")
    finally:
        client.shutdown()
        server.stop()


_DEEP = b"[" * 100_000 + b"\n"  # nested past the decoder's recursion limit


def test_wire_reply_nested_too_deeply_is_a_transport_error():
    # The decoder's RecursionError escaped the client, uncaught.
    server = LineServer(lambda _index, _line: _DEEP)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        with pytest.raises(TransportError, match="nested too deeply"):
            client.init_session("theory T")
        with pytest.raises(TransportError, match="nested too deeply"):
            client.apply("s-1", "by simp")
    finally:
        client.shutdown()
        server.stop()


# ---------------------------------------------------------------------------
# runs of steps: apply_steps

def test_apply_steps_stops_at_a_refusal_and_at_completion():
    prover = MockProver(table={"proof -": "ok", 'have "a"': "ok",
                               "by simp": "ok", "qed": "ok"})
    session = prover.init_session("theory T")
    refused = prover.apply_steps(session, ["proof -", "by nope", "qed"])
    assert [r.status for r in refused] == ["ok", "error"]
    done = prover.apply_steps(session, ['have "a"', "by simp", "qed", "qed"])
    assert [(r.ok, r.is_done) for r in done] == [(True, False), (True, False),
                                                 (True, True)]


def test_wire_run_reaches_the_backend_as_one_apply_per_step(served_mock,
                                                            golden_proof_body):
    server, mock = served_mock
    client = WireProver(ProverConfig(endpoint=server.address))
    texts = [step.text for step in parse_script(golden_proof_body).steps]
    try:
        session = client.init_session("theory T")
        results = client.apply_steps(session, texts)
        assert len(results) == len(texts) and results[-1].is_done
        # the backend saw, and the recorder kept, one apply per step
        assert [r["step"] for r in mock.requests()] == texts
        assert {r["timeout_s"] for r in mock.requests()} == {10.0}
    finally:
        client.shutdown()


_INIT_RUNS = (b'{"status": "ok", "state_id": "s-1/0", "message": "", '
              b'"is_done": false}\n')


def _run_reply(*results: str) -> bytes:
    return b'{"status": "ok", "results": [%s]}\n' % ", ".join(results).encode()


_STEP_OK = '{"status": "ok", "state_id": "s-1/1", "message": "", "is_done": false}'
_STEP_DONE = '{"status": "ok", "state_id": "s-1/1", "message": "", "is_done": true}'
_STEP_REFUSED = ('{"status": "error", "state_id": null, "message": "no", '
                 '"is_done": false}')
_BAD_RUN_REPLIES = [
    b'{"status": "ok"}\n',
    b'{"status": "ok", "results": {"0": {}}}\n',
    _run_reply(),
    _run_reply(_STEP_OK, _STEP_OK, _STEP_OK),
    _run_reply(_STEP_REFUSED, _STEP_OK),
    _run_reply(_STEP_DONE, _STEP_OK),
    _run_reply(_STEP_OK, '{"status": "done", "state_id": null}'),
    _run_reply(_STEP_OK, '"ok"'),
]


@pytest.mark.parametrize("reply", _BAD_RUN_REPLIES)
def test_wire_run_reply_of_the_wrong_shape_is_a_transport_error(reply):
    server = LineServer(
        lambda _index, line: _INIT_RUNS if b'"init"' in line else reply)
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        session = client.init_session("theory T")
        with pytest.raises(TransportError, match="malformed prover reply"):
            client.apply_steps(session, ["proof -", "by simp"])
    finally:
        client.shutdown()
        server.stop()


def _three_step_record(server: LineServer, tmp_path):
    """The benchmark record of one problem whose one candidate, three steps,
    is checked through ``server``."""
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        spec = BenchmarkSpec(
            "shape", (BenchmarkProblem("p", GOLDEN_FORMAL_STATEMENT),),
            BudgetConfig(sample_budget=1))
        model = MockModel({"whole_proof": [[
            "proof -\n  show ?thesis by simp\nqed"]]})
        [record] = run_benchmark(spec, model, client,
                                 tmp_path / "records.jsonl", pool_size=1)
        return record
    finally:
        client.shutdown()
        server.stop()


@pytest.mark.parametrize("reply", [
    _run_reply(*[_STEP_OK] * 4),
    _run_reply(_STEP_DONE, _STEP_OK, _STEP_OK),
])
def test_wire_run_reply_of_the_wrong_shape_leaves_the_problem_undetermined(
        reply, tmp_path):
    # The candidate's three steps go out as one run; a reply that cannot be
    # read as its verdicts makes the problem undetermined.
    server = LineServer(
        lambda _index, line: _INIT_RUNS if b'"init"' in line else reply)
    record = _three_step_record(server, tmp_path)
    assert record.undetermined and not record.success


def _without_runs(_index, line):
    """A server that takes ``init``, ``apply`` and ``close`` but not
    ``apply_steps``; every step it applies is accepted."""
    request = json.loads(line)
    if request["command"] == "apply_steps":
        reply = {"status": "error", "error_kind": "protocol",
                 "message": "unknown command 'apply_steps'"}
    else:
        reply = {"status": "ok", "state_id": "s-1/1", "message": "",
                 "is_done": request["step"] == "qed"}
        if request["command"] == "close":
            reply["state_id"] = None
    return (json.dumps(reply) + "\n").encode("utf-8")


def test_a_server_without_runs_leaves_the_problem_undetermined(tmp_path):
    # The client sends every run as apply_steps and never steps it one
    # apply at a time, so the server's protocol error is a transport fault.
    server = LineServer(_without_runs)
    record = _three_step_record(server, tmp_path)
    assert record.undetermined and not record.success
    assert b'"apply_steps"' in server.lines[1]


# ---------------------------------------------------------------------------
# the reference server reads every request defensively

_INIT_REQUEST = (b'{"command": "init", "session_id": null, "step": "theory T", '
                 b'"timeout_s": 120.0}\n')


@pytest.mark.parametrize("line", [
    b'\xff\xfe not utf-8\n',
    b'not json\n',
    b'[1,2]\n',
    b'{}\n',
    b'{"command": "apply"}\n',
    b'{"command": "close"}\n',
    b'{"command": "apply", "session_id": "s-1", "step": 5}\n',
    b'{"command": "apply", "session_id": "s-1", "step": "by simp", '
    b'"timeout_s": "soon"}\n',
    b'{"command": "apply_steps", "session_id": "s-1"}\n',
    b'{"command": "apply_steps", "session_id": "s-1", "steps": "by simp"}\n',
    b'{"command": "apply_steps", "session_id": "s-1", "steps": []}\n',
    b'{"command": "apply_steps", "session_id": "s-1", "steps": ["by simp", 5]}\n',
    pytest.param(_DEEP, id="nested-too-deeply"),
])
def test_server_answers_a_bad_request_with_a_protocol_error(line):
    # A request the server cannot read is the client's fault, not the
    # backend's: a protocol reply, and the connection serves the next line.
    server = ProverServer(MockProver(default="ok")).start()
    host, port = server.address.rsplit(":", 1)
    conn = socket.create_connection((host, int(port)), timeout=5.0)
    reader = conn.makefile("rb")
    try:
        conn.sendall(line)
        reply = json.loads(reader.readline())
        assert (reply["status"], reply["error_kind"]) == ("error", "protocol")
        conn.sendall(_INIT_REQUEST)
        assert json.loads(reader.readline())["state_id"] == "s-1/0"
    finally:
        reader.close()
        conn.close()
        server.stop()


def test_server_answers_pipelined_requests_at_once():
    # Two request lines sent before the first reply is read: the second
    # reply must not wait for the client's delayed ACK (Nagle's algorithm
    # holds a small write while an earlier one is unacknowledged), which
    # costs about 40 ms a pair.
    server = ProverServer(MockProver(default="ok")).start()
    host, port = server.address.rsplit(":", 1)
    conn = socket.create_connection((host, int(port)), timeout=5.0)
    reader = conn.makefile("rb")
    try:
        started = time.perf_counter()
        for _ in range(20):
            conn.sendall(_INIT_REQUEST * 2)
            for _ in range(2):
                assert json.loads(reader.readline())["status"] == "ok"
        assert time.perf_counter() - started < 0.4
    finally:
        reader.close()
        conn.close()
        server.stop()
