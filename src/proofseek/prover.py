"""Interactive-prover backends over a line-delimited JSON wire protocol.

Requests carry ``{command, session_id, step, timeout_s}`` and responses
``{status, state_id, message, is_done}``, plus ``error_kind`` (``theory``,
``session``, ``protocol`` or ``internal``) when the server refuses a request;
``command`` is one of ``init`` (step holds the theory text), ``apply``,
``apply_steps`` or ``close``.  ``COMMANDS`` is the one statement of each
command: its row names the request field that carries its text and that
field's type test, the server's handler and the client's reply reader.
The server's request check, its dispatch, the request builder, the recorder
and the reply reading of both the wire client and replay read that table, so
the wire, recorded traces and their replay agree on every request and
verdict, and a recorded reply is checked as a wire reply is.

A run of steps travels in one request, ``{command, session_id, steps,
timeout_s}``, answered ``{status: "ok", results: [...]}`` with one ``apply``
reply per step taken: the backend stops at the first step that is not ok or
that completes the proof (``ProverBackend.apply_steps``), each step with
``timeout_s``.  Every ``ProverServer`` takes runs, and the wire client sends
every run as ``apply_steps``; a server without it answers with a
``protocol`` error, a transport fault.  A recorded trace holds one ``apply``
entry per step taken.

Two conventions make tactic cascades possible without state addressing:

* a failed ``apply`` never advances the session, so the next attempt runs
  against the same state;
* Sledgehammer is the pseudo-step ``HAMMER_STEP``; on success the response
  ``message`` carries the reconstructed tactic string (that string, not the
  pseudo-step, is what lands in the proof).

Transport faults raise TransportError and are never confused with
prover-reported proof errors; a server-side ``internal`` or ``protocol``
error is a transport fault, since the request was never judged, and so is a
reply of the wrong shape or a line that is not JSON, however deeply nested.
The wire client holds one connection per concurrent caller and locks only
its list of idle connections, never an exchange; sessions live on the
server, so any connection can drive any session.  Backends do protocol work
only; requests are captured by wrapping a backend in ``RecordingProver``.
"""

from __future__ import annotations

import itertools
import json
import socket
import socketserver
import threading
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    MissingFixture,
    ParseError,
    SessionClosed,
    TheoryLoadError,
    TransportError,
)
from .isar import (
    CLOSERS,
    GOAL_KEYWORDS,
    OPENER,
    ProofScript,
    Step,
    parse_script,
    strip_terminal_marker,
)
from .jsonl import is_texts, loads, numbered_values, typed

__all__ = [
    "Advance",
    "COMMANDS",
    "CheckReport",
    "HAMMER_STEP",
    "MockOutcome",
    "MockProver",
    "ProverConfig",
    "ProverServer",
    "RecordingProver",
    "ReplayProver",
    "SessionCursor",
    "StepResult",
    "WireProver",
    "check_script",
    "justification",
    "normalize_step",
]

ENV_PROVER_ADDR = "PROOFSEEK_PROVER_ADDR"

HAMMER_STEP = "⟨hammer⟩"

OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"

DEFAULT_THEORY_HEADER = 'theory Scratch\n  imports Main\nbegin'


@dataclass(frozen=True)
class ProverConfig:
    endpoint: str = ""
    pool_size: int = 4
    step_timeout_s: float = 10.0
    hammer_timeout_s: float = 40.0
    init_timeout_s: float = 120.0
    theory_header: str = DEFAULT_THEORY_HEADER

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if min(self.step_timeout_s, self.hammer_timeout_s, self.init_timeout_s) <= 0:
            raise ValueError("timeouts must be > 0")


@dataclass(frozen=True)
class StepResult:
    status: str
    new_state_id: Optional[str] = None
    message: str = ""
    is_done: bool = False

    def __post_init__(self) -> None:
        if (self.status == OK) != (self.new_state_id is not None):
            raise ValueError("new_state_id present iff status is ok")

    @property
    def ok(self) -> bool:
        return self.status == OK


def normalize_step(text: str) -> str:
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# message shapes

def _response(status: str, state_id: Optional[str] = None, message: str = "",
              is_done: bool = False, error_kind: Optional[str] = None) -> dict:
    response = {"status": status, "state_id": state_id, "message": message,
                "is_done": is_done}
    if error_kind is not None:
        response["error_kind"] = error_kind
    return response


def _step_response(result: StepResult) -> dict:
    return _response(result.status, result.new_state_id, result.message,
                     result.is_done)


def _opened(session_id: str) -> dict:
    """The response to an accepted ``init``."""
    return _response(OK, f"{session_id}/0")


def _fault(exc: Exception) -> dict:
    """The error response that reports ``exc``, raised by a backend, by its
    ``error_kind``: ``theory`` for TheoryLoadError, ``session`` for
    SessionClosed, and ``internal`` for anything else."""
    kind = ("theory" if isinstance(exc, TheoryLoadError) else
            "session" if isinstance(exc, SessionClosed) else "internal")
    return _response(ERROR, message=str(exc), error_kind=kind)


def _malformed(response) -> TransportError:
    return TransportError(f"malformed prover reply: {response!r}")


def _judged(response) -> StepResult:
    """An ``init`` or ``apply`` reply, checked, as the verdict it states: it
    is an object, its status is ok, error or timeout, it names a state id
    exactly when the status is ok, its message is text, and ``is_done``,
    when present, is a JSON boolean.  Anything else is a TransportError,
    since no verdict can be read from it."""
    fields = response if isinstance(response, dict) else {}  # no status
    status, state_id = fields.get("status"), fields.get("state_id")
    message, is_done = fields.get("message", ""), fields.get("is_done", False)
    if (status not in (OK, ERROR, TIMEOUT) or not isinstance(message, str)
            or not isinstance(is_done, bool)
            or not (isinstance(state_id, str) if status == OK
                    else state_id is None)):
        raise _malformed(response)
    return StepResult(status, state_id, message, is_done)


def _read_init(response: dict, _sent: dict) -> str:
    """The session id of an ``init`` reply, checked.  A refusal is
    TheoryLoadError; a timeout is no verdict on the theory, so it is a
    TransportError."""
    result = _judged(response)
    if result.status == TIMEOUT:
        raise TransportError(f"theory load timed out: {result.message}")
    if not result.ok:
        raise TheoryLoadError(response.get("message", "theory rejected"))
    return result.new_state_id.split("/")[0]


def _read_run(response: dict, sent: dict) -> list[StepResult]:
    """An ``apply_steps`` reply, checked: ``results`` holds one judged
    ``apply`` reply per step taken, at least one and at most the steps sent,
    and none but the last is a refusal, a timeout or a completed proof.
    Anything else is a TransportError."""
    results = response.get("results")
    if not isinstance(results, list) or not 0 < len(results) <= len(sent["steps"]):
        raise _malformed(response)
    answers = [_judged(result) for result in results]
    if any(not answer.ok or answer.is_done for answer in answers[:-1]):
        raise _malformed(response)
    return answers


def _text(value) -> bool:
    return isinstance(value, str)


class Command(NamedTuple):
    """One wire command's row in ``COMMANDS``.  ``payload`` names the
    request field that carries its text, and ``valid`` is that field's type
    test, applied to ``""`` when the field is absent.  The server answers a
    request with ``serve(backend, session_id, payload, timeout_s)``; a
    client reads the reply with ``read(reply, request)``, raising
    TransportError when it is of the wrong shape.  ``session`` says whether
    the request names a session."""

    payload: str
    valid: Callable[[object], bool]
    serve: Callable[..., dict]
    read: Callable[[dict, dict], object]
    session: bool = True


COMMANDS: dict[str, Command] = {
    "init": Command(
        "step", _text, session=False, read=_read_init,
        serve=lambda backend, _session, text, _timeout_s: _opened(
            backend.init_session(text))),
    "apply": Command(
        "step", _text, read=lambda response, _sent: _judged(response),
        serve=lambda backend, session, text, timeout_s: _step_response(
            backend.apply(session, text, timeout_s))),
    "apply_steps": Command(
        "steps", lambda steps: is_texts(steps) and steps != [],
        read=_read_run,
        serve=lambda backend, session, texts, timeout_s: {
            "status": OK, "results": [
                _step_response(result) for result
                in backend.apply_steps(session, texts, timeout_s)]}),
    # close returns nothing, so its reply is ok and its reader reads nothing
    "close": Command(
        "step", _text, read=lambda _response, _sent: None,
        serve=lambda backend, session, _text, _timeout_s:
            backend.close(session) or _response(OK)),
}


def _request(command: str, session_id: Optional[str],
             payload: Union[str, list[str]], timeout_s: Optional[float]) -> dict:
    """A request, its payload in the field the command's row names."""
    return {"command": command, "session_id": session_id,
            COMMANDS[command].payload: payload, "timeout_s": timeout_s}


def _read_reply(request: dict, response) -> object:
    """The reply to ``request`` read by its command's row, as the wire
    client and replay read it.  A reply that is not an object, or a server
    fault (``internal`` or ``protocol``), is a TransportError, since the
    request was never judged, and a ``session`` fault is SessionClosed, one
    too, even on an ``init``, which names no session."""
    if not isinstance(response, dict):
        raise _malformed(response)
    name = request["command"]
    kind = response.get("error_kind")
    if kind in ("internal", "protocol"):
        raise TransportError(f"prover fault: {response.get('message', name)}")
    if kind == "session":
        raise SessionClosed(response.get("message", request.get("session_id")))
    return COMMANDS[name].read(response, request)


class ProverBackend:
    """Base: the protocol surface, the config, and a lock for subclasses."""

    def __init__(self, config: Optional[ProverConfig] = None):
        self.config = config or ProverConfig()
        self._lock = threading.Lock()

    def init_session(self, theory_text: str) -> str:
        raise NotImplementedError

    def apply(self, session_id: str, step_text: str,
              timeout_s: Optional[float] = None) -> StepResult:
        raise NotImplementedError

    def close(self, session_id: str) -> None:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release what the client holds between calls; a backend that
        holds nothing has nothing to do."""

    def apply_steps(self, session_id: str, texts: Sequence[str],
                    timeout_s: Optional[float] = None) -> list[StepResult]:
        """Apply ``texts`` in order, each with ``timeout_s``, until one is not
        ok or the prover reports completion: the answers, one per step
        taken.  A wire client sends the run in one request."""
        results = []
        for text in texts:
            result = self.apply(session_id, text, timeout_s)
            results.append(result)
            if result.status != OK or result.is_done:
                break
        return results


# ---------------------------------------------------------------------------
# mock

@dataclass(frozen=True)
class MockOutcome:
    status: str = OK
    is_done: Optional[bool] = None  # None → structural auto-detection
    message: str = ""
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in (OK, ERROR, TIMEOUT):
            raise ValueError(f"unknown status {self.status!r}")

    @staticmethod
    def of(value: Union[str, dict, "MockOutcome"]) -> "MockOutcome":
        """An outcome from a status string, its JSON object form (the
        fields by name, read by ``typed``), or itself."""
        if isinstance(value, MockOutcome):
            return value
        if isinstance(value, dict):
            return typed(MockOutcome, value, "mock outcome")
        return MockOutcome(status=value)


@dataclass
class _SessionState:
    counter: int = 0
    depth: int = 0
    body: Optional[str] = None  # the last accepted step, when a goal body
    done: bool = False  # a step finished the proof: no goals are left


def _read(text: str) -> tuple[str, tuple[Step, ...]]:
    """``text`` as ``parse_script`` writes it when it is exactly one step
    (``by(simp)`` is ``by (simp)``), then whitespace-normalized, and its
    steps; any other text only whitespace-normalized.  Text that is not
    steps alone (blank, an unterminated string, a preamble or trailing
    comments) has none.  Only a lone step is split into its body and ``by
    T``, or held as an open goal body."""
    with suppress(ParseError):  # blank, or an unterminated string
        script = parse_script(text)
        if not (script.preamble or script.trailing_comments):
            steps = script.steps
            return normalize_step(steps[0].text if len(steps) == 1 else text), steps
    return normalize_step(text), ()


def _body_and_by(steps: tuple[Step, ...]) -> Optional[tuple[str, str]]:
    """(body, ``by T``) of a lone ``<body> by T`` step, each normalized as
    ``_read`` normalizes the whole, else None."""
    step = steps[0] if len(steps) == 1 else None
    if step is None or not step.tokens or step.just_tokens[:1] != ("by",):
        return None
    return normalize_step(step.body_text), normalize_step(" ".join(step.just_tokens))


class MockProver(ProverBackend):
    """Deterministic in-process prover driven by a step-text table.  Every
    answer is a function of the request and the session's own accepted
    steps, so a step one session had accepted is accepted in any other.

    ``table`` maps step text to an outcome ("ok", "error", "timeout", a
    MockOutcome, or its JSON object form).  Each key, each request and each
    hammer tactic's ``by`` step is read once, by ``parse_script``: exactly
    one step is written as the parser writes it (``by(simp)`` is
    ``by (simp)``), then whitespace-normalized; any other text is only
    whitespace-normalized, and is neither split nor held as an open goal
    body.  Unlisted steps get ``default``.  An accepted text moves the
    block depth step by step (``proof`` opens a block, ``qed`` and ``oops``
    close one).  ``is_done`` is taken from the outcome when given, otherwise
    inferred from the text's last step (closing ``qed`` at depth zero, or a
    top-level terminal ``by``).  Once a step finishes the proof, every later
    step is refused ("no goals left"), as Isabelle refuses it.  Simulated
    ``delay_s`` greater than the request timeout yields a timeout without
    sleeping.

    The table is read as a prover reads Isar, where ``<body> by T`` is
    ``<body>`` followed by ``by T``: an unlisted ``<body> by T`` is answered
    as those two steps, and a bare ``by T`` right after an accepted goal body
    is answered from the entry for ``<body> by T``.  A table that accepts
    ``<body> by T`` but not ``<body>`` gives the two forms different verdicts
    and raises ValueError.

    ``hammer`` is None, a tactic, or a list of tactics, tried in order by
    the Sledgehammer pseudo-step: the first whose ``by T`` the table does
    not refuse where the session stands answers, an acceptance with ``T`` as
    its message and the session moved as by that step; when the table
    refuses every one, no proof is found.
    """

    def __init__(
        self,
        table: Optional[dict[str, Union[str, MockOutcome]]] = None,
        default: Union[str, MockOutcome] = ERROR,
        hammer: Union[None, str, Sequence[str]] = None,
        reject_theory: Union[bool, str, Callable[[str], Optional[str]]] = False,
        config: Optional[ProverConfig] = None,
    ):
        super().__init__(config)
        if not isinstance(table, (dict, type(None))):
            raise TypeError(f"table must be an object, got {table!r:.80}")
        readings = [(*_read(k), MockOutcome.of(v)) for k, v in (table or {}).items()]
        self.table = {text: outcome for text, _, outcome in readings}
        self.default = MockOutcome.of(default)
        for text, steps, _ in readings:  # keys that read alike: the last one's outcome
            split, outcome = _body_and_by(steps), self.table[text]
            if split is None or outcome.status != OK:
                continue
            body = self.table.get(split[0], self.default)
            if body.status != OK or body.delay_s > outcome.delay_s:
                raise ValueError(f"incoherent table: {text!r} is accepted "
                                 f"but {split[0]!r} is not")
        tactics = ([] if hammer is None
                   else [hammer] if isinstance(hammer, str) else hammer)
        if not isinstance(tactics, (list, tuple)) or not all(
                isinstance(tactic, str) for tactic in tactics):
            raise ValueError(f"hammer must be null, a tactic or a list of "
                             f"tactics, got {hammer!r:.80}")
        self.hammer = list(tactics)
        self.reject_theory = reject_theory
        self._sessions: dict[str, _SessionState] = {}
        self._ids = itertools.count(1)

    # -- protocol ----------------------------------------------------------

    def init_session(self, theory_text: str) -> str:
        with self._lock:
            reason = self._rejection(theory_text)
            if reason is not None:
                raise TheoryLoadError(reason)
            sid = f"s-{next(self._ids)}"
            self._sessions[sid] = _SessionState()
            return sid

    def apply(self, session_id: str, step_text: str,
              timeout_s: Optional[float] = None) -> StepResult:
        timeout_s = self.config.step_timeout_s if timeout_s is None else timeout_s
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                raise SessionClosed(f"session {session_id} is not open")
            if state.done:
                return StepResult(ERROR, None, "no goals left", False)
            if step_text == HAMMER_STEP:
                outcome, steps = self._hammer_call(state.body, timeout_s)
            else:
                outcome, steps = self._judge(state.body, *_read(step_text))
            if outcome.delay_s > timeout_s:
                return StepResult(TIMEOUT, None,
                                  f"step exceeded {timeout_s}s", False)
            if outcome.status != OK:
                return StepResult(outcome.status, None,
                                  outcome.message or "step failed", False)
            # a lone step that states a goal and leaves it open is the body
            # that a bare `by T` joins
            step = steps[0] if len(steps) == 1 else None
            state.body = (normalize_step(step.text) if step and not step.just_tokens
                          and not GOAL_KEYWORDS.isdisjoint(step.tokens) else None)
            head = ""
            for step in steps:
                head = step.head
                if head == OPENER:
                    state.depth += 1
                elif head in CLOSERS:
                    state.depth = max(0, state.depth - 1)
            state.counter += 1
            done = outcome.is_done
            if done is None:
                done = state.depth == 0 and (
                    head in CLOSERS or head in ("done", "by"))
            state.done = bool(done)
            return StepResult(OK, f"{session_id}/{state.counter}",
                              outcome.message, state.done)

    def close(self, session_id: str) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    # -- internals ----------------------------------------------------------

    def _judge(self, body: Optional[str], text: str,
               steps: tuple[Step, ...]) -> tuple[MockOutcome, tuple[Step, ...]]:
        """The outcome of ``text``, read by ``_read`` into ``steps``, right
        after ``body``, the session's open goal body if any, and the steps
        that move the session: a ``by T`` that joins the body moves it no
        deeper and finishes no proof."""
        if body is not None and text.startswith(("by ", "by(")):
            return (self.table.get(f"{body} {text}")
                    or self.table.get(text, self.default)), steps[1:]
        split = _body_and_by(steps)
        if text in self.table or split is None:
            return self.table.get(text, self.default), steps
        first = self.table.get(split[0], self.default)
        if first.status != OK:
            return first, steps
        second = self.table.get(split[1], self.default)
        return replace(second, delay_s=max(first.delay_s, second.delay_s)), steps

    def _rejection(self, theory_text: str) -> Optional[str]:
        if callable(self.reject_theory):
            return self.reject_theory(theory_text)
        if self.reject_theory:
            return (self.reject_theory if isinstance(self.reject_theory, str)
                    else "theory rejected by mock")
        return None

    def _hammer_call(self, body: Optional[str],
                     timeout_s: float) -> tuple[MockOutcome, tuple[Step, ...]]:
        """The answer to a hammer call right after ``body``, the session's
        open goal body if any, and the steps that move the session: those of
        the first tactic whose ``by T`` the table does not refuse there."""
        for tactic in self.hammer:
            outcome, steps = self._judge(body, *_read(justification(tactic)))
            if outcome.status == OK:
                return replace(outcome, message=tactic), steps
            if outcome.status == TIMEOUT or outcome.delay_s > timeout_s:
                return outcome, steps
        return MockOutcome(ERROR, message="no proof found"), ()


# ---------------------------------------------------------------------------
# replay

def _trace_entry(where: str, entry: object) -> dict:
    """A trace's entry, checked: an object with a ``response`` and a
    ``request`` that the server's request check (``_checked``) takes.
    Anything else raises ValueError naming ``where``."""
    try:
        if not (isinstance(entry, dict) and "response" in entry):
            raise ValueError("not an object with a response")
        _checked(entry.get("request"))
    except ValueError as exc:
        raise ValueError(f"{where}: a trace entry is an object with a request "
                         f"the server takes and a response ({exc})") from None
    return entry


def _question(paths: dict[str, tuple], request: dict) -> tuple:
    """What an ``init`` or ``apply`` request asks: its theory, or its
    normalized step after its session's question so far in ``paths`` (the
    theory and the steps the session accepted; ``(None,)`` for a session
    never opened)."""
    if request["command"] == "init":
        return (request.get("step", ""),)
    session = paths.get(request.get("session_id"), (None,))
    return session + (normalize_step(request.get("step", "")),)


def _key(question: tuple) -> tuple:
    """The question with its theory whitespace-normalized."""
    return (question[0] and normalize_step(question[0]), *question[1:])


def _move_past(paths: dict, request: dict, question: tuple, reply) -> None:
    """Move ``paths`` past a reply: the session an ``init`` opened stands at
    its theory, and an accepted step extends its session's question."""
    if request["command"] == "init":
        paths[reply] = question
    elif reply.ok:
        paths[request.get("session_id")] = question


class ReplayProver(ProverBackend):
    """Answers each request with the reply a trace recorded for the same
    question, read as the wire client reads it, so a reply of the wrong
    shape is a TransportError here too.  An ``init`` asks about its theory;
    an ``apply`` asks about its step after the theory and the steps its
    session had accepted, all whitespace-normalized.  A recorded session's
    accepted steps are read from the trace's replies as a live session's
    are, so the order of requests does not matter: a trace answers any
    engine that asks only questions it recorded, from any number of
    workers.  Replies filed under one question are given in recorded order,
    the last one repeating (a timeout, then its retry); an ``init`` reply is
    never repeated, since two live sessions would share its id.  A question
    never recorded, or an ``init`` asked more often than recorded, raises
    MissingFixture.  ``close`` needs no entry."""

    def __init__(self, trace: Union[str, Path, Sequence[dict]],
                 config: Optional[ProverConfig] = None):
        super().__init__(config)
        self._replies: dict[tuple, list[dict]] = {}  # question -> entries left
        self._paths: dict[str, tuple] = {}  # live session -> its question
        recorded: dict[str, tuple] = {}
        entries = (numbered_values(trace) if isinstance(trace, (str, Path))
                   else ((f"trace entry {n}", e) for n, e in enumerate(trace)))
        for where, entry in entries:
            request = _trace_entry(where, entry)["request"]
            if request["command"] in ("init", "apply"):
                question = _question(recorded, request)
                self._replies.setdefault(_key(question), []).append(entry)
                with suppress(TheoryLoadError, TransportError):
                    _move_past(recorded, request, question,
                          _read_reply(request, entry["response"]))

    def _ask(self, request: dict) -> object:
        """The reply next in turn for ``request``'s question, read by its
        command's row.  No reply left is MissingFixture, naming the
        theory's first line, the number of accepted steps and the step."""
        with self._lock:
            question = _question(self._paths, request)
            entries = self._replies.get(_key(question))
            if not entries:
                theory, *steps = question
                asked = (f"{steps[-1]!r} after {len(steps) - 1} accepted "
                         "steps" if steps else "init")
                first = theory and theory.splitlines()[0]
                raise MissingFixture(f"no recorded reply left to {asked} in "
                                     f"theory {first!r}")
            entry = (entries.pop(0) if len(entries) > 1
                     or request["command"] == "init" else entries[0])
            reply = _read_reply(entry["request"], entry["response"])
            _move_past(self._paths, request, question, reply)
        return reply

    def init_session(self, theory_text: str) -> str:
        return self._ask(_request("init", None, theory_text, None))

    def apply(self, session_id: str, step_text: str,
              timeout_s: Optional[float] = None) -> StepResult:
        return self._ask(_request("apply", session_id, step_text, timeout_s))

    def close(self, session_id: str) -> None:
        with self._lock:
            self._paths.pop(session_id, None)


class RecordingProver(ProverBackend):
    """Wraps a backend and captures a replayable request/response trace:
    the one record of what was sent to the prover (``requests``), and the
    fixture ``ReplayProver`` plays back (``dump``).  Every step goes to the
    inner backend through ``apply_steps``, a single ``apply`` as a run of
    one, and is recorded there as one ``apply`` entry.  A theory's refusal
    and a TransportError of the backend are recorded as the error reply that
    reports them (``_fault``), as the server writes it, and raised again, so
    a replay raises them where the run did."""

    def __init__(self, inner: ProverBackend):
        super().__init__(inner.config)
        self.inner = inner
        self.trace: list[dict] = []

    def _record(self, request: dict, response: dict) -> None:
        self.trace.append({"request": request, "response": response})

    def init_session(self, theory_text: str) -> str:
        request = _request("init", None, theory_text, self.config.init_timeout_s)
        try:
            sid = self.inner.init_session(theory_text)
        except (TheoryLoadError, TransportError) as exc:
            self._record(request, _fault(exc))
            raise
        self._record(request, _opened(sid))
        return sid

    def apply(self, session_id: str, step_text: str,
              timeout_s: Optional[float] = None) -> StepResult:
        return self.apply_steps(session_id, [step_text], timeout_s)[0]

    def apply_steps(self, session_id: str, texts: Sequence[str],
                    timeout_s: Optional[float] = None) -> list[StepResult]:
        """The inner backend's run, recorded as one ``apply`` per step
        taken, so a trace reads the same however its steps travelled.  A
        run that faulted was one request, recorded under its first step."""
        try:
            results = self.inner.apply_steps(session_id, texts, timeout_s)
        except TransportError as exc:
            if texts:  # an empty run asks nothing a replay could answer
                self._record(_request("apply", session_id, texts[0],
                                      timeout_s), _fault(exc))
            raise
        for text, result in zip(texts, results):
            self._record(_request("apply", session_id, text, timeout_s),
                         _step_response(result))
        return results

    def close(self, session_id: str) -> None:
        self.inner.close(session_id)
        self._record(_request("close", session_id, "", None), _response(OK))

    def shutdown(self) -> None:
        self.inner.shutdown()

    def requests(self, command: str = "apply") -> list[dict]:
        """The recorded requests of one command kind, in order."""
        return [entry["request"] for entry in self.trace
                if entry["request"]["command"] == command]

    def dump(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            "\n".join(json.dumps(entry) for entry in self.trace) + "\n",
            encoding="utf-8")


# ---------------------------------------------------------------------------
# wire client and reference server

class _Connection:
    """One socket to the server and the line reader over it."""

    def __init__(self, endpoint: str, timeout_s: float):
        host, _, port = endpoint.rpartition(":")
        try:
            self.sock = socket.create_connection(
                (host or "127.0.0.1", int(port)), timeout=timeout_s)
        except (OSError, ValueError) as exc:
            raise TransportError(f"cannot reach prover at {endpoint}: {exc}") from exc
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def exchange(self, request: dict, timeout_s: float) -> dict:
        self.sock.settimeout(timeout_s)
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        line = self.reader.readline()
        if not line:
            raise EOFError("prover closed the connection")
        return loads(line)

    def close(self) -> None:
        # Until the reader is closed too the server never sees EOF.
        self.reader.close()
        self.sock.close()


class WireProver(ProverBackend):
    """Socket client for the line-delimited JSON protocol.

    Each call takes an idle connection, or opens one, and runs its exchange
    with no lock held, so concurrent callers overlap their round-trips and
    the client holds at most one connection per concurrent caller.  Sessions
    live on the server, so any connection can drive any session.  Any
    transport fault (a socket error or timeout, EOF, a malformed line) fails
    the call with TransportError and closes that connection only; a server
    fault (``error_kind`` ``internal`` or ``protocol``) is a TransportError
    too, since the request was never judged, and so is a reply of the wrong
    shape (each command's reader in ``COMMANDS``).

    A run of steps goes out as one ``apply_steps`` request; a server that
    does not take it answers with a ``protocol`` error, so the run is a
    TransportError.  The wait for a reply is the steps' timeouts plus 10 s.
    """

    def __init__(self, config: ProverConfig):
        super().__init__(config)
        if not config.endpoint:
            raise TransportError(f"no prover endpoint ({ENV_PROVER_ADDR} "
                                 "and prover.endpoint unset)")
        self._idle: list[_Connection] = []  # guarded by self._lock

    def _call(self, command: str, session_id: Optional[str],
              payload: Union[str, list[str]],
              timeout_s: Optional[float]) -> object:
        """Send one request and read its reply by the command's row,
        waiting for it ``timeout_s`` per step sent (the step timeout when
        None) plus 10 s."""
        request = _request(command, session_id, payload, timeout_s)
        per_step = self.config.step_timeout_s if timeout_s is None else timeout_s
        wait_s = (len(payload) if isinstance(payload, list) else 1) * per_step + 10.0
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        conn = conn or _Connection(self.config.endpoint, self.config.init_timeout_s)
        try:
            response = conn.exchange(request, wait_s)
        except (OSError, EOFError, ValueError) as exc:
            conn.close()
            raise TransportError(f"prover connection failed: {exc}") from exc
        with self._lock:
            self._idle.append(conn)
        return _read_reply(request, response)

    def init_session(self, theory_text: str) -> str:
        return self._call("init", None, theory_text, self.config.init_timeout_s)

    def apply(self, session_id: str, step_text: str,
              timeout_s: Optional[float] = None) -> StepResult:
        timeout_s = self.config.step_timeout_s if timeout_s is None else timeout_s
        return self._call("apply", session_id, step_text, timeout_s)

    def apply_steps(self, session_id: str, texts: Sequence[str],
                    timeout_s: Optional[float] = None) -> list[StepResult]:
        timeout_s = self.config.step_timeout_s if timeout_s is None else timeout_s
        return self._call("apply_steps", session_id, list(texts), timeout_s)

    def close(self, session_id: str) -> None:
        try:
            self._call("close", session_id, "", None)
        except TransportError:
            pass

    def shutdown(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


SERVER_POLL_S = 0.05


def _checked(request: object) -> Command:
    """The row of ``request``'s command, the request checked: an object
    naming a command in ``COMMANDS``, with a ``session_id`` string when the
    row names a session, ``step`` a string when present, the row's payload
    field passing its type test, and ``timeout_s`` a number or null.
    Anything else raises ValueError."""
    if not isinstance(request, dict):
        raise ValueError("request is not a JSON object")
    name = request.get("command")
    command = COMMANDS.get(name) if isinstance(name, str) else None
    if command is None:
        raise ValueError(f"unknown command {name!r}")
    if command.session and not isinstance(request.get("session_id"), str):
        raise ValueError(f"{name} names no session_id")
    if not isinstance(request.get("step", ""), str):
        raise ValueError("step is not a string")
    if not command.valid(request.get(command.payload, "")):
        raise ValueError(f"{command.payload} is not what {name} takes")
    timeout_s = request.get("timeout_s")
    if timeout_s is not None and (isinstance(timeout_s, bool)
                                  or not isinstance(timeout_s, (int, float))):
        raise ValueError("timeout_s is not a number")
    return command


class ProverServer:
    """Serves any ProverBackend over the wire protocol (reference server).

    Intended for adapters and tests; each connection gets its own thread.  A
    request line it cannot read is answered with a ``protocol`` error, and
    the connection goes on.
    """

    def __init__(self, backend: ProverBackend, host: str = "127.0.0.1",
                 port: int = 0):
        self.backend = backend
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            # a reply written while an earlier one is unacknowledged must not
            # wait for the client's delayed ACK (Nagle's algorithm)
            disable_nagle_algorithm = True

            def handle(self) -> None:
                for raw in self.rfile:
                    if not raw.strip():
                        continue
                    response = outer._dispatch(raw)
                    self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self.address = "{}:{}".format(*self._server.server_address)

    def _dispatch(self, raw: bytes) -> dict:
        try:
            request = loads(raw.decode("utf-8"))
            command = _checked(request)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError too
            return _response(ERROR, message=str(exc), error_kind="protocol")
        try:
            return command.serve(self.backend, request.get("session_id"),
                                 request.get(command.payload, ""),
                                 request.get("timeout_s"))
        except Exception as exc:  # protocol server must not die mid-connection
            return _fault(exc)

    def start(self) -> "ProverServer":
        # the serve loop notices stop() only at its next poll
        threading.Thread(target=self._server.serve_forever,
                         kwargs={"poll_interval": SERVER_POLL_S},
                         daemon=True).start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()


# ---------------------------------------------------------------------------
# stepping

@dataclass(frozen=True)
class Advance:
    """Where ``SessionCursor.advance`` stopped: ``count`` steps accepted,
    then a non-ok step at index ``count`` (``last`` not ok), the terminal
    accepted state (``done``), or the end of the steps (neither).  ``last``
    is the final prover result, None when no step was given."""

    count: int
    last: Optional[StepResult] = None
    done: bool = False


def justification(tactic: str) -> str:
    """The ``by`` step that closes a goal with ``tactic``, a method or a
    ``by …`` step, spaced as ``parse_script`` reads it back (``by(m)`` is
    ``by (m)``); the cursor files a repaired step under the same text."""
    tactic = tactic.strip()
    if tactic.startswith(("by ", "by(")):
        return "by " + tactic[2:].lstrip()
    return f"by ({tactic})" if " " in tactic else f"by {tactic}"


def _after_body(text: str, body: str) -> Optional[str]:
    """The bare ``by T`` when ``text`` is ``<body> by T``, else None."""
    if text.startswith(body) and text[len(body):len(body) + 4] in (" by ", " by("):
        return text[len(body) + 1:]
    return None


class SessionCursor:
    """One prover session on a statement's theory, and the one owner of
    where it stands relative to its caller's prefix.  ``advance`` is the one
    stepping loop: every check, repair step and prefix replay goes through it.

    A verdict is a function of the session's accepted step texts and the
    step text, so the cursor keeps each accepted step as a trie node, with
    its parent and answer, and each refusal under the node it was refused
    at; a step accepted as ``<body>`` then ``by T``, or through the hammer,
    is also filed as the ``<body> by T`` it lands in a proof as.  ``seek``
    makes no call and takes only steps this cursor saw accepted, so the
    caller always stands at a trie node: the one its prefix ends at.  Every
    apply goes through the answerer (``_answer``), the one method that
    answers from the trie.  A refusal kept at the caller's node is answered
    with no call.  Where the session does not stand, a step accepted at the
    caller's node is too, and the caller walks on to its node; ``<body> by
    T`` finishes the goal body the session stands in; any other step
    rebuilds the session at the caller's path.  A kept answer that finishes
    the proof is never recalled: the step is asked again, so completion is
    only ever reported by the prover.  Where the session stands, the sender
    (``_send``) sends the steps a run at a time, each run in one request,
    and files the answers, which moves the session and the caller together.
    So the caller's path is read only while the caller stands apart from
    the session: ``seek`` sets it, the walk extends it, and the rebuild
    replays it.  ``recalled`` counts the answers given with no call, and
    ``timeouts`` the applies that timed out, over every session the cursor
    has held; a timeout is no verdict and is never kept."""

    def __init__(self, prover: ProverBackend, statement: str,
                 config: ProverConfig):
        self.prover = prover
        self.config = config
        self.theory = config.theory_header + "\n\n" + strip_terminal_marker(statement)
        self.session = prover.init_session(self.theory)
        self.timeouts = 0
        self.recalled = 0
        # (node, step text) -> the node the step leads to, or its refusal
        self._trie: dict[tuple[int, str], Union[int, StepResult]] = {}
        # node -> (parent, step text, the prover's answer)
        self._edges: list[tuple[int, str, Optional[StepResult]]] = [(0, "", None)]
        self._node = 0  # where the session stands
        self._at = 0  # where the caller stands
        # the caller's step texts, to rebuild at while it stands apart
        self._path: list[str] = []

    def advance(self, texts: Iterable[str]) -> Advance:
        """Apply step texts in order, from where the caller stands, until one
        is not ok, the prover reports completion, or the texts run out.  The
        texts are taken at once: each pass hands the rest to the answerer
        (``_answer``), and each run of them the trie cannot answer is built
        and sent in one request by the sender (``_send``); the prover stops
        it where this loop stops.  The hammer pseudo-step gets the hammer
        timeout, every other step the step timeout."""
        texts = list(texts)
        count, result = 0, None
        while count < len(texts):
            for result in self._answer(texts[count:]):
                if not result.ok:
                    return Advance(count, result)
                count += 1
                if result.is_done:
                    return Advance(count, result, done=True)
        return Advance(count, result)

    def seek(self, prefix: Iterable[str]) -> None:
        """Stand at ``prefix``, steps this cursor saw the prover accept in
        that order; any other prefix raises ValueError.  No call is made: the
        session goes there at the next apply that needs it."""
        path = list(prefix)
        node: Union[None, int, StepResult] = 0
        for text in path:
            node = self._trie.get((node, text))
            if not isinstance(node, int):
                raise ValueError(f"seek past a step never accepted: {text!r}")
        self._path, self._at = path, node

    def _answer(self, texts: list[str]) -> list[StepResult]:
        """The verdicts on a leading run of ``texts`` where the caller
        stands, at least one.  A refusal of the first text kept at the
        caller's node is answered with no call.  Apart from the session, so
        is an acceptance kept there that does not finish the proof, and the
        caller walks on; else ``<body> by T`` is sent as ``by T`` in the
        goal body the session stands in, or the session is rebuilt at the
        caller's path.  Where the session stands, the sender asks."""
        text = texts[0]
        seen = self._trie.get((self._at, text))
        if isinstance(seen, StepResult):
            self.recalled += 1
            return [seen]
        if self._at != self._node:
            # completion comes from the prover, never the trie
            if seen is not None and not self._edges[seen][2].is_done:
                self.recalled += 1
                self._at = seen
                self._path.append(text)
                return [self._edges[seen][2]]
            # `<body> by T` is `<body>`, where the session stands, then `by T`
            parent, body, _ = self._edges[self._node]
            tactic = _after_body(text, body) if parent == self._at else None
            if tactic is not None:
                return self._send([tactic])
            self._rebuild()
        return self._send(texts)

    def _send(self, texts: list[str]) -> list[StepResult]:
        """The prover's answers to a leading run of ``texts`` where the
        session stands, at least one, each filed.  The first text goes as
        it is: the answerer asked for it.  The run is the longest that no
        answer the trie keeps could cut short: it ends before a kept refusal
        and after a ``by`` step, whose alias can move the session onto a
        kept node.  The hammer, which has its own timeout, goes alone.
        Every run goes out as one ``apply_steps``."""
        trie, size = self._trie, 0
        node: Union[None, int, StepResult] = self._node
        for text in texts:
            if text == HAMMER_STEP:
                break
            if node is not None:  # None: a node the run makes, still bare
                node = trie.get((node, text))
                if isinstance(node, StepResult):
                    break
            size += 1
            if text.startswith(("by ", "by(")):
                break
        timeout_s = (self.config.hammer_timeout_s if texts[0] == HAMMER_STEP
                     else self.config.step_timeout_s)
        results = self.prover.apply_steps(self.session, texts[:size or 1],
                                          timeout_s)
        return [self._file(text, result) for text, result in zip(texts, results)]

    def _file(self, text: str, result: StepResult) -> StepResult:
        """Keep the prover's answer to ``text`` where the session stands,
        unless it is a timeout, under the step's other texts too.  An
        accepted step leads to the node one of its other texts already
        leads to, if any, as ``text`` does from then on; it moves the
        session and the caller there.  The caller's path is left as it is:
        it is read only after a ``seek`` sets it anew."""
        node = self._node
        key = (node, text)
        status = result.status
        if status == TIMEOUT:
            self.timeouts += 1
            return result
        # only a hammer call or a `by` step has other keys
        aliases = (self._aliases(node, text, result) if text == HAMMER_STEP
                   or text.startswith(("by ", "by(")) else ())
        if status != OK:
            for alias in (key, *aliases):
                self._trie[alias] = result
            return result
        seen = self._trie.get(key)
        for alias in aliases:
            kept = self._trie.get(alias)
            if isinstance(kept, int):
                # an equivalent state already kept is where the session stands
                seen = kept
        if seen is None:
            seen = len(self._edges)
            self._edges.append((node, text, result))
        self._trie[key] = seen
        for alias in aliases:
            # the fresh acceptance outranks a refusal kept there
            if not isinstance(self._trie.get(alias), int):
                self._trie[alias] = seen
        self._node = self._at = seen
        return result

    def _aliases(self, node: int, text: str,
                 result: StepResult) -> list[tuple[int, str]]:
        """The other keys a step's answer is filed under: an accepted hammer
        call as the ``by`` step it found, and a ``by`` step after a goal
        body as ``<body> by T`` at the body's parent."""
        keys = []
        if text == HAMMER_STEP and result.ok:
            text = normalize_step(justification(result.message or "smt"))
            keys.append((node, text))
        if node and text.startswith(("by ", "by(")):
            parent, body, _ = self._edges[node]
            keys.append((parent, f"{body} {normalize_step(text)}"))
        return keys

    def _rebuild(self) -> None:
        """Re-apply the caller's path, as it stands, in a fresh session, in
        one ``advance``.  The theory and every step of the prefix were accepted
        before, so a step not accepted now is the prover misbehaving (a
        timeout under load, say), not a verdict on the proof: it raises
        TransportError."""
        self.prover.close(self.session)
        try:
            self.session = self.prover.init_session(self.theory)
        except TheoryLoadError as exc:
            raise TransportError(f"theory no longer loads: {exc}") from exc
        self._node = self._at = 0
        run = self.advance(self._path)
        if run.count < len(self._path):
            raise TransportError(
                f"validated prefix no longer replays: {run.last.message}")

    def close(self) -> None:
        self.prover.close(self.session)


# ---------------------------------------------------------------------------
# whole-script checking

@dataclass(frozen=True)
class CheckReport:
    success: bool


def check_script(prover: ProverBackend, statement: str,
                 script: ProofScript) -> CheckReport:
    """Apply a script's steps in order against a fresh session.

    Steps are applied literally (placeholders included — this is a checker,
    not a repair engine).  Success means the prover reported a terminal
    accepted state; an empty script fails, since goals remain.
    """
    if not script.steps:
        return CheckReport(False)
    cursor = SessionCursor(prover, statement, prover.config)
    try:
        run = cursor.advance(step.text for step in script.steps)
    finally:
        cursor.close()
    return CheckReport(run.done)
