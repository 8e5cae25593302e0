"""The prover double: a small, deterministic model of an Isar checker.

Every verdict is a pure function of (item, step text, that session's
history).  The item is the theorem named in the session's theory text; the
history is the session's stack of open blocks and its pending goal.  Whether
a goal is true, and which tactic proves it, comes from a keyed hash of
(item, goal text) -- the "world" -- so the generators and the checker agree
without sharing any table, and nothing depends on the order in which
requests from different items arrive.

Supported step forms (whitespace-normalised):

* ``proof -`` opens a block for the pending goal;
* ``have [name:] "G"`` / ``show ?thesis`` with or without ``by T``: without a
  justification the goal becomes pending, with one it is closed by ``T``;
* a bare ``by T`` (or the Sledgehammer pseudo-step) closes the pending goal,
  or, when none is pending, the enclosing block's goal;
* ``qed`` closes a block whose goal was shown; closing the outermost block
  reports ``is_done``.

``sorry`` is refused, as a checker run without quick-and-dirty mode does, so
a success can only come from real justifications.  A failed apply never
advances the session.

Latency is modelled by sleeping, outside every lock, so the double is never
where concurrent calls get serialized.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from proofseek.errors import SessionClosed, TheoryLoadError
from proofseek.prover import HAMMER_STEP, ProverBackend, ProverConfig, StepResult

OK, ERROR, TIMEOUT = "ok", "error", "timeout"

# Isabelle proof methods the world knows; a cascade-class goal is proved by
# exactly one of them.
CASCADE = ("auto", "simp", "blast", "fastforce", "eval", "sos", "arith",
           "simp add: field_simps", "simp add: mod_simps")

# Goal classes.
CASCADE_CLASS, HAMMER_CLASS, MODEL_CLASS, FALSE_CLASS = (
    "cascade", "hammer", "model", "false")


@dataclass(frozen=True)
class Latency:
    """Modelled service time per request kind, in seconds."""

    init_s: float = 0.0
    apply_s: float = 0.0
    hammer_s: float = 0.0
    timeout_s: float = 0.0


ZERO = Latency()


def _h(*parts: str) -> int:
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def norm(text: str) -> str:
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# the world: truth and provability of goals

_POLICY_ATOM = re.compile(r"^policy_allows (\S+) (\S+) (\S+)$")


@dataclass(frozen=True)
class PolicyEntry:
    name: str
    act: str
    res: str


@dataclass(frozen=True)
class GoalInfo:
    cls: str
    tactics: frozenset = frozenset()
    hammer: Optional[str] = None


def _atom_true(item: str, atom: str, entry: Optional[PolicyEntry]) -> bool:
    match = _POLICY_ATOM.match(atom)
    if match:
        name, act, res = match.groups()
        return (entry is not None and name == entry.name and act == entry.act
                and (entry.res == "AllResources" or res == entry.res))
    return _h(item, atom, "truth") % 16 != 0


def goal_info(item: str, goal: str, entry: Optional[PolicyEntry] = None) -> GoalInfo:
    """Class and accepted tactics of a goal of this item.

    Generic goals are false for about one in sixteen texts; otherwise about
    78% are proved by one cascade method, 12% only by a Sledgehammer-found
    ``metis`` call, and the rest only by a ``metis`` call the model must
    supply.  Goals made only of policy atoms are true exactly when the
    compiled policy allows them, and are always cascade-provable.
    """
    goal = norm(goal)
    atoms = [a.strip() for a in goal.split("∧")]
    if not all(_atom_true(item, atom, entry) for atom in atoms):
        return GoalInfo(FALSE_CLASS)
    h = _h(item, goal)
    policy_only = all(_POLICY_ATOM.match(atom) for atom in atoms)
    r = h % 100
    if policy_only or r < 78:
        tactic = CASCADE[(h // 100) % len(CASCADE)]
        return GoalInfo(CASCADE_CLASS, frozenset({tactic}), tactic)
    fact = f"metis f{(h // 100) % 997} g{(h // 99700) % 997}"
    if r < 90:
        return GoalInfo(HAMMER_CLASS, frozenset({fact}), fact)
    return GoalInfo(MODEL_CLASS, frozenset({fact}), None)


def times_out(item: str, goal: str, tactic: str) -> bool:
    """Roughly one failing (goal, tactic) pair in 64 runs out of time."""
    return _h(item, norm(goal), tactic, "timeout") % 64 == 0


def correct_tactic(info: GoalInfo) -> str:
    return min(info.tactics)


def justification(tactic: str) -> str:
    return f"by ({tactic})" if " " in tactic else f"by {tactic}"


# ---------------------------------------------------------------------------
# theory text

_THEOREM = re.compile(
    r"\b(?:theorem|lemma)\s+([A-Za-z0-9_]+)\s*:\s*(?:shows\s+)?\"([^\"]*)\"", re.S)
_ENTRY = re.compile(
    r"definition\s+(\w+)\s*::\s*policy_entry\s+where.*?act\s*=\s*(\w+)\s*,"
    r"\s*res\s*=\s*(\w+)", re.S)


_ITEM = re.compile(r"\b(?:theorem|lemma)\s+([A-Za-z0-9_]+)\s*:")


def item_of(text: str) -> Optional[str]:
    """The item a theory, statement or prompt is about: its theorem's name."""
    match = _ITEM.search(text)
    return match.group(1) if match else None


def read_theory(theory: str) -> tuple[str, str, Optional[PolicyEntry]]:
    """(item, top goal, policy entry or None) of a session's theory text."""
    match = _THEOREM.search(theory)
    if match is None:
        raise TheoryLoadError("no theorem statement in theory")
    entry_match = _ENTRY.search(theory)
    entry = PolicyEntry(*entry_match.groups()) if entry_match else None
    return match.group(1), norm(match.group(2)), entry


# ---------------------------------------------------------------------------
# step interpretation

_BODY = re.compile(
    r'^(?:(?:moreover|then|hence|ultimately|also|finally)\s+)*'
    r'(have|show)\s+(?:[A-Za-z_][\w\']*\s*:\s*)?(?:"([^"]*)"|(\?thesis))$')


@dataclass
class _Frame:
    goal: str
    is_show: bool  # opened for a `show`: closing it shows the outer goal
    shown: bool = False


@dataclass
class Session:
    item: str
    top: str
    entry: Optional[PolicyEntry]
    stack: list = field(default_factory=list)
    # (goal, is_show) awaiting `proof -` or a justification
    pending: Optional[tuple[str, bool]] = None
    done: bool = False
    counter: int = 0
    open: bool = True
    # (item, goal) -> GoalInfo, shared by the sessions of one double
    infos: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.pending = (self.top, True)


def _split_justification(text: str) -> tuple[str, Optional[str]]:
    words = text.split(" ")
    if "by" not in words:
        return text, None
    at = words.index("by")
    tactic = " ".join(words[at + 1:]).strip()
    if tactic.startswith("(") and tactic.endswith(")"):
        tactic = tactic[1:-1].strip()
    return " ".join(words[:at]), tactic


def interpret(session: Session, text: str) -> tuple[str, str]:
    """Verdict for one step: (status, message); a Sledgehammer success
    carries the tactic it found as its message.

    Mutates ``session`` only when the step is accepted.
    """
    if session.done:
        return ERROR, "no goals left"
    text = norm(text)
    if text == HAMMER_STEP:
        target = _target(session)
        if target is None:
            return ERROR, "no goal for sledgehammer"
        info = _info(session, target[0])
        if info.hammer is None:
            return ERROR, "no proof found"
        _close(session, target)
        return OK, info.hammer
    words = text.split(" ")
    if "sorry" in words:
        return ERROR, "sorry is not accepted"
    if text in ("proof -", "proof"):
        if session.pending is None:
            return ERROR, "no goal to prove"
        session.stack.append(_Frame(*session.pending))
        session.pending = None
        return OK, ""
    if text == "qed":
        if session.pending is not None or not session.stack \
                or not session.stack[-1].shown:
            return ERROR, "unfinished block"
        frame = session.stack.pop()
        if not session.stack:
            session.done = True
        elif frame.is_show:
            session.stack[-1].shown = True
        return OK, ""
    body, tactic = _split_justification(text)
    if body:
        goal = _statement(session, body)
        if goal is None:
            return ERROR, f"cannot interpret {body[:40]!r}"
        if tactic is None:
            session.pending = goal
            return OK, ""
        target = goal
    else:
        if tactic is None:
            return ERROR, "empty step"
        target = _target(session)
        if target is None:
            return ERROR, "no goal"
    info = _info(session, target[0])
    if tactic in info.tactics:
        _close(session, target)
        return OK, ""
    if times_out(session.item, target[0], tactic):
        return TIMEOUT, "step exceeded its time limit"
    return ERROR, "failed to finish proof"


def _info(session: Session, goal: str) -> GoalInfo:
    """``goal_info`` memoised per double: a session's theory fixes its item
    and policy entry, and replayed prefixes ask about the same goals.  Two
    threads racing on one key both compute the same pure value."""
    key = (session.item, goal)
    info = session.infos.get(key)
    if info is None:
        info = session.infos[key] = goal_info(session.item, goal, session.entry)
    return info


def _statement(session: Session, body: str) -> Optional[tuple[str, bool]]:
    if session.pending is not None or not session.stack:
        return None
    match = _BODY.match(body)
    if match is None:
        return None
    keyword, goal, thesis = match.groups()
    if keyword == "show":
        frame_goal = session.stack[-1].goal
        if thesis is None and norm(goal) != frame_goal:
            return None
        return frame_goal, True
    if thesis is not None:
        return None
    return norm(goal), False


def _target(session: Session) -> Optional[tuple[str, bool]]:
    if session.pending is not None:
        return session.pending
    if session.stack and not session.stack[-1].shown:
        return session.stack[-1].goal, True
    return None


def _close(session: Session, target: tuple[str, bool]) -> None:
    goal, is_show = target
    if session.pending == target:
        session.pending = None
    if is_show:
        if session.stack:
            session.stack[-1].shown = True
        else:
            session.done = True


# ---------------------------------------------------------------------------
# the backend

class Counters:
    """Requests served and busy time; a lock guards increments only."""

    KEYS = ("init", "apply", "hammer", "close", "timeout", "apply_ok")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts = dict.fromkeys(self.KEYS, 0)
        self.busy_s = 0.0

    def add(self, busy_s: float, **counts: int) -> None:
        with self._lock:
            self.busy_s += busy_s
            for key, value in counts.items():
                self.counts[key] += value

    def snapshot(self) -> dict:
        with self._lock:
            return {**self.counts, "busy_s": self.busy_s}


class WorldProver(ProverBackend):
    """Prover backend over the world model, with modelled latency.

    Served over the wire by ``ProverServer`` in the latency workloads and
    called in-process (zero latency) in ``policy-offline`` and for output
    checks.  Keeps no request log.
    """

    def __init__(self, latency: Latency = ZERO,
                 config: Optional[ProverConfig] = None):
        super().__init__(config)
        self.latency = latency
        self.counters = Counters()
        self._sessions: dict[str, Session] = {}
        self._ids = itertools.count(1)
        self._infos: dict = {}

    def init_session(self, theory_text: str) -> str:
        started = time.perf_counter()
        item, top, entry = read_theory(theory_text)
        with self._lock:
            sid = f"s-{next(self._ids)}"
            self._sessions[sid] = Session(item, top, entry, infos=self._infos)
        _sleep(self.latency.init_s)
        self.counters.add(time.perf_counter() - started, init=1)
        return sid

    def apply(self, session_id: str, step_text: str,
              timeout_s: Optional[float] = None) -> StepResult:
        started = time.perf_counter()
        session = self._sessions.get(session_id)
        if session is None or not session.open:
            raise SessionClosed(f"session {session_id} is not open")
        status, message = interpret(session, step_text)
        hammer = norm(step_text) == HAMMER_STEP
        if status == TIMEOUT:
            _sleep(self.latency.timeout_s)
        else:
            _sleep(self.latency.hammer_s if hammer else self.latency.apply_s)
        if status == OK:
            session.counter += 1
            result = StepResult(OK, f"{session_id}/{session.counter}", message,
                                session.done)
        else:
            result = StepResult(status, None, message, False)
        self.counters.add(time.perf_counter() - started,
                          hammer=int(hammer), apply=int(not hammer),
                          timeout=int(status == TIMEOUT),
                          apply_ok=int(status == OK and not hammer))
        return result

    def close(self, session_id: str) -> None:
        started = time.perf_counter()
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is not None:
            session.open = False
        self.counters.add(time.perf_counter() - started, close=1)


def _sleep(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)
