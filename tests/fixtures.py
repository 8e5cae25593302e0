"""Shared fixture data: the EC2 golden sample, generators, and independent
reference implementations used as test oracles."""

from __future__ import annotations

import json
import random
import re
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from hypothesis import strategies as st

from proofseek.errors import ParseError, SessionClosed, TransportError
from proofseek.isar import Token
from proofseek.prover import (
    SERVER_POLL_S,
    MockOutcome,
    MockProver,
    ProverBackend,
    normalize_step,
)

PROBLEM_NAME = "s3_samples_mutations_ec2_exp_single_ec2_prevent_running_classic_policy_6_0"

EC2_POLICY_JSON = """{
  "policy_json": {
    "Statement": [
      {
        "Effect": "Allow",
        "Action": "ec2:RunInstances",
        "Resource": "arn:aws:ec2:us-east-1:123412341234:*"
      },
      {
        "Effect": "Allow",
        "Action": "ec2:RunInstances",
        "Resource": [
          "arn:aws:ec2:us-east-1::image/ami-*",
          "arn:aws:ec2:us-east-1:123412341243:instance/*",
          "arn:aws:ec2:us-east-1:123412341234:volume/*",
          "arn:aws:ec2:us-east-1:123412341234:network-interface/*",
          "arn:aws:ec2:us-east-1:123412341234:key-pair/*"
        ]
      }
    ]
  }
}"""

GOLDEN_FORMAL_STATEMENT = """datatype ec2_action = RunInstances

datatype ec2_resource = AllResources | Images | Instances | Volumes | NetworkInterfaces | KeyPairs

datatype principal = Anyone

record policy_entry =
  act :: ec2_action
  res :: ec2_resource
  prin :: principal

definition ec2_instance_policy :: policy_entry where
  "ec2_instance_policy = (|
    act = RunInstances,
    res = AllResources,
    prin = Anyone
  |)"

fun policy_allows :: "policy_entry => ec2_action => ec2_resource => bool" where
  "policy_allows pe a r = (act pe = RunInstances ∧ (res pe = AllResources \\/ res pe = r))"

theorem ec2_policy_correctness:
  shows "policy_allows ec2_instance_policy RunInstances AllResources ∧
         policy_allows ec2_instance_policy RunInstances Images ∧
         policy_allows ec2_instance_policy RunInstances Instances ∧
         policy_allows ec2_instance_policy RunInstances Volumes ∧
         policy_allows ec2_instance_policy RunInstances NetworkInterfaces ∧
         policy_allows ec2_instance_policy RunInstances KeyPairs"
  oops
"""

GOLDEN_PROOF_BODY = """proof -
  have "policy_allows ec2_instance_policy RunInstances AllResources"
    by (simp add: ec2_instance_policy_def)
  moreover have "policy_allows ec2_instance_policy RunInstances Images"
    by (simp add: ec2_instance_policy_def)
  moreover have "policy_allows ec2_instance_policy RunInstances Instances"
    by (simp add: ec2_instance_policy_def)
  moreover have "policy_allows ec2_instance_policy RunInstances Volumes"
    by (simp add: ec2_instance_policy_def)
  moreover have "policy_allows ec2_instance_policy RunInstances NetworkInterfaces"
    by (simp add: ec2_instance_policy_def)
  moreover have "policy_allows ec2_instance_policy RunInstances KeyPairs"
    by (simp add: ec2_instance_policy_def)
  ultimately show ?thesis by simp
qed"""

GOLDEN_PROOF_WRAPPED = ("(* Proof of the theorem *)\n(*\n"
                        + GOLDEN_PROOF_BODY + "\n*)")

GOLDEN_INFORMAL_STATEMENT = (
    "The text you provided is a policy statement written in JSON format, "
    "which is typically used in cloud computing environments like Amazon Web "
    "Services (AWS) to define permissions. Here's a breakdown of what it "
    "means in plain English:\n\n1. General Permission:\n - The policy allows "
    'the action "ec2:RunInstances." This means that the user or service with '
    "this policy can start or launch new EC2 instances.\n - This applies to "
    "any resource within the specified AWS account (123412341234) in the "
    '"us-east-1" region.\n\n2. Specific Permissions:\n - Images: use any AMI '
    'in "us-east-1".\n - Instances: manage EC2 instances in 123412341243.\n'
    " - Volumes: manage EBS volumes in 123412341234.\n - Network Interfaces "
    "and Key Pairs: full control in 123412341234.\n\nSummary: This policy "
    "allows launching and managing EC2 instances and their dependencies.")

GOLDEN_INFORMAL_PROOF = (
    "To provide an informal proof or argument supporting the interpretation "
    "of the JSON policy statement, we break it into structured observations:"
    '\n\n1. JSON uses keys like "Effect", "Action", and "Resource" to '
    "structure permissions.\n2. 'Allow' means access is granted; "
    "'ec2:RunInstances' lets the user launch EC2s.\n3. '*' in the ARN means "
    "it applies to all of that type within the account and region.\n"
    "4. Specific ARNs grant permissions to manage AMIs, Instances, Volumes, "
    "Interfaces, and Key Pairs.\n\nConclusion: These combined statements "
    "demonstrate full EC2 launch and management capability.")

GOLDEN_STATE_RECORD = {
    "success": True,
    "i_try": 0,
    "success_stage": "init_proof",
    "has_timeout": False,
    "extra_calls": 0,
    "has_sc": False,
}

PROOF_LISTINGS = (GOLDEN_PROOF_WRAPPED, GOLDEN_FORMAL_STATEMENT)


def accepting_mock(script_texts, config=None, **kwargs) -> MockProver:
    """Mock that accepts exactly these step texts and their goal bodies,
    as a prover that accepts `have "a" by simp` accepts `have "a"` (done
    inferred at qed)."""
    from proofseek.isar import parse_script
    table: dict[str, MockOutcome] = {}
    for text in script_texts:
        for step in parse_script(text).steps:
            for accepted in (step.body_text, step.text):
                if accepted:
                    table[normalize_step(accepted)] = MockOutcome("ok")
    return MockProver(table=table, **kwargs, config=config)


class SessionLosingProver(MockProver):
    """A mock that loses each session it opens on a theory containing
    ``marker``: the session is closed as soon as it opens, as by a prover
    that restarted, so every apply to it raises SessionClosed."""

    def __init__(self, marker: str, **kwargs):
        super().__init__(**kwargs)
        self.marker = marker

    def init_session(self, theory_text: str) -> str:
        session = super().init_session(theory_text)
        if self.marker in theory_text:
            self.close(session)
        return session


class ScheduledProver(ProverBackend):
    """Forwards ``init_session``, ``apply_steps`` and ``close`` to
    ``inner``, noting each run and its timeout in ``runs``.  It takes no
    single ``apply``: a cursor sends every run as ``apply_steps``.  The
    ``init_session``/``apply_steps`` call whose 0-based arrival index maps
    to a fault in ``faults`` fails: ``transport`` and ``session`` raise
    TransportError and SessionClosed before forwarding, and ``lost``
    forwards, then raises TransportError, as a reply lost on its way back."""

    def __init__(self, inner: ProverBackend, faults: Optional[dict] = None):
        super().__init__(inner.config)
        self.inner, self.faults = inner, faults or {}
        self.count = 0
        self.runs: list[tuple[list[str], Optional[float]]] = []

    def _call(self, method, *args):
        with self._lock:
            fault, self.count = self.faults.get(self.count), self.count + 1
        if fault == "transport":
            raise TransportError("prover connection failed")
        if fault == "session":
            raise SessionClosed("session lost")
        result = method(*args)
        if fault == "lost":
            raise TransportError("prover reply lost")
        return result

    def init_session(self, theory_text: str) -> str:
        return self._call(self.inner.init_session, theory_text)

    def apply_steps(self, session_id, texts, timeout_s=None):
        with self._lock:
            self.runs.append((list(texts), timeout_s))
        return self._call(self.inner.apply_steps, session_id, texts, timeout_s)

    def close(self, session_id: str) -> None:
        self.inner.close(session_id)


def placeholders(script) -> list[int]:
    """Indices of a parsed script's sorry-justified steps, in source order."""
    return [i for i, step in enumerate(script.steps) if step.is_sorry]


# ---------------------------------------------------------------------------
# random Isar script generation

def gen_steps(rng: random.Random, max_depth: int = 4,
              sorry_goals: int = 0) -> tuple[list[str], list[int]]:
    """Generate a step list (one canonical text per step) with block
    structure, optionally turning ``sorry_goals`` goal steps into
    placeholders.  Returns (steps, indices of injected placeholders)."""
    counter = [0]

    def goal_text() -> str:
        counter[0] += 1
        return f'"g{counter[0]}"'

    def block(depth: int) -> list[str]:
        steps: list[str] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.25 and depth < max_depth:
                steps.append(rng.choice(["proof -", "proof (intro conjI)"]))
                steps.extend(block(depth + 1))
                steps.append("qed")
            elif roll < 0.45:
                steps.append(rng.choice(["fix x", 'assume "h0"', "then show ?thesis by simp"]))
            elif roll < 0.70:
                steps.append(f"have {goal_text()} by simp")
            else:
                steps.append(f"moreover have {goal_text()} by (simp add: defs)")
        steps.append(rng.choice(["show ?thesis by auto",
                                 f"have {goal_text()} by blast"]))
        return steps

    steps = ["proof -", *block(1), "qed"] if rng.random() < 0.8 \
        else block(0)
    goal_positions = [i for i, s in enumerate(steps)
                      if s.startswith(("have", "moreover have", "show"))]
    injected: list[int] = []
    for position in rng.sample(goal_positions,
                               min(sorry_goals, len(goal_positions))):
        body = steps[position].rsplit(" by ", 1)[0]
        steps[position] = f"{body} sorry"
        injected.append(position)
    return steps, sorted(injected)


def noisy_text(rng: random.Random, steps: list[str]) -> str:
    """Join steps with randomized whitespace (quote contents are space-free
    so this cannot corrupt tokens)."""
    chunks = []
    for step in steps:
        indent = " " * rng.randint(0, 6)
        body = re.sub(" ", lambda _: rng.choice([" ", "  ", "\n   "]), step)
        chunks.append(indent + body)
    return ("\n" * rng.randint(1, 2)).join(chunks)


def gen_script_text(rng: random.Random, max_depth: int = 4) -> str:
    steps, _ = gen_steps(rng, max_depth)
    return noisy_text(rng, steps)


# ---------------------------------------------------------------------------
# random policies and the independent evaluation oracle

ACTIONS = [f"svc:Act{i}" for i in range(6)] + ["svc:Read*", "ops:*"]
RESOURCES = [f"arn:aws:svc:r1:acct{i % 2}:thing{i}/*" for i in range(6)] \
    + ["*", "arn:aws:svc:r1:acct0:*"]
PRINCIPALS = ["*", "alice", "bob", "svc-?-user"]


def gen_policy_dict(rng: random.Random) -> dict:
    statements = []
    for _ in range(rng.randint(1, 4)):
        statement = {
            "Effect": rng.choice(["Allow", "Allow", "Allow", "Deny"]),
            "Action": rng.sample(ACTIONS, rng.randint(1, 3)),
            "Resource": rng.sample(RESOURCES, rng.randint(1, 3)),
        }
        if rng.random() < 0.4:
            statement["Principal"] = rng.choice(PRINCIPALS)
        statements.append(statement)
    return {"Statement": statements}


def gen_requests(rng: random.Random, policy_dict: dict) -> list[tuple[str, str, str]]:
    requests = []
    for stmt in policy_dict["Statement"]:
        for action in stmt["Action"]:
            for resource in stmt["Resource"]:
                requests.append((action.replace("*", "w").replace("?", "w"),
                                 resource.replace("*", "w").replace("?", "w"),
                                 rng.choice(["anyone", "alice", "svc-x-user"])))
    for _ in range(4):
        requests.append((rng.choice(["svc:Act0", "svc:Other", "x:Nope"]),
                         rng.choice(["arn:aws:svc:r1:acct0:thing0/w", "plain",
                                     "arn:aws:svc:r1:acct1:thing1/deep/w"]),
                         rng.choice(["anyone", "bob"])))
    return requests


def oracle_match(pattern: str, value: str) -> bool:
    """Reference matcher built by regex translation (independent route)."""
    regex = "".join(".*" if c == "*" else "." if c == "?" else re.escape(c)
                    for c in pattern)
    return re.fullmatch(regex, value) is not None


def oracle_decision(policy_dict: dict, action: str, resource: str,
                    principal: str) -> bool:
    """Literal 'some statement allows and none denies' over all statements."""
    def as_list(v):
        return v if isinstance(v, list) else [v]

    def stmt_matches(stmt) -> bool:
        if not any(oracle_match(a, action) for a in as_list(stmt["Action"])):
            return False
        if not any(oracle_match(r, resource) for r in as_list(stmt["Resource"])):
            return False
        principals = as_list(stmt.get("Principal", "*"))
        return any(p == "*" or oracle_match(p, principal) for p in principals)

    allows = any(s["Effect"] == "Allow" and stmt_matches(s)
                 for s in policy_dict["Statement"])
    denies = any(s["Effect"] == "Deny" and stmt_matches(s)
                 for s in policy_dict["Statement"])
    return allows and not denies


# ---------------------------------------------------------------------------
# reference tokenizer: the original per-character walk, kept as an oracle for
# the compiled scanner in ``proofseek.isar.tokenize``

CARTOUCHE_OPEN = ("\\<open>", "‹")
CARTOUCHE_CLOSE = ("\\<close>", "›")


def _startswith_any(text: str, pos: int, needles: tuple[str, ...]) -> Optional[str]:
    for needle in needles:
        if text.startswith(needle, pos):
            return needle
    return None


def reference_tokenize(text: str) -> list[Token]:
    """Split text into atomic tokens.

    Comments, quoted strings, and cartouches are single tokens preserved
    verbatim (including internal whitespace); everything else splits on
    whitespace.  Raises ParseError on unterminated strings, comments, or
    cartouches.
    """
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("(*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*)", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            if depth:
                raise ParseError("unterminated comment", text, i)
            kind = "comment"
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise ParseError("unterminated string", text, i)
            j += 1
            kind = "string"
        elif _startswith_any(text, i, CARTOUCHE_OPEN):
            depth, j = 1, i + len(_startswith_any(text, i, CARTOUCHE_OPEN))
            while j < n and depth:
                opener = _startswith_any(text, j, CARTOUCHE_OPEN)
                closer = _startswith_any(text, j, CARTOUCHE_CLOSE)
                if opener:
                    depth, j = depth + 1, j + len(opener)
                elif closer:
                    depth, j = depth - 1, j + len(closer)
                else:
                    j += 1
            if depth:
                raise ParseError("unterminated cartouche", text, i)
            kind = "cartouche"
        else:
            j = i
            while (
                j < n
                and not text[j].isspace()
                and text[j] != '"'
                and not text.startswith("(*", j)
                and not _startswith_any(text, j, CARTOUCHE_OPEN)
            ):
                j += 1
            kind = "word"
        tokens.append(Token(kind, text[i:j], i))
        i = j
    return tokens


# ---------------------------------------------------------------------------
# JSON values of any shape, for properties over peer replies

MISSING = object()  # a drawn field that is left out of the object

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6)


def json_field(*plausible):
    """A field's value: left out, a value a well-behaved peer sends, or any
    JSON value."""
    return st.one_of(st.just(MISSING), st.sampled_from(plausible), json_values)


def json_objects(**fields):
    """JSON objects with the drawn ``fields``, missing ones left out, plus
    extra keys."""
    extra = st.dictionaries(
        st.text(max_size=6).filter(lambda key: key not in fields),
        json_values, max_size=2)
    return st.tuples(st.fixed_dictionaries(fields), extra).map(
        lambda drawn: {**drawn[1], **{name: value for name, value
                                      in drawn[0].items()
                                      if value is not MISSING}})


# ---------------------------------------------------------------------------
# wire and HTTP test servers

class LineServer:
    """Canned-response TCP server: records every request line it reads and
    answers each with ``respond(connection_index, line)``; a None answer
    drops the connection."""

    def __init__(self, respond):
        self.lines: list[bytes] = []
        self.connections = 0
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                index = outer.connections
                outer.connections += 1
                for raw in self.rfile:
                    outer.lines.append(raw)
                    answer = respond(index, raw)
                    if answer is None:
                        return
                    self.wfile.write(answer)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server(("127.0.0.1", 0), Handler)
        self.address = "{}:{}".format(*self._server.server_address)
        threading.Thread(target=self._server.serve_forever,
                         kwargs={"poll_interval": SERVER_POLL_S},
                         daemon=True).start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()


class ChatServer:
    """OpenAI-compatible chat-completion stub: answers each POST, on its own
    thread, with the completions ``answer(body)`` returns; an exception from
    ``answer`` becomes an HTTP 500."""

    def __init__(self, answer):
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                body = json.loads(self.rfile.read(
                    int(self.headers["Content-Length"])))
                try:
                    payload = {"choices": [{"message": {"content": text}}
                                           for text in answer(body)]}
                    status = 200
                except Exception as exc:
                    payload, status = {"error": str(exc)}, 500
                data = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self.url = "http://{}:{}/v1/chat/completions".format(
            *self._server.server_address)
        threading.Thread(target=self._server.serve_forever,
                         kwargs={"poll_interval": SERVER_POLL_S},
                         daemon=True).start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
