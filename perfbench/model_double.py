"""The model double: answers chat-completion requests from the items' plans.

An answer is a pure function of the request: the item is the theorem named
in the prompt, and the purpose (whole proof, ERP continuation, or the
natural-language statement of dataset construction) is read from the prompt
text.  Two front ends share one ``Responder``: an OpenAI-compatible HTTP
server for ``ChatModelClient`` with modelled latency, and an in-process
``ModelBackend`` with none.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from proofseek.model import ModelBackend, ModelParams, PromptRecord

import gen
import world
from world import Counters

_PREFIX = re.compile(r"Verified prefix:\n(.*?)\n\nContinuation:", re.S)


class Responder:
    def __init__(self, plans: dict):
        self.plans = plans
        self._policy_steps: dict[str, list[str]] = {}  # item -> candidate

    def respond(self, messages: list, n: int) -> list[str]:
        text = messages[-1]["content"]
        item = world.item_of(text)
        if item not in self.plans:
            raise KeyError("prompt names no known item")
        plan = self.plans[item]
        if "Proof (context only)" in text:
            return [plan.nl]
        prefix = _PREFIX.search(text)
        if plan.policy_outcome:
            steps = self._policy_steps.get(item)
            if steps is None:
                # built once per item: the item fixes the compiled theorem
                steps = self._policy_steps[item] = [
                    line for _, line in self._policy_lines(item, plan, text)]
            candidates = [*plan.candidates, "\n".join(steps)]
            true_steps = cand_steps = steps
        else:
            candidates = plan.candidates
            true_steps, cand_steps = plan.true_steps, plan.cand_steps
        if prefix is None:
            return list(candidates[:n])
        body = prefix.group(1).strip()
        done = 0 if body == "(empty)" else len(body.splitlines())
        source = true_steps if plan.erp_good else cand_steps
        return ["\n".join(source[done:])]

    @staticmethod
    def _policy_lines(item: str, plan: gen.Plan, text: str):
        _, top, entry = world.read_theory(text)
        conjuncts = [atom.strip() for atom in top.split("∧")]
        return gen.policy_candidate(item, conjuncts, plan.policy_outcome, entry)


class InProcessModel(ModelBackend):
    """Zero-latency model backend over a Responder."""

    def __init__(self, responder: Responder):
        super().__init__()
        self.responder = responder
        self.counters = ModelCounters()

    def _complete(self, params: ModelParams, prompt: PromptRecord,
                  n: int) -> list[str]:
        started = time.perf_counter()
        out = self.responder.respond(list(prompt.messages), n)
        self.counters.add(time.perf_counter() - started, request=1,
                          samples=len(out))
        return out


class ModelCounters(Counters):
    KEYS = ("request", "samples")


class ModelServer:
    """OpenAI-compatible chat-completion endpoint over a Responder.

    Each request is answered on its own thread and sleeps ``latency_s``
    outside any lock.
    """

    def __init__(self, responder: Responder, latency_s: float):
        self.responder = responder
        self.latency_s = latency_s
        self.counters = ModelCounters()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                started = time.perf_counter()
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length))
                try:
                    out = outer.responder.respond(body["messages"],
                                                  int(body.get("n", 1)))
                except (KeyError, TypeError, ValueError) as exc:
                    self.send_error(400, str(exc))
                    return
                if outer.latency_s > 0:
                    time.sleep(outer.latency_s)
                payload = json.dumps({"choices": [
                    {"index": i, "message": {"role": "assistant", "content": c}}
                    for i, c in enumerate(out)]}).encode("utf-8")
                # counted before replying, so a client never sees a reply
                # its request is not yet counted for
                outer.counters.add(time.perf_counter() - started, request=1,
                                   samples=len(out))
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format: str, *args) -> None:
                pass

        class Server(ThreadingHTTPServer):
            daemon_threads = True

        self._server = Server(("127.0.0.1", 0), Handler)
        host, port = self._server.server_address[:2]
        self.url = f"http://{host}:{port}/v1/chat/completions"
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ModelServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        name="model-double", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
