"""Language-model backends: a chat-completion HTTP client plus the
deterministic replay and mock implementations every test runs against.

All backends share one surface: ``complete(params, prompt, n) -> list[str]``,
1 to ``n`` completions, safe to call from many threads at once.  No lock is
held across a request, so ``ChatModelClient`` sends concurrent requests in
parallel; only the backends that mutate shared state lock it (``ReplayModel``,
and so ``MockModel``, its batches left, ``RecordingModel`` its ``requests``
list).  Backends only answer requests; wrapping one in
``RecordingModel`` captures each request (purpose, sampling parameters, n,
completions) for budget and sampling audits and for writing replay
fixtures.  Replay fixtures are JSONL records ``{"digest": ...,
"completions": [...]}``, one per answered request, keyed by a stable digest
of (purpose, prompt text); the requests with one prompt replay the answers
recorded for it, in recorded order.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .errors import BudgetExceeded, MissingFixture, TransportError
from .jsonl import is_texts, loads, read_rows

__all__ = [
    "ChatModelClient",
    "MockModel",
    "ModelParams",
    "PromptRecord",
    "PURPOSES",
    "RecordingModel",
    "ReplayModel",
    "load_replay_fixtures",
    "prompt_digest",
]

ENV_MODEL_URL = "PROOFSEEK_MODEL_URL"
ENV_MODEL_KEY = "PROOFSEEK_MODEL_KEY"

PURPOSES = (
    "whole_proof",
    "erp",
    "nl_statement",
    "stage_description",
    "stage_informal_proof",
    "stage_formal_statement",
)


@dataclass(frozen=True)
class ModelParams:
    temperature: float = 0.6
    top_p: float = 0.95
    max_samples: int = 10
    max_tokens: int = 2048
    stop: tuple[str, ...] = ()
    model: str = "default"

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")


@dataclass(frozen=True)
class PromptRecord:
    messages: tuple[dict, ...]
    purpose: str
    few_shot_count: int = 0

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("prompt needs at least one message")
        if self.purpose not in PURPOSES:
            raise ValueError(f"unknown prompt purpose {self.purpose!r}")

    @property
    def text(self) -> str:
        return "\n".join(f"{m.get('role', '?')}: {m.get('content', '')}"
                         for m in self.messages)


def prompt_digest(prompt: PromptRecord) -> str:
    """Stable key for replay fixtures: sha256 over purpose and prompt text."""
    payload = prompt.purpose + "\x00" + prompt.text
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ModelBackend:
    """Base: sample-budget enforcement, the batch-size check, and a lock for
    subclasses that mutate shared state; ``_complete`` itself runs
    unlocked."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def complete(self, params: ModelParams, prompt: PromptRecord,
                 n: int = 1) -> list[str]:
        """1 to ``n`` completions.  A batch of none, or of more than asked
        for, is a TransportError whatever the backend: there is no candidate
        to judge, so it is no verdict on the problem."""
        if n > params.max_samples:
            raise BudgetExceeded(
                f"requested {n} samples, max_samples is {params.max_samples}")
        completions = self._complete(params, prompt, n)
        if not 0 < len(completions) <= n:
            raise TransportError(f"malformed completion batch: "
                                 f"{len(completions)} for a request of {n}")
        return completions

    def _complete(self, params: ModelParams, prompt: PromptRecord,
                  n: int) -> list[str]:
        raise NotImplementedError


class ChatModelClient(ModelBackend):
    """OpenAI-compatible chat-completion client.

    Endpoint and key come from PROOFSEEK_MODEL_URL / PROOFSEEK_MODEL_KEY
    unless given explicitly.  Network faults raise TransportError, never a
    proof-level failure, and so does a reply of the wrong shape
    (``_completions``) or size (``complete``).
    """

    def __init__(self, url: Optional[str] = None, api_key: Optional[str] = None,
                 timeout_s: float = 120.0):
        super().__init__()
        self.url = url or os.environ.get(ENV_MODEL_URL, "")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_MODEL_KEY, "")
        self.timeout_s = timeout_s
        if not self.url:
            raise TransportError(f"no model endpoint ({ENV_MODEL_URL} unset)")

    def _complete(self, params: ModelParams, prompt: PromptRecord,
                  n: int) -> list[str]:
        body = {
            "model": params.model,
            "messages": list(prompt.messages),
            "temperature": params.temperature,
            "top_p": params.top_p,
            "max_tokens": params.max_tokens,
            "n": n,
        }
        if params.stop:
            body["stop"] = list(params.stop)
        request = urllib.request.Request(
            self.url,
            data=json.dumps(body).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                **({"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}),
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                payload = loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # an error reply holds its connection open
            raise TransportError(f"model endpoint failed: {exc}") from exc
        return _completions(payload)


def _completions(payload: object) -> list[str]:
    """The texts of a chat-completion reply, checked: ``choices`` is a list
    of objects, each with a ``message`` object whose ``content`` is a
    string.  Anything else is a TransportError, since no completion can be
    read from it; ``complete`` checks how many there are."""
    choices = payload.get("choices") if isinstance(payload, dict) else None
    if isinstance(choices, list):
        messages = [choice.get("message") if isinstance(choice, dict) else None
                    for choice in choices]
        texts = [message.get("content") if isinstance(message, dict) else None
                 for message in messages]
        if is_texts(texts):
            return texts
    raise TransportError(f"malformed completion payload: {payload!r:.200}")


@dataclass(frozen=True)
class _ReplayFixture:
    digest: str
    completions: tuple[str, ...]


def load_replay_fixtures(path: Union[str, Path]) -> dict[str, list[list[str]]]:
    """The completion batches of a JSONL fixture file by digest, each
    digest's in file order.  Each row is read by ``typed``: an object whose
    ``digest`` is a string and whose ``completions`` are a list of strings.
    Anything else raises ValueError naming the line."""
    batches: dict[str, list[list[str]]] = {}
    for row in read_rows(path, _ReplayFixture):
        batches.setdefault(row.digest, []).append(list(row.completions))
    return batches


class ReplayModel(ModelBackend):
    """Serves stored completions keyed by prompt digest.  A fixture file
    may hold several batches for one digest (``load_replay_fixtures``), and
    they are given in file order, the last one repeating; a dict maps each
    digest to its one batch.  A key with no batches, or with an empty list
    of them, is MissingFixture.  ``_key`` is the one thing a subclass
    changes: which queue a prompt draws from."""

    def __init__(self, fixtures: Union[str, Path, dict[str, list[str]]]):
        super().__init__()
        self._batches = (load_replay_fixtures(fixtures)
                         if isinstance(fixtures, (str, Path))
                         else {digest: [list(batch)]
                               for digest, batch in fixtures.items()})

    def _key(self, prompt: PromptRecord) -> str:
        return prompt_digest(prompt)

    def _complete(self, params: ModelParams, prompt: PromptRecord,
                  n: int) -> list[str]:
        key = self._key(prompt)
        with self._lock:
            batches = self._batches.get(key)
            if not batches:
                raise MissingFixture(f"no batch for purpose={prompt.purpose} "
                                     f"under key {key}")
            batch = batches.pop(0) if len(batches) > 1 else batches[0]
        return batch[:n]


class MockModel(ReplayModel):
    """Scripted backend: a ``ReplayModel`` keyed by purpose.

    ``script`` maps purpose to a list of batches, given in order, the last
    one repeating (so a single entry behaves like a constant function).  A
    script of any other shape (a purpose not in ``PURPOSES``, batches or a
    batch that is not a list, a completion that is not a string) raises
    ValueError.
    """

    def __init__(self, script: dict[str, list[list[str]]]):
        if not isinstance(script, dict) or not all(
                purpose in PURPOSES and isinstance(batches, list)
                and all(is_texts(batch) for batch in batches)
                for purpose, batches in script.items()):
            raise ValueError("a mock model script maps purposes to lists of "
                             "batches, each a list of strings")
        super().__init__({})
        self._batches = {k: [list(batch) for batch in v] for k, v in script.items()}

    def _key(self, prompt: PromptRecord) -> str:
        return prompt.purpose


class RecordingModel(ModelBackend):
    """Wraps a backend and records every answered request, in order: its
    purpose, sampling parameters, n, digest and completions.  ``dump``
    writes the replay fixtures: one row per answered request, sorted by
    digest, each digest's rows in the order they were answered."""

    def __init__(self, inner: ModelBackend):
        super().__init__()
        self.inner = inner
        self.requests: list[dict] = []

    def _complete(self, params: ModelParams, prompt: PromptRecord,
                  n: int) -> list[str]:
        out = self.inner.complete(params, prompt, n)
        with self._lock:
            self.requests.append({
                "purpose": prompt.purpose,
                "n": n,
                "temperature": params.temperature,
                "top_p": params.top_p,
                "few_shot_count": prompt.few_shot_count,
                "digest": prompt_digest(prompt),
                "completions": list(out),
            })
        return out

    def dump(self, path: Union[str, Path]) -> None:
        # a stable sort: a digest's rows stay in answer order
        lines = [json.dumps({"digest": r["digest"],
                             "completions": r["completions"]})
                 for r in sorted(self.requests, key=lambda r: r["digest"])]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
