"""In-memory span tracing from outside the program.

Spans come from two places: timing proxies around the prover and model
clients, and wrappers installed over the module-level names through which
``engine``, ``curate``, ``bench``, ``formalize`` and ``isar`` call each
other.  Each span carries name, start, end, parent and item id; spans are
kept in memory and written out after the traced cycle.  A span opened on a
worker thread with no open span of its own is parented to the innermost
"ambient" span of the thread that started the pool, so per-layer self time
(span time minus the union of its children's intervals) is well defined for
pooled work.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional

from proofseek import bench, curate, engine, formalize, isar
from proofseek.model import ModelBackend
from proofseek.prover import HAMMER_STEP, ProverBackend, StepResult

from world import item_of, norm


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ambient: list[tuple[int, Optional[str]]] = []
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, item: Optional[str] = None,
             ambient: bool = False):
        stack = self._stack()
        outer = stack[-1] if stack else (self._ambient[-1] if self._ambient else None)
        parent = outer[0] if outer else None
        if item is None and outer is not None:
            item = outer[1]
        with self._id_lock:
            span_id = next(self._ids)
        attrs: dict = {}
        stack.append((span_id, item))
        if ambient:
            self._ambient.append((span_id, item))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if ambient:
                self._ambient.pop()
            self.spans.append((span_id, name, start, end, parent, item, attrs))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, item, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, **attrs}) + "\n")


# ---------------------------------------------------------------------------
# client proxies

class TimedLock:
    """Stands in for a client's lock and sums the time callers wait for it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.wait_s = 0.0

    def __enter__(self) -> "TimedLock":
        started = time.perf_counter()
        self.inner.acquire()
        self.wait_s += time.perf_counter() - started  # under the lock
        return self

    def __exit__(self, *exc) -> None:
        self.inner.release()


class TracedProver(ProverBackend):
    """Times and counts every call into a prover client.

    ``replay`` counts applies of a step text already accepted at the same
    position in an earlier session of the same item: prefix replay.  The
    client's own lock, if it has one, is swapped for a ``TimedLock``, so
    ``lock_wait_s`` is the part of ``client_s`` spent waiting for it.
    """

    def __init__(self, inner: ProverBackend, tracer: Tracer):
        super().__init__(inner.config)
        self.inner = inner
        self.tracer = tracer
        self.client_lock = None
        if hasattr(inner, "_lock"):
            self.client_lock = inner._lock = TimedLock(inner._lock)
        self.counts = dict.fromkeys(
            ("init", "apply", "hammer", "close", "timeout", "apply_ok",
             "replay"), 0)
        self.client_s = 0.0
        self._sessions: dict[str, list] = {}  # sid -> [item, position]
        self._accepted: dict[str, dict] = {}  # item -> {(pos, text): first sid}

    def snapshot(self) -> dict:
        """Counts and seconds, so the totals outlive the client."""
        with self._lock:
            return {**self.counts, "client_s": self.client_s,
                    "lock_wait_s": self.client_lock.wait_s
                    if self.client_lock else 0.0}

    def _count(self, key: str, elapsed: float) -> None:
        with self._lock:
            self.counts[key] += 1
            self.client_s += elapsed

    def init_session(self, theory_text: str) -> str:
        item = item_of(theory_text)
        with self.tracer.span("prover.init", item):
            started = time.perf_counter()
            sid = self.inner.init_session(theory_text)
            self._count("init", time.perf_counter() - started)
        with self._lock:
            self._sessions[sid] = [item, 0]
        return sid

    def apply(self, session_id: str, step_text: str,
              timeout_s: Optional[float] = None) -> StepResult:
        hammer = step_text == HAMMER_STEP
        with self.tracer.span("prover.hammer" if hammer else "prover.apply") as attrs:
            started = time.perf_counter()
            result = self.inner.apply(session_id, step_text, timeout_s)
            self._count("hammer" if hammer else "apply",
                        time.perf_counter() - started)
            attrs["status"] = result.status
        with self._lock:
            self.counts["timeout"] += result.status == "timeout"
            self.counts["apply_ok"] += result.ok and not hammer
            item, position = self._sessions.get(session_id, (None, 0))
            key = (position, norm(step_text))
            seen = self._accepted.setdefault(item, {})
            if not hammer and seen.get(key, session_id) != session_id:
                self.counts["replay"] += 1
            if result.ok:
                seen.setdefault(key, session_id)
                if session_id in self._sessions:
                    self._sessions[session_id][1] += 1
        return result

    def close(self, session_id: str) -> None:
        with self.tracer.span("prover.close"):
            started = time.perf_counter()
            self.inner.close(session_id)
            self._count("close", time.perf_counter() - started)


class TracedModel(ModelBackend):
    """Times and counts every completion request; adds no lock of its own."""

    def __init__(self, inner: ModelBackend, tracer: Tracer):
        super().__init__()
        self.inner = inner
        self.tracer = tracer
        self.requests = 0
        self.samples = 0
        self.client_s = 0.0

    def complete(self, params, prompt, n: int = 1) -> list[str]:
        with self.tracer.span("model.complete", item_of(prompt.text)) as attrs:
            started = time.perf_counter()
            out = self.inner.complete(params, prompt, n)
            elapsed = time.perf_counter() - started
            attrs["purpose"] = prompt.purpose
        with self._lock:
            self.requests += 1
            self.samples += len(out)
            self.client_s += elapsed
        return out

    def snapshot(self) -> dict:
        with self._lock:
            return {"request": self.requests, "samples": self.samples,
                    "client_s": self.client_s}


# ---------------------------------------------------------------------------
# wrappers over module-level names

def _wrap(tracer: Tracer, name: str, fn: Callable,
          on_result: Optional[Callable] = None,
          item_arg: Optional[int] = None, **fixed) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        item = item_of(args[item_arg]) if item_arg is not None else None
        with tracer.span(name, item) as attrs:
            attrs.update(fixed)
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(attrs, result)
            return result
    return traced


def _ok(attrs: dict, outcome) -> None:
    """Records whether a repair outcome or a check report succeeded."""
    attrs["ok"] = bool(outcome.success)


class Patches:
    """Installs wrappers over module attributes; restores them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, **kwargs) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, _wrap(self.tracer, name, original, **kwargs))

    def __enter__(self) -> "Patches":
        t = self.wrap
        t(engine, "atp_substitute", "engine.atp", on_result=_ok)
        t(engine, "erp_repair", "engine.erp", on_result=_ok)
        t(engine, "heuristic_repair", "engine.heuristic")
        t(engine, "parse_script", "isar.parse")
        t(engine, "splice", "isar.surgery", op="splice")
        t(engine, "truncate_to_block", "isar.surgery", op="truncate")
        t(engine, "slice_steps", "isar.surgery", op="slice")
        t(engine, "with_steps", "isar.surgery", op="with_steps")
        t(isar, "render", "isar.render")
        t(curate, "parse_script", "isar.parse")
        t(curate, "check_script", "curate.check", on_result=_ok,
          item_arg=1)
        t(bench, "append_jsonl", "bench.append")
        t(formalize, "evaluate", "policy.evaluate")
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer report

LAYERS = ("prover", "model", "engine", "isar", "policy", "formalize",
          "curate", "bench")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per layer: sum over its spans of duration minus child coverage."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = dict.fromkeys(LAYERS, 0.0)
    for span_id, name, start, end, _, _, _ in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - _covered(
            children.get(span_id, []), start, end)
    return out


def span_stats(spans: list[tuple]) -> dict:
    """count, total seconds and ok count per span name (and per op)."""
    stats: dict[str, list] = {}
    for _, name, start, end, _, _, attrs in spans:
        keys = [name]
        if "op" in attrs:
            keys.append(f"{name}.{attrs['op']}")
        for key in keys:
            entry = stats.setdefault(key, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += bool(attrs.get("ok"))
    return stats
