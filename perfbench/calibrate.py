"""CPU-speed probe for normalising CPU-bound timings.

On a shared machine the speed of plain Python code drifts by up to about 2x
for spells of seconds.  A fixed piece of benchmark-owned Python work -- a
tokenizer-style character walk and a two-pointer wildcard match, the kinds
of work the program's CPU time goes to -- is timed right before and right
after each measured region, and CPU-bound timings are scaled by
``NOMINAL_PROBE_S / probe time``: they read as seconds at the probe's nominal
speed.  The probe never calls the program, so a faster program still reads
faster.
"""

from __future__ import annotations

import time

# Probe iteration time on the reference machine (2-vCPU VM, CPython 3.11)
# when it is not slowed by other tenants.
NOMINAL_PROBE_S = 0.0035

_TEXT = "\n".join(
    f'have h{i}: "f{i} (g{i} x) = h{i} x + {i}" by (simp add: field_simps)'
    for i in range(150))
_PATTERNS = [f"arn:aws:svc:us-east-1:{a}:kind{b}/*"
             for a in range(5) for b in range(6)]
_VALUES = [f"arn:aws:svc:us-east-1:{a}:kind{b}/w"
           for a in range(3) for b in range(8)]


def _match(pattern: str, value: str) -> bool:
    p = v = 0
    star, star_v = -1, 0
    while v < len(value):
        if p < len(pattern) and pattern[p] in ("?", value[v]):
            p, v = p + 1, v + 1
        elif p < len(pattern) and pattern[p] == "*":
            star, star_v, p = p, v, p + 1
        elif star != -1:
            p, star_v = star + 1, star_v + 1
            v = star_v
        else:
            return False
    while p < len(pattern) and pattern[p] == "*":
        p += 1
    return p == len(pattern)


def _probe_once() -> int:
    text, n, i = _TEXT, len(_TEXT), 0
    counts: dict[str, int] = {}
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] == '"':
            j = text.index('"', i + 1) + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] != '"' \
                    and not text.startswith("(*", j):
                j += 1
        token = text[i:j]
        counts[token] = counts.get(token, 0) + 1
        i = j
    return len(counts) + sum(_match(p, v) for p in _PATTERNS for v in _VALUES)


def probe(seconds: float = 0.1) -> float:
    """Mean seconds per probe iteration over about ``seconds`` of work."""
    started = time.perf_counter()
    rounds = 0
    while True:
        _probe_once()
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return elapsed / rounds


def speed(before: float, after: float) -> float:
    """Scale factor for a region bracketed by two probes."""
    return NOMINAL_PROBE_S / ((before + after) / 2)
