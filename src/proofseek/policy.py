"""Access-policy parsing and evaluation.

Implements the allow-iff rule used throughout the pipeline: a request is
allowed if and only if at least one statement allows it and no statement
explicitly denies it.  These pure functions double as the ground-truth oracle
behind policy-correctness theorems, so the matcher is written directly —
the test suite keeps a regex-based reference to check it against.

A statement applies to a request when its action, principal and resource
patterns all match; the action and principal are tested first, since they
are one test per statement whatever the resource (``_admits``).
``evaluate`` decides one request and names the statements that matched.
``granted`` decides one action and principal over many resources in one
pass: it keeps the resource patterns of the statements that admit the
action and principal, Allow and Deny apart, then allows a resource iff some
kept Allow pattern matches it and no kept Deny pattern does.  Its answers
equal ``evaluate(...).allowed`` request by request; the policy compiler
decides a policy's grants with it, over one witness resource per resource
pattern (``instantiate_pattern``).

The matcher takes fast paths with C-level string operations for the two
common pattern shapes: a literal pattern is compared with ``==``, and a
pattern whose only wildcard is one trailing ``*`` with ``startswith``.  Any
other pattern is first checked on its literal head, then walked with two
pointers.  Patterns are not translated to ``re``: a backtracking regex
engine is super-linear on many-star patterns, while the walk is not.

Caveat, stated loudly: Condition blocks are parsed and carried but never
evaluated.  Any statement that carries conditions is treated as matching,
i.e. evaluation over-approximates conditional grants.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence, Union

from .errors import PolicyFormatError
from .jsonl import loads

__all__ = [
    "ANY_PRINCIPAL",
    "AccessRequest",
    "Decision",
    "Effect",
    "PolicyDocument",
    "PolicyStatement",
    "evaluate",
    "granted",
    "load_policy_csv",
    "match_pattern",
    "parse_policy",
    "policy_rows",
]

ANY_PRINCIPAL = "*"
WITNESS_TOKEN = "w"


class Effect(str, Enum):
    ALLOW = "Allow"
    DENY = "Deny"


@dataclass(frozen=True)
class PolicyStatement:
    effect: Effect
    actions: tuple[str, ...]
    resources: tuple[str, ...]
    principals: tuple[str, ...] = (ANY_PRINCIPAL,)
    conditions: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.actions:
            raise PolicyFormatError("Action", "empty after normalization")
        if not self.resources:
            raise PolicyFormatError("Resource", "empty after normalization")


@dataclass(frozen=True)
class PolicyDocument:
    statements: tuple[PolicyStatement, ...]
    source_name: str = ""
    # The policy as the user wrote it, for prompts and records.
    source_text: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.statements:
            raise PolicyFormatError("Statement", "policy has no statements")


@dataclass(frozen=True)
class AccessRequest:
    action: str
    resource: str
    principal: str = "anyone"

    def __post_init__(self) -> None:
        if not (self.action and self.resource and self.principal):
            raise ValueError("request fields must be non-empty")


@dataclass(frozen=True)
class Decision:
    outcome: Effect
    matched_allow: tuple[int, ...] = ()
    matched_deny: tuple[int, ...] = ()

    @property
    def allowed(self) -> bool:
        return self.outcome is Effect.ALLOW


# ---------------------------------------------------------------------------
# parsing

def _as_list(value: Any) -> list[Any]:
    if value is None:
        return []
    return list(value) if isinstance(value, list) else [value]


def _principals_of(raw: Any) -> tuple[str, ...]:
    if raw is None:
        return (ANY_PRINCIPAL,)
    if isinstance(raw, dict):
        # {"AWS": [...]} / {"Service": "..."} — flatten all entries.
        flat: list[str] = []
        for sub in raw.values():
            flat.extend(str(v) for v in _as_list(sub))
        return tuple(flat) or (ANY_PRINCIPAL,)
    vals = tuple(str(v) for v in _as_list(raw))
    return vals or (ANY_PRINCIPAL,)


def _decoded(value: object) -> object:
    """``value`` decoded when it is JSON text, else as it is."""
    if not isinstance(value, str):
        return value
    try:
        return loads(value)
    except ValueError as exc:  # nested too deeply to decode, too
        raise PolicyFormatError("document", f"invalid JSON: {exc}") from exc


def parse_policy(source: Union[str, dict], source_name: str = "") -> PolicyDocument:
    """Parse a JSON policy document.

    Scalar Action/Resource/Principal fields are normalized to lists; a
    missing Principal means anyone.  A top-level ``policy_json`` wrapper is
    unwrapped, and the document it holds must be an object too.
    NotAction/NotResource/NotPrincipal are rejected — negated statements are
    outside this evaluator's semantics.  The source is kept
    verbatim as ``source_text`` (a dict source as its JSON).
    """
    doc = _decoded(source)
    if isinstance(doc, dict) and "policy_json" in doc:
        doc = _decoded(doc["policy_json"])
    if not isinstance(doc, dict):
        raise PolicyFormatError("document", "expected a JSON object")
    raw_statements = doc.get("Statement")
    if raw_statements is None:
        raise PolicyFormatError("Statement")
    statements = []
    for pos, raw in enumerate(_as_list(raw_statements)):
        if not isinstance(raw, dict):
            raise PolicyFormatError("Statement", f"statement {pos} is not an object")
        for banned in ("NotAction", "NotResource", "NotPrincipal"):
            if banned in raw:
                raise PolicyFormatError(banned, "negated statements are unsupported")
        effect_raw = raw.get("Effect")
        if effect_raw not in (Effect.ALLOW.value, Effect.DENY.value):
            raise PolicyFormatError("Effect", f"statement {pos}: {effect_raw!r}")
        actions = tuple(str(a) for a in _as_list(raw.get("Action")))
        if not actions:
            raise PolicyFormatError("Action", f"statement {pos}")
        resources = tuple(str(r) for r in _as_list(raw.get("Resource")))
        if not resources:
            raise PolicyFormatError("Resource", f"statement {pos}")
        conditions = raw.get("Condition") or {}
        if not isinstance(conditions, dict):
            raise PolicyFormatError("Condition", f"statement {pos}")
        statements.append(PolicyStatement(
            effect=Effect(effect_raw),
            actions=actions,
            resources=resources,
            principals=_principals_of(raw.get("Principal")),
            conditions=tuple(sorted((k, json.dumps(v, sort_keys=True))
                                    for k, v in conditions.items())),
        ))
    return PolicyDocument(
        tuple(statements), source_name=source_name,
        source_text=source if isinstance(source, str) else json.dumps(source))


def policy_rows(text: str) -> list[tuple[str, str]]:
    """The (problem_name, policy_json) rows of a CSV with those columns, not
    yet parsed."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not {"problem_name", "policy_json"} <= set(reader.fieldnames):
        raise PolicyFormatError("csv", "expected columns problem_name, policy_json")
    return [(row["problem_name"], row["policy_json"]) for row in reader]


def load_policy_csv(text: str) -> list[PolicyDocument]:
    """Load policies from a CSV with columns (problem_name, policy_json)."""
    return [parse_policy(policy_json, source_name=name)
            for name, policy_json in policy_rows(text)]


# ---------------------------------------------------------------------------
# matching and evaluation

def match_pattern(pattern: str, value: str) -> bool:
    """Wildcard match: ``*`` any substring, ``?`` any single char, else exact.

    Case-sensitive.  A literal pattern is compared whole and a ``prefix*``
    pattern by ``startswith``; any other pattern must share its literal head
    (up to the first wildcard) with the value, and the rest is an iterative
    two-pointer walk with star backtracking.
    """
    head = pattern.find("*")  # then the first wildcard of either kind
    if "?" in pattern:
        question = pattern.find("?")
        if head < 0 or question < head:
            head = question
    elif head < 0:
        return pattern == value
    elif head == len(pattern) - 1:
        return value.startswith(pattern[:-1])
    if not value.startswith(pattern[:head]):
        return False
    p = v = head
    star = -1
    star_v = 0
    while v < len(value):
        if p < len(pattern) and (pattern[p] == "?" or pattern[p] == value[v]):
            p += 1
            v += 1
        elif p < len(pattern) and pattern[p] == "*":
            star = p
            star_v = v
            p += 1
        elif star != -1:
            p = star + 1
            star_v += 1
            v = star_v
        else:
            return False
    while p < len(pattern) and pattern[p] == "*":
        p += 1
    return p == len(pattern)


def _admits(stmt: PolicyStatement, action: str, principal: str) -> bool:
    """Whether ``stmt`` matches ``action`` and ``principal``: the part of
    its match that does not depend on the resource."""
    # Conditions are carried but not evaluated: a conditioned statement is
    # treated as matching (over-approximation).  Every pattern matches
    # itself, so an action written out in full needs no match.
    return (any(a == action or match_pattern(a, action) for a in stmt.actions)
            and any(p == ANY_PRINCIPAL or match_pattern(p, principal)
                    for p in stmt.principals))


def evaluate(policy: PolicyDocument, request: AccessRequest) -> Decision:
    """Allow iff some statement allows and none denies; default deny."""
    matched_allow = []
    matched_deny = []
    for idx, stmt in enumerate(policy.statements):
        if _admits(stmt, request.action, request.principal) and any(
                match_pattern(r, request.resource) for r in stmt.resources):
            (matched_allow if stmt.effect is Effect.ALLOW else matched_deny).append(idx)
    outcome = Effect.ALLOW if matched_allow and not matched_deny else Effect.DENY
    return Decision(outcome, tuple(matched_allow), tuple(matched_deny))


def granted(policy: PolicyDocument, action: str, resources: Sequence[str],
            principal: str = "anyone") -> list[bool]:
    """``evaluate(policy, AccessRequest(action, r, principal)).allowed`` for
    each resource ``r``, in one pass over the statements: each statement's
    action and principal are tested once, and each resource against the
    resource patterns of the statements that admit them."""
    allow: list[str] = []
    deny: list[str] = []
    for stmt in policy.statements:
        if _admits(stmt, action, principal):
            (allow if stmt.effect is Effect.ALLOW else deny).extend(stmt.resources)
    return [any(match_pattern(p, r) for p in allow)
            and not any(match_pattern(p, r) for p in deny)
            for r in resources]


# ---------------------------------------------------------------------------
# witnesses

def instantiate_pattern(pattern: str) -> str:
    """Replace wildcards with the witness token; the result is matched by
    the pattern that produced it."""
    return pattern.replace("*", WITNESS_TOKEN).replace("?", WITNESS_TOKEN)


def literal_actions(policy: PolicyDocument) -> list[str]:
    """Distinct action patterns in first-appearance order, instantiated."""
    seen: dict[str, None] = {}
    for stmt in policy.statements:
        for action in stmt.actions:
            seen.setdefault(instantiate_pattern(action), None)
    return list(seen)


def resource_patterns(policy: PolicyDocument) -> list[str]:
    """Distinct resource patterns in first-appearance order."""
    seen: dict[str, None] = {}
    for stmt in policy.statements:
        for res in stmt.resources:
            seen.setdefault(res, None)
    return list(seen)
