"""Formal-statement production.

Two routes produce prover-ready statements:

* ``compile_policy``/``render_theory``: a deterministic compiler from parsed
  access policies to an Isabelle theory skeleton — action/resource/principal
  datatypes, a ``policy_entry`` record, a ``policy_allows`` function mirroring
  the evaluator's matching rule, and a correctness theorem whose conjuncts
  are exactly the (action, resource) pairs the evaluator allows, one
  witness resource per resource class.  Output is byte-stable.

* ``formalize_nl``: the staged LLM workflow — description, informal proof,
  then the formal statement, each a separate model call in that order, with
  one structural-validation retry on the final stage.

The compiler covers Allow-only single-action policies whose resource classes
are either covered by an account-wide wildcard or form a single class;
anything else raises UnsupportedPolicy and is left to the LLM route.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ParseError, StageValidationError, UnsupportedPolicy
from .isar import parse_script, tokenize
from .model import ModelBackend, ModelParams
from .policy import (
    Effect,
    PolicyDocument,
    evaluate,  # noqa: F401  not called here; perfbench/tracing.py wraps it
    granted,
    instantiate_pattern,
    literal_actions,
    resource_patterns,
)
from . import prompts

__all__ = [
    "FormalizationRecord",
    "TheorySkeleton",
    "compile_policy",
    "formalize_nl",
    "render_theory",
    "validate_formal_statement",
    "wrap_theory",
]

ALL_RESOURCES = "AllResources"
ANYONE = "Anyone"


@dataclass(frozen=True)
class TheorySkeleton:
    datatype_defs: tuple[tuple[str, tuple[str, ...]], ...]
    record_defs: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    fun_defs: tuple[str, ...]
    theorem: str

    def __post_init__(self) -> None:
        if not self.theorem.strip():
            raise ValueError("theorem must be non-empty")


@dataclass
class FormalizationRecord:
    problem_name: str = ""
    natural_statement: str = ""
    informal_description: str = ""
    informal_proof: str = ""
    formal_statement: str = ""
    provenance: str = "llm"

    def to_json(self) -> dict:
        """The fields, and ``theory_text``, a copy of ``formal_statement``."""
        return {**vars(self), "theory_text": self.formal_statement}


# ---------------------------------------------------------------------------
# identifier sanitation

def _camel(raw: str) -> str:
    # A word of ASCII letters and digits is one part of the split, so it is
    # capitalised directly.  isalnum() alone is not that test: it is true of
    # letters and digits outside ASCII too ("é", "²"), which the split's
    # [0-9A-Za-z] class treats as separators.
    if raw.isascii() and raw.isalnum():
        name = raw[:1].upper() + raw[1:]
    else:
        parts = re.split(r"[^0-9A-Za-z]+", raw)
        name = "".join(p[:1].upper() + p[1:] for p in parts if p)
    if not name:
        name = "X"
    if name[0].isdigit():
        name = "R" + name
    return name


def _snake(raw: str) -> str:
    cleaned = re.sub(r"[^0-9A-Za-z]+", "_", raw).strip("_").lower()
    if not cleaned:
        cleaned = "x"
    if cleaned[0].isdigit():
        cleaned = "p_" + cleaned
    return cleaned


def _dedupe(name: str, used: set[str]) -> str:
    candidate = name
    counter = 2
    while candidate in used:
        candidate = f"{name}{counter}"
        counter += 1
    used.add(candidate)
    return candidate


def resource_class(pattern: str) -> str:
    """Constructor name for a resource pattern's class.

    Account-wide wildcards become AllResources; ARN patterns name their
    resource-type segment, camel-cased and pluralized.
    """
    if pattern == "*":
        return ALL_RESOURCES
    parts = pattern.split(":", 5)
    tail = parts[5] if len(parts) == 6 else pattern
    if tail in ("*", ""):
        return ALL_RESOURCES
    kind = tail.split("/", 1)[0]
    if kind in ("*", ""):
        return ALL_RESOURCES
    name = _camel(kind)
    return name if name.endswith("s") else name + "s"


def _action_constructor(action: str) -> str:
    tail = action.split(":", 1)[1] if ":" in action else action
    return _camel(tail)


def _service_of(action: str) -> str:
    return _snake(action.split(":", 1)[0]) if ":" in action else "policy"


# ---------------------------------------------------------------------------
# policy compilation

def compile_policy(policy: PolicyDocument) -> TheorySkeleton:
    """Compile an access policy into a theory skeleton.

    Raises UnsupportedPolicy outside the deterministic fragment: Deny
    effects, wildcard or multiple actions, or resource classes not covered
    by an account-wide wildcard.
    """
    if any(stmt.effect is Effect.DENY for stmt in policy.statements):
        raise UnsupportedPolicy("Deny statements have no deterministic encoding")

    for stmt in policy.statements:
        for pattern in stmt.actions:
            if "*" in pattern or "?" in pattern:
                raise UnsupportedPolicy(f"wildcard action {pattern!r}")
    actions = literal_actions(policy)
    if len(actions) != 1:
        raise UnsupportedPolicy(f"expected exactly one action, found {len(actions)}")
    action = actions[0]
    action_ctor = _action_constructor(action)
    service = _service_of(action)

    patterns = resource_patterns(policy)
    used: set[str] = set()
    classes = [(_dedupe(resource_class(p), used), p) for p in patterns]
    class_names = [name for name, _ in classes]
    if ALL_RESOURCES in class_names:
        entry_resource = ALL_RESOURCES
    elif len(class_names) == 1:
        entry_resource = class_names[0]
    else:
        raise UnsupportedPolicy(
            "multiple resource classes without an account-wide wildcard")

    principal_used: set[str] = {ANYONE}
    principal_ctors = [ANYONE]
    entry_principal = ANYONE
    for stmt in policy.statements:
        for principal in stmt.principals:
            if principal != "*":
                principal_ctors.append(_dedupe(_camel(principal), principal_used))

    action_dt = (f"{service}_action", (action_ctor,))
    resource_dt = (f"{service}_resource", tuple(class_names))
    principal_dt = ("principal", tuple(principal_ctors))
    record = ("policy_entry", (("act", action_dt[0]), ("res", resource_dt[0]),
                               ("prin", "principal")))

    entry_name = f"{service}_instance_policy"
    definition = (
        f"definition {entry_name} :: policy_entry where\n"
        f'  "{entry_name} = (|\n'
        f"    act = {action_ctor},\n"
        f"    res = {entry_resource},\n"
        f"    prin = {entry_principal}\n"
        f'  |)"'
    )
    if ALL_RESOURCES in class_names:
        allow_body = (f"act pe = {action_ctor} ∧ "
                      f"(res pe = {ALL_RESOURCES} \\/ res pe = r)")
    else:
        allow_body = f"act pe = {action_ctor} ∧ res pe = r"
    allows = (
        f'fun policy_allows :: "policy_entry => {action_dt[0]} => '
        f'{resource_dt[0]} => bool" where\n'
        f'  "policy_allows pe a r = ({allow_body})"'
    )

    # Theorem conjuncts: exactly the (action, resource) pairs the evaluator
    # allows, one witness resource per class, in class order.
    allowed = granted(policy, action,
                      [instantiate_pattern(pattern) for _, pattern in classes])
    conjuncts = [f"policy_allows {entry_name} {action_ctor} {class_name}"
                 for (class_name, _), ok in zip(classes, allowed) if ok]
    if not conjuncts:
        raise UnsupportedPolicy("the policy allows nothing over its universe")
    joined = " ∧\n         ".join(conjuncts)
    theorem = (
        f"theorem {service}_policy_correctness:\n"
        f'  shows "{joined}"'
    )
    return TheorySkeleton(
        datatype_defs=(action_dt, resource_dt, principal_dt),
        record_defs=(record,),
        fun_defs=(definition, allows),
        theorem=theorem,
    )


def render_theory(skeleton: TheorySkeleton) -> str:
    """Render the skeleton as statement text ending in ``oops``.

    This is the text submitted for proving; ``wrap_theory`` adds the theory
    file envelope when a standalone .thy is wanted.
    """
    sections = []
    for name, ctors in skeleton.datatype_defs:
        sections.append(f"datatype {name} = " + " | ".join(ctors))
    for name, fields in skeleton.record_defs:
        lines = [f"record {name} ="]
        lines += [f"  {fname} :: {ftype}" for fname, ftype in fields]
        sections.append("\n".join(lines))
    sections.extend(skeleton.fun_defs)
    sections.append(skeleton.theorem + "\n  oops")
    return "\n\n".join(sections) + "\n"


def wrap_theory(body: str, theory_name: str) -> str:
    return (f"theory {theory_name}\n"
            "  imports Main\n"
            f"begin\n\n{body.rstrip()}\n\nend\n")


# ---------------------------------------------------------------------------
# structural validation of formal statements

def validate_formal_statement(text: str) -> list[str]:
    """Structural guardrail before engine submission: the findings, each a
    code with its detail after a colon when it has one (``MissingTheorem``,
    ``ParseFailure: <detail>``).

    Empty findings mean submit-ready: a theorem/lemma keyword is present,
    proof blocks balance, and the statement ends open (oops or sorry).
    """
    findings: list[str] = []
    if not text or not text.strip():
        return ["EmptyStatement"]
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        return [f"ParseFailure: {exc}"]
    words = [t.text for t in tokens if t.kind == "word"]
    if not any(w in ("theorem", "lemma", "corollary", "proposition") for w in words):
        findings.append("MissingTheorem")
    script = parse_script(text)
    if not script.balanced:
        findings.append("UnbalancedBlocks")
    terminal = next((w for w in reversed(words)), "")
    if terminal not in ("oops", "sorry"):
        findings.append(
            "MissingTerminal: statement should end with oops or sorry")
    return findings


# ---------------------------------------------------------------------------
# staged LLM workflow

def formalize_nl(
    statement: str,
    model: ModelBackend,
    few_shots: Sequence[FormalizationRecord] = (),
    params: Optional[ModelParams] = None,
    problem_name: str = "",
) -> FormalizationRecord:
    """Run the staged workflow: description, informal proof, formal statement.

    Model calls happen strictly in that order.  The formal statement gets one
    retry if structural validation fails; StageValidationError afterwards.
    """
    if not statement or not statement.strip():
        raise ValueError("statement must be non-empty")
    params = params or ModelParams()

    description_shots = [(r.natural_statement, r.informal_description) for r in few_shots]
    description = model.complete(params, prompts.stage_description_prompt(
        statement, description_shots), 1)[0].strip()
    proof_shots = [(r.natural_statement, r.informal_proof) for r in few_shots]
    informal_proof = model.complete(params, prompts.stage_informal_proof_prompt(
        statement, description, proof_shots), 1)[0].strip()

    formal_shots = [(r.natural_statement, r.formal_statement) for r in few_shots]
    prompt = prompts.stage_formal_statement_prompt(
        statement, description, informal_proof, formal_shots)
    formal = model.complete(params, prompt, 1)[0].strip()
    findings = validate_formal_statement(formal)
    if findings:
        retry_prompt = prompts.stage_formal_statement_prompt(
            statement, description,
            informal_proof + "\n\nThe previous output was structurally invalid: "
            + "; ".join(findings),
            formal_shots)
        formal = model.complete(params, retry_prompt, 1)[0].strip()
        findings = validate_formal_statement(formal)
        if findings:
            raise StageValidationError(
                "formal statement failed validation after retry: "
                + "; ".join(findings))

    return FormalizationRecord(
        problem_name=problem_name,
        natural_statement=statement,
        informal_description=description,
        informal_proof=informal_proof,
        formal_statement=formal,
        provenance="llm",
    )
