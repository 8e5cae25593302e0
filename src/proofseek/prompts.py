"""Prompt construction for every model call the pipeline makes.

Builders return PromptRecords tagged with their purpose so the requests a
``RecordingModel`` captures can be audited (the no-ERP configurations must
show zero erp-tagged prompts).
Few-shot examples are inlined as user/assistant turns; the default setup is
1-shot.
"""

from __future__ import annotations

from typing import Sequence

from .model import PromptRecord

__all__ = [
    "erp_prompt",
    "nl_statement_prompt",
    "stage_description_prompt",
    "stage_formal_statement_prompt",
    "stage_informal_proof_prompt",
    "whole_proof_prompt",
]

_PROVER_SYSTEM = (
    "You are an Isabelle/HOL proof assistant. Produce complete Isar proof "
    "scripts for the stated theorem. Reply with the proof only."
)

_FORMALIZER_SYSTEM = (
    "You translate statements about code and access policies into "
    "Isabelle/HOL. Follow the requested output stage exactly."
)


def _messages(system: str, shots: Sequence[tuple[str, str]],
              user: str) -> tuple[dict, ...]:
    messages = [{"role": "system", "content": system}]
    for shot_user, shot_assistant in shots:
        messages.append({"role": "user", "content": shot_user})
        messages.append({"role": "assistant", "content": shot_assistant})
    messages.append({"role": "user", "content": user})
    return tuple(messages)


def whole_proof_prompt(statement: str,
                       few_shots: Sequence[tuple[str, str]] = ()) -> PromptRecord:
    """Ask for an entire proof of the formal statement in one completion."""
    user = ("Prove the following statement. Output a full Isar proof.\n\n"
            f"{statement.strip()}")
    shots = [(f"Prove the following statement. Output a full Isar proof.\n\n{s.strip()}",
              p.strip()) for s, p in few_shots]
    return PromptRecord(_messages(_PROVER_SYSTEM, shots, user),
                        purpose="whole_proof", few_shot_count=len(shots))


def erp_prompt(statement: str, validated_prefix: str,
               few_shots: Sequence[tuple[str, str]] = ()) -> PromptRecord:
    """Ask for a continuation from the last verified proof prefix."""
    user = (
        "The proof below verified up to the marked point and then failed. "
        "Continue it from there; output only the remaining steps.\n\n"
        f"Statement:\n{statement.strip()}\n\n"
        f"Verified prefix:\n{validated_prefix.strip() or '(empty)'}\n\n"
        "Continuation:"
    )
    shots = [(f"Statement:\n{s.strip()}\n\nContinuation:", p.strip())
             for s, p in few_shots]
    return PromptRecord(_messages(_PROVER_SYSTEM, shots, user),
                        purpose="erp", few_shot_count=len(shots))


def stage_description_prompt(natural_statement: str,
                             few_shots: Sequence[tuple[str, str]] = ()) -> PromptRecord:
    user = ("Write a structured plain-language description of what the "
            "following input means and what should be proved about it.\n\n"
            f"{natural_statement.strip()}")
    return PromptRecord(_messages(_FORMALIZER_SYSTEM, list(few_shots), user),
                        purpose="stage_description", few_shot_count=len(few_shots))


def stage_informal_proof_prompt(natural_statement: str, description: str,
                                few_shots: Sequence[tuple[str, str]] = ()) -> PromptRecord:
    user = ("Given the input and its description, outline an informal proof "
            "of the intended property.\n\n"
            f"Input:\n{natural_statement.strip()}\n\n"
            f"Description:\n{description.strip()}")
    return PromptRecord(_messages(_FORMALIZER_SYSTEM, list(few_shots), user),
                        purpose="stage_informal_proof", few_shot_count=len(few_shots))


def stage_formal_statement_prompt(natural_statement: str, description: str,
                                  informal_proof: str,
                                  few_shots: Sequence[tuple[str, str]] = ()) -> PromptRecord:
    user = ("Produce the Isabelle/HOL formal statement: datatype definitions, "
            "record definitions, function definitions, and a final theorem "
            "ending in oops.\n\n"
            f"Input:\n{natural_statement.strip()}\n\n"
            f"Description:\n{description.strip()}\n\n"
            f"Informal proof:\n{informal_proof.strip()}")
    return PromptRecord(_messages(_FORMALIZER_SYSTEM, list(few_shots), user),
                        purpose="stage_formal_statement", few_shot_count=len(few_shots))


def nl_statement_prompt(statement: str, proof: str) -> PromptRecord:
    """Ask for a natural-language rendering of a formal statement (dataset
    construction)."""
    user = ("State in one plain-English paragraph what the following formal "
            "statement asserts.\n\n"
            f"Statement:\n{statement.strip()}\n\n"
            f"Proof (context only):\n{proof.strip()}")
    return PromptRecord(_messages(_FORMALIZER_SYSTEM, (), user),
                        purpose="nl_statement", few_shot_count=0)
