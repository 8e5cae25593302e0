"""Proof construction: sample whole proofs, validate stepwise, repair, and
backtrack until the prover accepts or the budget runs out.

The repair chain at a failing position (``_repair_chain``) is, in order: the
tactic cascade plus Sledgehammer (``atp_substitute``), a model-driven
continuation from the verified prefix (``erp_repair``), and truncation of the
innermost enclosing block (or ``next`` segment) with one last cascade attempt
on the placeholder the block collapses into (``_backtrack``).  That backtrack
is the paper's placeholder heuristic: its win is the ``heuristic`` stage when
the failing step is one the heuristic applies to (``heuristic_repair``).
Every stage has one interface: it takes the cursor, the script, the failing
position and the candidate's ``AttemptState``, seeks the prefix it works
from, books its own extra calls and win on the state, and returns a
``RepairOutcome``.  The engine never declares success on its own judgment —
only the prover's terminal accepted state (``is_done``) counts.

Every prover call goes through one ``SessionCursor`` per candidate, whose
``advance`` applies steps until one fails, the proof is done, or the steps
run out: an attempt advances up to a placeholder or failure and hands over
to the repair chain.  The whole chain, ERP's continuation included, runs in
that one session.

A placeholder is repaired as a failed tactic step is: the step is rewritten
with each tactic and applied whole, then its goal body takes the hammer.  A
block delimiter gets no cascade.  Failed applies never advance the prover
session.  A stage leaves the session wherever its applies left it: the
cursor alone knows where that is, and replays a prefix into a fresh session
only when it must.

A verdict is a function of the session's steps and the step text, so the
cursor never re-sends a step refused at the same place; it is the engine's
one memory of prover answers.  The chain never comes back to one prefix and
goal body within a candidate, so ERP needs no memory of its own to ask the
model at most once for each.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, takewhile
from typing import Callable, Optional, Sequence, TypeVar, Union

from .errors import ParseError, TheoryLoadError
from .isar import (
    DELIMITERS,
    ProofScript,
    enclosing_block,
    extract_proof_text,
    parse_script,
    slice_steps,
    splice,
    truncate_to_block,
    with_steps,
)
from .model import ModelBackend, ModelParams, PromptRecord
from .prompts import erp_prompt, whole_proof_prompt
from .prover import (
    HAMMER_STEP,
    ProverBackend,
    ProverConfig,
    SessionCursor,
    StepResult,
    justification,
)

__all__ = [
    "AttemptRecord",
    "AttemptState",
    "BudgetConfig",
    "CASCADE",
    "RepairOutcome",
    "Stage",
    "atp_substitute",
    "erp_repair",
    "heuristic_repair",
    "prove",
    "run_pool",
    "sampling_request",
]


class Stage(str, Enum):
    INIT_PROOF = "init_proof"
    ATP = "atp"
    ERP = "erp"
    HEURISTIC = "heuristic"
    FAILED = "failed"


def _advance(stage: Stage, to: Stage) -> Stage:
    """The later of two stages in declaration order."""
    return max(stage, to, key=list(Stage).index)


# The tactics tried, in order, before Sledgehammer.  The paper's list names
# auto twice (auto, simp, auto, blast, ...); the repeat is dropped, since a
# second try of one tactic on one goal gets the same answer.
CASCADE = ("auto", "simp", "blast", "fastforce", "eval", "sos", "arith",
           "simp add: field_simps", "simp add: mod_simps")


@dataclass(frozen=True)
class BudgetConfig:
    sample_budget: int = 10
    model: ModelParams = field(default_factory=ModelParams)
    prover: ProverConfig = field(default_factory=ProverConfig)
    erp_enabled: bool = True

    def __post_init__(self) -> None:
        if self.sample_budget < 1:
            raise ValueError("sample_budget must be >= 1")
        if self.sample_budget > self.model.max_samples:
            raise ValueError(f"sample_budget {self.sample_budget} exceeds "
                             f"max_samples {self.model.max_samples}")


@dataclass
class AttemptState:
    """Mutable bookkeeping for one candidate attempt.  ``timed_out`` is set
    once, when the attempt's session cursor closes."""

    extra_calls: int = 0
    stage: Stage = Stage.INIT_PROOF
    timed_out: bool = False
    has_sc: bool = False


@dataclass(frozen=True)
class AttemptRecord:
    problem_name: str
    success: bool
    i_try: int
    success_stage: str
    has_timeout: bool
    extra_calls: int
    has_sc: bool
    wall_time_s: float = 0.0
    final_script: Optional[str] = None
    undetermined: bool = False

    def __post_init__(self) -> None:
        Stage(self.success_stage)  # a ValueError naming any other stage
        if min(self.i_try, self.extra_calls) < 0:
            raise ValueError("i_try and extra_calls must be >= 0")
        if self.success and self.final_script is None:
            raise ValueError("successful records carry the final script")
        if self.success == (self.success_stage == Stage.FAILED.value):
            raise ValueError("success_stage is 'failed' exactly on failure")

    def to_json(self) -> dict:
        """The fields, ``wall_time_s`` to the millisecond, ``final_script``
        only when there is one and ``undetermined`` only when true."""
        record = {**vars(self), "wall_time_s": round(self.wall_time_s, 3)}
        if self.final_script is None:
            del record["final_script"]
        if not self.undetermined:
            del record["undetermined"]
        return record


# ---------------------------------------------------------------------------
# repair operations

@dataclass(frozen=True)
class RepairOutcome:
    """A stage's result.  A win carries the repaired script, the index to go
    on from (the count of steps applied when the proof is done) and whether
    the proof is done; a loss carries the script unchanged."""
    success: bool
    script: ProofScript
    index: int
    is_done: bool = False


def atp_substitute(cursor: SessionCursor, script: ProofScript, position: int,
                   state: AttemptState, stage: Stage = Stage.ATP
                   ) -> RepairOutcome:
    """Seek the step's prefix, then try each ``CASCADE`` tactic as the
    step's justification, then Sledgehammer on its goal body.

    A sorry placeholder is repaired as a tactic step is: each tactic is sent
    as the step with that justification (``have "x" by auto``), then the
    goal body, then the hammer.  A block delimiter takes no justification,
    so it gets no cascade, and the tactic the step already names is not
    sent again: refused, the cursor would answer it with no call, and timed
    out, it would take the same timeout again.  Every tactic and hammer
    request sent adds one to ``state.extra_calls``; goal-body applications
    and answers the cursor gives with no call do not.  A win is booked on
    ``state`` at ``stage``, with ``has_sc`` for a placeholder.  On overall
    failure after a body application the session is left mid-goal, where
    the cursor finds it for the next step that restates that body.
    """
    cursor.seek(s.text for s in script.steps[:position])
    step = script.step_at(position)
    if step.head in DELIMITERS:
        return RepairOutcome(False, script, position)
    for tactic in (*CASCADE, None):  # None: the hammer
        if tactic is not None:
            text = step.with_justification(justification(tactic)).text
            if text == step.text:
                continue
        elif step.body_text and not cursor.advance((step.body_text,)).last.ok:
            break
        else:
            text = HAMMER_STEP
        recalled = cursor.recalled
        result = cursor.advance((text,)).last
        state.extra_calls += cursor.recalled == recalled
        if result.ok:
            state.stage = _advance(state.stage, stage)
            state.has_sc = state.has_sc or step.is_sorry
            closing = justification(tactic or result.message or "smt")
            repaired = splice(script, position, step.with_justification(closing))
            return RepairOutcome(True, repaired, position + 1, result.is_done)
    return RepairOutcome(False, script, position)


def erp_repair(cursor: SessionCursor, script: ProofScript, position: int,
               state: AttemptState, model: ModelBackend, statement: str,
               budget: BudgetConfig,
               few_shots: Sequence[tuple[str, str]] = ()) -> RepairOutcome:
    """Ask the model to continue from the verified prefix, then validate the
    continuation stepwise in the cursor's session, sought to that prefix.

    Success means the prover reached its terminal accepted state on
    prefix + continuation; the merged script is returned and the win is
    booked on ``state`` as ``erp``.  Anything less — parse failure,
    rejection mid-continuation, running out of steps — is a failure and the
    original script is returned unchanged, with the session left after the
    continuation steps it accepted, which the cursor can walk again.  A
    prefix that no longer replays is no verdict on the proof, so it raises
    TransportError.
    """
    prefix_steps = script.steps[:position]
    prefix_texts = [s.text for s in prefix_steps]
    completion = model.complete(
        budget.model, erp_prompt(statement, "\n".join(prefix_texts), few_shots), 1)
    try:
        continuation = parse_script(extract_proof_text(completion[0]))
    except ParseError:
        return RepairOutcome(False, script, position)
    cursor.seek(prefix_texts)
    run = cursor.advance(s.text for s in continuation.steps)
    if not run.done:
        return RepairOutcome(False, script, position)
    state.stage = _advance(state.stage, Stage.ERP)
    merged = with_steps(script, [*prefix_steps, *continuation.steps[:run.count]])
    return RepairOutcome(True, merged, position + run.count, True)


def heuristic_repair(script: ProofScript, position: int) -> bool:
    """Whether the paper's placeholder heuristic applies to the failing
    step: it is neither a sorry placeholder nor a block delimiter, which
    takes no justification.  A backtrack's win over such a step is the
    ``heuristic`` stage, the heuristic being the backtrack's collapse of the
    block into a placeholder that the cascade discharges.  The step itself
    is not rewritten to a placeholder, which would ask the prover what the
    refused step asked.  The name stays because perfbench's tracer counts
    this function's calls by name (``engine.heuristic``)."""
    step = script.steps[position]
    return not step.is_sorry and step.head not in DELIMITERS


def _backtrack_target(script: ProofScript, position: int) -> int:
    """The cut point for ``truncate_to_block``: the failing step, except that
    a failure at its block's own closer means the block as a whole is broken,
    so the cut moves to the opener and the entire block collapses into one
    placeholder."""
    _, _, opener, closer = enclosing_block(script, position)
    return opener if position == closer else position


def _backtrack(cursor: SessionCursor, script: ProofScript, position: int,
               state: AttemptState) -> RepairOutcome:
    """Truncate the innermost block (or ``next`` segment) around the failing
    step to a placeholder, then one last cascade on it.  The win is the
    ``heuristic`` stage when ``heuristic_repair`` holds for the failing step,
    and ``atp`` otherwise.  A cut that changes nothing, or one at the first
    step, loses."""
    stage = Stage.HEURISTIC if heuristic_repair(script, position) else Stage.ATP
    target = _backtrack_target(script, position)
    truncated = truncate_to_block(script, target)
    if truncated.steps == script.steps or target == 0:
        return RepairOutcome(False, script, position)
    return atp_substitute(cursor, truncated, target, state, stage)


# ---------------------------------------------------------------------------
# the prove loop

def sampling_request(statement: str, budget: BudgetConfig,
                     few_shots: Sequence[tuple[str, str]] = ()
                     ) -> tuple[ModelParams, PromptRecord, int]:
    """The one request ``prove`` samples a statement's whole-proof
    candidates with: the ``(params, prompt, n)`` that
    ``ModelBackend.complete`` takes."""
    return (budget.model, whole_proof_prompt(statement, few_shots),
            budget.sample_budget)


def prove(statement: str, model: ModelBackend, prover: ProverBackend,
          budget: Optional[BudgetConfig] = None,
          few_shots: Sequence[tuple[str, str]] = (),
          problem_name: str = "") -> AttemptRecord:
    """Run the full pipeline for one statement.

    Samples up to ``sample_budget`` whole-proof candidates in one model
    request (``sampling_request``), then validates and repairs each in
    turn.  Returns the first successful AttemptRecord, else a failure record
    whose state fields describe the last candidate.  ``wall_time_s`` runs
    from the call, so it counts any wait for the sampling request's answer
    but not the time that request was in flight before (``run_benchmark``
    sends it ahead at pool sizes above 1).  A fault that gives no verdict (a
    TransportError: an unreachable backend, a malformed completion, a lost
    session, a prefix the prover no longer replays) propagates, so the
    caller leaves the problem undetermined; it is never reported as a proof
    failure.
    """
    if not statement or not statement.strip():
        raise ValueError("statement must be non-empty")
    budget = budget or BudgetConfig()
    started = time.monotonic()

    candidates = model.complete(*sampling_request(statement, budget, few_shots))

    has_timeout = False
    state = AttemptState()
    i_try = 0
    final = None
    for i_try, candidate in enumerate(candidates):
        state = AttemptState()
        try:
            final = _attempt(statement, candidate, state, model, prover,
                             budget, few_shots)
        except TheoryLoadError:
            # The statement itself will not load; no candidate can do better.
            break
        has_timeout = has_timeout or state.timed_out
        if final is not None:
            break
    return AttemptRecord(
        problem_name=problem_name,
        success=final is not None,
        i_try=i_try,
        success_stage=(Stage.FAILED if final is None else state.stage).value,
        has_timeout=has_timeout,
        extra_calls=state.extra_calls,
        has_sc=state.has_sc,
        wall_time_s=time.monotonic() - started,
        final_script=final,
    )


def _attempt(statement: str, candidate: str, state: AttemptState,
             model: ModelBackend, prover: ProverBackend, budget: BudgetConfig,
             few_shots: Sequence[tuple[str, str]]) -> Optional[str]:
    """Validate and repair one candidate; the final proof text, or None."""
    try:
        script = parse_script(extract_proof_text(candidate))
    except ParseError:
        return None
    if not script.steps:
        return None

    cursor = SessionCursor(prover, statement, budget.prover)
    index = 0
    # Defensive bound: legitimate repair activity is linear in script size;
    # anything past this is a repair loop that failed to make progress.
    chain_budget = 6 * len(script.steps) + 32
    try:
        while True:
            cursor.seek(s.text for s in script.steps[:index])
            pending = takewhile(lambda s: not s.is_sorry,
                                islice(script.steps, index, None))
            run = cursor.advance(s.text for s in pending)
            index += run.count
            if run.done:
                return _final_text(script, index)
            if index >= len(script.steps):
                return None

            chain_budget -= 1
            if chain_budget < 0:
                return None
            outcome = _repair_chain(cursor, script, index, state, statement,
                                    model, budget, few_shots)
            if not outcome.success:
                return None
            script, index = outcome.script, outcome.index
            if outcome.is_done:
                return _final_text(script, index)
    finally:
        state.timed_out = cursor.timeouts > 0
        cursor.close()


def _final_text(script: ProofScript, applied_count: int) -> str:
    if applied_count < len(script.steps):
        script = slice_steps(script, applied_count)
    return script.text


def _repair_chain(
    cursor: SessionCursor, script: ProofScript, index: int,
    state: AttemptState, statement: str, model: ModelBackend,
    budget: BudgetConfig, few_shots: Sequence[tuple[str, str]],
) -> RepairOutcome:
    """Repair at a failing or placeholder position: the cascade, then ERP
    when enabled, then the backtrack, each stage booking its own calls and
    win; the first win, else the backtrack's loss.  The chain never comes
    back to one prefix and goal body within a candidate, so ERP asks the
    model at most once for each."""
    outcome = atp_substitute(cursor, script, index, state)
    if not outcome.success and budget.erp_enabled:
        outcome = erp_repair(cursor, script, index, state, model, statement,
                             budget, few_shots)
    if not outcome.success:
        outcome = _backtrack(cursor, script, index, state)
    return outcome


# ---------------------------------------------------------------------------
# worker pool

T = TypeVar("T")
R = TypeVar("R")


def run_pool(items: Sequence[T], worker: Callable[[T], R],
             pool_size: int) -> list[Union[R, Exception]]:
    """Run the worker over items with bounded concurrency, preserving order;
    per-item exceptions are captured, not raised."""
    def guarded(item: T) -> Union[R, Exception]:
        try:
            return worker(item)
        except Exception as exc:
            return exc

    if pool_size <= 1 or len(items) <= 1:
        return [guarded(item) for item in items]
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(guarded, items))
