"""Proof construction: sample whole proofs, validate stepwise, repair, and
backtrack until the prover accepts or the budget runs out.

The repair chain at a failing position is, in order: the tactic cascade plus
Sledgehammer (``atp_substitute``), a model-driven continuation from the
verified prefix (``erp_repair``), placeholder rewriting of the failing step
(``heuristic_repair``, whose placeholder feeds back into the cascade), and
finally truncation of the innermost enclosing block (or ``next`` segment)
with one last cascade attempt on the closing placeholder.  The engine never
declares success on its own judgment — only the prover's terminal accepted
state (``is_done``) counts.

Every prover call goes through one ``SessionCursor`` per candidate, whose
``advance`` applies steps until one fails, the proof is done, or the steps
run out: an attempt advances up to a placeholder or failure and hands over
to the repair chain.  The whole chain, ERP's continuation included, runs in
that one session.

A placeholder is repaired as a failed tactic step is: the step is rewritten
with each tactic and applied whole, then its goal body takes the hammer.  A
block delimiter gets no cascade.  Failed applies never advance the prover
session.  Each stage seeks the prefix it works from and leaves the session
wherever its applies left it: the cursor alone knows where that is, and
replays a prefix into a fresh session only when it must.

A verdict is a function of the session's steps and the step text, so the
cursor never re-sends a step refused at the same place; it is the engine's
one memory of prover answers, and a cascade run again on one claim sends
only what timed out.  ERP asks the model once per claim: the validated
prefix plus the failing step's goal body, which a tactic step and its
placeholder share.
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
from .model import ModelBackend, ModelParams
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


Claim = tuple[str, ...]


def _claim(script: ProofScript, index: int) -> Claim:
    """What a repair at ``index`` asks the prover: the texts of the steps
    before it, then that step's goal body.  A tactic step and the placeholder
    it is rewritten to make the same claim."""
    return (*(s.text for s in script.steps[:index]),
            script.steps[index].body_text)


@dataclass
class AttemptState:
    """Mutable bookkeeping for one candidate attempt.  ``erp_claims`` holds
    the claims on which ERP has asked the model; ``timed_out`` is set once,
    when the attempt's session cursor closes."""

    extra_calls: int = 0
    stage: Stage = Stage.INIT_PROOF
    timed_out: bool = False
    has_sc: bool = False
    erp_claims: set[Claim] = field(default_factory=set)


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
    success: bool
    script: ProofScript
    extra_calls: int = 0
    is_done: bool = False


def atp_substitute(cursor: SessionCursor, script: ProofScript,
                   position: int) -> RepairOutcome:
    """Try each ``CASCADE`` tactic as the step's justification, then
    Sledgehammer on its goal body.

    A sorry placeholder is repaired as a tactic step is: each tactic is sent
    as the step with that justification (``have "x" by auto``), then the
    goal body, then the hammer, so the cursor answers every repeat of a
    cascade with no call.  A block delimiter takes no justification, so it
    gets no cascade.  Every tactic and hammer request sent counts one extra
    call; goal-body applications and answers the cursor gives with no call
    do not.  On overall failure after a body application the session is
    left mid-goal, where the cursor finds it for the next step that restates
    that body.
    """
    step = script.step_at(position)
    if step.head in DELIMITERS:
        return RepairOutcome(False, script)
    extra = 0
    for tactic in (*CASCADE, None):  # None: the hammer
        if tactic is not None:
            text = step.with_justification(justification(tactic)).text
        elif step.body_text and not cursor.advance((step.body_text,)).last.ok:
            break
        else:
            text = HAMMER_STEP
        recalled = cursor.recalled
        result = cursor.advance((text,)).last
        extra += cursor.recalled == recalled
        if result.ok:
            closing = justification(tactic or result.message or "smt")
            repaired = splice(script, position, step.with_justification(closing))
            return RepairOutcome(True, repaired, extra, result.is_done)
    return RepairOutcome(False, script, extra)


def erp_repair(cursor: SessionCursor, script: ProofScript, position: int,
               model: ModelBackend, statement: str, budget: BudgetConfig,
               few_shots: Sequence[tuple[str, str]] = ()) -> RepairOutcome:
    """Ask the model to continue from the verified prefix, then validate the
    continuation stepwise in the cursor's session, sought to that prefix.

    Success means the prover reached its terminal accepted state on
    prefix + continuation; the merged script is returned.  Anything less —
    parse failure, rejection mid-continuation, running out of steps — is a
    failure and the original script is returned unchanged, with the session
    left after the continuation steps it accepted, which the cursor can walk
    again.  A prefix that no longer replays is no verdict on the proof, so
    it raises TransportError.
    """
    prefix_steps = script.steps[:position]
    prefix_texts = [s.text for s in prefix_steps]
    completion = model.complete(
        budget.model, erp_prompt(statement, "\n".join(prefix_texts), few_shots), 1)
    try:
        continuation = parse_script(extract_proof_text(completion[0]))
    except ParseError:
        return RepairOutcome(False, script)
    if not continuation.steps:
        return RepairOutcome(False, script)

    cursor.seek(prefix_texts)
    run = cursor.advance(s.text for s in continuation.steps)
    if not run.done:
        return RepairOutcome(False, script)
    merged = with_steps(script, [*prefix_steps, *continuation.steps[:run.count]])
    return RepairOutcome(True, merged, is_done=True)


def heuristic_repair(script: ProofScript, position: int) -> ProofScript:
    """Rewrite the failing step's justification to a sorry placeholder for
    the cascade to discharge.  Later steps keep the model's tactics: the main
    loop sends them as written, and one the prover refuses gets the chain at
    its own index.  A placeholder or a block delimiter (which takes no
    justification) is left alone."""
    step = script.steps[position]
    if step.is_sorry or step.head in DELIMITERS:
        return script
    return splice(script, position, step.with_justification("sorry"))


def _backtrack_target(script: ProofScript, position: int) -> int:
    """The cut point for ``truncate_to_block``: the failing step, except that
    a failure at its block's own closer means the block as a whole is broken,
    so the cut moves to the opener and the entire block collapses into one
    placeholder."""
    _, _, opener, closer = enclosing_block(script, position)
    return opener if position == closer else position


# ---------------------------------------------------------------------------
# the prove loop

def prove(statement: str, model: ModelBackend, prover: ProverBackend,
          budget: Optional[BudgetConfig] = None,
          few_shots: Sequence[tuple[str, str]] = (),
          problem_name: str = "") -> AttemptRecord:
    """Run the full pipeline for one statement.

    Samples up to ``sample_budget`` whole-proof candidates in one model
    request, then validates and repairs each in turn.  Returns the first
    successful AttemptRecord, else a failure record whose state fields
    describe the last candidate.  A fault that gives no verdict (a
    TransportError: an unreachable backend, a malformed completion, a lost
    session, a prefix the prover no longer replays) propagates, so the
    caller leaves the problem undetermined; it is never reported as a proof
    failure.
    """
    if not statement or not statement.strip():
        raise ValueError("statement must be non-empty")
    budget = budget or BudgetConfig()
    started = time.monotonic()

    candidates = model.complete(
        budget.model, whole_proof_prompt(statement, few_shots),
        budget.sample_budget)

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
            done, script, index, alive = _repair_chain(
                cursor, script, index, state, statement, model, budget,
                few_shots)
            if done:
                return _final_text(script, index)
            if not alive:
                return None
    finally:
        state.timed_out = cursor.timeouts > 0
        cursor.close()


def _final_text(script: ProofScript, applied_count: int) -> str:
    if applied_count < len(script.steps):
        script = slice_steps(script, applied_count)
    return script.text


ChainStep = tuple[bool, ProofScript, int, bool]


def _cascade(cursor: SessionCursor, script: ProofScript, index: int,
             state: AttemptState) -> Optional[ChainStep]:
    """``atp_substitute`` at ``index``, sought to the step's prefix.  A win
    is booked here and returned as the chain's next step; a loss returns
    None.  A cascade run again on one claim sends only the steps that timed
    out: the cursor answers the rest with no call."""
    cursor.seek(s.text for s in script.steps[:index])
    outcome = atp_substitute(cursor, script, index)
    state.extra_calls += outcome.extra_calls
    if outcome.success:
        state.stage = _advance(state.stage, Stage.ATP)
        state.has_sc = state.has_sc or script.steps[index].is_sorry
        return outcome.is_done, outcome.script, index + 1, True
    return None


def _repair_chain(
    cursor: SessionCursor, script: ProofScript, index: int,
    state: AttemptState, statement: str, model: ModelBackend,
    budget: BudgetConfig, few_shots: Sequence[tuple[str, str]],
) -> ChainStep:
    """Repair at a failing or placeholder position: the cascade, then ERP,
    then the heuristic rewrite, then a backtrack with one last cascade.  The
    placeholder the heuristic makes of a refused step comes back here and is
    repaired as the step was, so its cascade costs no call but for steps
    that timed out, and the heuristic leaves it alone.  ERP asks the model
    once per claim (``AttemptState.erp_claims``); a step a backtrack moved
    under a new prefix is a new claim.

    Returns (proof_done, script, applied_count_or_next_index, alive).
    """
    won = _cascade(cursor, script, index, state)
    if won:
        return won

    claim = _claim(script, index)
    if budget.erp_enabled and claim not in state.erp_claims:
        state.erp_claims.add(claim)
        erp = erp_repair(cursor, script, index, model, statement, budget,
                         few_shots)
        if erp.success:
            state.stage = _advance(state.stage, Stage.ERP)
            return True, erp.script, len(erp.script.steps), True

    rewritten = heuristic_repair(script, index)
    if rewritten.steps != script.steps:
        state.stage = _advance(state.stage, Stage.HEURISTIC)
        # The placeholder at `index` is re-attempted by the main loop.
        return False, rewritten, index, True

    lost = (False, script, index, False)
    target = _backtrack_target(script, index)
    truncated = truncate_to_block(script, target)
    if truncated.steps == script.steps or target == 0:
        return lost
    return _cascade(cursor, truncated, target, state) or lost


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
