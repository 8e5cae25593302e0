"""Dataset construction and reward computation.

The corpus is partitioned by actually checking each proof end-to-end from a
fresh prover session: pairs that verify with no extra dependencies form the
RL pool, the remainder the SFT pool.  A statement the prover will not load in
a fresh session is one that needs extra dependencies, so its pair belongs to
the remainder and its reward is 0.  Transport faults mark a pair
undetermined and exclude it from both pools — an infrastructure outage must
not look like an unverifiable proof.  The same principle runs through the
rewards: verification returns None (no verdict) on a transport failure,
never 0.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .engine import run_pool
from .errors import ParseError, TheoryLoadError, TransportError
from .isar import extract_proof_text, parse_script, token_equivalent
from .model import ModelBackend, ModelParams
from .prompts import nl_statement_prompt
from .prover import ProverBackend, check_script

__all__ = [
    "FilterResult",
    "RlRecord",
    "SftRecord",
    "TheoremProofPair",
    "build_rl_records",
    "build_sft_records",
    "filter_self_contained",
    "reward_correctness",
    "reward_verification",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TheoremProofPair:
    statement: str
    proof: str

    def __post_init__(self) -> None:
        if not self.statement.strip() or not self.proof.strip():
            raise ValueError("statement and proof must be non-empty")


@dataclass(frozen=True)
class SftRecord:
    proof: str
    statement: str
    natural_language_statement: str

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class RlRecord:
    natural_language_statement: str
    formal_proof: str

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class FilterResult:
    rl_pool: tuple[TheoremProofPair, ...]
    sft_pool: tuple[TheoremProofPair, ...]
    undetermined: tuple[tuple[TheoremProofPair, str], ...] = ()


def _verifies(prover: ProverBackend, statement: str, proof: str) -> bool:
    """Whether the proof extracted from ``proof`` checks end-to-end against
    ``statement`` in a fresh session.  A proof that fails to parse does not,
    nor does one whose statement will not load; transport faults raise."""
    try:
        script = parse_script(extract_proof_text(proof))
        return check_script(prover, statement, script).success
    except (ParseError, TheoryLoadError):
        return False


def filter_self_contained(pairs: Sequence[TheoremProofPair],
                          prover: ProverBackend,
                          pool_size: Optional[int] = None) -> FilterResult:
    """Partition pairs into (verifies end-to-end, remainder).

    A proof that fails to parse, or whose statement will not load, cannot be
    self-contained and lands in the remainder; transport aborts are excluded
    from both pools with a logged warning.  The partition is exact and
    order-preserving.  Checking is prover work: the pairs run on
    ``pool_size`` workers, by default the prover's own pool size.
    """
    outcomes = run_pool(list(pairs),
                        lambda pair: _verifies(prover, pair.statement, pair.proof),
                        pool_size or prover.config.pool_size)
    rl, sft, undetermined = [], [], []
    for pair, outcome in zip(pairs, outcomes):
        if isinstance(outcome, TransportError):
            log.warning("pair undetermined (transport): %s", outcome)
            undetermined.append((pair, str(outcome)))
        elif isinstance(outcome, Exception):
            raise outcome
        elif outcome:
            rl.append(pair)
        else:
            sft.append(pair)
    return FilterResult(tuple(rl), tuple(sft), tuple(undetermined))


# ---------------------------------------------------------------------------
# record construction

def _generate_nl(pair: TheoremProofPair, model: ModelBackend,
                 params: ModelParams, faults: list[Exception]) -> Optional[str]:
    """One model call, retried once; None when both outputs fail validation.
    An error raised here is added to ``faults``, shared by the pairs of one
    run, and no call starts once it holds one."""
    try:
        prompt = nl_statement_prompt(pair.statement, pair.proof)
        for _ in range(2):
            if faults:
                return None
            out = model.complete(params, prompt, 1)
            text = out[0].strip()
            if text:
                return text
        return None
    except Exception as exc:
        faults.append(exc)
        raise


def _nl_statements(
    pairs: Sequence[TheoremProofPair], model: ModelBackend,
    params: Optional[ModelParams],
) -> tuple[list[Optional[str]], list[dict]]:
    """Each pair's NL statement, or None when its generation fails
    validation twice, in pair order, with a drop reported for each None.
    Up to ``params.max_samples`` pairs are asked for at once: no more
    completions in flight than one whole-proof request may ask for.  The
    first error a model call raises (a TransportError, say) is raised once
    the calls in flight are done, and no call starts after it."""
    params = params or ModelParams()
    faults: list[Exception] = []
    texts = run_pool(list(pairs),
                     lambda pair: _generate_nl(pair, model, params, faults),
                     params.max_samples)
    if faults:
        raise faults[0]
    drops = [{"statement": pair.statement,
              "reason": "nl generation failed after retry"}
             for pair, text in zip(pairs, texts) if text is None]
    return texts, drops


def build_sft_records(
    pool: Sequence[TheoremProofPair], model: ModelBackend, sample_count: int,
    seed: int = 0, params: Optional[ModelParams] = None,
) -> tuple[list[SftRecord], list[dict]]:
    """Seeded sample of the pool with one NL-statement generation per pair,
    up to ``params.max_samples`` pairs at a time.

    Pairs whose generation fails validation twice are dropped and reported,
    not retried further.  Returns (records, drops), in sample order.
    """
    if not 0 <= sample_count <= len(pool):
        raise ValueError(f"sample_count {sample_count} is not within 0 and "
                         f"the pool size {len(pool)}")
    rng = random.Random(seed)
    chosen = [pool[index]
              for index in sorted(rng.sample(range(len(pool)), sample_count))]
    texts, drops = _nl_statements(chosen, model, params)
    return [SftRecord(pair.proof, pair.statement, text)
            for pair, text in zip(chosen, texts) if text is not None], drops


def build_rl_records(
    pool: Sequence[TheoremProofPair], model: ModelBackend,
    params: Optional[ModelParams] = None,
) -> tuple[list[RlRecord], list[dict]]:
    """NL statement per verified pair, same drop policy and the same
    ``params.max_samples`` pairs at a time as the SFT records."""
    texts, drops = _nl_statements(pool, model, params)
    return [RlRecord(text, pair.proof)
            for pair, text in zip(pool, texts) if text is not None], drops


# ---------------------------------------------------------------------------
# rewards

def _token_f1(a: Sequence[str], b: Sequence[str]) -> float:
    if not a or not b:
        return 0.0
    overlap = sum((Counter(a) & Counter(b)).values())
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (len(a) + len(b))


def reward_correctness(response: str, ground_truth: str,
                       strict: bool = False) -> float:
    """1.0 on token-equivalence with the ground-truth proof, else the
    token-level F1 between the extracted and reference proofs (0.0 when
    nothing extractable).  ``strict`` collapses the graded tail to 0."""
    extracted = extract_proof_text(response or "")
    if not extracted.strip():
        return 0.0
    if token_equivalent(extracted, ground_truth):
        return 1.0
    if strict:
        return 0.0
    return _token_f1(extracted.split(), ground_truth.split())


def reward_verification(response: str, statement: str,
                        prover: ProverBackend) -> Optional[int]:
    """1 iff the extracted proof checks end-to-end against the statement.

    Transport aborts return None, no verdict — never 0 — so infrastructure
    faults cannot poison the reward signal.
    """
    try:
        return 1 if _verifies(prover, statement, response or "") else 0
    except TransportError as exc:
        log.warning("verification undetermined (transport): %s", exc)
        return None
