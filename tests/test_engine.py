import functools
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofseek import engine
from proofseek.engine import (
    CASCADE,
    AttemptRecord,
    AttemptState,
    BudgetConfig,
    _backtrack_target,
    atp_substitute,
    erp_repair,
    heuristic_repair,
    prove,
    run_pool,
)
from proofseek.errors import TransportError
from proofseek.isar import parse_script, splice, truncate_to_block
from proofseek.jsonl import typed
from proofseek.model import (
    MockModel,
    ModelParams,
    RecordingModel,
    ReplayModel,
    prompt_digest,
)
from proofseek.prompts import whole_proof_prompt
from proofseek.prover import (
    HAMMER_STEP,
    Advance,
    MockOutcome,
    MockProver,
    ProverConfig,
    ProverServer,
    RecordingProver,
    ReplayProver,
    SessionCursor,
    StepResult,
    WireProver,
    check_script,
    justification,
    normalize_step,
)

from fixtures import (
    GOLDEN_FORMAL_STATEMENT,
    GOLDEN_PROOF_BODY,
    GOLDEN_PROOF_WRAPPED,
    GOLDEN_STATE_RECORD,
    PROBLEM_NAME,
    ScheduledProver,
    accepting_mock,
)

STATEMENT = 'theorem t:\n  shows "P"\n  oops'

ATP_CANDIDATE = 'proof -\n  have "x" by foo\n  show ?thesis by simp\nqed'
HEUR_CANDIDATE = 'proof -\n  have "x" by gross\n  show ?thesis by crude\nqed'
NESTED_CANDIDATE = ('proof -\n  have "a"\n  proof -\n    have "b" by s2\n'
                    '    show "c" by s3\n  qed\n  show ?thesis by s4\nqed')


def _model(candidate, erp=None):
    script = {"whole_proof": [[candidate]]}
    if erp is not None:
        script["erp"] = [[erp]]
    return RecordingModel(MockModel(script))


# ---------------------------------------------------------------------------
# cascade

# the justifications the cascade sends, in order
CASCADE_BY = ["by auto", "by simp", "by blast", "by fastforce", "by eval",
              "by sos", "by arith", "by (simp add: field_simps)",
              "by (simp add: mod_simps)"]


def _tried(body=""):
    """The steps a cascade sends for the goal body ``body``: each tactic
    with the body, or bare into a body the session holds open."""
    return [f"{body} {by}" if body else by for by in CASCADE_BY]


def test_cascade_is_the_readme_list():
    assert CASCADE == (
        "auto", "simp", "blast", "fastforce", "eval", "sos", "arith",
        "simp add: field_simps", "simp add: mod_simps")
    assert [justification(t) for t in CASCADE] == CASCADE_BY


# ---------------------------------------------------------------------------
# scenario: clean first-candidate success (replay model + mock prover)

def test_scenario_init_proof_matches_golden_state_record():
    prompt = whole_proof_prompt(GOLDEN_FORMAL_STATEMENT)
    model = ReplayModel({prompt_digest(prompt): [GOLDEN_PROOF_WRAPPED]})
    prover = accepting_mock([GOLDEN_PROOF_BODY])
    record = prove(GOLDEN_FORMAL_STATEMENT, model, prover,
                   problem_name=PROBLEM_NAME)
    got = {key: getattr(record, key) for key in GOLDEN_STATE_RECORD}
    assert got == GOLDEN_STATE_RECORD
    assert record.final_script is not None
    assert "ultimately show ?thesis by simp" in record.final_script


def test_replay_determinism_excluding_wall_time():
    prompt = whole_proof_prompt(GOLDEN_FORMAL_STATEMENT)
    fixtures = {prompt_digest(prompt): [GOLDEN_PROOF_WRAPPED]}

    def run():
        record = prove(GOLDEN_FORMAL_STATEMENT,
                       ReplayModel(fixtures),
                       accepting_mock([GOLDEN_PROOF_BODY]))
        payload = record.to_json()
        payload.pop("wall_time_s")
        return payload

    assert run() == run()


# ---------------------------------------------------------------------------
# scenario: ATP repair

def _atp_prover():
    return MockProver(table={
        "proof -": "ok",
        'have "x"': "ok",
        'have "x" by simp': "ok",
        "show ?thesis": "ok",
        "show ?thesis by simp": "ok",
        "qed": "ok",
    })


def test_scenario_atp_stage():
    record = prove(STATEMENT, _model(ATP_CANDIDATE), _atp_prover())
    assert record.success
    assert record.success_stage == "atp"
    assert record.extra_calls == 2  # auto failed, simp won
    assert not record.has_sc
    assert record.i_try == 0
    assert 'have "x" by simp' in record.final_script


def test_scenario_atp_places_repair_in_final_script():
    record = prove(STATEMENT, _model(ATP_CANDIDATE), _atp_prover())
    assert "by foo" not in record.final_script


# ---------------------------------------------------------------------------
# scenario: ERP repair

ERP_COMPLETION = 'have "x" by (meson helper)\nshow ?thesis by simp\nqed'


def _erp_prover():
    return MockProver(table={
        "proof -": "ok",
        'have "x"': "ok",
        'have "x" by (meson helper)': "ok",
        "show ?thesis": "ok",
        "show ?thesis by simp": "ok",
        "qed": "ok",
    })


def test_scenario_erp_stage():
    model = _model(ATP_CANDIDATE, erp=ERP_COMPLETION)
    record = prove(STATEMENT, model, _erp_prover())
    assert record.success
    assert record.success_stage == "erp"
    assert record.extra_calls == 10  # 9 cascade tactics + hammer
    erp_requests = [r for r in model.requests if r["purpose"] == "erp"]
    assert len(erp_requests) == 1
    assert 'have "x" by (meson helper)' in record.final_script


def test_scenario_erp_disabled_degrades_with_zero_erp_prompts():
    model = _model(ATP_CANDIDATE, erp=ERP_COMPLETION)
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    record = prove(STATEMENT, model, _erp_prover(), budget)
    assert record.success_stage in ("heuristic", "failed")
    assert [r for r in model.requests if r["purpose"] == "erp"] == []


def test_scenario_erp_rejected_completion_falls_through():
    # The inner claim `show "x"` is refused in either form, and so is the
    # ERP completion there.  The chain falls through to the backtrack, which
    # cuts the inner block, and the outer `show ?thesis by crude`,
    # refused as written, is repaired by its own cascade.
    candidate = ('proof -\n  have "x"\n  proof -\n    show "x" by gross\n'
                 '  qed\n  show ?thesis by crude\nqed')
    model = _model(candidate, erp='show "x" by nope\nqed')
    prover = RecordingProver(MockProver(table={
        "proof -": "ok",
        'have "x"': "ok",
        "show ?thesis": "ok",
        "by auto": "ok",
        "qed": "ok",
    }))
    record = prove(STATEMENT, model, prover)
    assert record.success
    assert record.success_stage == "heuristic"
    assert len([r for r in model.requests if r["purpose"] == "erp"]) == 1
    erp_steps = [e["response"]["status"] for e in prover.trace
                 if e["request"]["step"] == 'show "x" by nope']
    assert erp_steps == ["error"]
    assert record.has_sc
    assert "show ?thesis by auto" in record.final_script
    assert 'show "x"' not in record.final_script


# ---------------------------------------------------------------------------
# scenario: heuristic repair

def test_scenario_heuristic_stage():
    # The false claim `have "y"` is refused in either form; the backtrack cuts
    # the inner block there and its placeholder is discharged.  The outer
    # `show ?thesis by crude` is refused as written and its cascade repairs
    # it.
    candidate = ('proof -\n  have "x"\n  proof -\n    have "y" by gross\n'
                 '    show ?thesis by crude\n  qed\n  show ?thesis by crude\nqed')
    model = _model(candidate, erp='have "y" by nope\nqed')
    prover = MockProver(table={
        "proof -": "ok",
        'have "x"': "ok",
        "show ?thesis": "ok",
        "by auto": "ok",
        "qed": "ok",
    })
    record = prove(STATEMENT, model, prover)
    assert record.success
    assert record.success_stage == "heuristic"
    assert record.has_sc  # placeholders were discharged
    assert 'have "y"' not in record.final_script
    assert "show ?thesis by auto" in record.final_script


# ---------------------------------------------------------------------------
# one run of each repair stage per claim

def _steps(prover):
    return [e["request"]["step"] if e["request"]["command"] == "apply"
            else e["request"]["command"] for e in prover.trace]


def test_refused_claim_runs_its_cascade_once():
    # After the cascade and the hammer are refused at `have "b"`, the chain
    # goes straight to the backtrack, whose placeholder is a new claim.  The
    # later `show ?thesis by s4` keeps its tactic: it is sent whole, refused,
    # and gets its own cascade, then the hammer.
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "a"': "ok", 'have "b"': "ok", "qed": "ok",
        "show ?thesis": "ok", "show ?thesis by h": "ok", "by h": "ok",
        'have "b" by h': "error",
    }, hammer="h"))
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    record = prove(STATEMENT, _model(NESTED_CANDIDATE), prover, budget)
    assert record.success and record.success_stage == "heuristic"
    assert _steps(prover) == [
        "init", "proof -", 'have "a"', "proof -", 'have "b" by s2',
        *_tried('have "b"'), 'have "b"', "\u27e8hammer\u27e9",
        "close", "init", "proof -", 'have "a"', "proof -",
        *_tried(), "\u27e8hammer\u27e9", "qed",
        "show ?thesis by s4", *_tried("show ?thesis"),
        "show ?thesis", "\u27e8hammer\u27e9", "qed", "close"]


BLOCK_THEN_TACTICS = ('proof -\n  have "a"\n  proof -\n    have "b" by bad\n'
                      '  qed\n  have "x" by t\n  have "y" by {y}\n'
                      '  show ?thesis by t\nqed')


def _block_then_tactics_prover(**table):
    return RecordingProver(MockProver(table={
        "proof -": "ok", 'have "a"': "ok", "qed": "ok", 'have "x"': "ok",
        'have "x" by t': "ok", 'have "y"': "ok", "show ?thesis": "ok",
        "show ?thesis by t": "ok", "by h": "ok", 'have "y" by h2': "ok",
        **table,
    }, hammer=["h2", "h"]))


def test_heuristic_leaves_later_tactic_steps_to_be_sent_whole():
    # The false claim `have "b"` is refused in every form, and the backtrack
    # cuts its block there, leaving a placeholder the hammer proves.  The
    # steps after the block were right as written: each is sent once, whole,
    # with no cascade and no hammer call.
    prover = _block_then_tactics_prover(**{'have "y" by t': "ok"})
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    record = prove(STATEMENT, _model(BLOCK_THEN_TACTICS.format(y="t")),
                   prover, budget)
    assert record.success and record.success_stage == "heuristic"
    steps = _steps(prover)
    assert steps[steps.index("by auto"):] == [
        *_tried(), "\u27e8hammer\u27e9", "qed", 'have "x" by t',
        'have "y" by t', "show ?thesis by t", "qed", "close"]
    assert steps.count("\u27e8hammer\u27e9") == 1
    assert record.final_script == (
        'proof -\n  have "a"\n  proof -\n    by h\n  qed\n  have "x" by t\n'
        '  have "y" by t\n  show ?thesis by t\nqed')


def test_later_step_whose_tactic_is_refused_gets_its_own_cascade():
    # `have "y" by wrong` is sent whole after the backtrack and refused;
    # its own chain rewrites it with each cascade tactic, then the hammer
    # proves its goal body.
    prover = _block_then_tactics_prover()
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    record = prove(STATEMENT, _model(BLOCK_THEN_TACTICS.format(y="wrong")),
                   prover, budget)
    assert record.success and record.success_stage == "heuristic"
    steps = _steps(prover)
    assert steps[steps.index('have "x" by t'):] == [
        'have "x" by t', 'have "y" by wrong', *_tried('have "y"'), 'have "y"',
        "\u27e8hammer\u27e9", "show ?thesis by t", "qed", "close"]
    assert record.final_script == (
        'proof -\n  have "a"\n  proof -\n    by h\n  qed\n  have "x" by t\n'
        '  have "y" by h2\n  show ?thesis by t\nqed')


def test_cascade_tactic_that_timed_out_is_sent_once_then_the_backtrack():
    # A timeout is no verdict, yet the chain does not come back to the
    # refused step: auto, which would prove `have "x"` if sent again, is
    # sent once, and the backtrack's placeholder takes the hammer's proof.
    prover = RecordingProver(FlakyOnReplay({'have "x" by auto': "ok"}, table={
        "proof -": "ok", 'have "x"': "ok", "show ?thesis": "ok", "qed": "ok",
        'have "x" by auto': SLOW, "by h": "ok", 'have "x" by h': "error",
    }, hammer="h"))
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    record = prove(STATEMENT, _model(HEUR_CANDIDATE), prover, budget)
    assert record.success and record.has_timeout
    assert record.success_stage == "heuristic"
    assert _steps(prover) == [
        "init", "proof -", 'have "x" by gross', *_tried('have "x"'),
        'have "x"', "\u27e8hammer\u27e9", "close", "init", "proof -",
        *_tried(), "\u27e8hammer\u27e9", "qed", "close"]
    assert record.final_script == "proof -\n  by h\nqed"


def test_cascade_does_not_send_again_the_step_that_timed_out():
    # `have "x" by auto` times out in the main loop.  The cascade's first
    # rewrite is that same step, so it is skipped, not asked again with the
    # same timeout; simp wins.
    candidate = 'proof -\n  have "x" by auto\n  show ?thesis by simp\nqed'
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "x"': "ok", 'have "x" by auto': SLOW,
        'have "x" by simp': "ok", "show ?thesis": "ok",
        "show ?thesis by simp": "ok", "qed": "ok"}))
    record = prove(STATEMENT, _model(candidate), prover,
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert record.success and record.success_stage == "atp"
    assert _steps(prover).count('have "x" by auto') == 1
    assert record.extra_calls == 1 and record.has_timeout


def test_refused_step_sends_the_tactic_that_timed_out_once_then_the_backtrack():
    # simp times out on `have "x"` and is not sent again: the chain goes
    # from the refused hammer straight to the backtrack, which rebuilds the
    # session for its placeholder.
    candidate = 'proof -\n  have "x" by bad\n  show ?thesis by simp\nqed'
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "x"': "ok", 'have "x" by simp': SLOW}))
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    record = prove(STATEMENT, _model(candidate), prover, budget)
    assert _steps(prover) == [
        "init", "proof -", 'have "x" by bad', *_tried('have "x"'),
        'have "x"', "\u27e8hammer\u27e9", "close", "init", "proof -",
        *_tried(), "\u27e8hammer\u27e9", "close"]
    # the cascade's nine tactics and the hammer, then the backtrack's
    # cascade on its placeholder
    assert record.extra_calls == 20 and record.has_timeout


def test_a_trace_holding_a_question_the_engine_no_longer_asks_replays():
    # Before the backtrack became the heuristic stage, the chain rewrote the
    # refused step to a placeholder whose cascade sent the timed-out simp
    # again, bare into the goal body `have "x"` left open.  The requests
    # below are the ones that engine sent, in its order; their trace still
    # answers every question this engine asks, and the replayed record is
    # the live one.
    candidate = 'proof -\n  have "x" by bad\n  show ?thesis by simp\nqed'
    table = {"proof -": "ok", 'have "x"': "ok", 'have "x" by simp': SLOW,
             "show ?thesis": "ok", "by h": "ok", 'have "x" by h': "error",
             "qed": "ok"}
    recorder = RecordingProver(MockProver(table=table, hammer="h"))
    theory = ProverConfig().theory_header + '\n\ntheorem t:\n  shows "P"'
    for steps in (["proof -", 'have "x" by bad', *_tried('have "x"'),
                   'have "x"', HAMMER_STEP, "by simp"],
                  ["proof -", *_tried(), HAMMER_STEP, "qed"]):
        session = recorder.init_session(theory)
        for step in steps:
            recorder.apply(session, step, 40.0 if step == HAMMER_STEP else 10.0)
        recorder.close(session)
    assert recorder.trace[14]["response"]["status"] == "timeout"
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    live = prove(STATEMENT, _model(candidate),
                 MockProver(table=table, hammer="h"), budget)
    replayed = prove(STATEMENT, _model(candidate),
                     ReplayProver(recorder.trace), budget)
    assert replace(replayed, wall_time_s=0.0) == replace(live, wall_time_s=0.0)
    assert replayed.success and replayed.success_stage == "heuristic"


@pytest.mark.parametrize("written", ["by(bad)", "by (bad)"])
def test_keyword_against_its_paren_is_repaired_as_if_spaced(written):
    candidate = f'proof -\n  have "x" {written}\n  show ?thesis by simp\nqed'
    record = prove(STATEMENT, _model(candidate), _atp_prover(),
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert record.success and record.success_stage == "atp"
    assert 'have "x" by simp' in record.final_script


def test_claim_whose_prefix_a_backtrack_changed_is_tried_again():
    # `have "x"` is refused at index 3 inside the inner block.  Collapsing
    # that block moves the later `have "x"` to index 3 under another prefix:
    # a new claim, so its cascade runs and the hammer is asked again.  The
    # hammer proves no `have "x"`, so the last backtrack's placeholder
    # takes its proof.
    candidate = ('proof -\n  have "a"\n  proof -\n    have "x" by bad\n'
                 '  oops\n  have "x" by bad\n  show ?thesis by s\nqed')
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "a"': "ok", 'have "x"': "ok",
        "show ?thesis": "ok", "qed": "ok", "by h": "ok",
        'have "x" by h': "error",
    }, hammer="h"))
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    record = prove(STATEMENT, _model(candidate), prover, budget)
    assert record.success and record.success_stage == "heuristic"
    steps = _steps(prover)
    assert steps.count('have "x"') == 2
    assert [steps[n + 1] for n, step in enumerate(steps)
            if step == 'have "x"'] == [HAMMER_STEP] * 2
    assert record.final_script == ('proof -\n  have "a"\n  by h\n  by h\n'
                                   'qed')


def test_erp_and_heuristic_run_again_where_a_backtrack_reused_the_index():
    # The inner block's `oops` fails at index 5: ERP runs there, and the
    # heuristic does not apply to a block closer.  The backtrack collapses
    # the block; the steps after it keep their tactics, and each refused one
    # gets its own cascade.  The hammer proves `have "d"` and `have "e"` but
    # not `have "f" by bad`, now at index 5 under another prefix, so ERP runs
    # again there and its continuation verifies.
    candidate = ('proof -\n  have "a"\n  proof -\n    have "b" by s2\n'
                 '    show ?thesis by s3\n  oops\n  have "d" by s6\n'
                 '  have "e" by s7\n  have "f" by bad\n  show ?thesis by s9\nqed')
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "a"': "ok", 'have "b"': "ok",
        'have "b" by s2': "ok", "show ?thesis": "ok",
        "show ?thesis by s3": "ok", 'have "d"': "ok", 'have "e"': "ok",
        'have "f"': "ok", "qed": "ok", 'have "a" by h1': "ok",
        'have "d" by h2': "ok", 'have "e" by h3': "ok",
        'have "f" by good': "ok", "show ?thesis by good": "ok",
    }, hammer=["h1", "h2", "h3"]))
    model = RecordingModel(MockModel({
        "whole_proof": [[candidate]],
        "erp": [[""], ['have "f" by good\nshow ?thesis by good\nqed']]}))
    record = prove(STATEMENT, model, prover, BudgetConfig(sample_budget=1))
    assert [r["purpose"] for r in model.requests] == [
        "whole_proof", "erp", "erp"]
    assert _steps(prover) == [
        "init", "proof -", 'have "a"', "proof -", 'have "b" by s2',
        "show ?thesis by s3", "oops", "close", "init", "proof -", 'have "a"',
        *_tried(), "\u27e8hammer\u27e9",
        'have "d" by s6', *_tried('have "d"'), 'have "d"', "\u27e8hammer\u27e9",
        'have "e" by s7', *_tried('have "e"'), 'have "e"', "\u27e8hammer\u27e9",
        'have "f" by bad', *_tried('have "f"'), 'have "f"', "\u27e8hammer\u27e9",
        "by good", "show ?thesis by good", "qed", "close"]
    assert record.success and record.success_stage == "erp"
    assert 'have "f" by good' in record.final_script


def test_rebuild_replays_the_step_a_hammer_call_found():
    # The hammer discharges the placeholder `have "a"`; the cascade at
    # `have "b"` fails inside its goal body, so ERP's first step rebuilds the
    # session and replays `have "a" by (metis h)`, which the prover accepts
    # as the step the hammer found.
    candidate = ('proof -\n  have "a" sorry\n  have "b" by bad\n'
                 '  show ?thesis by simp\nqed')
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "a"': "ok", 'have "b"': "ok",
        "show ?thesis": "ok", "show ?thesis by simp": "ok", "qed": "ok",
        'have "a" by (metis h)': "ok",
    }, hammer="metis h"))
    record = prove(STATEMENT, _model(candidate, erp='have "c" by x'), prover,
                   BudgetConfig(sample_budget=1))
    assert not record.undetermined
    assert 'have "a" by (metis h)' in _steps(prover)


# ---------------------------------------------------------------------------
# scenario: backtracking then failure

def test_scenario_backtrack_then_failure():
    model = _model(NESTED_CANDIDATE)
    prover = RecordingProver(MockProver(table={
        "proof -": "ok",
        'have "a"': "ok",
        'have "b"': "ok",
        'have "b" by s2': "ok",
    }))
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    record = prove(STATEMENT, model, prover, budget)
    assert not record.success
    assert record.success_stage == "failed"
    assert record.i_try == 0
    # the block-closing placeholder was offered to the cascade after truncation
    bare_by_auto = [r for r in prover.requests() if r["step"] == "by auto"]
    assert bare_by_auto


def _backtrack(script, position):
    """The cut ``_repair_chain`` makes before its last cascade."""
    return truncate_to_block(script, _backtrack_target(script, position))


def test_backtrack_truncates_inner_block():
    script = parse_script(NESTED_CANDIDATE)
    cut = _backtrack(script, 4)
    texts = [s.text for s in cut.steps]
    assert texts == ["proof -", 'have "a"', "proof -", 'have "b" by s2',
                     "sorry", "qed", "show ?thesis by s4", "qed"]


# ---------------------------------------------------------------------------
# budget and failure records

def test_budget_exhaustion_failure_record():
    model = MockModel({"whole_proof": [["garbage one", "garbage two",
                                        "garbage three"]]})
    budget = BudgetConfig(sample_budget=3)
    record = prove(STATEMENT, model, MockProver(), budget)
    assert not record.success
    assert record.i_try == 2
    assert record.success_stage == "failed"
    assert record.final_script is None


def test_single_whole_proof_request_within_budget():
    model = _model(ATP_CANDIDATE)
    prove(STATEMENT, model, _atp_prover(), BudgetConfig(sample_budget=10))
    whole = [r for r in model.requests if r["purpose"] == "whole_proof"]
    assert len(whole) == 1
    assert whole[0]["n"] <= 10


def test_budget_above_max_samples_is_rejected():
    BudgetConfig(sample_budget=2, model=ModelParams(max_samples=2))
    with pytest.raises(ValueError, match="max_samples"):
        BudgetConfig(sample_budget=3, model=ModelParams(max_samples=2))


def test_second_candidate_succeeds():
    model = MockModel({"whole_proof": [["garbage", GOLDEN_PROOF_BODY]]})
    record = prove(STATEMENT, model, accepting_mock([GOLDEN_PROOF_BODY]))
    assert record.success
    assert record.i_try == 1


@pytest.mark.parametrize("refusal", ["I cannot prove this.", 'have "x'])
def test_a_candidate_with_no_step_opens_no_session(refusal):
    # Prose holds no step keyword, and an unterminated string does not
    # parse: neither opens a session, and the next candidate is tried.
    prover = RecordingProver(MockProver(table={"by simp": "ok"}))
    model = MockModel({"whole_proof": [[refusal, "by simp"]]})
    record = prove(STATEMENT, model, prover,
                   BudgetConfig(sample_budget=2, erp_enabled=False))
    assert (record.success, record.i_try) == (True, 1)
    assert _steps(prover) == ["init", "by simp", "close"]


def test_soundness_relay_requires_prover_done():
    # Every step accepted but the prover never reports a terminal state.
    table = {text: MockOutcome("ok", is_done=False)
             for s in parse_script(GOLDEN_PROOF_BODY).steps
             for text in (s.body_text, s.text) if text}
    model = _model(GOLDEN_PROOF_BODY)
    record = prove(STATEMENT, model, MockProver(table=table),
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert not record.success


def test_steps_after_the_proof_is_done_are_cut_from_the_final_script():
    # `by simp` finishes the proof, so the `by auto` after it is never sent
    # and has no place in the proof the record keeps
    table = {"by simp": "ok", "by auto": "ok"}
    record = prove(STATEMENT, _model("by simp\nby auto"), MockProver(table=table),
                   BudgetConfig(sample_budget=1))
    assert record.success and record.final_script == "by simp"
    assert check_script(MockProver(table=table), STATEMENT,
                        parse_script(record.final_script)).success


def test_transport_fault_raises_backend_unavailable():
    class FaultyProver(MockProver):
        def init_session(self, theory_text):
            raise TransportError("socket reset")

    with pytest.raises(TransportError):
        prove(STATEMENT, _model(ATP_CANDIDATE), FaultyProver())


@pytest.mark.parametrize("script", [
    {"whole_proof": [[]]},
    {"whole_proof": [[ATP_CANDIDATE]], "erp": [[]]},
], ids=["whole-proof", "erp"])
def test_empty_completion_batch_is_a_transport_fault(script):
    # An empty batch read as a candidate list with nothing in it: a failed
    # record with i_try 0, the same as one refused candidate.
    prover = MockProver(table={"proof -": "ok", 'have "x"': "ok"})
    with pytest.raises(TransportError, match="malformed completion batch"):
        prove(STATEMENT, MockModel(script), prover)


def test_prove_rejects_empty_statement():
    with pytest.raises(ValueError):
        prove("  ", _model(ATP_CANDIDATE), MockProver())


def test_first_step_failure_abandons_candidate():
    # nothing valid to keep: unrepairable failure at step 0
    record = prove(STATEMENT, _model("by nope"), MockProver(),
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert not record.success
    assert record.i_try == 0


def test_theory_load_error_fails_without_retrying_candidates():
    from proofseek.errors import TheoryLoadError

    prover = RecordingProver(MockProver(reject_theory="malformed statement"))
    model = MockModel({"whole_proof": [["by simp", "by auto", "by blast"]]})
    record = prove(STATEMENT, model, prover, BudgetConfig(sample_budget=3))
    assert not record.success
    assert record.i_try == 0
    assert len(prover.requests("init")) == 1


ONCE = 'have a: "x" by simp'
SLOW = MockOutcome("ok", delay_s=99.0)


class FlakyOnReplay(MockProver):
    """A mock whose verdict on each step in ``then`` changes after the
    step's first apply: say, accepted once and timed out on when replayed."""

    def __init__(self, then, **kwargs):
        super().__init__(**kwargs)
        self.then = dict(then)

    def apply(self, session_id, step_text, timeout_s=None):
        result = super().apply(session_id, step_text, timeout_s)
        if step_text in self.then:
            self.table[step_text] = MockOutcome.of(self.then.pop(step_text))
        return result


def test_prefix_replay_failure_is_undetermined_not_a_proof_failure():
    # The prefix step is accepted once, then times out when it is replayed
    # after the placeholder probe dirtied the session.
    once = ONCE
    prover = FlakyOnReplay({once: SLOW},
                           table={"proof -": "ok", 'have a: "x"': "ok",
                                  once: "ok",
                                  'have "b"': "ok", "by meson": "ok"})
    model = MockModel({"whole_proof": [[
        f'proof -\n  {once}\n  have "b" sorry\nqed', "by meson"]]})
    with pytest.raises(TransportError):
        prove(STATEMENT, model, prover,
              BudgetConfig(sample_budget=2, erp_enabled=False))


def test_erp_seek_prefix_replay_failure_is_undetermined(tmp_path):
    # The hammer attempt opens the goal body of `have "b"` and fails.  ERP's
    # continuation does not reopen that body, so its first apply rebuilds the
    # session and replays the prefix, which now times out; the continuation
    # would verify, so this is a prover fault, not a rejection.
    from proofseek.bench import BenchmarkProblem, BenchmarkSpec, run_benchmark

    prover = FlakyOnReplay({ONCE: SLOW}, table={
        "proof -": "ok", 'have a: "x"': "ok", ONCE: "ok", 'have "b"': "ok",
        'have "c"': "ok", 'have "c" by good': "ok", "qed": "ok"})
    model = _model(f'proof -\n  {ONCE}\n  have "b" by bad\nqed',
                   erp='have "c" by good\nqed')
    spec = BenchmarkSpec("flaky", (BenchmarkProblem("p", STATEMENT),),
                         BudgetConfig(sample_budget=1))
    [record] = run_benchmark(spec, model, prover, tmp_path / "records.jsonl",
                             pool_size=1)
    assert record.undetermined and not record.success
    # the replay that failed was ERP's, after its model request
    assert [r["purpose"] for r in model.requests] == ["whole_proof", "erp"]


def test_rebuild_whose_theory_load_is_refused_is_undetermined(tmp_path):
    # The theory loaded once, so its refusal when ERP's continuation rebuilds
    # the session is the prover misbehaving, not a verdict on the proof.
    from proofseek.bench import BenchmarkProblem, BenchmarkSpec, run_benchmark

    loads = []

    def refuse_after_the_first(theory):
        loads.append(theory)
        return "theory refused" if len(loads) > 1 else None

    prover = MockProver(table={
        "proof -": "ok", 'have "x"': "ok", "show ?thesis": "ok",
        "show ?thesis by simp": "ok", "qed": "ok"},
        reject_theory=refuse_after_the_first)
    model = _model('proof -\n  have "x" by bad\n  show ?thesis by simp\nqed',
                   erp="show ?thesis by simp\nqed")
    spec = BenchmarkSpec("reload", (BenchmarkProblem("p", STATEMENT),),
                         BudgetConfig(sample_budget=1))
    [record] = run_benchmark(spec, model, prover, tmp_path / "records.jsonl",
                             pool_size=1)
    assert record.undetermined and not record.success
    assert len(loads) == 2


def test_erp_after_a_clean_cascade_continues_in_the_same_session():
    # The goal `have "x"` is refused, so the hammer is never sent and no
    # cascade attempt opened a goal body: the session still stands at the
    # validated prefix, and ERP sends no second init and replays nothing.
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "y"': "ok", 'have "y" by (meson helper)': "ok",
        "show ?thesis": "ok", "show ?thesis by simp": "ok", "qed": "ok"}))
    model = _model(ATP_CANDIDATE, erp='have "y" by (meson helper)\n'
                                      'show ?thesis by simp\nqed')
    record = prove(STATEMENT, model, prover)
    assert record.success and record.success_stage == "erp"
    assert len(prover.requests("init")) == 1
    assert [r["step"] for r in prover.requests()] == [
        "proof -", 'have "x" by foo', *_tried('have "x"'), 'have "x"',
        'have "y" by (meson helper)', "show ?thesis by simp", "qed"]


NESTED_QED = 'proof -\n  have "a"\n  proof -\n    have "b" by s2\n  qed\nqed'
NESTED_QED_TABLE = {"proof -": "ok", 'have "a"': "ok", 'have "b"': "ok",
                    'have "b" by s2': "ok", "show ?thesis": "ok",
                    "show ?thesis by s3": "ok"}


def test_failing_block_closer_gets_no_cascade():
    # `qed` takes no justification, so a refused `qed` sends no `qed by ...`
    # and no hammer: the backtrack collapses its block at once.
    prover = RecordingProver(MockProver(table=NESTED_QED_TABLE))
    budget = BudgetConfig(sample_budget=1, erp_enabled=False)
    prove(STATEMENT, _model(NESTED_QED), prover, budget)
    assert _steps(prover)[:10] == [
        "init", "proof -", 'have "a"', "proof -", 'have "b" by s2', "qed",
        "close", "init", "proof -", 'have "a"']
    assert not [s for s in _steps(prover) if s.startswith("qed ")]


def test_dirty_repair_then_backtrack_costs_one_rebuild():
    # The inner qed is refused.  ERP's continuation is accepted one step past
    # the prefix and then refused, leaving the session there; the backtrack
    # over the inner block then rebuilds once for both.
    prover = RecordingProver(MockProver(table=NESTED_QED_TABLE))
    model = _model(NESTED_QED, erp="show ?thesis by s3\nqed\nqed")
    budget = BudgetConfig(sample_budget=1)
    prove(STATEMENT, model, prover, budget)
    assert _steps(prover)[:13] == [
        "init", "proof -", 'have "a"', "proof -", 'have "b" by s2', "qed",
        "show ?thesis by s3", "qed",
        "close", "init", "proof -", 'have "a"', "by auto"]
    assert _steps(prover).count("init") == 2


def test_refused_step_is_not_sent_again_as_the_cascade_rewrite():
    # The main loop's `have h8: "x" by auto` is refused, so the cascade's
    # first rewrite, the same text, is answered from memory: no request and
    # no extra call.
    candidate = 'proof -\n  have h8: "x" by auto\n  show ?thesis by simp\nqed'
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have h8: "x"': "ok", 'have h8: "x" by simp': "ok",
        "show ?thesis": "ok", "show ?thesis by simp": "ok", "qed": "ok"}))
    record = prove(STATEMENT, _model(candidate), prover,
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert record.success and record.success_stage == "atp"
    assert _steps(prover)[:5] == [
        "init", "proof -", 'have h8: "x" by auto', 'have h8: "x" by simp',
        "show ?thesis by simp"]
    assert record.extra_calls == 1


def test_step_that_timed_out_is_sent_again():
    # A timeout is no verdict and is never remembered; a refusal is.
    prover = RecordingProver(MockProver(table={"by slow": SLOW}))
    cursor = _cursor(prover)
    for _ in range(2):
        assert cursor.advance(["by slow"]).last.status == "timeout"
        assert cursor.advance(["by nope"]).last.status == "error"
    assert [r["step"] for r in prover.requests()] == [
        "by slow", "by nope", "by slow"]
    assert (cursor.timeouts, cursor.recalled) == (2, 1)


def test_refusal_kept_where_the_caller_stands_is_answered_off_the_session():
    # `have "b"` is refused at the root.  After `have "a"` the session stands
    # past the root; back there, the kept refusal answers with no rebuild:
    # no init, no close, no apply.
    prover = RecordingProver(MockProver(table={'have "a"': "ok"}))
    cursor = _cursor(prover)
    assert not cursor.advance(['have "b"']).last.ok
    assert cursor.advance(['have "a"']).count == 1
    cursor.seek([])
    before, recalled = len(prover.trace), cursor.recalled
    assert not cursor.advance(['have "b"']).last.ok
    assert len(prover.trace) == before
    assert cursor.recalled == recalled + 1


def test_refused_hammer_is_answered_where_the_session_stands():
    # A hammer call refused after `have "a"` is kept like any refusal: asked
    # again at the same place, it is answered with no call.
    prover = RecordingProver(MockProver(table={'have "a"': "ok"}))
    cursor = _cursor(prover)
    assert cursor.advance(['have "a"']).count == 1
    assert not cursor.advance([HAMMER_STEP]).last.ok
    before, recalled = len(prover.trace), cursor.recalled
    assert not cursor.advance([HAMMER_STEP]).last.ok
    assert len(prover.trace) == before
    assert cursor.recalled == recalled + 1


def test_erp_continuation_restating_the_failing_step_opens_no_session():
    # The hammer attempt leaves the goal body `have "x"` open.  ERP's first
    # step restates it with another tactic, so only that tactic is sent,
    # into the same session.
    prover = RecordingProver(_erp_prover())
    record = prove(STATEMENT, _model(ATP_CANDIDATE, erp=ERP_COMPLETION), prover)
    assert record.success and record.success_stage == "erp"
    assert len(prover.requests("init")) == 1
    assert _steps(prover)[-6:] == [
        'have "x"', "\u27e8hammer\u27e9", "by (meson helper)",
        "show ?thesis by simp", "qed", "close"]
    assert 'have "x" by (meson helper)' in record.final_script


def _held_body_cursor(prover):
    """A cursor whose failed cascade left the goal body `have "x"` open
    after `proof -`."""
    cursor = _cursor(prover)
    cursor.advance(["proof -"])
    outcome = atp_substitute(cursor, parse_script('proof - have "x" sorry'), 1,
                             AttemptState())
    assert not outcome.success
    return cursor


# metis and presburger are outside CASCADE, so no cascade sends them
@pytest.mark.parametrize("texts, sent, inits", [
    # reopening the body is answered with no call
    (['have "x"', "by metis"], ["by metis"], 1),
    # `<body> by T` sends only `by T`
    (['have "x" by metis'], ["by metis"], 1),
    # anything else rebuilds at the sought prefix first
    (['have "y"'], ["proof -", 'have "y"'], 2),
])
def test_seek_settles_a_held_body_at_the_next_apply(texts, sent, inits):
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "x"': "ok", 'have "x" by metis': "ok",
        'have "y"': "ok"}))
    cursor = _held_body_cursor(prover)
    before = len(prover.requests())
    cursor.seek(["proof -"])
    assert len(prover.requests()) == before
    run = cursor.advance(texts)
    assert run.count == len(texts) and run.last.ok
    assert [r["step"] for r in prover.requests()[before:]] == sent
    assert len(prover.requests("init")) == inits


def test_refused_tactic_leaves_the_held_body_open():
    # `by presburger` is refused inside the held body, which stays open: the
    # next attempt needs no rebuild either.
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "x"': "ok", 'have "x" by metis': "ok"}))
    cursor = _held_body_cursor(prover)
    cursor.seek(["proof -"])
    assert not cursor.advance(['have "x" by presburger']).last.ok
    assert not cursor.advance(['have "x" by presburger']).last.ok
    assert cursor.advance(['have "x" by metis']).count == 1
    assert [r["step"] for r in prover.requests()][-2:] == [
        "by presburger", "by metis"]
    assert len(prover.requests("init")) == 1


def test_seek_off_the_trie_is_refused():
    # The caller only ever stands on steps the prover accepted: a seek to a
    # prefix the cursor never saw accepted raises and sends nothing.
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "a"': "ok", 'have "b"': "ok"}))
    cursor = _cursor(prover)
    assert cursor.advance(["proof -", 'have "b"']).count == 2
    with pytest.raises(ValueError):
        cursor.seek(["proof -", 'have "a"'])
    assert len(prover.trace) == 3


def test_partly_accepted_continuation_is_walked_again_with_no_call():
    # ERP's continuation is accepted two steps past the prefix, then
    # refused; the next stage restating those steps walks them again.
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "x"': "ok", 'have "x" by simp': "ok",
        'have "y"': "ok"}))
    cursor = _cursor(prover)
    cursor.advance(["proof -"])
    assert cursor.advance(['have "x" by simp', 'have "y"', "qed"]).count == 2
    cursor.seek(["proof -"])
    recalled = cursor.recalled
    run = cursor.advance(['have "x" by simp', 'have "y"'])
    assert run.count == 2 and cursor.recalled == recalled + 2
    assert _steps(prover) == ["init", "proof -", 'have "x" by simp',
                              'have "y"', "qed"]


# ---------------------------------------------------------------------------
# differential: the cursor against a fresh session per apply

_BODIES = ('have "a"', 'have "b"', "show ?thesis")
_TACTICS = ("by auto", "by simp", "by slow")
_WHOLES = tuple(f"{body} {tactic}" for body in _BODIES for tactic in _TACTICS)
_STEPS = (*_BODIES, *_TACTICS, *_WHOLES, "proof -", "qed")


@st.composite
def _coherent_tables(draw):
    """A MockProver table over ``_STEPS``: bodies, bare tactics and
    delimiters ok or refused, ``by slow`` timing out, and some whole steps
    listed, accepted only where their body is."""
    verdict = st.sampled_from(["ok", "error"])
    table = {text: draw(verdict)
             for text in (*_BODIES, "by auto", "by simp", "proof -", "qed")}
    table["by slow"] = MockOutcome("ok", delay_s=99.0)
    for whole in _WHOLES:
        listed = draw(st.sampled_from([None, "ok", "error"]))
        body = whole[:whole.index(" by ")]
        if listed == "error" or (listed == "ok" and table[body] == "ok"):
            table[whole] = listed
    return table


class _SimpAfterA(MockProver):
    """A MockProver whose verdicts hang on more history than block depth,
    goal body and completion: `by simp`, bare or as `<body> by simp`, is
    refused in a session that accepted no step with goal body `have "a"`
    before it, the body of `<body> by simp` counting as before it.  So a
    step sent from another place than the caller's can get another verdict
    than one sent from there."""

    def __init__(self, table):
        super().__init__(table=table)
        self.after_a: set[str] = set()  # sessions that accepted `have "a"`

    def apply(self, session_id, step_text, timeout_s=None):
        text = normalize_step(step_text)
        body = text.split(" by ")[0]
        if (text.endswith("by simp") and body != 'have "a"'
                and session_id not in self.after_a):
            return StepResult("error", None, 'simp needs "a"', False)
        result = super().apply(session_id, step_text, timeout_s)
        if result.ok and body == 'have "a"':
            self.after_a.add(session_id)
        return result


class _FreshSessionCursor:
    """Reference: the caller's accepted steps, replayed into a fresh session
    before every apply."""

    def __init__(self, table):
        self.table = table
        self.path: list[str] = []

    def seek(self, prefix):
        self.path = list(prefix)

    def apply(self, text):
        prover = _SimpAfterA(self.table)
        session = prover.init_session("theory")
        for step in self.path:
            assert prover.apply(session, step).ok
        result = prover.apply(session, text)
        if result.ok:
            self.path.append(text)
        return result


_SEEK = st.tuples(st.just("seek"), st.integers(0, 99), st.integers(0, 99))
# Half the steps applied are those the double's verdicts hang on: the bare
# goal bodies (`have "a"` among them) and the `by simp` steps.
_SIMP_STEPS = (*_BODIES, *(w for w in _WHOLES if w.endswith("by simp")))
_APPLY = st.tuples(st.just("apply"), st.one_of(st.sampled_from(_STEPS),
                                               st.sampled_from(_SIMP_STEPS)),
                   st.none())
_OPS = st.one_of(_SEEK, _APPLY, _APPLY)


@settings(max_examples=500, deadline=None, database=None)
@given(_coherent_tables(), st.lists(_OPS, min_size=12, max_size=30))
@example({'have "b"': "ok", "by auto": "ok"},
         [("apply", 'have "b"', None), ("seek", 0, 1),
          ("apply", "by auto", None)])
@example({"proof -": "ok", 'have "a"': "ok", 'have "a" by auto': "ok",
          "by simp": "ok"},
         [("apply", "proof -", None), ("seek", 0, 1),
          ("apply", 'have "a"', None), ("seek", 1, 0),
          ("apply", 'have "a" by auto', None), ("apply", "by simp", None)])
@example({'have "a"': "ok", "by simp": "ok"},
         [("apply", 'have "a"', None), ("apply", 'have "a"', None),
          ("seek", 0, 2), ("apply", 'have "a" by simp', None), ("seek", 2, 0),
          ("apply", "by simp", None), ("apply", 'have "a"', None),
          ("seek", 0, 0)])
def test_cursor_verdicts_match_a_fresh_session_replay(table, ops):
    # Seeks go to prefixes the reference accepted; every verdict, whether
    # the cursor walked, recalled, finished a goal body, rebuilt or asked,
    # must be the one a fresh session gives after the same steps.  Both
    # sides run the history-sensitive double, so a step sent from the wrong
    # place shows in the verdict.  A seek counts back from the latest path
    # and from its end, so the small numbers that hypothesis favours step
    # back a little from where the caller stands, as the repair stages do.
    # The last example pins a `by simp` accepted after `have "a"` where
    # `have "a" by simp` was kept before: the step must lead to that kept
    # node, where the session stands, or the path through it cannot be
    # sought again.
    cursor = _cursor(_SimpAfterA(table))
    reference = _FreshSessionCursor(table)
    accepted = [[]]
    for op, first, second in ops:
        if op == "seek":
            path = accepted[-1 - first % len(accepted)]
            prefix = path[:len(path) - second % (len(path) + 1)]
            cursor.seek(prefix)
            reference.seek(prefix)
            continue
        want = reference.apply(first)
        run = cursor.advance([first])
        assert (run.last.status, run.last.is_done) == (want.status,
                                                      want.is_done)
        if want.ok:
            accepted.append(list(reference.path))


# ---------------------------------------------------------------------------
# property: a placeholder's cascade repeats only what timed out

# the drawn table answers the first three tactics and refuses the rest
_REPAIR_TACTICS = CASCADE[:3]


@st.composite
def _tactic_tables(draw):
    """A coherent MockProver table for `have "x"` after `proof -`, whose goal
    body and cascade tactics answer ok, error or timeout, whole or bare, and
    a hammer that is refused or times out: its `by slow` always does."""
    answer = st.sampled_from(["ok", "error", SLOW])
    body = draw(answer)
    table = {"proof -": "ok", 'have "x"': body, "by slow": SLOW}
    for tactic in _REPAIR_TACTICS:
        table[f"by {tactic}"] = draw(answer)
        whole = draw(st.sampled_from([None, "ok", "error", SLOW]))
        if whole == "error" or (whole == "ok" and body == "ok") or (
                whole is SLOW and body != "error"):
            table[f'have "x" by {tactic}'] = whole
    return table, draw(st.sampled_from([None, "slow"]))


@settings(max_examples=200, deadline=None, database=None)
@given(_tactic_tables())
@example(({"proof -": "ok", 'have "x"': "ok", "by auto": "error",
           "by simp": SLOW, "by blast": "error", "by slow": SLOW}, None))
def test_placeholder_cascade_sends_only_what_timed_out_before(drawn):
    # The cascade on a refused tactic step, then, in the same cursor, on its
    # placeholder: the second run may send only steps whose first answer was
    # a timeout, a tactic sent bare into the goal body it left open counting
    # as its whole step.
    table, hammer = drawn
    prover = RecordingProver(MockProver(table=table, hammer=hammer))
    cursor = _cursor(prover)
    assert cursor.advance(["proof -"]).count == 1
    script = parse_script('proof - have "x" by bad')
    if atp_substitute(cursor, script, 1, AttemptState()).success:
        return
    timed_out = {e["request"]["step"] for e in prover.trace
                 if e["response"]["status"] == "timeout"}
    sent = len(prover.trace)
    placeholder = script.steps[1].with_justification("sorry")
    atp_substitute(cursor, splice(script, 1, placeholder), 1, AttemptState())
    again = [f'have "x" {step}' if step.startswith("by ") else step
             for step in _steps(prover)[sent:]]
    assert set(again) <= timed_out


# ---------------------------------------------------------------------------
# property: ERP asks the model at most once per prefix and goal body

_GOALS = ('have "a"', 'have "b"', 'show "c"', "show ?thesis")
# `by h1` is the tactic the hammer finds where the table accepts it, `by bad`
# is always refused and `by slow` always times out
_CANDIDATE_BYS = ("by auto", "by simp", "by h1", "by bad", "by slow")


@st.composite
def _candidate_steps(draw, depth=0):
    """Steps of a block body: goals with a tactic or a placeholder, and
    goals proved by a nested block, plain or split by ``next``."""
    kinds = ["by", "sorry"] + (["block", "cases"] if depth < 2 else [])
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        goal = draw(st.sampled_from(_GOALS))
        kind = draw(st.sampled_from(kinds))
        if kind == "by":
            steps.append(f"{goal} {draw(st.sampled_from(_CANDIDATE_BYS))}")
        elif kind == "sorry":
            steps.append(f"{goal} sorry")
        elif kind == "block":
            steps += [goal, "proof -", *draw(_candidate_steps(depth + 1)),
                      "qed"]
        else:
            steps += [goal, "proof (cases x)",
                      *draw(_candidate_steps(depth + 1)), "next",
                      *draw(_candidate_steps(depth + 1)), "qed"]
    return steps


@st.composite
def _hammer_coherent_tables(draw):
    """A MockProver table over the candidate steps and a hammer: none, h1,
    or slow.  The table accepts a whole step only where it accepts its goal
    body, so the hammer finds ``by h1`` for the goals that list
    ``<goal> by h1`` as accepted, and times out on ``by slow``."""
    verdict = st.sampled_from(["ok", "error"])
    table = {text: draw(verdict) for text in (
        *_GOALS, "by auto", "by simp", "proof -", "proof (cases x)", "next",
        "qed")}
    table["by slow"] = SLOW
    for goal in _GOALS:
        for by in ("by auto", "by simp", "by h1"):
            listed = draw(st.sampled_from([None, "ok", "error"]))
            if listed == "error" or (listed == "ok" and table[goal] == "ok"):
                table[f"{goal} {by}"] = listed
    return table, draw(st.sampled_from([None, "h1", "slow"]))


_ERP_COMPLETIONS = st.lists(
    st.lists(st.sampled_from((*(f"{goal} {by}" for goal in _GOALS
                                for by in _CANDIDATE_BYS), "qed")),
             max_size=4).map("\n".join),
    min_size=1, max_size=4)


@settings(max_examples=300, deadline=None, database=None)
@given(_candidate_steps(), _hammer_coherent_tables(), _ERP_COMPLETIONS)
def test_erp_asks_the_model_once_per_prefix_and_goal_body(
        steps, drawn, completions):
    # No memo guards ERP: the chain must never come back to one prefix and
    # goal body within a candidate, or ERP would ask the model again there.
    table, hammer = drawn
    candidate = "\n".join(["proof -", *steps, "qed"])
    asked = []

    def recording(cursor, script, position, *args):
        asked.append((tuple(s.text for s in script.steps[:position]),
                      script.steps[position].body_text))
        return erp_repair(cursor, script, position, *args)

    model = MockModel({"whole_proof": [[candidate]],
                       "erp": [[completion] for completion in completions]})
    with mock.patch.object(engine, "erp_repair", recording):
        prove(STATEMENT, model, MockProver(table=table, hammer=hammer),
              BudgetConfig(sample_budget=1))
    assert len(asked) == len(set(asked))


# every goal body, delimiter and `show ?thesis by auto` accepted, the bare
# cascade tactics refused
_ALL_GOALS_TABLE = {**dict.fromkeys((*_GOALS, "proof -", "proof (cases x)",
                                     "next", "qed", "show ?thesis by auto"),
                                    "ok"),
                    "by auto": "error", "by simp": "error", "by slow": SLOW}


@settings(max_examples=300, deadline=None, database=None)
@given(_candidate_steps(), _hammer_coherent_tables(), _ERP_COMPLETIONS)
@example(['have "a" by bad', "show ?thesis by auto"],
         (_ALL_GOALS_TABLE, "h1"), [""])
@example(['have "a" by bad', "show ?thesis by auto"],
         ({**_ALL_GOALS_TABLE, 'have "a" by h1': "ok"}, "h1"), [""])
def test_a_success_rechecks_on_a_fresh_mock(steps, drawn, completions):
    # A verdict is a function of the session's steps and the step, so every
    # final script passes `check_script` on a fresh MockProver with the same
    # table and hammer.  The first example's table does not list
    # `have "a" by h1`, so the hammer finds no proof of `have "a"`; in the
    # second it does, and the proof that lands it re-checks.
    table, hammer = drawn
    candidate = "\n".join(["proof -", *steps, "qed"])
    model = MockModel({"whole_proof": [[candidate]],
                       "erp": [[completion] for completion in completions]})
    record = prove(STATEMENT, model, MockProver(table=table, hammer=hammer),
                   BudgetConfig(sample_budget=1))
    if record.success:
        assert check_script(MockProver(table=table, hammer=hammer), STATEMENT,
                            parse_script(record.final_script)).success


# ---------------------------------------------------------------------------
# differential: runs of steps in one request against one request per step

_RUN_OPS = st.one_of(_SEEK, st.tuples(
    st.just("advance"),
    st.lists(st.sampled_from((*_STEPS, HAMMER_STEP)), max_size=6), st.none()))


@pytest.fixture(scope="module")
def wire_cursor_server():
    server = ProverServer(MockProver()).start()
    client = WireProver(ProverConfig(endpoint=server.address))
    yield server, client
    client.shutdown()
    server.stop()


def _advance_stepwise(cursor, texts) -> Advance:
    """``advance`` one text at a time: one request per step sent."""
    count, last = 0, None
    for text in texts:
        last = cursor.advance([text]).last
        if not last.ok:
            return Advance(count, last)
        count += 1
        if last.is_done:
            return Advance(count, last, done=True)
    return Advance(count, last)


@settings(max_examples=300, deadline=None, database=None)
@given(_coherent_tables(), st.sampled_from([None, "by auto"]),
       st.lists(_RUN_OPS, max_size=20))
@example({"proof -": "ok", 'have "a"': "error", "qed": "error"}, None,
         [("advance", ["proof -", 'have "a"'], None), ("seek", 0, 0),
          ("advance", ["qed"], None), ("advance", ["proof -", 'have "a"'], None)])
@example({'have "a"': "ok", 'have "a" by simp': "ok", "qed": "error"}, None,
         [("advance", ['have "a" by simp', "qed"], None), ("seek", 0, 0),
          ("advance", ['have "a"', "by simp", "qed"], None)])
@example({'have "a"': "ok", 'have "b"': "ok",
          "by auto": MockOutcome("ok", is_done=False)}, "by auto",
         [("advance", [HAMMER_STEP, 'have "b"'], None), ("seek", 0, 0),
          ("advance", ["by auto", 'have "a"'], None)])
def test_runs_of_steps_send_what_one_step_at_a_time_sends(
        wire_cursor_server, table, hammer, ops):
    # The cursor sends each run it cannot answer in one request, over the
    # wire and in process alike; the backend must see the requests, and the
    # caller the results, that stepping one text at a time gives.  The
    # examples pin two cuts.  After the rebuild for `qed`, the session walks
    # `proof -` again, and the run ends before the `have "a"` refused there.
    # After the rebuild, `by simp` lands where `have "a" by simp` did, so
    # the run ends after it, before the `qed` refused there.  The last pins
    # a hammer win filed as the `by auto` it found, which the trie answers
    # with no call and the rebuild replays as text.
    server, client = wire_cursor_server
    recorders = [RecordingProver(MockProver(table, hammer=hammer))
                 for _ in range(3)]
    server.backend = recorders[0]
    cursors = [_cursor(client), _cursor(recorders[1]), _cursor(recorders[2])]
    advances = [cursors[0].advance, cursors[1].advance,
                functools.partial(_advance_stepwise, cursors[2])]
    path: list[str] = []
    accepted = [[]]
    for op, first, second in ops:
        if op == "seek":
            chosen = accepted[first % len(accepted)]
            path = chosen[:second % (len(chosen) + 1)]
            for cursor in cursors:
                cursor.seek(path)
            continue
        runs = [advance(first) for advance in advances]
        assert runs[0] == runs[1] == runs[2]
        if runs[0].count:
            path = path + first[:runs[0].count]
            accepted.append(path)
    assert recorders[0].trace == recorders[1].trace == recorders[2].trace


def test_a_hammer_win_outranks_the_refusal_kept_for_its_step():
    # `by auto` is refused, then the hammer finds it: a real prover may
    # reconstruct a proof its first try refused.  The acceptance is filed
    # under `by auto` too, where the refusal was kept: the cursor must stand
    # on the hammer's node, and `by auto` is then known as accepted.  A
    # MockProver never answers so, so the prover's replies are written out.
    theory = ProverConfig().theory_header + '\n\ntheorem t:\n  shows "P"'

    def apply(step, reply):
        return {"request": {"command": "apply", "session_id": "s-1",
                            "step": step, "timeout_s": 10.0},
                "response": {"message": "", "is_done": False, **reply}}

    prover = RecordingProver(ReplayProver([
        {"request": {"command": "init", "session_id": None, "step": theory,
                     "timeout_s": 120.0},
         "response": {"status": "ok", "state_id": "s-1/0", "message": "",
                      "is_done": False}},
        apply("by auto", {"status": "error", "state_id": None}),
        apply(HAMMER_STEP, {"status": "ok", "state_id": "s-1/1",
                            "message": "auto"}),
        apply("by auto", {"status": "ok", "state_id": "s-1/2"}),
    ]))
    cursor = _cursor(prover)
    assert not cursor.advance(["by auto"]).last.ok
    assert cursor.advance([HAMMER_STEP]).count == 1
    assert cursor.advance(["by auto"]).count == 1
    cursor.seek([])
    recalled = cursor.recalled
    assert cursor.advance(["by auto"]).count == 1
    assert cursor.recalled == recalled + 1
    assert _steps(prover) == ["init", "by auto", HAMMER_STEP, "by auto"]


def test_rebuild_replays_a_hammer_win_with_no_goal_body_open():
    # The cursor files the top-level hammer win as `by auto`; the rebuild
    # for `have "a"` replays it as text, which the table accepts.
    prover = RecordingProver(MockProver(
        table={'have "a"': "ok", 'have "b"': "ok",
               "by auto": MockOutcome("ok", is_done=False)}, hammer="auto"))
    cursor = _cursor(prover)
    assert cursor.advance([HAMMER_STEP, 'have "b"']).count == 2
    cursor.seek([])
    assert cursor.advance(["by auto", 'have "a"']).count == 2
    assert _steps(prover) == ["init", HAMMER_STEP, 'have "b"', "close",
                              "init", "by auto", 'have "a"']


def test_timeout_sets_has_timeout():
    prover = MockProver(table={
        "proof -": "ok",
        'have "x"': "ok",
        'have "x" by foo': MockOutcome("ok", delay_s=30.0),
        'have "x" by simp': "ok",
        "show ?thesis": "ok",
        "show ?thesis by simp": "ok",
        "qed": "ok",
    })
    record = prove(STATEMENT, _model(ATP_CANDIDATE), prover,
                   BudgetConfig(erp_enabled=False))
    assert record.success
    assert record.has_timeout


_TIMEOUT_CASES = {
    # `have "x" by foo` times out in the main loop; the cascade's simp wins.
    "main-loop step": dict(
        candidates=[ATP_CANDIDATE], erp=None, hammer=None, stage="atp",
        table={'have "x" by foo': SLOW, 'have "x" by simp': "ok"}),
    # The cascade's auto times out on `have "x"`; its simp wins.
    "cascade tactic": dict(
        candidates=[ATP_CANDIDATE], erp=None, hammer=None, stage="atp",
        table={'have "x" by auto': SLOW, 'have "x" by simp': "ok"}),
    # Every tactic is refused and the hammer times out; ERP completes.
    "hammer": dict(
        candidates=[ATP_CANDIDATE], erp=ERP_COMPLETION, hammer="slow",
        stage="erp", table={'have "x"': "ok", 'have "x" by slow': SLOW,
                            'have "x" by (meson helper)': "ok"}),
    # ERP's continuation times out on its first step; a backtrack's
    # placeholder is discharged by auto, which proves the block's goal but
    # not `have "x"`.
    "erp continuation step": dict(
        candidates=[ATP_CANDIDATE], erp='have "x" by slow\nqed', hammer=None,
        stage="heuristic", table={'have "x" by slow': SLOW, "by auto": "ok",
                                  'have "x" by auto': "error"}),
    # The first candidate times out and fails; the second verifies.
    "earlier candidate": dict(
        candidates=['proof -\n  have "y" by slow\nqed', ATP_CANDIDATE],
        erp=None, hammer=None, stage="atp",
        table={'have "y"': "ok", 'have "y" by slow': SLOW,
               'have "x" by auto': "ok"}),
}


@pytest.mark.parametrize("case", list(_TIMEOUT_CASES))
def test_has_timeout_wherever_an_apply_timed_out(case):
    spec = _TIMEOUT_CASES[case]
    prover = MockProver(table={
        "proof -": "ok", 'have "x"': "ok", "show ?thesis": "ok",
        "show ?thesis by simp": "ok", "qed": "ok",
        **spec["table"]}, hammer=spec["hammer"])
    model = MockModel({"whole_proof": [spec["candidates"]],
                       "erp": [[spec["erp"] or "by nope"]]})
    budget = BudgetConfig(sample_budget=len(spec["candidates"]),
                          erp_enabled=spec["erp"] is not None)
    record = prove(STATEMENT, model, prover, budget)
    assert record.success and record.success_stage == spec["stage"]
    assert record.i_try == len(spec["candidates"]) - 1
    assert record.has_timeout


def test_timeout_plumbing_step_vs_hammer():
    model = _model(ATP_CANDIDATE, erp=ERP_COMPLETION)
    prover = RecordingProver(_erp_prover())
    prove(STATEMENT, model, prover)
    applies = prover.requests()
    hammer = [r for r in applies if r["step"] == "\u27e8hammer\u27e9"]
    others = [r for r in applies if r["step"] != "\u27e8hammer\u27e9"]
    assert hammer and all(r["timeout_s"] == 40.0 for r in hammer)
    assert others and all(r["timeout_s"] == 10.0 for r in others)


def test_the_cursor_sends_every_run_as_one_apply_steps():
    # The prover here takes no single `apply`: every run, one step or
    # many, is an `apply_steps`.  The hammer goes alone with the hammer
    # timeout, and ERP's goal-body shortcut sends its tactic as a run of one.
    prover = ScheduledProver(_erp_prover())
    record = prove(STATEMENT, _model(ATP_CANDIDATE, erp=ERP_COMPLETION), prover)
    assert record.success and record.success_stage == "erp"
    assert ([HAMMER_STEP], 40.0) in prover.runs
    assert (["by (meson helper)"], 10.0) in prover.runs
    assert all(timeout == (40.0 if HAMMER_STEP in texts else 10.0)
               and (texts == [HAMMER_STEP] or HAMMER_STEP not in texts)
               for texts, timeout in prover.runs)


# ---------------------------------------------------------------------------
# operation-level tests

def _cursor(prover):
    return SessionCursor(prover, STATEMENT, prover.config)


def test_atp_substitute_sorry_position_arithmetic():
    prover = MockProver(table={'have "g"': "ok", "by fastforce": "ok"})
    cursor = _cursor(prover)
    script = parse_script('have "g" sorry')
    state = AttemptState()
    outcome = atp_substitute(cursor, script, 0, state)
    assert outcome.success
    assert state.extra_calls == 4  # auto, simp, blast, fastforce
    assert outcome.script.steps[0].text == 'have "g" by fastforce'


def test_atp_substitute_hammer_result_spliced():
    prover = MockProver(table={'have "g"': "ok",
                               'have "g" by (metis foo)': "ok"},
                        hammer="by (metis foo)")
    cursor = _cursor(prover)
    script = parse_script('have "g" by wrong')
    state = AttemptState()
    outcome = atp_substitute(cursor, script, 0, state)
    assert outcome.success
    assert state.extra_calls == 10  # 9 tactics + hammer
    assert outcome.script.steps[0].text == 'have "g" by (metis foo)'


@pytest.mark.parametrize("hammer", ["by(metis h)", "by(simp)", "by (metis h)",
                                    "metis h"])
def test_a_hammer_win_lands_in_a_script_that_rechecks(hammer):
    # However the hammer writes the tactic it found, the final script parses
    # back into steps a fresh prover accepts.
    table = {"proof -": "ok", 'have "x"': "ok", "show ?thesis": "ok",
             "show ?thesis by simp": "ok", "qed": "ok",
             f'have "x" {justification(hammer)}': "ok"}
    record = prove(STATEMENT, _model(ATP_CANDIDATE),
                   MockProver(table=table, hammer=hammer),
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert record.success_stage == "atp"
    assert check_script(MockProver(table=table, hammer=hammer), STATEMENT,
                        parse_script(record.final_script)).success


def test_atp_substitute_total_failure_leaves_script_unchanged():
    prover = RecordingProver(MockProver(table={'have "g"': "ok"}))
    cursor = _cursor(prover)
    script = parse_script('have "g" by wrong')
    outcome = atp_substitute(cursor, script, 0, AttemptState())
    assert not outcome.success
    assert outcome.script is script
    # the goal body opened for the hammer is where the session stands, so a
    # step restating it is walked with no call
    sent = len(prover.trace)
    cursor.seek([])
    assert cursor.advance(['have "g"']).count == 1
    assert len(prover.trace) == sent


def test_erp_repair_merges_validated_continuation():
    prover = RecordingProver(_erp_prover())
    model = MockModel({"erp": [[ERP_COMPLETION]]})
    script = parse_script(ATP_CANDIDATE)
    cursor = _cursor(prover)
    cursor.advance(["proof -"])
    outcome = erp_repair(cursor, script, 1, AttemptState(), model, STATEMENT,
                         BudgetConfig())
    assert outcome.success
    assert len(prover.requests("init")) == 1  # no probe session
    texts = [s.text for s in outcome.script.steps]
    assert texts == ["proof -", 'have "x" by (meson helper)',
                     "show ?thesis by simp", "qed"]


@pytest.mark.parametrize("text, position, applies", [
    ('have "a" by (metis x)\nhave "b" by blast', 0, True),
    ("fix x fix y", 1, True),
    ('have "a" sorry fix y', 0, False),
    ('proof -\nhave "a" by x\nqed', 0, False),
    ('proof -\nhave "a" by x\nqed', 2, False),
])
def test_heuristic_applies_to_a_step_that_takes_a_justification(
        text, position, applies):
    # not to a placeholder, nor to a block delimiter
    script = parse_script(text)
    assert heuristic_repair(script, position) is applies


def test_failing_block_closer_terminates():
    # A qed that keeps timing out must collapse the block, not grow the
    # script with placeholders forever.
    candidate = ('proof -\nthen show ?thesis by simp\n'
                 'moreover have "g1" sorry\nhave "g2" sorry\n'
                 'show ?thesis by auto\nqed')
    prover = MockProver(table={
        "proof -": "ok",
        "then show ?thesis": "ok",
        "then show ?thesis by simp": "ok",
        'have "g2"': "ok",
        "show ?thesis": "ok",
        "show ?thesis by auto": "ok",
        "by blast": "ok",
        "qed": MockOutcome("ok", delay_s=99.0),
    }, hammer="by (metis h)")
    record = prove(STATEMENT, _model(candidate), prover,
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert not record.success
    assert record.has_timeout


def test_backtrack_collapses_block_when_closer_fails():
    script = parse_script('proof -\nhave "a" by x\nproof -\nhave "b" by y\n'
                          'qed\nshow ?thesis by z\nqed')
    cut = _backtrack(script, 4)  # the inner qed
    assert [s.text for s in cut.steps] == [
        "proof -", 'have "a" by x', "sorry", "show ?thesis by z", "qed"]


def test_backtrack_ignores_empty_next_segment_of_a_later_block():
    # The failing step sits before a block whose first `next` segment is
    # empty; that block must not claim it, so the cut drops the rest of the
    # outer block, later blocks included.
    script = parse_script(
        'proof - have "a" by simp have "b" by bad have "c" '
        'proof (cases x) next show "c" by simp qed show ?thesis by simp qed')
    cut = _backtrack(script, 2)
    assert [s.text for s in cut.steps] == [
        "proof -", 'have "a" by simp', "sorry", "qed"]


def test_run_pool_preserves_order_and_captures_exceptions():
    def worker(n):
        if n == 2:
            raise ValueError("boom")
        return n * 10

    results = run_pool([0, 1, 2, 3], worker, pool_size=3)
    assert results[0] == 0 and results[1] == 10 and results[3] == 30
    assert isinstance(results[2], ValueError)


def test_attempt_record_round_trip():
    record = AttemptRecord(PROBLEM_NAME, True, 0, "init_proof", False, 0,
                           False, 1.25, final_script="by simp")
    assert typed(AttemptRecord, record.to_json(), "record") == record


def test_attempt_record_invariants():
    with pytest.raises(ValueError):
        AttemptRecord("p", True, 0, "init_proof", False, 0, False, 0.0,
                      final_script=None)
    with pytest.raises(ValueError):
        AttemptRecord("p", False, 0, "atp", False, 0, False, 0.0)
    with pytest.raises(ValueError):
        AttemptRecord("p", False, 0, "nope", False, 0, False, 0.0)
    with pytest.raises(ValueError):
        AttemptRecord("p", False, -1, "failed", False, 0, False, 0.0)
    with pytest.raises(ValueError):
        AttemptRecord("p", False, 0, "failed", False, -1, False, 0.0)


# ---------------------------------------------------------------------------
# golden request trace through every repair stage

INIT = ("init", 'theory Scratch\n  imports Main\nbegin\n\ntheorem t:\n  shows "P"',
        120.0)
CLOSE = ("close", "", None)
HAMMER = ("apply", "\u27e8hammer\u27e9", 40.0)
TACTICS = [("apply", by, 10.0) for by in CASCADE_BY]
PREFIX = [("apply", "proof -", 10.0), ("apply", 'have "a" by simp', 10.0),
          ("apply", 'have "c"', 10.0)]
GOLDEN_REQUESTS = [
    # cascade fix of a timed-out tactic step
    INIT, ("apply", "proof -", 10.0), ("apply", 'have "a" by foo', 10.0),
    ("apply", 'have "a" by auto', 10.0), *PREFIX[1:], ("apply", "proof -", 10.0),
    # the placeholder is repaired as a tactic step is: each tactic as the
    # whole step, then the goal body `have "d"`, which the cursor then
    # holds, and a failing hammer
    *[("apply", f'have "d" {step}', timeout) for _, step, timeout in TACTICS],
    ("apply", 'have "d"', 10.0), HAMMER,
    # ERP round: the continuation restates `have "d"`, so only `by e2` is
    # sent, into the held body, and refused.  Dropped: ERP's rebuild (close,
    # init, the four prefix steps) and its `have "d" by e2`
    ("apply", "by e2", 10.0),
    # the heuristic does not apply to a placeholder: straight to the
    # backtrack, whose bare placeholder does not reopen the body, so
    # the session is rebuilt here; the hammer discharges the placeholder
    CLOSE, INIT, *PREFIX, ("apply", "proof -", 10.0), *TACTICS, HAMMER,
    # the block closer fails and gets no cascade, and the heuristic does not
    # apply there.  Dropped: `oops` with each tactic, and the hammer's body
    # `oops`.  Then backtrack, seek with a rebuild, close; `show ?thesis by x` keeps its tactic and is refused,
    # so its cascade rewrites it whole, and the hammer proves its body
    ("apply", "oops", 10.0), CLOSE,
    INIT, *PREFIX, *TACTICS, HAMMER, ("apply", "show ?thesis by x", 10.0),
    *[("apply", f"show ?thesis {step}", timeout)
      for _, step, timeout in TACTICS],
    ("apply", "show ?thesis", 10.0), HAMMER, ("apply", "qed", 10.0), CLOSE,
]


def test_golden_request_trace_through_every_repair_stage():
    candidate = ('proof -\n  have "a" by foo\n  have "c"\n  proof -\n'
                 '    have "d" sorry\n    show ?thesis by e1\n  oops\n'
                 '  show ?thesis by x\nqed')
    erp = 'have "d" by e2\nshow ?thesis by e3\noops\nshow ?thesis by e4\nqed'
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "a"': "ok",
        'have "a" by foo': MockOutcome("ok", delay_s=30.0),
        'have "a" by simp': "ok", 'have "c"': "ok", 'have "d"': "ok",
        "show ?thesis": "ok", "qed": "ok", "by (metis h)": "ok",
        'have "d" by (metis h)': "error",
    }, hammer="metis h"))
    model = RecordingModel(
        MockModel({"whole_proof": [[candidate]], "erp": [[erp], [""]]}))
    record = prove(STATEMENT, model, prover, BudgetConfig(sample_budget=1))
    assert [(e["request"]["command"], e["request"]["step"],
             e["request"]["timeout_s"]) for e in prover.trace] == GOLDEN_REQUESTS
    assert [r["purpose"] for r in model.requests] == [
        "whole_proof", "erp", "erp"]
    assert (record.success_stage, record.extra_calls) == ("atp", 42)
    assert record.has_timeout and record.has_sc
    assert record.final_script == ('proof -\n  have "a" by simp\n  have "c"\n'
                                   '  by (metis h)\n'
                                   '  show ?thesis by (metis h)\nqed')


def test_a_kept_finished_answer_is_asked_again_in_the_live_session():
    # The trie knows `qed` finishes the proof, but a recalled answer never
    # reports completion: after a seek back over the finished proof, the
    # re-advanced last step goes to the prover, here after a rebuild.
    prover = RecordingProver(accepting_mock(['proof - have "a" by simp qed']))
    cursor = _cursor(prover)
    steps = ["proof -", 'have "a" by simp', "qed"]
    assert cursor.advance(steps).done
    cursor.seek(steps[:-1])
    before = len(prover.trace)
    run = cursor.advance(["qed"])
    assert run.done and run.count == 1
    assert _steps(prover)[before:][-1:] == ["qed"]
