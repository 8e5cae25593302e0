"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import json
import random
import socket
import time

from proofseek.bench import aggregate, format_hms
from proofseek.cli import main as cli_main
from proofseek.curate import (
    TheoremProofPair,
    filter_self_contained,
    reward_correctness,
    reward_verification,
)
from proofseek.engine import AttemptRecord, BudgetConfig, prove
from proofseek.formalize import compile_policy, render_theory
from proofseek.isar import parse_script, render, token_equivalent
from proofseek.jsonl import read_jsonl, write_jsonl
from proofseek.model import MockModel, RecordingModel, ReplayModel, prompt_digest
from proofseek.policy import AccessRequest, evaluate, parse_policy
from proofseek.prompts import whole_proof_prompt
from proofseek.prover import MockProver, RecordingProver

from fixtures import (
    GOLDEN_FORMAL_STATEMENT,
    GOLDEN_PROOF_BODY,
    GOLDEN_PROOF_WRAPPED,
    GOLDEN_STATE_RECORD,
    PROBLEM_NAME,
    PROOF_LISTINGS,
    accepting_mock,
    gen_policy_dict,
    gen_requests,
    gen_script_text,
    oracle_decision,
)


def _pass(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


# ---------------------------------------------------------------------------

def test_criterion_1_policy_oracle_equivalence():
    rng = random.Random(1001)
    started = time.perf_counter()
    checked = 0
    for _ in range(1000):
        raw = gen_policy_dict(rng)
        doc = parse_policy(json.dumps(raw))
        for action, resource, principal in gen_requests(rng, raw):
            expected = oracle_decision(raw, action, resource, principal)
            got = evaluate(doc, AccessRequest(action, resource,
                                              principal)).allowed
            assert got == expected, (raw, action, resource, principal)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    _pass(1, f"evaluate matched brute force on 1000 policies "
             f"({checked} requests) in {elapsed:.2f}s")


def test_criterion_2_golden_formalization(ec2_policy):
    rendered = render_theory(compile_policy(ec2_policy))
    assert token_equivalent(rendered, GOLDEN_FORMAL_STATEMENT)
    skeleton = compile_policy(ec2_policy)
    resource_datatype = dict(skeleton.datatype_defs)["ec2_resource"]
    assert resource_datatype == ("AllResources", "Images", "Instances",
                                 "Volumes", "NetworkInterfaces", "KeyPairs")
    assert "record policy_entry" in rendered
    assert "fun policy_allows" in rendered
    assert rendered.count("policy_allows ec2_instance_policy") == 6
    assert rendered.rstrip().endswith("oops")
    _pass(2, "compiled EC2 policy reproduces the golden statement "
             "token-equivalently")


def test_criterion_3_parser_round_trip():
    started = time.perf_counter()
    for listing in PROOF_LISTINGS:
        assert token_equivalent(render(parse_script(listing)), listing)
    rng = random.Random(33)
    for _ in range(200):
        text = gen_script_text(rng, max_depth=4)
        assert token_equivalent(render(parse_script(text)), text)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"round-trip sweep took {elapsed:.2f}s"
    _pass(3, f"golden listings plus 200 generated scripts round-tripped "
             f"in {elapsed:.2f}s")


def test_criterion_4_engine_replay_determinism():
    prompt = whole_proof_prompt(GOLDEN_FORMAL_STATEMENT)
    fixtures = {prompt_digest(prompt): [GOLDEN_PROOF_WRAPPED]}

    def run() -> AttemptRecord:
        return prove(GOLDEN_FORMAL_STATEMENT, ReplayModel(fixtures),
                     accepting_mock([GOLDEN_PROOF_BODY]),
                     problem_name=PROBLEM_NAME)

    record = run()
    for key, expected in GOLDEN_STATE_RECORD.items():
        assert getattr(record, key) == expected, key
    first, second = run().to_json(), run().to_json()
    first.pop("wall_time_s"), second.pop("wall_time_s")
    assert first == second
    _pass(4, "replayed golden run matches the reference state record "
             "field-for-field and is deterministic")


# ---------------------------------------------------------------------------
# criterion 5: repair-path coverage

STATEMENT = 'theorem t:\n  shows "P"\n  oops'
ATP_CANDIDATE = 'proof -\n  have "x" by foo\n  show ?thesis by simp\nqed'
HEUR_CANDIDATE = 'proof -\n  have "x" by gross\n  show ?thesis by crude\nqed'
NESTED_CANDIDATE = ('proof -\n  have "a"\n  proof -\n    have "b" by s2\n'
                    '    show "c" by s3\n  qed\n  show ?thesis by s4\nqed')
ERP_COMPLETION = 'have "x" by (meson helper)\nshow ?thesis by simp\nqed'


def _scenarios():
    return {
        "init_proof": (
            MockModel({"whole_proof": [[GOLDEN_PROOF_WRAPPED]]}),
            accepting_mock([GOLDEN_PROOF_BODY]),
            BudgetConfig(),
        ),
        "atp": (
            MockModel({"whole_proof": [[ATP_CANDIDATE]]}),
            MockProver(table={"proof -": "ok", 'have "x"': "ok",
                              'have "x" by simp': "ok", "show ?thesis": "ok",
                              "show ?thesis by simp": "ok", "qed": "ok"}),
            BudgetConfig(),
        ),
        "erp": (
            MockModel({"whole_proof": [[ATP_CANDIDATE]],
                       "erp": [[ERP_COMPLETION]]}),
            MockProver(table={"proof -": "ok", 'have "x"': "ok",
                              'have "x" by (meson helper)': "ok",
                              "show ?thesis": "ok",
                              "show ?thesis by simp": "ok", "qed": "ok"}),
            BudgetConfig(),
        ),
        "heuristic": (
            MockModel({"whole_proof": [[HEUR_CANDIDATE]],
                       "erp": [['have "x" by nope\nqed']]}),
            # auto proves the block's goal but not `have "x"`
            MockProver(table={"proof -": "ok", 'have "x"': "ok",
                              'have "x" by auto': "error",
                              "show ?thesis": "ok", "by auto": "ok",
                              "qed": "ok"}),
            BudgetConfig(),
        ),
    }


def test_criterion_5_repair_path_coverage():
    statements = {"init_proof": GOLDEN_FORMAL_STATEMENT}
    for stage, (model, prover, budget) in _scenarios().items():
        record = prove(statements.get(stage, STATEMENT), model, prover, budget)
        assert record.success, stage
        assert record.success_stage == stage, \
            f"expected {stage}, got {record.success_stage}"

    # fifth scenario: backtracking then failure
    model = MockModel({"whole_proof": [[NESTED_CANDIDATE]]})
    prover = RecordingProver(MockProver(table={
        "proof -": "ok", 'have "a"': "ok", 'have "b"': "ok",
        'have "b" by s2': "ok"}))
    record = prove(STATEMENT, model, prover,
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert not record.success
    assert record.success_stage == "failed"
    assert any(r["step"] == "by auto" for r in prover.requests()), \
        "no cascade attempt on the post-backtrack placeholder"

    # ERP disabled: the erp scenario degrades and no erp prompts are issued
    model, prover, _ = _scenarios()["erp"]
    model = RecordingModel(model)
    record = prove(STATEMENT, model, prover,
                   BudgetConfig(sample_budget=1, erp_enabled=False))
    assert record.success_stage in ("heuristic", "failed")
    assert [r for r in model.requests if r["purpose"] == "erp"] == []
    _pass(5, "scenarios forced init_proof/atp/erp/heuristic stages, "
             "backtracking failure recorded, no-ERP run issued zero "
             "erp prompts")


def test_criterion_6_budget_and_timeout_contracts():
    model, prover, budget = _scenarios()["erp"]
    model, prover = RecordingModel(model), RecordingProver(prover)
    record = prove(STATEMENT, model, prover, budget)
    assert record.success

    whole = [r for r in model.requests if r["purpose"] == "whole_proof"]
    assert sum(r["n"] for r in whole) <= 10, "sample budget exceeded"
    for request in model.requests:
        assert request["temperature"] == 0.6
        assert request["top_p"] == 0.95

    applies = prover.requests()
    hammer = [r for r in applies if r["step"] == "\u27e8hammer\u27e9"]
    plain = [r for r in applies if r["step"] != "\u27e8hammer\u27e9"]
    assert hammer, "hammer was never exercised"
    assert all(r["timeout_s"] == 40.0 for r in hammer)
    assert all(r["timeout_s"] == 10.0 for r in plain)
    _pass(6, f"{sum(r['n'] for r in whole)} whole-proof samples <= 10; "
             f"{len(plain)} step requests at 10s, {len(hammer)} hammer "
             f"requests at 40s; T=0.6/top-p=0.95 on all "
             f"{len(model.requests)} model requests")


def test_criterion_7_metric_arithmetic():
    def record(name, success, i_try=0, wall=0.0):
        return AttemptRecord(name, success, i_try,
                             "init_proof" if success else "failed",
                             False, 0, False, wall,
                             final_script="by simp" if success else None)

    curated = [record(f"p{i}", i < 24, wall=196.01 / 25) for i in range(25)]
    report = aggregate(curated)
    assert report.success_rate == 96.0
    assert report.total_exec_time == "00:03:16"

    generated = [record(f"g{i}", i < 168) for i in range(243)]
    assert aggregate(generated).success_rate == 69.1

    attempts = [record("a", True, 0), record("b", True, 0),
                record("c", True, 1), record("d", True, 3)]
    assert aggregate(attempts).avg_attempts == 1.00
    assert format_hms(196.01) == "00:03:16"
    _pass(7, "24/25 -> 96.0, 196.01s -> 00:03:16, 168/243 -> 69.1, "
             "mean i_try {0,0,1,3} -> 1.00")


def test_criterion_8_curator_partition():
    accepted = ["by simp", "by auto", "by blast"]
    pairs = [TheoremProofPair(f'lemma l{i}: "P{i}"',
                              accepted[i] if i < 3 else f"by (metis m{i})")
             for i in range(10)]

    def fresh_prover():
        return accepting_mock(accepted)

    first = filter_self_contained(pairs, fresh_prover())
    assert (len(first.rl_pool), len(first.sft_pool)) == (3, 7)
    combined = sorted(p.statement for p in (*first.rl_pool, *first.sft_pool))
    assert combined == sorted(p.statement for p in pairs)
    second = filter_self_contained(pairs, fresh_prover())
    assert [p.statement for p in second.rl_pool] == \
        [p.statement for p in first.rl_pool]
    assert [p.statement for p in second.sft_pool] == \
        [p.statement for p in first.sft_pool]

    prover = RecordingProver(fresh_prover())
    assert reward_verification("by simp", 'lemma v: "Q"', prover) == 1
    done_steps = [r for r in prover.requests() if r["step"] == "by simp"]
    assert done_steps, "verification reward without a prover-accepted step"
    assert reward_verification("by nope", 'lemma v: "Q"', fresh_prover()) == 0
    # accepted steps without a terminal accepted state still score 0
    from proofseek.prover import MockOutcome, MockProver
    never_done = MockProver(table={"by simp": MockOutcome("ok", is_done=False)})
    assert reward_verification("by simp", 'lemma v: "Q"', never_done) == 0
    assert reward_correctness(GOLDEN_PROOF_BODY, GOLDEN_PROOF_BODY) == 1.0
    assert reward_correctness("", GOLDEN_PROOF_BODY) == 0.0
    _pass(8, "exact idempotent (3, 7) partition; verification reward tied "
             "to prover acceptance; correctness reward 1.0/0.0 at the poles")


def test_criterion_9_end_to_end_pipeline(tmp_path, monkeypatch, capsys):
    started = time.perf_counter()

    def refuse(*args, **kwargs):
        raise AssertionError("network operation attempted in offline mode")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)

    # five compilable policies in a CSV
    rows = ["problem_name,policy_json"]
    policies = {}
    for i in range(5):
        policy = {"Statement": [{"Effect": "Allow", "Action": f"svc{i}:Run",
                                 "Resource": f"arn:aws:svc{i}:r:acct:*"}]}
        policies[f"pol{i}"] = policy
        rows.append(f'pol{i},"{json.dumps(policy).replace(chr(34), chr(34) * 2)}"')
    csv_path = tmp_path / "policies.csv"
    csv_path.write_text("\n".join(rows), encoding="utf-8")

    # replay fixtures keyed on the compiler's own output for each policy
    fixture_rows = []
    table = {}
    for i, (name, policy) in enumerate(policies.items()):
        statement = render_theory(compile_policy(parse_policy(policy)))
        digest = prompt_digest(whole_proof_prompt(statement))
        fixture_rows.append({"digest": digest,
                             "completions": [f"by (meson grant{i})"]})
        table[f"by (meson grant{i})"] = "ok"
    write_jsonl(tmp_path / "model_replay.jsonl", fixture_rows)
    (tmp_path / "prover_mock.json").write_text(
        json.dumps({"table": table, "default": "error"}), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "mode": "replay",
        "out_dir": str(tmp_path / "out"),
        "fixtures": {"model_replay": "model_replay.jsonl",
                     "prover_mock": "prover_mock.json"},
    }), encoding="utf-8")
    config = str(tmp_path / "config.json")

    assert cli_main(["policy", str(csv_path), "--config", config]) == 0
    theories = sorted((tmp_path / "out" / "theories").glob("*.thy"))
    assert len(theories) == 5

    spec_path = tmp_path / "out" / "formalizations.jsonl"
    assert cli_main(["bench", str(spec_path), "--name", "Compiled",
                     "--no-erp", "--config", config]) == 0
    records = read_jsonl(tmp_path / "out" / "records.jsonl")
    assert len(records) == 5
    assert all(row["success"] for row in records)
    assert (tmp_path / "out" / "report.md").exists()
    assert (tmp_path / "out" / "report.csv").exists()

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"pipeline took {elapsed:.2f}s"
    capsys.readouterr()
    _pass(9, f"5 theories, 5 attempt records, and a report produced fully "
             f"offline in {elapsed:.2f}s")
