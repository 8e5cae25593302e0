import json
import socket
import threading

import pytest

from proofseek.cli import main
from proofseek.isar import token_equivalent
from proofseek.jsonl import append_jsonl, read_jsonl, write_jsonl
from proofseek.model import prompt_digest
from proofseek.prompts import nl_statement_prompt, whole_proof_prompt

from fixtures import ChatServer, EC2_POLICY_JSON, GOLDEN_FORMAL_STATEMENT, LineServer

SIMPLE_STATEMENT = 'theorem t1:\n  shows "P"\n  oops'


def write_config(tmp_path, mode="replay", fixtures=None, budget=None,
                 name="config.json", **extra):
    config = {
        "mode": mode,
        "seed": 0,
        "label": "pipeline",
        "out_dir": str(tmp_path / "out"),
        "fixtures": fixtures or {},
        **extra,
    }
    if budget:
        config["budget"] = budget
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def write_mock_prover(tmp_path, table, default="error", hammer=None,
                      name="prover_mock.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"table": table, "default": default,
                                "hammer": hammer}), encoding="utf-8")
    return name


def write_replay_model(tmp_path, statements_to_proofs,
                       name="model_replay.jsonl"):
    rows = []
    for statement, proofs in statements_to_proofs.items():
        digest = prompt_digest(whole_proof_prompt(statement))
        rows.append({"digest": digest, "completions": proofs})
    write_jsonl(tmp_path / name, rows)
    return name


def _record_from_stdout(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


# ---------------------------------------------------------------------------
# prove

def test_cmd_prove_success_on_golden_sample(tmp_path, capsys):
    from proofseek.isar import parse_script
    from proofseek.prover import normalize_step
    from fixtures import GOLDEN_PROOF_BODY, GOLDEN_PROOF_WRAPPED

    (tmp_path / "stmt.thy").write_text(GOLDEN_FORMAL_STATEMENT,
                                       encoding="utf-8")
    table = {normalize_step(text): "ok"
             for s in parse_script(GOLDEN_PROOF_BODY).steps
             for text in (s.body_text, s.text) if text}
    fixtures = {
        "model_replay": write_replay_model(
            tmp_path, {GOLDEN_FORMAL_STATEMENT: [GOLDEN_PROOF_WRAPPED]}),
        "prover_mock": write_mock_prover(tmp_path, table),
    }
    config = write_config(tmp_path, fixtures=fixtures)
    code = main(["prove", str(tmp_path / "stmt.thy"), "--config", config])
    record = _record_from_stdout(capsys)
    assert code == 0
    assert record["success"] is True
    assert record["success_stage"] == "init_proof"
    assert record["extra_calls"] == 0


def test_cmd_prove_failure_exhausts_budget(tmp_path, capsys):
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    fixtures = {
        "model_replay": write_replay_model(
            tmp_path, {SIMPLE_STATEMENT: ["by nope"] * 3}),
        "prover_mock": write_mock_prover(tmp_path, {}),
    }
    config = write_config(tmp_path, fixtures=fixtures,
                          budget={"sample_budget": 3, "erp_enabled": False})
    code = main(["prove", str(tmp_path / "stmt.thy"), "--config", config])
    record = _record_from_stdout(capsys)
    assert code == 1
    assert record["success"] is False
    assert record["i_try"] == 2


def test_cmd_prove_unreachable_live_backend(tmp_path, monkeypatch, capsys):
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    monkeypatch.setenv("PROOFSEEK_MODEL_URL", "http://127.0.0.1:9/v1")
    monkeypatch.setenv("PROOFSEEK_PROVER_ADDR", "127.0.0.1:1")
    config = write_config(tmp_path, mode="live")
    code = main(["prove", str(tmp_path / "stmt.thy"), "--config", config])
    assert code == 2


def test_cmd_prove_config_error_before_backend_contact(tmp_path):
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    config = write_config(tmp_path, mode="replay", fixtures={})
    assert main(["prove", str(tmp_path / "stmt.thy"), "--config", config]) == 2


def test_cmd_prove_replay_trace_divergence_exits_2(tmp_path, capsys):
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    write_jsonl(tmp_path / "prover_trace.jsonl", [{
        "request": {"command": "apply", "session_id": "s-1",
                    "step": "by simp", "timeout_s": 10.0},
        "response": {"status": "ok", "state_id": "s-1/1", "message": "",
                     "is_done": True}}])
    fixtures = {
        "model_replay": write_replay_model(
            tmp_path, {SIMPLE_STATEMENT: ["by simp"]}),
        "prover_trace": "prover_trace.jsonl",
    }
    config = write_config(tmp_path, fixtures=fixtures,
                          budget={"sample_budget": 1, "erp_enabled": False})
    code = main(["prove", str(tmp_path / "stmt.thy"), "--config", config])
    assert code == 2
    assert "no recorded reply left to init in theory 'theory Scratch'" in \
        capsys.readouterr().err


def _live_model(monkeypatch, answer):
    """A chat server on localhost, reachable through PROOFSEEK_MODEL_URL;
    the prover address points at a port nothing listens on."""
    server = ChatServer(answer)
    monkeypatch.setenv("PROOFSEEK_MODEL_URL", server.url)
    monkeypatch.setenv("PROOFSEEK_PROVER_ADDR", "127.0.0.1:1")
    return server


def test_cmd_prove_over_budget_config_exits_2_before_any_request(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    bodies = []

    def answer(body):
        bodies.append(body)
        return ["by simp"]

    server = _live_model(monkeypatch, answer)
    try:
        config = write_config(tmp_path, mode="live",
                              budget={"sample_budget": 11})
        code = main(["prove", str(tmp_path / "stmt.thy"),
                     "--config", config])
    finally:
        server.stop()
    assert code == 2
    assert bodies == []
    assert "sample_budget" in capsys.readouterr().err


def test_cmd_prove_live_without_a_prover_address_exits_2_before_any_request(
        tmp_path, monkeypatch, capsys):
    # Neither PROOFSEEK_PROVER_ADDR nor prover.endpoint names a prover: the
    # wire client refuses to start, and no model request is made.
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    bodies = []

    def answer(body):
        bodies.append(body)
        return ["by simp"]

    server = _live_model(monkeypatch, answer)
    monkeypatch.delenv("PROOFSEEK_PROVER_ADDR")
    try:
        config = write_config(tmp_path, mode="live")
        code = main(["prove", str(tmp_path / "stmt.thy"),
                     "--config", config])
    finally:
        server.stop()
    assert code == 2
    assert bodies == []
    assert "PROOFSEEK_PROVER_ADDR" in capsys.readouterr().err


def test_cmd_prove_live_prover_reply_nested_too_deeply_exits_2(
        tmp_path, monkeypatch, capsys):
    # The decoder's RecursionError made this a failed proof (exit 1) with a
    # traceback; a line that is not JSON is a transport fault.
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    prover = LineServer(lambda _index, _line: b"[" * 100_000 + b"\n")
    server = _live_model(monkeypatch, lambda _body: ["by simp"])
    monkeypatch.setenv("PROOFSEEK_PROVER_ADDR", prover.address)
    try:
        config = write_config(tmp_path, mode="live",
                              budget={"sample_budget": 1})
        code = main(["prove", str(tmp_path / "stmt.thy"), "--config", config])
    finally:
        server.stop()
        prover.stop()
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("texts", [[None], [3], [["by simp"]], [],
                                   ["by simp", "by simp"]],
                         ids=["null", "number", "list", "no-choices",
                              "n-plus-one"])
def test_cmd_prove_live_malformed_completion_exits_2(tmp_path, monkeypatch,
                                                     capsys, texts):
    # A completion that is not a string crashed with a traceback; no
    # choices, or more than asked for, read as candidates that fail (exit 1).
    from proofseek.prover import MockProver, ProverServer

    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    prover = ProverServer(MockProver()).start()
    server = _live_model(monkeypatch, lambda _body: texts)
    monkeypatch.setenv("PROOFSEEK_PROVER_ADDR", prover.address)
    try:
        config = write_config(tmp_path, mode="live",
                              budget={"sample_budget": 1})
        code = main(["prove", str(tmp_path / "stmt.thy"), "--config", config])
    finally:
        server.stop()
        prover.stop()
    assert code == 2
    assert "malformed completion" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", [
    ("model_mock", {"whole_proof": [[None]]}),
    ("model_mock", [[["by simp"]]]),
    ("model_mock", {"whole_proof": "by simp"}),
    ("model_replay", "by simp"),
    ("model_replay", [None]),
], ids=["mock-null", "mock-list", "mock-string", "replay-string",
        "replay-null"])
def test_cmd_prove_model_fixture_of_the_wrong_shape_exits_2(tmp_path, capsys,
                                                            fixture):
    # Each crashed with a traceback, or was read one batch per character
    # and reported as a proof failure.
    from proofseek.prompts import whole_proof_prompt

    key, value = fixture
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    if key == "model_mock":
        (tmp_path / "model.json").write_text(json.dumps(value),
                                             encoding="utf-8")
    else:
        digest = prompt_digest(whole_proof_prompt(SIMPLE_STATEMENT))
        write_jsonl(tmp_path / "model.json",
                    [{"digest": digest, "completions": value}])
    config = write_config(
        tmp_path, mode="mock" if key == "model_mock" else "replay",
        fixtures={key: "model.json",
                  "prover_mock": write_mock_prover(tmp_path,
                                                   {"by simp": "ok"})},
        budget={"sample_budget": 1})
    code = main(["prove", str(tmp_path / "stmt.thy"), "--config", config])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# policy

def test_cmd_policy_golden_theory(tmp_path, capsys):
    (tmp_path / "policy.json").write_text(EC2_POLICY_JSON, encoding="utf-8")
    config = write_config(tmp_path, mode="mock", fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {}),
    })
    (tmp_path / "model_mock.json").write_text("{}", encoding="utf-8")
    code = main(["policy", str(tmp_path / "policy.json"), "--config", config])
    summary = _record_from_stdout(capsys)
    assert code == 0
    assert summary["n_theories"] == 1
    thy = (tmp_path / "out" / "theories" / "policy.thy").read_text("utf-8")
    assert thy.startswith("theory policy")
    records = read_jsonl(tmp_path / "out" / "formalizations.jsonl")
    assert token_equivalent(records[0]["formal_statement"],
                            GOLDEN_FORMAL_STATEMENT)
    assert records[0]["provenance"] == "compiled"


def test_cmd_policy_wrapper_around_a_list_exits_2(tmp_path, capsys):
    (tmp_path / "policy.json").write_text('{"policy_json": "[1]"}',
                                          encoding="utf-8")
    config = write_config(tmp_path, mode="mock")
    assert main(["policy", str(tmp_path / "policy.json"),
                 "--config", config]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


def _policy_csv(tmp_path, name="policies.csv"):
    allow = json.dumps({"Statement": [{"Effect": "Allow", "Action": "a:Run",
                                       "Resource": "arn:aws:a:r:acct:*"}]})
    deny = json.dumps({"Statement": [{"Effect": "Deny", "Action": "a:Run",
                                      "Resource": "*"}]})
    lines = ["problem_name,policy_json"]
    lines.append('ok_one,"{}"'.format(allow.replace('"', '""')))
    lines.append('ok_two,"{}"'.format(allow.replace('"', '""')))
    lines.append('bad_deny,"{}"'.format(deny.replace('"', '""')))
    (tmp_path / name).write_text("\n".join(lines), encoding="utf-8")
    return str(tmp_path / name)


def test_cmd_policy_csv_collects_row_errors(tmp_path, capsys):
    csv_path = _policy_csv(tmp_path)
    config = write_config(tmp_path, mode="mock", fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {}),
    })
    (tmp_path / "model_mock.json").write_text("{}", encoding="utf-8")
    code = main(["policy", csv_path, "--config", config])
    summary = _record_from_stdout(capsys)
    assert code == 0
    assert summary["n_policies"] == 3
    assert summary["n_theories"] == 2
    assert summary["n_errors"] == 1
    assert summary["errors"][0]["problem_name"] == "bad_deny"


def test_cmd_policy_keeps_both_rows_whose_names_sanitize_alike(tmp_path,
                                                               capsys):
    # `a-b` and `a_b` both sanitize to `a_b`: each row still gets its own
    # theory file and a record name of its own.
    allow = json.dumps({"Statement": [{"Effect": "Allow", "Action": "a:Run",
                                       "Resource": "arn:aws:a:r:acct:*"}]})
    cell = '"{}"'.format(allow.replace('"', '""'))
    csv_path = tmp_path / "policies.csv"
    csv_path.write_text(f"problem_name,policy_json\na-b,{cell}\na_b,{cell}",
                        encoding="utf-8")
    config = write_config(tmp_path, mode="mock")
    assert main(["policy", str(csv_path), "--config", config]) == 0
    assert _record_from_stdout(capsys)["n_theories"] == 2
    out = tmp_path / "out"
    theories = sorted(p.stem for p in (out / "theories").iterdir())
    names = [r["problem_name"]
             for r in read_jsonl(out / "formalizations.jsonl")]
    assert theories == sorted(names) == ["a_b", "a_b2"]


def test_cmd_policy_llm_path_provenance(tmp_path, capsys):
    csv_path = _policy_csv(tmp_path)
    model_mock = {
        "stage_description": [["described"]],
        "stage_informal_proof": [["argued"]],
        "stage_formal_statement": [[GOLDEN_FORMAL_STATEMENT]],
    }
    (tmp_path / "model_mock.json").write_text(json.dumps(model_mock),
                                              encoding="utf-8")
    config = write_config(tmp_path, mode="mock", fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {}),
    })
    code = main(["policy", csv_path, "--llm", "--config", config])
    assert code == 0
    records = read_jsonl(tmp_path / "out" / "formalizations.jsonl")
    assert records and all(r["provenance"] == "llm" for r in records)


def _malformed_rows_csv(tmp_path):
    """``_policy_csv``'s rows, then a row whose Statement is no object and a
    NotAction row: both fail to parse."""
    csv_path = _policy_csv(tmp_path)
    rows = [("bad_statement", {"Statement": 5}),
            ("negated", {"Statement": [{"Effect": "Allow", "NotAction": "a:B",
                                        "Resource": "*"}]})]
    with open(csv_path, "a", encoding="utf-8") as out:
        for name, doc in rows:
            out.write('\n{},"{}"'.format(name, json.dumps(doc).replace('"', '""')))
    return csv_path


@pytest.mark.parametrize("llm", [False, True])
def test_cmd_policy_lists_a_row_that_does_not_parse_and_goes_on(
        tmp_path, capsys, llm):
    # A row that is no policy is that row's error, named by its
    # problem_name; the other rows still get their theories.
    csv_path = _malformed_rows_csv(tmp_path)
    model_mock = {
        "stage_description": [["described"]] * 3,
        "stage_informal_proof": [["argued"]] * 3,
        "stage_formal_statement": [[GOLDEN_FORMAL_STATEMENT]] * 3,
    }
    (tmp_path / "model_mock.json").write_text(json.dumps(model_mock),
                                              encoding="utf-8")
    config = write_config(tmp_path, mode="mock", fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {}),
    })
    code = main(["policy", csv_path, *(["--llm"] if llm else []),
                 "--config", config])
    summary = _record_from_stdout(capsys)
    assert code == 0
    assert summary["n_policies"] == 5
    errors = {e["problem_name"]: e["error"] for e in summary["errors"]}
    assert errors["bad_statement"] == "Statement: statement 0 is not an object"
    assert errors["negated"] == "NotAction: negated statements are unsupported"
    theories = sorted(p.stem for p in (tmp_path / "out" / "theories").iterdir())
    assert theories == (["bad_deny", "ok_one", "ok_two"] if llm
                        else ["ok_one", "ok_two"])


def test_cmd_policy_lists_a_row_with_no_statements_and_goes_on(tmp_path,
                                                               capsys):
    csv_path = _policy_csv(tmp_path)
    with open(csv_path, "a", encoding="utf-8") as out:
        out.write('\nempty,"{""Statement"": []}"')
    config = write_config(tmp_path, mode="mock", fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {}),
    })
    (tmp_path / "model_mock.json").write_text("{}", encoding="utf-8")
    code = main(["policy", csv_path, "--config", config])
    summary = _record_from_stdout(capsys)
    assert code == 0
    assert summary["n_policies"] == 4
    errors = {e["problem_name"]: e["error"] for e in summary["errors"]}
    assert errors["empty"] == "Statement: policy has no statements"
    theories = sorted(p.stem for p in (tmp_path / "out" / "theories").iterdir())
    assert theories == ["ok_one", "ok_two"]


def test_cmd_policy_csv_without_its_columns_exits_2(tmp_path, capsys):
    (tmp_path / "policies.csv").write_text("name,json\np1,{}\n",
                                           encoding="utf-8")
    config = write_config(tmp_path, mode="mock")
    assert main(["policy", str(tmp_path / "policies.csv"),
                 "--config", config]) == 2
    assert "expected columns problem_name, policy_json" in capsys.readouterr().err


POLICY_WITH_METADATA = """{
  "Version": "2012-10-17",
  "Statement": [
    {"Sid": "RunAnywhere", "Effect": "Allow", "Principal": {"AWS": "*"},
     "Action": "ec2:RunInstances", "Resource": "arn:aws:ec2:us-east-1:1234:*"}
  ]
}"""


def test_cmd_policy_keeps_the_source_policy_text_verbatim(tmp_path, capsys):
    (tmp_path / "policy.json").write_text(POLICY_WITH_METADATA,
                                          encoding="utf-8")
    model_mock = {
        "stage_description": [["described"]],
        "stage_informal_proof": [["argued"]],
        "stage_formal_statement": [[GOLDEN_FORMAL_STATEMENT]],
    }
    (tmp_path / "model_mock.json").write_text(json.dumps(model_mock),
                                              encoding="utf-8")
    config = write_config(tmp_path, mode="mock", fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {}),
    })
    for extra in ([], ["--llm"]):
        assert main(["policy", str(tmp_path / "policy.json"), *extra,
                     "--config", config]) == 0
        [record] = read_jsonl(tmp_path / "out" / "formalizations.jsonl")
        assert record["natural_statement"] == POLICY_WITH_METADATA
    capsys.readouterr()


def test_cmd_policy_llm_mock_needs_only_model_mock(tmp_path, capsys):
    (tmp_path / "policy.json").write_text(EC2_POLICY_JSON, encoding="utf-8")
    model_mock = {
        "stage_description": [["described"]],
        "stage_informal_proof": [["argued"]],
        "stage_formal_statement": [[GOLDEN_FORMAL_STATEMENT]],
    }
    (tmp_path / "model_mock.json").write_text(json.dumps(model_mock),
                                              encoding="utf-8")
    config = write_config(tmp_path, mode="mock",
                          fixtures={"model_mock": "model_mock.json"})
    code = main(["policy", str(tmp_path / "policy.json"), "--llm",
                 "--config", config])
    assert code == 0
    assert _record_from_stdout(capsys)["n_theories"] == 1


# ---------------------------------------------------------------------------
# formalize

def test_cmd_formalize_staged_records(tmp_path, capsys):
    write_jsonl(tmp_path / "inputs.jsonl", [
        {"problem_name": "n1", "natural_statement": "allow running"},
        {"problem_name": "n2", "natural_statement": "allow stopping"},
    ])
    model_mock = {
        "stage_description": [["described"]],
        "stage_informal_proof": [["argued"]],
        "stage_formal_statement": [[GOLDEN_FORMAL_STATEMENT]],
    }
    (tmp_path / "model_mock.json").write_text(json.dumps(model_mock),
                                              encoding="utf-8")
    config = write_config(tmp_path, mode="mock", fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {}),
    })
    code = main(["formalize", str(tmp_path / "inputs.jsonl"),
                 "--config", config])
    summary = _record_from_stdout(capsys)
    assert code == 0
    assert summary["n_records"] == 2
    records = read_jsonl(tmp_path / "out" / "formalizations.jsonl")
    assert [r["problem_name"] for r in records] == ["n1", "n2"]
    assert records[0]["informal_description"] == "described"


def test_cmd_formalize_mock_needs_only_model_mock(tmp_path, capsys):
    write_jsonl(tmp_path / "inputs.jsonl",
                [{"problem_name": "n1", "natural_statement": "allow running"}])
    model_mock = {
        "stage_description": [["described"]],
        "stage_informal_proof": [["argued"]],
        "stage_formal_statement": [[GOLDEN_FORMAL_STATEMENT]],
    }
    (tmp_path / "model_mock.json").write_text(json.dumps(model_mock),
                                              encoding="utf-8")
    config = write_config(tmp_path, mode="mock",
                          fixtures={"model_mock": "model_mock.json"})
    code = main(["formalize", str(tmp_path / "inputs.jsonl"),
                 "--config", config])
    assert code == 0
    assert _record_from_stdout(capsys)["n_records"] == 1


def test_cmd_formalize_live_model_fault_exits_2(tmp_path, monkeypatch,
                                                capsys):
    write_jsonl(tmp_path / "inputs.jsonl",
                [{"problem_name": "n1", "natural_statement": "allow running"}])
    bodies = []

    def answer(body):
        bodies.append(body)
        raise RuntimeError("model is down")

    server = _live_model(monkeypatch, answer)
    try:
        config = write_config(tmp_path, mode="live")
        code = main(["formalize", str(tmp_path / "inputs.jsonl"),
                     "--config", config])
    finally:
        server.stop()
    assert code == 2
    assert len(bodies) == 1
    assert "model endpoint failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench

def _bench_fixture(tmp_path, n_problems=25, n_fail=1):
    problems = []
    statements = {}
    table = {}
    for i in range(n_problems):
        statement = f'theorem p{i}:\n  shows "P{i}"\n  oops'
        problems.append({"problem_name": f"p{i}",
                         "formal_statement": statement})
        # accepted justifications sit outside the repair cascade so failing
        # candidates stay failed
        if i < n_fail:
            statements[statement] = ["by nope"]
        else:
            statements[statement] = [f"by (meson h{i})"]
            table[f"by (meson h{i})"] = "ok"
    write_jsonl(tmp_path / "spec.jsonl", problems)
    fixtures = {
        "model_replay": write_replay_model(tmp_path, statements),
        "prover_mock": write_mock_prover(tmp_path, table),
    }
    return str(tmp_path / "spec.jsonl"), fixtures


def test_cmd_bench_curated_fixture_success_rate(tmp_path, capsys):
    spec_path, fixtures = _bench_fixture(tmp_path)
    config = write_config(tmp_path, fixtures=fixtures)
    code = main(["bench", spec_path, "--name", "Curated", "--no-erp",
                 "--config", config])
    summary = _record_from_stdout(capsys)
    assert code == 0
    assert summary["success_rate"] == 96.0
    assert summary["n_problems"] == 25
    report_md = (tmp_path / "out" / "report.md").read_text("utf-8")
    assert "96.0" in report_md
    assert "(No ERP)" in report_md
    assert (tmp_path / "out" / "report.csv").exists()
    assert len(read_jsonl(tmp_path / "out" / "records.jsonl")) == 25


def test_cmd_bench_no_erp_issues_zero_erp_prompts(tmp_path, capsys):
    # The replay model has no erp fixtures, so any erp prompt would fail
    # loudly (exit 2). The failing problem repairs would reach ERP when
    # enabled; with --no-erp the run completes.
    spec_path, fixtures = _bench_fixture(tmp_path, n_problems=3, n_fail=1)
    config = write_config(tmp_path, fixtures=fixtures)
    assert main(["bench", spec_path, "--config", config]) == 2
    capsys.readouterr()
    (tmp_path / "out" / "records.jsonl").unlink(missing_ok=True)
    assert main(["bench", spec_path, "--no-erp", "--config", config]) == 0
    capsys.readouterr()


def test_cmd_bench_rerun_is_noop(tmp_path, capsys):
    spec_path, fixtures = _bench_fixture(tmp_path, n_problems=3, n_fail=0)
    config = write_config(tmp_path, fixtures=fixtures)
    assert main(["bench", spec_path, "--no-erp", "--config", config]) == 0
    records_path = tmp_path / "out" / "records.jsonl"
    before = records_path.read_text("utf-8")
    assert main(["bench", spec_path, "--no-erp", "--config", config]) == 0
    assert records_path.read_text("utf-8") == before


def test_cmd_bench_spec_row_without_formal_statement_exits_2(tmp_path,
                                                              capsys):
    spec_path, fixtures = _bench_fixture(tmp_path, n_problems=2, n_fail=0)
    rows = read_jsonl(spec_path)
    del rows[1]["formal_statement"]
    write_jsonl(spec_path, rows)
    config = write_config(tmp_path, fixtures=fixtures)
    assert main(["bench", spec_path, "--no-erp", "--config", config]) == 2
    assert "formal_statement" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.jsonl").exists()


def test_cmd_bench_blank_formal_statement_exits_2_before_any_request(
        tmp_path, monkeypatch, capsys):
    # A blank statement loaded; at pool 2 every whole-proof request went out
    # and the other problems were proved before the run raised a ValueError
    # that named neither the file nor the line.
    bodies = []

    def answer(body):
        bodies.append(body)
        return ["by simp"]

    server = _live_model(monkeypatch, answer)
    spec_path, _ = _bench_fixture(tmp_path, n_problems=3, n_fail=0)
    rows = read_jsonl(spec_path)
    rows[1]["formal_statement"] = "   "
    write_jsonl(spec_path, rows)
    try:
        config = write_config(tmp_path, mode="live",
                              budget={"sample_budget": 1},
                              prover={"pool_size": 2})
        code = main(["bench", spec_path, "--no-erp", "--config", config])
    finally:
        server.stop()
    assert code == 2
    assert f"{spec_path}:2: formal_statement" in capsys.readouterr().err
    assert bodies == []
    assert not (tmp_path / "out").exists()


def test_cmd_bench_exits_2_when_records_stay_undetermined(
        tmp_path, monkeypatch, capsys):
    # The prover faults on loading p1's theory, so p1 is undetermined: the
    # summary is still printed, and the exit code says the run is not whole.
    def respond(_index, raw):
        request = json.loads(raw)
        if request["command"] == "init" and '"P1"' in request["step"]:
            reply = {"status": "error", "state_id": None,
                     "message": "prover crashed", "error_kind": "internal"}
        elif request["command"] == "init":
            reply = {"status": "ok", "state_id": "s-1/0", "message": ""}
        else:
            reply = {"status": "ok", "state_id": "s-1/1", "message": "",
                     "is_done": True}
            if request["command"] == "apply_steps":
                reply = {"status": "ok", "results": [reply]}
        return (json.dumps(reply) + "\n").encode("utf-8")

    prover = LineServer(respond)
    server = _live_model(monkeypatch, lambda _body: ["by simp"])
    monkeypatch.setenv("PROOFSEEK_PROVER_ADDR", prover.address)
    spec_path, _ = _bench_fixture(tmp_path, n_problems=3, n_fail=0)
    try:
        config = write_config(tmp_path, mode="live",
                              budget={"sample_budget": 1})
        code = main(["bench", spec_path, "--no-erp", "--config", config])
    finally:
        server.stop()
        prover.stop()
    summary = _record_from_stdout(capsys)
    assert (summary["n_success"], summary["n_undetermined"]) == (2, 1)
    assert code == 2


def test_cmd_bench_closes_its_prover_connections(tmp_path, monkeypatch,
                                                 capsys):
    # The command returned with the wire client's idle connections open, so
    # collecting the client warned of unclosed sockets.
    import gc
    import warnings

    def respond(_index, raw):
        command = json.loads(raw)["command"]
        reply = {"status": "ok", "state_id": "s-1/1", "message": ""}
        if command in ("apply", "apply_steps"):
            reply["is_done"] = True
        if command == "apply_steps":
            reply = {"status": "ok", "results": [reply]}
        return (json.dumps(reply) + "\n").encode("utf-8")

    prover = LineServer(respond)
    server = _live_model(monkeypatch, lambda _body: ["by simp"])
    monkeypatch.setenv("PROOFSEEK_PROVER_ADDR", prover.address)
    spec_path, _ = _bench_fixture(tmp_path, n_problems=3, n_fail=0)
    try:
        config = write_config(tmp_path, mode="live",
                              budget={"sample_budget": 1})
        gc.collect()  # what earlier tests left is not this command's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(["bench", spec_path, "--no-erp", "--config", config])
            gc.collect()
    finally:
        server.stop()
        prover.stop()
    assert code == 0
    assert _record_from_stdout(capsys)["n_success"] == 3
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []


def test_cmd_bench_a_lost_session_leaves_its_problem_undetermined(
        tmp_path, monkeypatch, capsys):
    # The prover loses p1's session: a session fault escaped the run, which
    # wrote no record for p1 and printed no summary.
    import re

    from proofseek.prover import ProverServer

    from fixtures import SessionLosingProver

    table = {f"by (meson h{i})": "ok" for i in range(3)}
    prover = ProverServer(SessionLosingProver('"P1"', table=table)).start()
    server = _live_model(monkeypatch, lambda body: [
        "by (meson h{})".format(re.search(
            r'"P(\d)"', body["messages"][-1]["content"]).group(1))])
    monkeypatch.setenv("PROOFSEEK_PROVER_ADDR", prover.address)
    spec_path, _ = _bench_fixture(tmp_path, n_problems=3, n_fail=0)
    try:
        config = write_config(tmp_path, mode="live",
                              budget={"sample_budget": 1})
        code = main(["bench", spec_path, "--no-erp", "--config", config])
    finally:
        server.stop()
        prover.stop()
    summary = _record_from_stdout(capsys)
    assert (summary["n_success"], summary["n_undetermined"]) == (2, 1)
    assert code == 2
    records = {row["problem_name"]: row
               for row in read_jsonl(tmp_path / "out" / "records.jsonl")}
    assert records["p1"]["undetermined"] is True
    assert records["p0"]["success"] and records["p2"]["success"]
    assert "undetermined" not in records["p0"]


def test_cmd_report_on_bench_records_writes_what_bench_wrote(tmp_path,
                                                              capsys):
    # report labelled the dataset by its determined records and printed
    # three of bench's nine summary keys.  The run resumes p1, left
    # undetermined by an earlier one, so the file holds two records of p1:
    # the last is p1's record, for report as for bench.
    (tmp_path / "out").mkdir()
    write_jsonl(tmp_path / "out" / "records.jsonl", [{
        "problem_name": "p1", "success": False, "i_try": 0,
        "success_stage": "failed", "has_timeout": False, "extra_calls": 0,
        "has_sc": False, "undetermined": True}])
    write_jsonl(tmp_path / "spec.jsonl", [
        {"problem_name": f"p{i}",
         "formal_statement": f'theorem p{i}:\n  shows "P{i}"\n  oops'}
        for i in range(4)])
    (tmp_path / "model_mock.json").write_text(json.dumps({"whole_proof": [
        ["by nope"], ["by (meson h)"], ["by (meson h)"], ["by nope"]]}),
        encoding="utf-8")
    fixtures = {"model_mock": "model_mock.json",
                "prover_mock": write_mock_prover(
                    tmp_path, {"by (meson h)": "ok"})}
    config = write_config(tmp_path, mode="mock", fixtures=fixtures,
                          prover={"pool_size": 1})
    assert main(["bench", str(tmp_path / "spec.jsonl"), "--name", "Curated",
                 "--no-erp", "--config", config]) == 0
    summary = _record_from_stdout(capsys)
    assert (summary["dataset"], summary["success_rate"],
            summary["n_undetermined"]) == ("Curated (4 Problems)", 50.0, 0)
    assert len(read_jsonl(summary["records"])) == 5
    assert main(["report", summary["records"], "--name", "Curated",
                 "--no-erp", "--config", config,
                 "--out", str(tmp_path / "report")]) == 0
    assert _record_from_stdout(capsys) == summary
    for name in ("report.md", "report.csv"):
        assert ((tmp_path / "report" / name).read_bytes()
                == (tmp_path / "out" / name).read_bytes())


def test_cmd_report_labels_the_dataset_with_every_record(tmp_path, capsys):
    # report labelled the dataset "(3 Problems)", counting only the
    # determined records, and printed no n_undetermined.
    def record(name, **fields):
        return {"problem_name": name, "success": False, "i_try": 1,
                "success_stage": "failed", "has_timeout": False,
                "extra_calls": 0, "has_sc": False, **fields}

    records_path = tmp_path / "records.jsonl"
    write_jsonl(records_path, [
        record("p0", success=True, success_stage="init_proof",
               final_script="by simp"),
        record("p1"),
        record("p2", success=True, success_stage="atp",
               final_script="by auto"),
        record("p3", i_try=0, undetermined=True)])
    config = write_config(tmp_path)
    assert main(["report", str(records_path), "--name", "Curated",
                 "--config", config]) == 0
    summary = _record_from_stdout(capsys)
    assert summary["dataset"] == "Curated (4 Problems)"
    assert (summary["n_problems"], summary["n_success"],
            summary["n_undetermined"]) == (3, 2, 1)
    report_md = (tmp_path / "out" / "report.md").read_text("utf-8")
    assert report_md.startswith("**Curated (4 Problems)**\n")
    assert "_1 undetermined record(s) excluded" in report_md


# ---------------------------------------------------------------------------
# curate

def _curate_fixture(tmp_path):
    pairs = []
    for i in range(10):
        proof = ["by simp", "by auto", "by blast"][i] if i < 3 \
            else f"by (metis m{i})"
        pairs.append({"statement": f'lemma l{i}: "P{i}"', "proof": proof,
                      "source_theory": "T"})
    write_jsonl(tmp_path / "corpus.jsonl", pairs)
    model_mock = {"nl_statement": [["plain text"]]}
    (tmp_path / "model_mock.json").write_text(json.dumps(model_mock),
                                              encoding="utf-8")
    fixtures = {
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(
            tmp_path, {"by simp": "ok", "by auto": "ok", "by blast": "ok"}),
    }
    return str(tmp_path / "corpus.jsonl"), fixtures


def _replay_nl_statements(tmp_path, corpus):
    """Model replay fixtures answering each pair's NL-statement prompt."""
    rows = [{"digest": prompt_digest(nl_statement_prompt(row["statement"],
                                                         row["proof"])),
             "completions": [f"statement {i} in plain words"]}
            for i, row in enumerate(read_jsonl(corpus))]
    write_jsonl(tmp_path / "model_replay.jsonl", rows)
    return "model_replay.jsonl"


def test_cmd_curate_pools_and_manifest(tmp_path, capsys):
    corpus, fixtures = _curate_fixture(tmp_path)
    config = write_config(tmp_path, mode="mock", fixtures=fixtures)
    code = main(["curate", corpus, "--config", config, "--seed", "0",
                 "--sample-count", "7"])
    manifest = _record_from_stdout(capsys)
    assert code == 0
    assert manifest["n_rl_pool"] == 3
    assert manifest["n_sft_pool"] == 7
    assert manifest["seed"] == 0
    assert len(read_jsonl(tmp_path / "out" / "sft.jsonl")) == 7
    assert len(read_jsonl(tmp_path / "out" / "rl.jsonl")) == 3


def test_cmd_curate_rejects_a_negative_sample_count_before_proving(
        tmp_path, monkeypatch, capsys):
    from proofseek import cli

    built = []
    build = cli.build_prover
    monkeypatch.setattr(cli, "build_prover", lambda config: built.append(
        config) or build(config))
    corpus, fixtures = _curate_fixture(tmp_path)
    config = write_config(tmp_path, mode="mock", fixtures=fixtures)
    with pytest.raises(SystemExit) as exit_:
        main(["curate", corpus, "--config", config, "--sample-count", "-1"])
    assert exit_.value.code == 2
    assert "--sample-count" in capsys.readouterr().err
    assert not built


def test_cmd_curate_rejects_a_sample_count_that_is_no_integer(tmp_path, capsys):
    corpus, fixtures = _curate_fixture(tmp_path)
    config = write_config(tmp_path, mode="mock", fixtures=fixtures)
    with pytest.raises(SystemExit) as exit_:
        main(["curate", corpus, "--config", config, "--sample-count", "abc"])
    assert exit_.value.code == 2
    assert "--sample-count" in capsys.readouterr().err


def test_cmd_curate_rerun_byte_identical(tmp_path):
    corpus, fixtures = _curate_fixture(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config = write_config(tmp_path, mode="mock", fixtures=fixtures)
    assert main(["curate", corpus, "--config", config, "--seed", "7",
                 "--out", str(out_a)]) == 0
    assert main(["curate", corpus, "--config", config, "--seed", "7",
                 "--out", str(out_b)]) == 0
    for name in ("sft.jsonl", "rl.jsonl", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cmd_curate_replay_on_a_pool_reruns_byte_identical(tmp_path):
    # Each pair has its own replayed statement; the pairs are checked on a
    # pool of 4 and their statements asked for up to 10 at a time (the
    # model's max_samples): both runs write the same bytes, in pair order.
    corpus, fixtures = _curate_fixture(tmp_path)
    fixtures["model_replay"] = _replay_nl_statements(tmp_path, corpus)
    config = write_config(tmp_path, mode="replay", fixtures=fixtures,
                          prover={"pool_size": 4})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["curate", corpus, "--config", config, "--seed", "7",
                     "--out", str(out)]) == 0
    for name in ("sft.jsonl", "rl.jsonl", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    for name, pairs in (("rl.jsonl", range(3)), ("sft.jsonl", range(3, 10))):
        assert [r["natural_language_statement"]
                for r in read_jsonl(outs[0] / name)] == \
            [f"statement {i} in plain words" for i in pairs]


@pytest.mark.parametrize("command", ["bench", "curate"])
def test_replay_with_a_prover_trace_runs_on_the_configured_pool(
        tmp_path, monkeypatch, capsys, command):
    # A trace answers each request by its question, not by its place: one
    # recorded from one worker replays on the prover's pool of 4, with
    # sessions opened on more than one worker thread, and writes what the
    # recorded run wrote.
    from proofseek import cli
    from proofseek.prover import RecordingProver, ReplayProver

    if command == "bench":
        source, fixtures = _bench_fixture(tmp_path, n_problems=6, n_fail=1)
        args = ["bench", source, "--no-erp"]
    else:
        source, fixtures = _curate_fixture(tmp_path)
        fixtures = {"model_replay": _replay_nl_statements(tmp_path, source),
                    "prover_mock": fixtures["prover_mock"]}
        args = ["curate", source]
    recorders = []
    build = cli.build_prover
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_prover", lambda config: recorders.append(
            RecordingProver(build(config))) or recorders[-1])
        config = write_config(tmp_path, fixtures=fixtures,
                              prover={"pool_size": 1}, name="record.json")
        assert main([*args, "--config", config,
                     "--out", str(tmp_path / "recorded")]) == 0
    recorders[0].dump(tmp_path / "prover_trace.jsonl")

    threads, second = set(), threading.Event()
    init_session = ReplayProver.init_session

    def traced(self, theory_text):
        # the first session waits for a second worker's, so a run that
        # opened every session on one thread would show it
        with self._lock:
            threads.add(threading.current_thread())
        if len(threads) > 1:
            second.set()
        second.wait(5.0)
        return init_session(self, theory_text)

    monkeypatch.setattr(ReplayProver, "init_session", traced)
    fixtures = {"model_replay": fixtures["model_replay"],
                "prover_trace": "prover_trace.jsonl"}
    config = write_config(tmp_path, fixtures=fixtures,
                          prover={"pool_size": 4}, name="replay.json")
    assert main([*args, "--config", config,
                 "--out", str(tmp_path / "replayed")]) == 0
    capsys.readouterr()
    assert len(threads) > 1
    if command == "bench":  # records are appended as problems finish
        assert _timeless_records(tmp_path / "replayed") == \
            _timeless_records(tmp_path / "recorded")
    else:
        for name in ("sft.jsonl", "rl.jsonl", "manifest.json"):
            assert (tmp_path / "replayed" / name).read_bytes() == \
                (tmp_path / "recorded" / name).read_bytes()


def _timeless_records(out):
    """The benchmark records in ``out``, by problem, without wall time."""
    return sorted(({k: v for k, v in row.items() if k != "wall_time_s"}
                   for row in read_jsonl(out / "records.jsonl")),
                  key=lambda row: row["problem_name"])


def test_cmd_curate_exits_2_on_a_model_fault(tmp_path, monkeypatch, capsys):
    # One pair's NL-statement request gets an HTTP 500: the run stops with
    # a transport fault and writes no dataset.
    from proofseek.prover import MockProver, ProverServer

    def answer(body):
        if '"P4"' in body["messages"][-1]["content"]:
            raise RuntimeError("model crashed")
        return ["plain text"]

    corpus, _ = _curate_fixture(tmp_path)
    model = _live_model(monkeypatch, answer)
    prover = ProverServer(MockProver(
        table={"by simp": "ok", "by auto": "ok", "by blast": "ok"})).start()
    monkeypatch.setenv("PROOFSEEK_PROVER_ADDR", prover.address)
    try:
        config = write_config(tmp_path, mode="live")
        code = main(["curate", corpus, "--config", config])
    finally:
        model.stop()
        prover.stop()
    assert code == 2
    assert "model endpoint failed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sft.jsonl").exists()


# ---------------------------------------------------------------------------
# missing input files

@pytest.mark.parametrize("command", ["formalize", "curate", "report"])
def test_missing_input_file_exits_2_naming_it(tmp_path, capsys, command):
    (tmp_path / "model_mock.json").write_text("{}", encoding="utf-8")
    config = write_config(tmp_path, mode="mock", fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {})})
    missing = str(tmp_path / "nope.jsonl")
    assert main([command, missing, "--config", config]) == 2
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_few_shots_fixture_exits_2_naming_it(tmp_path, capsys):
    spec_path, fixtures = _bench_fixture(tmp_path, n_problems=2, n_fail=0)
    config = write_config(tmp_path, fixtures={**fixtures,
                                              "few_shots": "shots.jsonl"})
    assert main(["bench", spec_path, "--no-erp", "--config", config]) == 2
    assert str(tmp_path / "shots.jsonl") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["policy", "config", "model_mock",
                                  "prover_mock", "model_replay"])
def test_input_nested_too_deeply_exits_2(tmp_path, capsys, case):
    # The decoder's RecursionError crashed the command with a traceback;
    # input that is not JSON, however deeply nested, is an input error.
    (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    (tmp_path / "model_mock.json").write_text("{}", encoding="utf-8")
    fixtures = {"model_mock": "model_mock.json",
                "prover_mock": write_mock_prover(tmp_path, {})}
    mode = "replay" if case == "model_replay" else "mock"
    if case not in ("policy", "config"):
        fixtures[case] = "deep.json"
    config = (str(tmp_path / "deep.json") if case == "config"
              else write_config(tmp_path, mode=mode, fixtures=fixtures))
    source = "deep.json" if case == "policy" else "stmt.thy"
    command = "policy" if case == "policy" else "prove"
    assert main([command, str(tmp_path / source), "--config", config]) == 2
    assert "nested too deeply" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# backend construction

def test_mock_prover_fixture_takes_outcome_objects(tmp_path):
    from proofseek.cli import build_prover, load_config
    from proofseek.prover import HAMMER_STEP

    (tmp_path / "prover_mock.json").write_text(json.dumps({
        "table": {"by simp": {"status": "ok", "is_done": False,
                              "message": "m"},
                  "by blast": "error", "by auto": {"status": "ok",
                                                   "is_done": False}},
        "default": {"status": "timeout"},
        "hammer": ["blast", "auto"],
    }), encoding="utf-8")
    prover = build_prover(load_config(write_config(
        tmp_path, mode="mock", fixtures={"prover_mock": "prover_mock.json"})))
    sid = prover.init_session("theory T imports Main begin")
    result = prover.apply(sid, "by   simp")
    assert (result.status, result.message, result.is_done) == ("ok", "m", False)
    assert prover.apply(sid, "by other").status == "timeout"
    assert prover.apply(sid, HAMMER_STEP).message == "auto"


def test_mock_prover_fixture_with_a_hammer_outcome_exits_2(tmp_path, capsys):
    # A hammer is null, a tactic or a list of tactics; a list holding null
    # or an outcome object is a config error.
    hammer = [None, {"status": "ok", "message": "by auto"}]
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    (tmp_path / "model_mock.json").write_text("{}", encoding="utf-8")
    fixtures = {"model_mock": "model_mock.json",
                "prover_mock": write_mock_prover(tmp_path, {}, hammer=hammer)}
    config = write_config(tmp_path, mode="mock", fixtures=fixtures)
    assert main(["prove", str(tmp_path / "stmt.thy"), "--config", config]) == 2
    assert "bad fixtures.prover_mock: hammer must be" in capsys.readouterr().err


def test_cmd_report_torn_inner_line_exits_2_naming_its_line(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text('{"problem_name": "p1", "succ\n{}\n', encoding="utf-8")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:1: ")


def test_cmd_report_skips_a_torn_final_line_and_leaves_the_file(
        tmp_path, capsys, caplog):
    # A killed or still-running bench leaves its last line torn: report
    # exited 2 on it.  It must not cut the line, which a live run may still
    # be writing.
    path = tmp_path / "records.jsonl"
    data = (json.dumps({"problem_name": "p1", "success": True, "i_try": 1,
                        "success_stage": "init_proof", "has_timeout": False,
                        "extra_calls": 0, "has_sc": False,
                        "final_script": "by simp"}).encode()
            + b'\n{"problem_name": "p2", "succ')
    path.write_bytes(data)
    config = write_config(tmp_path)
    assert main(["report", str(path), "--config", config]) == 0
    summary = _record_from_stdout(capsys)
    assert summary["dataset"] == "records (1 Problems)"
    assert (summary["n_problems"], summary["n_success"]) == (1, 1)
    assert "torn final line" in caplog.text
    assert path.read_bytes() == data


@pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
def test_cmd_report_reads_a_record_holding_a_unicode_line_break(
        tmp_path, capsys, char):
    # bench writes each record with ensure_ascii=False, so these characters
    # stay raw in a final_script; report split the line there and exited 2
    # ("records.jsonl:1: Unterminated string").
    path = tmp_path / "records.jsonl"
    append_jsonl(path, {"problem_name": "p1", "success": True, "i_try": 1,
                        "success_stage": "init_proof", "has_timeout": False,
                        "extra_calls": 0, "has_sc": False,
                        "final_script": f"by simp{char}"})
    config = write_config(tmp_path)
    assert main(["report", str(path), "--config", config]) == 0
    summary = _record_from_stdout(capsys)
    assert (summary["n_problems"], summary["n_success"]) == (1, 1)


@pytest.mark.parametrize("config_text", [
    "[]", '{"mode": "offline"}', '{"budget": 5}', '{"model": {"top_p": 2}}'])
def test_cmd_report_bad_config_exits_2(tmp_path, capsys, config_text):
    (tmp_path / "config.json").write_text(config_text, encoding="utf-8")
    write_jsonl(tmp_path / "records.jsonl", [])
    assert main(["report", str(tmp_path / "records.jsonl"),
                 "--config", str(tmp_path / "config.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_an_interrupt_exits_2(tmp_path, monkeypatch, capsys):
    import proofseek.cli as cli

    def interrupted(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_report", interrupted)
    assert main(["report", str(tmp_path / "records.jsonl")]) == 2
    assert capsys.readouterr().err == (
        "interrupted; partial outputs are flushed\n")


def test_cmd_prove_unknown_mock_prover_key_exits_2(tmp_path, capsys):
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    (tmp_path / "prover_mock.json").write_text(
        json.dumps({"table": {}, "tabel": {}}), encoding="utf-8")
    fixtures = {
        "model_replay": write_replay_model(
            tmp_path, {SIMPLE_STATEMENT: ["by simp"]}),
        "prover_mock": "prover_mock.json",
    }
    config = write_config(tmp_path, fixtures=fixtures)
    assert main(["prove", str(tmp_path / "stmt.thy"), "--config", config]) == 2
    assert "fixtures.prover_mock" in capsys.readouterr().err


def test_cmd_prove_mock_prover_table_not_an_object_exits_2(tmp_path, capsys):
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    (tmp_path / "prover_mock.json").write_text(
        json.dumps({"table": [1]}), encoding="utf-8")
    fixtures = {
        "model_replay": write_replay_model(
            tmp_path, {SIMPLE_STATEMENT: ["by simp"]}),
        "prover_mock": "prover_mock.json",
    }
    config = write_config(tmp_path, fixtures=fixtures)
    assert main(["prove", str(tmp_path / "stmt.thy"), "--config", config]) == 2
    assert "fixtures.prover_mock" in capsys.readouterr().err


def test_cmd_prove_incoherent_mock_prover_table_exits_2(tmp_path, capsys):
    # `have "x" by simp` accepted but `have "x"` refused (the default): no
    # prover reads Isar that way.
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    (tmp_path / "prover_mock.json").write_text(
        json.dumps({"table": {'have "x" by simp': "ok"}}), encoding="utf-8")
    fixtures = {
        "model_replay": write_replay_model(
            tmp_path, {SIMPLE_STATEMENT: ["by simp"]}),
        "prover_mock": "prover_mock.json",
    }
    config = write_config(tmp_path, fixtures=fixtures)
    assert main(["prove", str(tmp_path / "stmt.thy"), "--config", config]) == 2
    err = capsys.readouterr().err
    assert "fixtures.prover_mock" in err and "incoherent" in err


# ---------------------------------------------------------------------------
# offline guarantee

def test_mock_and_replay_commands_open_no_sockets(tmp_path, monkeypatch,
                                                  capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("network operation attempted in offline mode")

    spec_path, fixtures = _bench_fixture(tmp_path, n_problems=2, n_fail=0)
    (tmp_path / "policy.json").write_text(EC2_POLICY_JSON, encoding="utf-8")
    (tmp_path / "model_mock.json").write_text("{}", encoding="utf-8")
    fixtures["model_mock"] = "model_mock.json"
    config = write_config(tmp_path, fixtures=fixtures)
    mock_config = write_config(tmp_path, mode="mock", fixtures=fixtures,
                               name="mock_config.json")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)

    assert main(["bench", spec_path, "--no-erp", "--config", config]) == 0
    assert main(["policy", str(tmp_path / "policy.json"),
                 "--config", mock_config]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# typed input rows: a row of the wrong type is an input error naming its
# line and field, never a traceback and never a wrong verdict

GOOD_RECORD = {"problem_name": "p0", "success": False, "i_try": 0,
               "success_stage": "failed", "has_timeout": False,
               "extra_calls": 0, "has_sc": False, "wall_time_s": 0.5}


def _every_input(tmp_path):
    """A mock-mode config and one good row in each input file, for every
    command: a spec and few shots (bench), a corpus (curate), inputs and
    shots (formalize) and records (report)."""
    rows = {
        "spec.jsonl": {"problem_name": "p0", "formal_statement": SIMPLE_STATEMENT},
        "shots.jsonl": {"statement": SIMPLE_STATEMENT, "proof": "by simp"},
        "corpus.jsonl": {"statement": 'lemma l: "P"', "proof": "by simp"},
        "inputs.jsonl": {"problem_name": "n0", "natural_statement": "allow"},
        "formalize_shots.jsonl": {"natural_statement": "allow",
                                  "formal_statement": GOLDEN_FORMAL_STATEMENT},
        "records.jsonl": GOOD_RECORD,
    }
    for name, row in rows.items():
        write_jsonl(tmp_path / name, [row])
    (tmp_path / "model_mock.json").write_text(json.dumps({
        "whole_proof": [["by simp"]], "nl_statement": [["plain"]],
        "stage_description": [["described"]],
        "stage_informal_proof": [["argued"]],
        "stage_formal_statement": [[GOLDEN_FORMAL_STATEMENT]],
    }), encoding="utf-8")
    return write_config(tmp_path, mode="mock", budget={"sample_budget": 1}, fixtures={
        "model_mock": "model_mock.json",
        "prover_mock": write_mock_prover(tmp_path, {"by simp": "ok"}),
        "few_shots": "shots.jsonl", "formalize_shots": "formalize_shots.jsonl"})


# the input file each command reads
SOURCES = {"bench": "spec.jsonl", "curate": "corpus.jsonl",
           "formalize": "inputs.jsonl", "report": "records.jsonl"}

BAD_ROWS = {
    "report_success_string": ("report", "records.jsonl", {
        **GOOD_RECORD, "success": "false", "success_stage": "atp",
        "final_script": "by simp"}, "success"),
    "report_row_not_an_object": ("report", "records.jsonl", [1, 2], "object"),
    "report_unknown_stage": ("report", "records.jsonl",
                             {**GOOD_RECORD, "success_stage": "nope"}, "nope"),
    "report_negative_extra_calls": ("report", "records.jsonl",
                                    {**GOOD_RECORD, "extra_calls": -1},
                                    "extra_calls"),
    "bench_spec_statement": ("bench", "spec.jsonl", {
        "problem_name": "p1", "formal_statement": 5}, "formal_statement"),
    "bench_few_shot_proof": ("bench", "shots.jsonl", {
        "statement": "s", "proof": {"by": "simp"}}, "proof"),
    "curate_corpus_statement": ("curate", "corpus.jsonl", {
        "statement": 5, "proof": "by simp"}, "statement"),
    "formalize_input_statement": ("formalize", "inputs.jsonl", {
        "natural_statement": 5}, "natural_statement"),
    "formalize_shot_statement": ("formalize", "formalize_shots.jsonl", {
        "formal_statement": 5}, "formal_statement"),
}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_a_bad_input_row_exits_2_naming_its_line_and_field(tmp_path, capsys,
                                                            case):
    command, name, bad, field = BAD_ROWS[case]
    config = _every_input(tmp_path)
    good = read_jsonl(tmp_path / name)
    write_jsonl(tmp_path / name, [*good, bad])
    assert main([command, str(tmp_path / SOURCES[command]),
                 "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / name}:2" in err and field in err


@pytest.mark.parametrize("command", sorted(SOURCES))
def test_every_input_of_the_right_types_loads(tmp_path, capsys, command):
    config = _every_input(tmp_path)
    assert main([command, str(tmp_path / SOURCES[command]),
                 "--config", config]) == 0


def test_cmd_formalize_reads_no_statement_key(tmp_path, capsys):
    # `natural_statement` is the input field; a row with only `statement`
    # has an empty one, which is that row's error.
    config = _every_input(tmp_path)
    write_jsonl(tmp_path / "inputs.jsonl",
                [{"problem_name": "n0", "statement": "allow"}])
    assert main(["formalize", str(tmp_path / "inputs.jsonl"),
                 "--config", config]) == 0
    summary = _record_from_stdout(capsys)
    assert summary["n_records"] == 0
    assert summary["errors"][0]["problem_name"] == "n0"


@pytest.mark.parametrize("config, named", [
    ({"budget": {"erp_enabled": "false"}}, "budget: field 'erp_enabled'"),
    ({"budget": {"sample_budget": 2.9}}, "budget: field 'sample_budget'"),
    ({"prover": {"pool_size": True}}, "prover: field 'pool_size'"),
    ({"model": {"stop": "abc"}}, "model: field 'stop'"),
    ({"out_dir": 5}, "field 'out_dir'"),
    ({"seed": "0"}, "field 'seed'"),
    ({"fixtures": {"few_shots": 5}}, "field 'fixtures'"),
])
def test_a_config_field_of_the_wrong_type_exits_2_naming_it(
        tmp_path, capsys, config, named):
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    write_jsonl(tmp_path / "records.jsonl", [GOOD_RECORD])
    assert main(["report", str(tmp_path / "records.jsonl"), "--config",
                 str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'config.json'}: {named}" in err


@pytest.mark.parametrize("outcome, field", [
    ({"status": "ok", "is_done": "false"}, "is_done"),
    ({"status": "ok", "delay_s": "1"}, "delay_s"),
    ({"status": "done"}, "status"),
])
def test_a_mock_outcome_of_the_wrong_type_exits_2_naming_it(
        tmp_path, capsys, outcome, field):
    # `is_done: "false"` made every proof a success.
    config = _every_input(tmp_path)
    write_mock_prover(tmp_path, {"by simp": outcome})
    assert main(["bench", str(tmp_path / "spec.jsonl"), "--no-erp",
                 "--config", config]) == 2
    err = capsys.readouterr().err
    assert "fixtures.prover_mock" in err and field in err


@pytest.mark.parametrize("entry", [
    [1],
    {"request": 5, "response": {}},
    {"request": {"command": "apply", "step": "by simp"}},
    {"request": {"command": "nope"}, "response": {}},
    {"request": {"command": ["apply"]}, "response": {}},
    {"request": {"command": "apply", "step": 5}, "response": {}},
])
def test_cmd_prove_malformed_replay_trace_exits_2_naming_its_line(
        tmp_path, capsys, entry):
    (tmp_path / "stmt.thy").write_text(SIMPLE_STATEMENT, encoding="utf-8")
    (tmp_path / "prover_trace.jsonl").write_text(
        "\n" + json.dumps(entry) + "\n", encoding="utf-8")
    fixtures = {
        "model_replay": write_replay_model(
            tmp_path, {SIMPLE_STATEMENT: ["by simp"]}),
        "prover_trace": "prover_trace.jsonl",
    }
    config = write_config(tmp_path, fixtures=fixtures,
                          budget={"sample_budget": 1, "erp_enabled": False})
    assert main(["prove", str(tmp_path / "stmt.thy"), "--config", config]) == 2
    assert f"{tmp_path / 'prover_trace.jsonl'}:2" in capsys.readouterr().err
