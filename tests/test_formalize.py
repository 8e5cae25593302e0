import json
import random
import re

import pytest

from proofseek.errors import StageValidationError, UnsupportedPolicy
from proofseek.formalize import (
    FormalizationRecord,
    compile_policy,
    formalize_nl,
    render_theory,
    resource_class,
    validate_formal_statement,
    wrap_theory,
)
from proofseek.isar import parse_script, token_equivalent
from proofseek import formalize, prompts
from proofseek.model import MockModel, RecordingModel, prompt_digest
from proofseek.policy import parse_policy

from fixtures import EC2_POLICY_JSON, GOLDEN_FORMAL_STATEMENT, oracle_decision


# ---------------------------------------------------------------------------
# deterministic compiler

def test_compile_golden_token_equivalent(ec2_policy):
    rendered = render_theory(compile_policy(ec2_policy))
    assert token_equivalent(rendered, GOLDEN_FORMAL_STATEMENT)


def test_compile_golden_byte_stable(ec2_policy):
    first = render_theory(compile_policy(ec2_policy))
    second = render_theory(compile_policy(parse_policy(EC2_POLICY_JSON)))
    assert first == second


def test_compile_minimal_policy_single_conjunct():
    doc = parse_policy('{"Statement":[{"Effect":"Allow","Action":"s3:GetObject",'
                       '"Resource":"arn:aws:s3:::logs/*"}]}')
    skeleton = compile_policy(doc)
    assert skeleton.theorem.count("policy_allows") == 1
    assert ("s3_resource", ("Logss",)) not in skeleton.datatype_defs  # sanity


def test_compile_rejects_deny():
    doc = parse_policy('{"Statement":[{"Effect":"Deny","Action":"a:B",'
                       '"Resource":"*"}]}')
    with pytest.raises(UnsupportedPolicy):
        compile_policy(doc)


def test_compile_rejects_multiple_actions():
    doc = parse_policy('{"Statement":[{"Effect":"Allow",'
                       '"Action":["a:B","a:C"],"Resource":"*"}]}')
    with pytest.raises(UnsupportedPolicy):
        compile_policy(doc)


@pytest.mark.parametrize("action", ["s3:Get*", "ec2:*", "s3:Get?bject"])
def test_compile_rejects_a_single_wildcard_action(action):
    # One wildcard action is still one distinct action; it must not compile
    # to a constructor named after its witness instantiation.
    doc = parse_policy(json.dumps({"Statement": [{
        "Effect": "Allow", "Action": action,
        "Resource": "arn:aws:s3:::bucket/*"}]}))
    with pytest.raises(UnsupportedPolicy, match="wildcard action"):
        compile_policy(doc)


def test_compile_rejects_uncovered_resource_classes():
    doc = parse_policy('{"Statement":[{"Effect":"Allow","Action":"a:B",'
                       '"Resource":["arn:aws:a:r::x/*","arn:aws:a:r::y/*"]}]}')
    with pytest.raises(UnsupportedPolicy):
        compile_policy(doc)


def test_resource_class_names():
    assert resource_class("arn:aws:ec2:us-east-1:123412341234:*") == "AllResources"
    assert resource_class("arn:aws:ec2:us-east-1::image/ami-*") == "Images"
    assert resource_class("arn:aws:ec2:us-east-1:1:network-interface/*") == \
        "NetworkInterfaces"
    assert resource_class("arn:aws:ec2:us-east-1:1:key-pair/*") == "KeyPairs"
    assert resource_class("*") == "AllResources"


# Class names keep the meaning of the split on [^0-9A-Za-z]+: a letter or
# digit outside ASCII separates words (though str.isalnum() is true of it),
# and an ARN's tail is all that follows its fifth colon.
@pytest.mark.parametrize("namer, raw, expected", [
    (resource_class, "arn:aws:s3:::café/*", "Cafs"),
    (resource_class, "arn:aws:s3:::a:b/*", "ABs"),
    (resource_class, "a:b:c:d:e", "ABCDEs"),
    (resource_class, "arn:aws:s3:::9lives/*", "R9lives"),
    (formalize._camel, "jürgen", "JRgen"),
    (formalize._camel, "²x", "X"),
])
def test_class_names_keep_the_regex_split(namer, raw, expected):
    assert namer(raw) == expected


def _fragment_policy(rng: random.Random) -> dict:
    """Random Allow-only single-action policy inside the compiler fragment."""
    action = rng.choice(["svc:Run", "svc:Start", "ec2:RunInstances"])
    statements = [{"Effect": "Allow", "Action": action,
                   "Resource": "arn:aws:svc:r:acct0:*"}]
    for index in range(rng.randint(0, 3)):
        statement = {
            "Effect": "Allow",
            "Action": action,
            "Resource": [f"arn:aws:svc:r:acct{rng.randint(0, 2)}:kind{index}{j}/*"
                         for j in range(rng.randint(1, 3))],
        }
        if rng.random() < 0.5:
            statement["Principal"] = rng.choice(["alice", "bob"])
        statements.append(statement)
    return {"Statement": statements}


def test_compile_conjuncts_match_oracle_allow_set():
    rng = random.Random(53)
    for _ in range(100):
        raw = _fragment_policy(rng)
        doc = parse_policy(json.dumps(raw))
        skeleton = compile_policy(doc)
        action = raw["Statement"][0]["Action"]
        patterns: dict[str, None] = {}
        for statement in raw["Statement"]:
            resources = statement["Resource"]
            for resource in ([resources] if isinstance(resources, str) else resources):
                patterns.setdefault(resource, None)
        expected = [p for p in patterns
                    if oracle_decision(raw, action, p.replace("*", "w"), "anyone")]
        assert skeleton.theorem.count("policy_allows") == len(expected)
        # a pair the oracle denies never appears
        for pattern in patterns:
            if pattern in expected:
                continue
            assert resource_class(pattern) not in skeleton.theorem


@pytest.mark.parametrize("action, resource, names", [
    ("9svc:GetObject", "arn:aws:9svc:::2024logs/*",
     {"p_9svc_action", "R2024logs"}),
    (":GetObject", "arn:aws:9svc:::2024logs/*", {"x_action", "R2024logs"}),
])
def test_compiled_names_start_with_a_letter(action, resource, names):
    # A service or resource kind led by a digit, or an empty service, still
    # names every datatype, constructor and definition with a letter first.
    skeleton = compile_policy(parse_policy(json.dumps({"Statement": [{
        "Effect": "Allow", "Action": action, "Resource": resource}]})))
    declared = {name for dt_name, ctors in skeleton.datatype_defs
                for name in (dt_name, *ctors)}
    defined = re.findall(r"^(?:definition|fun|theorem) (\w+)",
                         "\n".join((*skeleton.fun_defs, skeleton.theorem)),
                         re.MULTILINE)
    assert len(defined) == 3
    assert all(name[0].isalpha() for name in (*declared, *defined))
    assert names <= declared


def test_compiled_skeleton_constructors_all_declared(ec2_policy):
    # every capitalized name the funs and the theorem use is a constructor
    # of one of the skeleton's datatypes
    skeleton = compile_policy(ec2_policy)
    declared = {ctor for _, ctors in skeleton.datatype_defs for ctor in ctors}
    text = "\n".join((*skeleton.fun_defs, skeleton.theorem))
    assert set(re.findall(r"\b[A-Z][A-Za-z0-9_]*\b", text)) - declared == set()


def test_render_theory_reparses_balanced(ec2_policy):
    rendered = render_theory(compile_policy(ec2_policy))
    script = parse_script(rendered)
    assert script.balanced


def test_render_theory_without_funs():
    from proofseek.formalize import TheorySkeleton
    skeleton = TheorySkeleton(datatype_defs=(("t", ("A",)),), record_defs=(),
                              fun_defs=(), theorem='theorem x:\n  shows "A = A"')
    rendered = render_theory(skeleton)
    assert "fun" not in rendered
    assert rendered.rstrip().endswith("oops")


def test_wrap_theory_envelope():
    wrapped = wrap_theory("theorem x: shows \"A\"\n  oops", "Sample")
    assert wrapped.startswith("theory Sample\n  imports Main\nbegin")
    assert wrapped.rstrip().endswith("end")


# ---------------------------------------------------------------------------
# structural validation

def test_validate_golden_statement_clean():
    assert validate_formal_statement(GOLDEN_FORMAL_STATEMENT) == []


def test_validate_blank_statement():
    assert validate_formal_statement("   ") == ["EmptyStatement"]


def test_validate_missing_theorem():
    findings = validate_formal_statement('definition d :: nat where "d = 1"\noops')
    assert findings == ["MissingTheorem"]


def test_validate_unbalanced_blocks():
    findings = validate_formal_statement(
        'theorem x: shows "A" proof - have "b" sorry')
    assert "UnbalancedBlocks" in findings


def test_validate_missing_terminal():
    findings = validate_formal_statement('theorem x: shows "A"')
    assert findings == ["MissingTerminal: statement should end with oops or sorry"]


def test_validate_parse_failure_carries_its_detail():
    findings = validate_formal_statement('theorem x: shows "A')
    assert findings == ["ParseFailure: unterminated string (line 1, column 18)"]


def test_validate_lets_a_tokenizer_bug_escape(monkeypatch):
    # Only a ParseError is a finding; anything else the tokenizer raises is
    # a bug, not a retry prompt for the model.
    def broken(_text):
        raise RuntimeError("tokenizer bug")

    monkeypatch.setattr(formalize, "tokenize", broken)
    with pytest.raises(RuntimeError, match="tokenizer bug"):
        validate_formal_statement(GOLDEN_FORMAL_STATEMENT)


# ---------------------------------------------------------------------------
# staged workflow

def _staged_model(formal_outputs):
    return RecordingModel(MockModel({
        "stage_description": [["the policy grants run access"]],
        "stage_informal_proof": [["each grant follows from the wildcard"]],
        "stage_formal_statement": [[out] for out in formal_outputs],
    }))


def test_formalize_nl_stage_order_and_record():
    model = _staged_model([GOLDEN_FORMAL_STATEMENT])
    record = formalize_nl("allow running instances", model,
                          problem_name="ec2_sample")
    purposes = [r["purpose"] for r in model.requests]
    assert purposes == ["stage_description", "stage_informal_proof",
                        "stage_formal_statement"]
    assert record.informal_description == "the policy grants run access"
    assert record.informal_proof == "each grant follows from the wildcard"
    assert token_equivalent(record.formal_statement, GOLDEN_FORMAL_STATEMENT)
    assert record.provenance == "llm"


def test_formalize_nl_retry_then_success():
    model = _staged_model(["not a statement at all",
                           GOLDEN_FORMAL_STATEMENT])
    formalize_nl("allow running instances", model)
    assert sum(1 for r in model.requests
               if r["purpose"] == "stage_formal_statement") == 2


def test_formalize_nl_fails_after_retry():
    model = _staged_model(["junk one", "junk two"])
    with pytest.raises(StageValidationError):
        formalize_nl("allow running instances", model)


def test_formalize_nl_retry_prompt_and_error_name_each_finding():
    # Two findings, the second with a detail: the retry prompt and the
    # error join them as "code" and "code: detail".
    invalid = 'definition d :: nat where "d = 1"'
    joined = ("MissingTheorem; "
              "MissingTerminal: statement should end with oops or sorry")
    model = _staged_model([invalid, invalid])
    with pytest.raises(StageValidationError) as raised:
        formalize_nl("allow running instances", model)
    assert str(raised.value) == (
        "formal statement failed validation after retry: " + joined)
    retry = prompts.stage_formal_statement_prompt(
        "allow running instances", "the policy grants run access",
        "each grant follows from the wildcard\n\nThe previous output was "
        "structurally invalid: " + joined)
    assert model.requests[-1]["digest"] == prompt_digest(retry)


def test_formalize_nl_rejects_empty_input():
    with pytest.raises(ValueError):
        formalize_nl("   ", _staged_model([GOLDEN_FORMAL_STATEMENT]))


def test_formalize_nl_reproduces_golden_chain_from_replay():
    # Stage fixtures keyed by the real prompt digests: the record must carry
    # the replayed informal stages and the golden formal statement verbatim.
    from proofseek.model import ReplayModel
    from fixtures import GOLDEN_INFORMAL_PROOF, GOLDEN_INFORMAL_STATEMENT

    policy_text = EC2_POLICY_JSON
    p1 = prompts.stage_description_prompt(policy_text)
    p2 = prompts.stage_informal_proof_prompt(policy_text,
                                             GOLDEN_INFORMAL_STATEMENT)
    p3 = prompts.stage_formal_statement_prompt(policy_text,
                                               GOLDEN_INFORMAL_STATEMENT,
                                               GOLDEN_INFORMAL_PROOF)
    model = RecordingModel(ReplayModel({
        prompt_digest(p1): [GOLDEN_INFORMAL_STATEMENT],
        prompt_digest(p2): [GOLDEN_INFORMAL_PROOF],
        prompt_digest(p3): [GOLDEN_FORMAL_STATEMENT],
    }))
    record = formalize_nl(policy_text, model, problem_name="ec2_sample")
    assert record.informal_description == GOLDEN_INFORMAL_STATEMENT
    assert record.informal_proof == GOLDEN_INFORMAL_PROOF
    assert token_equivalent(record.formal_statement, GOLDEN_FORMAL_STATEMENT)
    assert sum(1 for r in model.requests
               if r["purpose"] == "stage_formal_statement") == 1


def test_formalization_record_json_keys():
    record = FormalizationRecord("p", "s", "d", "pf", "S")
    data = record.to_json()
    assert set(data) == {
        "problem_name", "natural_statement", "informal_description",
        "informal_proof", "formal_statement", "theory_text", "provenance"}
    assert data["theory_text"] == data["formal_statement"] == "S"
