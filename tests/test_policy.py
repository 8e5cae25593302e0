import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofseek import formalize
from proofseek.errors import PolicyFormatError, UnsupportedPolicy
from proofseek.formalize import compile_policy, render_theory
from proofseek.policy import (
    AccessRequest,
    Effect,
    evaluate,
    granted,
    instantiate_pattern,
    load_policy_csv,
    match_pattern,
    parse_policy,
    resource_patterns,
)

from fixtures import (
    gen_policy_dict,
    gen_requests,
    oracle_decision,
    oracle_match,
)


# ---------------------------------------------------------------------------
# parsing

def test_parse_ec2_policy(ec2_policy):
    assert len(ec2_policy.statements) == 2
    assert len(ec2_policy.statements[0].resources) == 1
    assert len(ec2_policy.statements[1].resources) == 5
    assert all(s.effect is Effect.ALLOW for s in ec2_policy.statements)
    assert ec2_policy.statements[0].principals == ("*",)


def test_parse_scalar_normalization():
    doc = parse_policy('{"Statement":[{"Effect":"Allow",'
                       '"Action":"s3:GetObject","Resource":"*"}]}')
    assert len(doc.statements) == 1
    assert doc.statements[0].actions == ("s3:GetObject",)


def test_parse_missing_resource():
    with pytest.raises(PolicyFormatError) as err:
        parse_policy('{"Statement":[{"Effect":"Allow","Action":"a:B"}]}')
    assert err.value.field == "Resource"


def test_parse_missing_action():
    with pytest.raises(PolicyFormatError) as err:
        parse_policy('{"Statement":[{"Effect":"Allow","Resource":"*"}]}')
    assert err.value.field == "Action"


def test_parse_missing_statement():
    with pytest.raises(PolicyFormatError) as err:
        parse_policy('{"Version": "2012-10-17"}')
    assert err.value.field == "Statement"


def test_parse_rejects_negations():
    with pytest.raises(PolicyFormatError) as err:
        parse_policy('{"Statement":[{"Effect":"Allow","NotAction":"a:B",'
                     '"Resource":"*"}]}')
    assert err.value.field == "NotAction"


def test_parse_bad_effect():
    with pytest.raises(PolicyFormatError) as err:
        parse_policy('{"Statement":[{"Effect":"Maybe","Action":"a:B",'
                     '"Resource":"*"}]}')
    assert err.value.field == "Effect"


def test_parse_condition_that_is_no_object():
    with pytest.raises(PolicyFormatError) as err:
        parse_policy('{"Statement":[{"Effect":"Allow","Action":"a:B",'
                     '"Resource":"*","Condition":["aws:user"]}]}')
    assert err.value.field == "Condition"


@pytest.mark.parametrize("source", [
    "[1]", '{"policy_json": "[1]"}', '{"policy_json": 5}',
    '{"policy_json": "{bad"}'])
def test_parse_rejects_a_document_that_is_no_object(source):
    with pytest.raises(PolicyFormatError) as err:
        parse_policy(source)
    assert err.value.field == "document"


def test_parse_carries_conditions_opaquely():
    doc = parse_policy(json.dumps({"Statement": [{
        "Effect": "Allow", "Action": "a:B", "Resource": "*",
        "Condition": {"StringEquals": {"aws:user": "x"}}}]}))
    assert doc.statements[0].conditions
    # conditioned statements still match (documented over-approximation)
    assert evaluate(doc, AccessRequest("a:B", "anything")).allowed


def test_load_policy_csv():
    csv_text = ('problem_name,policy_json\n'
                'p1,"{""Statement"":[{""Effect"":""Allow"",""Action"":""a:B"",'
                '""Resource"":""*""}]}"\n')
    docs = load_policy_csv(csv_text)
    assert len(docs) == 1 and docs[0].source_name == "p1"


# ---------------------------------------------------------------------------
# pattern matching

def test_match_pattern_account_wildcard():
    assert match_pattern("arn:aws:ec2:us-east-1:123412341234:*",
                         "arn:aws:ec2:us-east-1:123412341234:volume/v1")


@pytest.mark.parametrize("pattern,value,expected", [
    ("abc", "abc", True),
    ("abc", "ab", False),
    ("a?c", "abc", True),
    ("a?c", "ac", False),
    ("*", "", True),
    ("a*b*c", "a-x-b-y-c", True),
    ("a*b*c", "a-x-c", False),
])
def test_match_pattern_basics(pattern, value, expected):
    assert match_pattern(pattern, value) is expected


def test_match_pattern_agrees_with_regex_oracle():
    rng = random.Random(17)
    alphabet = "ab*?:/-"
    for _ in range(1000):
        pattern = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        value = "".join(rng.choice("ab:/-") for _ in range(rng.randint(0, 10)))
        assert match_pattern(pattern, value) == oracle_match(pattern, value), \
            (pattern, value)


_LITERAL = st.text(alphabet="ab:/", max_size=4)


@st.composite
def _pattern_and_value(draw):
    """A pattern of one drawn shape (literal, ``prefix*``, with ``?``, or
    many-star), and a value that half the time is a witness of it."""
    shape = draw(st.sampled_from(["literal", "prefix", "question", "many_star"]))
    if shape == "literal":
        pattern = draw(_LITERAL)
    elif shape == "prefix":
        pattern = draw(_LITERAL) + "*"
    else:
        parts = draw(st.lists(_LITERAL, min_size=3, max_size=5))
        wilds = ["*"] if shape == "many_star" else ["?", "*", "?*", "*?"]
        seps = [draw(st.sampled_from(wilds)) for _ in parts[1:]]
        if shape == "question":
            seps[draw(st.integers(0, len(seps) - 1))] = "?"
        pattern = parts[0] + "".join(s + p for s, p in zip(seps, parts[1:]))
    if draw(st.booleans()):
        value = "".join(
            draw(st.text(alphabet="ab:w", max_size=3)) if c == "*"
            else draw(st.sampled_from("ab:w")) if c == "?" else c
            for c in pattern)
    else:
        value = draw(st.text(alphabet="ab:/w", max_size=10))
    return pattern, value


@settings(max_examples=500, deadline=None, database=None)
@given(_pattern_and_value())
def test_match_pattern_fast_paths_agree_with_regex_oracle(case):
    pattern, value = case
    assert match_pattern(pattern, value) == oracle_match(pattern, value)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_allow_via_two_statements(ec2_policy):
    decision = evaluate(ec2_policy, AccessRequest(
        "ec2:RunInstances", "arn:aws:ec2:us-east-1:123412341234:volume/v1"))
    assert decision.allowed
    assert decision.matched_allow == (0, 1)


def test_evaluate_default_deny(ec2_policy):
    decision = evaluate(ec2_policy, AccessRequest("s3:GetObject", "arn:x"))
    assert not decision.allowed
    assert decision.matched_allow == () and decision.matched_deny == ()


def test_evaluate_deny_overrides():
    doc = parse_policy(json.dumps({"Statement": [
        {"Effect": "Allow", "Action": "a:B", "Resource": "*"},
        {"Effect": "Deny", "Action": "a:*", "Resource": "*"},
    ]}))
    decision = evaluate(doc, AccessRequest("a:B", "r"))
    assert not decision.allowed
    assert decision.matched_allow == (0,) and decision.matched_deny == (1,)


def test_decision_invariant_holds_on_random_policies():
    rng = random.Random(29)
    for _ in range(200):
        doc = parse_policy(json.dumps(gen_policy_dict(rng)))
        for action, resource, principal in gen_requests(rng, gen_policy_dict(rng)):
            decision = evaluate(doc, AccessRequest(action, resource, principal))
            assert decision.allowed == (bool(decision.matched_allow)
                                        and not decision.matched_deny)


def test_deny_dominance():
    rng = random.Random(31)
    for _ in range(100):
        raw = gen_policy_dict(rng)
        doc = parse_policy(json.dumps(raw))
        raw_plus = {"Statement": [*raw["Statement"],
                                  {"Effect": "Deny", "Action": "z:Z",
                                   "Resource": "zzz"}]}
        doc_plus = parse_policy(json.dumps(raw_plus))
        for action, resource, principal in gen_requests(rng, raw)[:10]:
            request = AccessRequest(action, resource, principal)
            if not evaluate(doc, request).allowed:
                assert not evaluate(doc_plus, request).allowed


def test_allow_monotonicity():
    rng = random.Random(37)
    for _ in range(100):
        raw = gen_policy_dict(rng)
        doc = parse_policy(json.dumps(raw))
        raw_plus = {"Statement": [*raw["Statement"],
                                  {"Effect": "Allow", "Action": "z:Z",
                                   "Resource": "zzz"}]}
        doc_plus = parse_policy(json.dumps(raw_plus))
        for action, resource, principal in gen_requests(rng, raw)[:10]:
            request = AccessRequest(action, resource, principal)
            decision = evaluate(doc, request)
            if decision.allowed:
                assert evaluate(doc_plus, request).allowed


# ---------------------------------------------------------------------------
# oracle equivalence (the module-level version of acceptance criterion 1)

def test_evaluate_agrees_with_brute_force():
    rng = random.Random(43)
    for _ in range(300):
        raw = gen_policy_dict(rng)
        doc = parse_policy(json.dumps(raw))
        for action, resource, principal in gen_requests(rng, raw):
            expected = oracle_decision(raw, action, resource, principal)
            got = evaluate(doc, AccessRequest(action, resource, principal)).allowed
            assert got == expected, (raw, action, resource, principal)


# ---------------------------------------------------------------------------
# differential: the batch rule against one evaluate per request

_ARN = "arn:aws:s:r:acct:"
# literal text, or text with `*`, `?` and runs of them; `w` is the witness
# letter, so instantiations can match literal patterns too
_TAIL = st.one_of(st.text(alphabet="abw/", min_size=1, max_size=5),
                  st.text(alphabet="abw/*?", min_size=1, max_size=7))
_RESOURCE = st.one_of(st.sampled_from(["*", _ARN + "*"]),
                      _TAIL.map(lambda tail: _ARN + tail))
# None: no Principal field, which is anyone
_PRINCIPAL = st.sampled_from([
    None, None, None, "*", "alice", "bob", "a*", "b?b", ["*", "alice"],
    ["arn:aws:iam::1:user/bob"], {"AWS": "*"}, {"AWS": ["bob", "a*"]}])
_CONDITION = st.one_of(st.none(), st.just({"StringEquals": {"aws:user": "x"}}))


@st.composite
def _policies(draw, effects=("Allow", "Allow", "Deny"), actions=st.lists(
        st.sampled_from(["s:Get", "s:Put", "s:*", "s:G?t", "*"]),
        min_size=1, max_size=2)):
    statements = []
    for _ in range(draw(st.integers(1, 4))):
        statement = {"Effect": draw(st.sampled_from(effects)),
                     "Action": draw(actions),
                     "Resource": draw(st.lists(_RESOURCE, min_size=1,
                                               max_size=4))}
        principal, condition = draw(_PRINCIPAL), draw(_CONDITION)
        if principal is not None:
            statement["Principal"] = principal
        if condition is not None:
            statement["Condition"] = condition
        statements.append(statement)
    return {"Statement": statements}


def _per_request(policy, action, resources, principal="anyone"):
    return [evaluate(policy, AccessRequest(action, r, principal)).allowed
            for r in resources]


def _sides(allow, deny=(), put=()):
    """A policy whose ``s:Get`` statements allow ``allow`` and deny
    ``deny``, and whose ``s:Put`` statement allows ``put``."""
    statements = [{"Effect": "Allow", "Action": "s:Get", "Resource": allow}]
    if deny:
        statements.append({"Effect": "Deny", "Action": "s:Get",
                           "Resource": list(deny)})
    if put:
        statements.append({"Effect": "Allow", "Action": "s:Put",
                           "Resource": list(put)})
    return {"Statement": statements}


@settings(max_examples=200, deadline=None, database=None)
@given(_policies(), st.sampled_from(["s:Get", "s:Get", "s:Put", "x:Y"]),
       st.lists(st.text(alphabet="abw/", min_size=1, max_size=5), max_size=3),
       st.sampled_from(["anyone", "alice", "bob", "arn:aws:iam::1:user/bob"]))
# Each shape of granted's index decides a resource on the Allow side, then
# on the Deny side: a bare `*`; a prefix `*` whose resource is the prefix;
# a literal equal to another pattern's witness; a `?`; an inner `*`; and
# `?*`, which ends in `*` but is no prefix pattern.
@example(_sides(["*"]), "s:Get", ["b"], "anyone")
@example(_sides([_ARN + "a"], ["*"]), "s:Get", [], "anyone")
@example(_sides([_ARN + "ab*"]), "s:Get", ["ab", "a"], "anyone")
@example(_sides(["*"], [_ARN + "ab*"]), "s:Get", ["ab", "a"], "anyone")
@example(_sides([_ARN + "awb"], put=[_ARN + "a*b"]), "s:Get", [], "anyone")
@example(_sides([_ARN + "a*b"], [_ARN + "awb"]), "s:Get", [], "anyone")
@example(_sides([_ARN + "a?b"]), "s:Get", ["ab", "abb"], "anyone")
@example(_sides(["*"], [_ARN + "a?b"]), "s:Get", ["ab", "abb"], "anyone")
@example(_sides([_ARN + "a*b"]), "s:Get", ["ab", "aba", "a/b"], "anyone")
@example(_sides(["*"], [_ARN + "a*b"]), "s:Get", ["ab", "aba"], "anyone")
@example(_sides([_ARN + "a?*"]), "s:Get", ["a", "ab"], "anyone")
@example(_sides(["*"], [_ARN + "a?*"]), "s:Get", ["a", "ab"], "anyone")
def test_granted_equals_evaluate_request_by_request(raw, action, extra,
                                                    principal):
    doc = parse_policy(json.dumps(raw))
    resources = [instantiate_pattern(p) for p in resource_patterns(doc)]
    resources += [_ARN + tail for tail in extra]
    assert (granted(doc, action, resources, principal)
            == _per_request(doc, action, resources, principal))


@settings(max_examples=200, deadline=None, database=None)
@given(_policies(effects=("Allow",) * 15 + ("Deny",), actions=st.sampled_from(
    [["s:Get"]] * 6 + [["s:Put"], ["s:G*"]])))
def test_compile_decides_its_conjuncts_as_evaluate_does_per_class(raw):
    # The theorem, or the UnsupportedPolicy message, is the one the compiler
    # gives when each class's witness is decided by its own evaluate call.
    doc = parse_policy(json.dumps(raw))
    outcomes = []
    for decide in (granted, _per_request):
        with mock.patch.object(formalize, "granted", decide):
            try:
                outcomes.append(render_theory(compile_policy(doc)))
            except UnsupportedPolicy as exc:
                outcomes.append(f"UnsupportedPolicy: {exc}")
    assert outcomes[0] == outcomes[1]
