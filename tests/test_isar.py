import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofseek import isar
from proofseek.errors import IndexOutOfRange, ParseError
from proofseek.isar import (
    enclosing_block,
    extract_proof_text,
    make_step,
    parse_script,
    render,
    slice_steps,
    splice,
    strip_terminal_marker,
    token_equivalent,
    tokenize,
    truncate_to_block,
    unwrap_proof_comment,
)

from fixtures import (
    PROOF_LISTINGS,
    gen_script_text,
    gen_steps,
    noisy_text,
    placeholders,
    reference_tokenize,
)


# ---------------------------------------------------------------------------
# tokenizer

def test_tokenize_atoms():
    toks = tokenize('have "a b c" (* note *) by simp')
    assert [t.kind for t in toks] == ["word", "string", "comment", "word", "word"]
    assert toks[1].text == '"a b c"'
    assert toks[2].text == "(* note *)"


def test_tokenize_nested_comment_and_cartouche():
    toks = tokenize("(* outer (* inner *) back *) \\<open>txt \\<open>in\\<close> t\\<close>")
    assert [t.kind for t in toks] == ["comment", "cartouche"]


@pytest.mark.parametrize("bad", ['"unterminated', "(* never closed", "\\<open>gap"])
def test_tokenize_unterminated_raises(bad):
    with pytest.raises(ParseError) as err:
        tokenize(bad)
    assert err.value.line == 1


def test_tokenize_error_locates_the_unterminated_token():
    with pytest.raises(ParseError) as err:
        tokenize('have "a"\nby simp\n  (* open')
    assert (err.value.line, err.value.column) == (3, 3)


# Fences, quotes, backslashes, and whitespace that ``str.split`` and
# ``str.isspace`` agree on but an ASCII-only scanner would not (U+00A0,
# U+001C), around short words.
_TOKEN_PIECES = ["(*", "*)", "(", "*", ")", '"', "\\", '\\"', "\\<open>",
                 "\\<close>", "<open>", "‹", "›", " ", "\n", "\t",
                 "\xa0", "\x1c", "a", "by", "x y"]


def _tokens_or_error(tokenizer, text):
    try:
        return [(t.kind, t.text, t.offset) for t in tokenizer(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.column


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=16).map("".join))
def test_tokenize_agrees_with_the_character_walk(text):
    assert (_tokens_or_error(tokenize, text)
            == _tokens_or_error(reference_tokenize, text))


def test_parse_empty_rejected():
    with pytest.raises(ParseError):
        parse_script("   \n ")


# ---------------------------------------------------------------------------
# golden proof structure

def test_golden_proof_block_tree(golden_proof_body):
    script = parse_script(golden_proof_body)
    assert len(script.steps) == 9
    assert script.balanced
    # one block: proof opener, seven inner steps, qed closer
    for index in range(9):
        assert enclosing_block(script, index) == (0, 8, 0, 8)
    heads = [s.head for s in script.steps]
    assert heads == ["proof", "have", *["moreover"] * 5, "ultimately", "qed"]
    assert script.steps[1].just_tokens == (
        "by", "(simp", "add:", "ec2_instance_policy_def)")


def test_minimal_script():
    script = parse_script("by simp")
    assert len(script.steps) == 1
    assert script.steps[0].head == "by"
    assert script.steps[0].just_tokens == ("by", "simp")
    assert not script.steps[0].is_sorry
    assert render(script) == "by simp"


@pytest.mark.parametrize("listing", PROOF_LISTINGS)
def test_round_trip_listings(listing):
    assert token_equivalent(render(parse_script(listing)), listing)


def test_round_trip_generated_scripts():
    rng = random.Random(7)
    for _ in range(200):
        text = gen_script_text(rng, max_depth=4)
        script = parse_script(text)
        assert token_equivalent(render(script), text)


def test_render_idempotent_on_generated_scripts():
    rng = random.Random(11)
    for _ in range(200):
        text = gen_script_text(rng)
        once = render(parse_script(text))
        assert render(parse_script(once)) == once


# ---------------------------------------------------------------------------
# step grammar: one row per rule, steps as (tokens, just_tokens, lead_comments)

_C = "(* c *)"


@pytest.mark.parametrize("text, steps, trailing", [
    pytest.param(
        'moreover have "x" using h by simp',
        [(("moreover", "have", '"x"', "using", "h"), ("by", "simp"), ())], (),
        id="chain-takes-goal-goal-takes-facts-and-by"),
    pytest.param(
        'have "x" sorry fix y',
        [(("have", '"x"'), ("sorry",), ()), (("fix", "y"), (), ())], (),
        id="sorry-closes-the-step"),
    pytest.param(
        "by (simp add: foo)",
        [((), ("by", "(simp", "add:", "foo)"), ())], (),
        id="words-extend-a-justification"),
    pytest.param(
        "proof (induct n)",
        [(("proof", "(induct", "n)"), (), ())], (),
        id="words-extend-a-plain-body"),
    pytest.param(
        "fix x by simp",
        [(("fix", "x"), (), ()), ((), ("by", "simp"), ())], (),
        id="plain-step-takes-no-keyword"),
    pytest.param(
        'then have "x" proof -',
        [(("then", "have", '"x"'), (), ()), (("proof", "-"), (), ())], (),
        id="a-delimiter-never-continues"),
    pytest.param(
        'have "x" apply simp',
        [(("have", '"x"'), (), ()), ((), ("apply", "simp"), ())], (),
        id="a-goal-takes-by-not-apply"),
    pytest.param(
        f'have "a" by simp {_C} show ?thesis by auto',
        [(("have", '"a"'), ("by", "simp"), ()),
         (("show", "?thesis"), ("by", "auto"), (_C,))], (),
        id="comment-before-a-new-step-leads-it"),
    pytest.param(
        f'have {_C} "a" by simp',
        [(("have", _C, '"a"'), ("by", "simp"), ())], (),
        id="comment-inside-a-body"),
    pytest.param(
        f'have "a" {_C} by simp',
        [(("have", '"a"', _C), ("by", "simp"), ())], (),
        id="comment-before-by-stays-in-the-body"),
    pytest.param(
        f"by {_C} simp",
        [((), ("by", _C, "simp"), ())], (),
        id="comment-inside-a-justification"),
    pytest.param(
        f"by simp {_C}",
        [((), ("by", "simp"), ())], (_C,),
        id="comment-at-the-end-trails"),
    pytest.param(
        "by(simp)",
        [((), ("by", "(simp)"), ())], (),
        id="a-keyword-against-its-paren-opens-a-step"),
    pytest.param(
        'have "x" by(simp)',
        [(("have", '"x"'), ("by", "(simp)"), ())], (),
        id="a-keyword-against-its-paren-continues-a-step"),
    pytest.param(
        "proof(induct n)",
        [(("proof", "(induct", "n)"), (), ())], (),
        id="a-delimiter-against-its-paren"),
    pytest.param(
        'have "x" using foo(1) by simp',
        [(("have", '"x"', "using", "foo(1)"), ("by", "simp"), ())], (),
        id="another-word-holding-a-paren-stays-whole"),
])
def test_step_grammar(text, steps, trailing):
    script = parse_script(text)
    assert [(s.tokens, s.just_tokens, s.lead_comments)
            for s in script.steps] == steps
    assert script.trailing_comments == trailing


# Every step keyword, plus words, strings, a comment, a cartouche and a
# theorem header's words.
_SOUP = [*sorted(isar.STEP_KEYWORDS), "x", "-", "?thesis", "(simp add: defs)",
         '"a b"', _C, "‹t›", "lemma", "foo:"]


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(st.sampled_from(_SOUP), min_size=1, max_size=25).map(" ".join))
def test_rendered_keyword_soup_parses_back_to_the_same_script(text):
    script = parse_script(text)
    assert parse_script(render(script)) == script


# ---------------------------------------------------------------------------
# differential: parse_script against a reference parse over reference_tokenize

# The mode a keyword opens, and the keywords each mode takes (see the
# ``isar`` module docstring).
_REF_MODE_OF = {"by": "justifying", "apply": "justifying", "sorry": "closed",
                **dict.fromkeys(isar.GOAL_KEYWORDS, "goal"),
                **dict.fromkeys(isar.CHAIN_KEYWORDS, "chain")}
_REF_CONTINUES = {"goal": isar.FACT_KEYWORDS | {"by", "sorry"},
                  "chain": isar.GOAL_KEYWORDS | isar.CHAIN_KEYWORDS}


def _reference_words(text):
    """reference_tokenize's tokens as (kind, text, offset), with a step
    keyword written against its parenthesis split off as a word of its
    own."""
    for tok in reference_tokenize(text):
        if tok.kind == "word" and "(" in tok.text:
            head = tok.text[:tok.text.index("(")]
            if head in isar.STEP_KEYWORDS:
                yield "word", head, tok.offset
                yield "word", tok.text[len(head):], tok.offset + len(head)
                continue
        yield tok.kind, tok.text, tok.offset


def _reference_parse(text):
    """The step-mode machine, read token by token over the whole text's
    tokens: (preamble, steps as (tokens, just_tokens, lead_comments),
    trailing comments)."""
    if not text or not text.strip():
        raise ParseError("empty proof text")
    preamble = text.strip()
    steps = []
    mode, pending = "closed", []
    for kind, word, offset in list(_reference_words(text)):
        keyword = kind == "word" and word in isar.STEP_KEYWORDS
        if not steps:
            if not keyword:
                continue
            preamble = text[:offset].strip()
        if kind == "comment":
            pending.append(word)
            continue
        if keyword:
            continues = word in _REF_CONTINUES.get(mode, ())
        else:
            continues = mode != "closed"
        if continues:
            body, just, _ = steps[-1]
            (just if mode == "justifying" else body).extend(pending)
        else:
            body, just = [], []
            steps.append((body, just, pending))
            mode = "plain"
        pending = []
        if keyword and not (mode == "goal" and word in isar.FACT_KEYWORDS):
            mode = _REF_MODE_OF.get(word, "plain")
        (just if mode in ("justifying", "closed") else body).append(word)
    return (preamble, [tuple(map(tuple, step)) for step in steps],
            tuple(pending))


def _parsed_or_error(parse, text):
    try:
        result = parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    if isinstance(result, isar.ProofScript):
        return (result.preamble,
                [(s.tokens, s.just_tokens, s.lead_comments)
                 for s in result.steps],
                result.trailing_comments)
    return result


# Keywords, words glued to a parenthesis, strings, comments, cartouches,
# their unterminated openers and stray closers, and whitespace that
# ``str.split`` and ``str.isspace`` agree on beyond ASCII.
_PARSE_PIECES = [
    "proof", "qed", "next", "have", "show", "moreover", "then", "using",
    "by", "apply", "sorry", "fix", "lemma", "x", "-", "?thesis",
    "by(simp)", "proof(induct", "apply(auto", "using(", "foo(1)", "(", ")",
    '"a b"', '"a \\" b"', "(* c *)", "(* (* n *) by *)", "‹t›",
    "\\<open>by\\<close>", '"', "(*", "*)", "‹", "›", "\\<open>", "\\",
    " ", " ", " ", "\n", "\t", "\xa0", "\x1c"]


@settings(max_examples=1000, deadline=None, database=None)
@given(st.lists(st.sampled_from(_PARSE_PIECES), max_size=24).map("".join))
@example("lemma x: by(simp) (* c *)")
@example('have "x" using h(1) by(auto) (* c *) qed(* d *)')
@example('by simp "')
@example(" \xa0\n")
def test_parse_script_agrees_with_the_reference_parse(text):
    assert (_parsed_or_error(parse_script, text)
            == _parsed_or_error(_reference_parse, text))


def test_unbalanced_best_effort():
    script = parse_script("proof - have \"a\" by simp")
    assert not script.balanced
    assert len(script.steps) == 2
    script = parse_script("have \"a\" by simp qed")
    assert not script.balanced


def test_top_level_oops_is_balanced():
    assert parse_script("theorem t: shows \"A\" oops").balanced


# ---------------------------------------------------------------------------
# enclosing_block

def test_innermost_block_golden(golden_proof_body):
    script = parse_script(golden_proof_body)
    assert enclosing_block(script, 3) == (0, 8, 0, 8)


def test_innermost_block_flat_root():
    script = parse_script('have "a" by simp have "b" by simp')
    assert enclosing_block(script, 1) == (0, 1, None, None)


def test_innermost_block_two_levels():
    script = parse_script(
        'proof - have "a" proof - have "b" by m show "c" by m qed qed')
    assert enclosing_block(script, 3) == (2, 5, 2, 5)
    assert enclosing_block(script, 1) == (0, 6, 0, 6)


def test_innermost_block_out_of_range(golden_proof_body):
    script = parse_script(golden_proof_body)
    with pytest.raises(IndexOutOfRange):
        enclosing_block(script, 99)


def test_innermost_block_no_deeper_block_contains():
    rng = random.Random(3)
    for _ in range(50):
        script = parse_script(gen_script_text(rng))
        for index in range(len(script.steps)):
            lo, hi, opener, _ = enclosing_block(script, index)
            assert lo <= index <= hi
            # every block opened inside the region lies clear of the step
            for inner in range(lo, hi + 1):
                if inner != opener and script.steps[inner].head == "proof":
                    inner_lo, inner_hi, _, _ = enclosing_block(script, inner)
                    assert not inner_lo <= index <= inner_hi


# ---------------------------------------------------------------------------
# placeholders

def test_parse_script_marks_no_placeholder_in_a_whole_proof(golden_proof_body):
    assert placeholders(parse_script(golden_proof_body)) == []


def test_parse_script_marks_a_sorry_step_a_placeholder():
    script = parse_script("have A sorry have B by simp")
    assert placeholders(script) == [0]
    assert script.steps[0].is_sorry
    assert script.steps[0].just_tokens == ("sorry",)


def test_parse_script_marks_injected_placeholders():
    rng = random.Random(23)
    for _ in range(50):
        k = rng.randint(0, 3)
        steps, injected = gen_steps(rng, sorry_goals=k)
        script = parse_script(noisy_text(rng, steps))
        assert placeholders(script) == injected


# ---------------------------------------------------------------------------
# splice

def test_splice_replaces_placeholder():
    script = parse_script("have A sorry have B by simp")
    patched = splice(script, 0, script.steps[0].with_justification("by auto"))
    assert placeholders(patched) == []
    assert patched.steps[0].text == "have A by auto"
    # original untouched
    assert placeholders(script) == [0]


def test_splice_identity_round_trips(golden_proof_body):
    script = parse_script(golden_proof_body)
    again = splice(script, 4, script.steps[4])
    assert token_equivalent(render(again), render(script))


def test_splice_span_bookkeeping():
    script = parse_script('proof - have "a" sorry show ?thesis by simp qed')
    replacement = script.steps[1].with_justification("by (metis foo)")
    patched = splice(script, 1, replacement)
    assert render(patched).splitlines()[1] == "  " + replacement.text


def test_splice_locality():
    rng = random.Random(5)
    for _ in range(30):
        script = parse_script(gen_script_text(rng))
        index = rng.randrange(len(script.steps))
        patched = splice(script, index, make_step(just_tokens=("sorry",)))
        for j, (a, b) in enumerate(zip(script.steps, patched.steps)):
            if j != index:
                assert a.text == b.text


def test_step_text_is_the_joined_tokens_however_the_step_was_made():
    def joined(step):
        return " ".join((*step.tokens, *step.just_tokens))

    script = parse_script('proof - have "a" (* c *) sorry show ?thesis by simp qed')
    made = make_step(("have", '"a"', "(* c *)"), ("by", "auto"))
    justified = script.steps[1].with_justification("by auto")
    spliced = splice(script, 1, justified).steps[1]
    replaced = dataclasses.replace(script.steps[1], just_tokens=("by", "auto"))
    for step in (*script.steps, made, justified, spliced, replaced):
        assert step.text == joined(step)
    # The text takes no part in equality: four routes to one step.
    assert made == justified == spliced == replaced
    assert len({hash(s) for s in (made, justified, spliced, replaced)}) == 1
    assert dataclasses.replace(made, tokens=("show", "?thesis")).text == \
        "show ?thesis by auto"


def test_splice_out_of_range():
    script = parse_script("by simp")
    with pytest.raises(IndexOutOfRange):
        splice(script, 5, script.steps[0])


# ---------------------------------------------------------------------------
# truncate_to_block

def test_truncate_golden_keeps_prefix(golden_proof_body):
    script = parse_script(golden_proof_body)
    cut = truncate_to_block(script, 5)
    texts = [s.text for s in cut.steps]
    assert texts[0] == "proof -"
    assert [t.startswith("have") or t.startswith("moreover have")
            for t in texts[1:5]] == [True] * 4
    assert texts[5] == "sorry"
    assert texts[6] == "qed"
    assert cut.balanced


def test_truncate_root_to_single_sorry():
    script = parse_script('have "a" by x have "b" by y')
    assert enclosing_block(script, 0) == (0, 1, None, None)
    cut = truncate_to_block(script, 0)
    assert [s.text for s in cut.steps] == ["sorry"]


def test_truncate_introduces_exactly_one_placeholder():
    rng = random.Random(13)
    for _ in range(50):
        steps, _ = gen_steps(rng, sorry_goals=0)
        script = parse_script("\n".join(steps))
        index = rng.randrange(len(script.steps))
        cut = truncate_to_block(script, index)
        before = set(placeholders(script))
        after = placeholders(cut)
        # prefix placeholders survive unchanged; exactly one new one at the cut
        assert index in after
        assert len([p for p in after if p >= index]) == 1
        assert all(p in before for p in after if p < index)


def test_truncate_preserves_outer_content():
    script = parse_script(
        'proof - have "a" proof - have "b" by m show "c" by m qed '
        'show ?thesis by final qed')
    cut = truncate_to_block(script, 4)
    texts = [s.text for s in cut.steps]
    assert texts == ["proof -", 'have "a"', "proof -", 'have "b" by m',
                     "sorry", "qed", "show ?thesis by final", "qed"]


# ---------------------------------------------------------------------------
# next as sibling boundary

def test_next_segments_are_sibling_blocks():
    script = parse_script("proof (induct n) case 0 show ?case by simp "
                          "next case (Suc n) then show ?case by simp qed")
    # the delimiters, `next` included, belong to the block itself
    for index in (0, 3, 6):
        assert enclosing_block(script, index) == (0, 6, 0, 6)
    # the steps between them form two segments without delimiters
    for index in (1, 2):
        assert enclosing_block(script, index) == (1, 2, None, None)
    for index in (4, 5):
        assert enclosing_block(script, index) == (4, 5, None, None)


# Structural heads, goal steps and plain steps.  Unlike ``gen_steps``, a list
# of them freely yields empty ``next`` segments, unclosed blocks and
# top-level ``qed``/``oops``.
_HEADS = ["proof -", "qed", "oops", "next", "sorry", 'have "g"',
          'have "g" by simp', "show ?thesis by auto", "fix x", "by auto"]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(_HEADS), min_size=1, max_size=24))
@example(["proof -", 'have "g" by simp', 'have "g" by simp', 'have "g"',
          "proof -", "next", "show ?thesis by auto", "qed",
          "show ?thesis by auto", "qed"])
def test_enclosing_block_and_cut_invariants(lines):
    script = parse_script("\n".join(lines))
    steps = script.steps
    for index in range(len(steps)):
        lo, hi, opener, closer = enclosing_block(script, index)
        assert lo <= index <= hi
        assert opener is None or lo == opener
        assert closer is None or hi == closer
        cut = truncate_to_block(script, index)
        assert cut.steps[:index] == steps[:index]
        assert cut.steps[index].is_sorry
        after = steps[hi + 1:]
        assert cut.steps[len(cut.steps) - len(after):] == after
        if script.balanced:
            assert cut.balanced


# ---------------------------------------------------------------------------
# extraction helpers

def test_unwrap_full_proof_comment(golden_proof_wrapped, golden_proof_body):
    inner = unwrap_proof_comment(golden_proof_wrapped)
    assert token_equivalent(inner, golden_proof_body)


def test_extract_from_fence():
    response = "Sure:\n```isabelle\nproof -\n show ?thesis by simp\nqed\n```"
    assert extract_proof_text(response).startswith("proof -")


def test_extract_bare_span_from_prose():
    response = "The answer is proof - show ?thesis by simp qed as required."
    assert extract_proof_text(response) == "proof - show ?thesis by simp qed"


def test_extract_plain_response_passthrough():
    assert extract_proof_text("by auto") == "by auto"


def test_extract_keeps_a_comment_that_holds_no_step_keyword():
    # neither a proof to unwrap nor a word to read: the text is the answer
    assert extract_proof_text("(* a remark *)") == "(* a remark *)"


def test_unwrap_stops_after_four_comment_levels():
    wrapped = "(* " * 5 + "by simp" + " *)" * 5
    assert unwrap_proof_comment(wrapped) == "(* by simp *)"
    assert extract_proof_text(wrapped) == "(* by simp *)"


# Prose, comments, fences and proof words, some unterminated.
_EXTRACT_PIECES = ["proof", "-", "qed", "oops", "have", "by", "simp", "The",
                   "answer", "(*", "*)", '"', '"x"', "\\<open>", "‹", "›",
                   " ", "\n", "```isabelle\n", "```"]


def _full_scan(text):
    """The reference tokenizer, which reads (and fails on) the whole text
    before it yields the first token."""
    yield from reference_tokenize(text)


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(st.sampled_from(_EXTRACT_PIECES), max_size=20).map("".join))
@example('proof - have "x')
@example('(* by simp *) "x"')
@example('(* proof *) (* qed')
def test_extraction_agrees_with_a_full_scan(text):
    lazy = (extract_proof_text(text), unwrap_proof_comment(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isar, "_tokens", _full_scan)
        assert (extract_proof_text(text), unwrap_proof_comment(text)) == lazy


def test_strip_terminal_marker(golden_statement):
    stripped = strip_terminal_marker(golden_statement)
    assert not stripped.rstrip().endswith("oops")
    assert "theorem ec2_policy_correctness:" in stripped
    assert strip_terminal_marker("lemma x: \"A\" sorry").endswith('"A"')


def _strip_by_tokenizing(statement):
    """``strip_terminal_marker`` read the slow way: every token, trailing
    comments dropped, then the last word."""
    try:
        tokens = reference_tokenize(statement)
    except ParseError:
        return statement.strip()
    while tokens and tokens[-1].kind == "comment":
        tokens.pop()
    if tokens and tokens[-1].kind == "word" and tokens[-1].text in ("oops",
                                                                    "sorry"):
        return statement[: tokens[-1].offset].rstrip()
    return statement.strip()


# Words, strings (escapes included), comments, cartouches and the markers,
# whole and in pieces, so that a marker also lands inside an atom, glued to
# one, or after an unterminated one.
_MARKER_PIECES = ["oops", "sorry", "xoops", "sorryx", "by", "simp", "(a",
                  '"P"', '"oops"', '"a \\" oops"', '"', "\\",
                  "(* c *)", "(* oops *)", "(* (* n *) sorry *)", "(*", "*)",
                  "‹oops›", "\\<open>sorry\\<close>", "‹", "›", "\\<open>",
                  " ", "\n", "\xa0"]


@settings(max_examples=1000, deadline=None, database=None)
@given(st.lists(st.sampled_from(_MARKER_PIECES), max_size=12).map("".join))
@example('"x"oops')
@example('lemma "A" oops (* done *)')
@example('"a \\" oops')
@example("‹a oops")
def test_strip_terminal_marker_agrees_with_tokenizing(text):
    assert strip_terminal_marker(text) == _strip_by_tokenizing(text)


def test_slice_steps(golden_proof_body):
    script = parse_script(golden_proof_body)
    head = slice_steps(script, 3)
    assert len(head.steps) == 3
    assert not head.balanced
