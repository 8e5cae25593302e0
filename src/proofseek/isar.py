"""Structural analysis of Isar proof scripts.

A script is a flat, immutable sequence of steps.  A step is one outer-syntax
command together with any chained prefix (``moreover have ... by simp`` is
one step) and its terminal justification (``by ...`` or ``sorry``).  Nothing
stores the block structure: it is read off the step heads when needed.  Only
``proof``/``qed``/``oops`` delimit blocks; ``next`` separates sibling
segments inside a block (``enclosing_block``).

``parse_script`` reads the tokens left to right, and the open step is in one
of five modes:

* ``plain``: a command's body (``fix x``, ``proof -``); it takes no keyword;
* ``chain``: after a chaining keyword (``moreover``, ``then``, ``using``, …);
  it takes a goal keyword or another chaining keyword;
* ``goal``: a stated goal (``have``, ``show``, …); it takes ``by``, ``sorry``
  and the fact modifiers ``using``, ``unfolding`` and ``supply``;
* ``justifying``: after ``by`` or ``apply``;
* ``closed``: after ``sorry``, or no step open yet.

A step keyword written against its parenthesis (``by(simp)``) is read as
the keyword followed by the rest of the word.  A keyword the mode does not
take opens a new step, and that keyword alone fixes the new step's mode; a
block delimiter never continues a step.  Other words extend the body, or the
justification when justifying, and open a plain step after a closed one.  A
comment waits for the next token: it leads the step that token opens or
joins the step it continues, and comments left at the end trail the script.

Atoms are read by one compiled ``re`` scanner (``_SCANNER``) rather than a
loop over characters; each character can match it only one way, so reading
stays linear in the text.  ``parse_script`` reads the scanner's matches in
its own loop and builds no token objects: each atom's text goes straight
into its step, and a keyword against its parenthesis is cut off by reading
the rest of the word again.  ``tokenize`` returns the same atoms as
``Token``s, a ``NamedTuple`` (kind, text, offset): immutable and equal by
value, and cheap to build.

The parser is structural, not semantic: quoted strings, cartouches, and
``(* ... *)`` comments are atomic tokens, unknown commands still form steps,
and imbalance yields a script with ``ProofScript.balanced == False`` instead
of an error.  Semantic validity is the prover's job.

Equality of two script texts is judged token-wise: ``token_equivalent`` treats
any two texts with identical whitespace-separated token sequences as the same
script.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import IndexOutOfRange, ParseError

__all__ = [
    "ProofScript",
    "Step",
    "Token",
    "enclosing_block",
    "extract_proof_text",
    "make_step",
    "parse_script",
    "render",
    "slice_steps",
    "splice",
    "strip_terminal_marker",
    "token_equivalent",
    "tokenize",
    "truncate_to_block",
    "unwrap_proof_comment",
    "with_steps",
]


# ---------------------------------------------------------------------------
# tokens

class Token(NamedTuple):
    kind: str  # "word" | "string" | "cartouche" | "comment"
    text: str
    offset: int


# One token from the cursor: leading whitespace, then one atom.  Comments and
# cartouches nest, so only their openers are matched here.  A lone quote is a
# string that never closes.  A word runs to whitespace, a quote, or the
# opener of a comment or cartouche.  ``\s`` is ``str.isspace`` on every code
# point, so whitespace means what it means to ``str.split``.
_SCANNER = re.compile(r"""\s*(?:
    (?P<string>"[^"\\]*(?:\\.[^"\\]*)*")
  | (?P<quote>")
  | (?P<comment>\(\*)
  | (?P<cartouche>\\<open>|‹)
  | (?P<word>(?:[^\s"(\\‹]+|\((?!\*)|\\(?!<open>))+)
)?""", re.S | re.X)

# Fences of the nesting atoms; group 1 is an opener.
_FENCES = {
    "comment": re.compile(r"(\(\*)|\*\)"),
    "cartouche": re.compile(r"(\\<open>|‹)|\\<close>|›"),
}


def _close_nested(text: str, kind: str, start: int, pos: int) -> int:
    """End of the comment or cartouche opened at ``start``, whose opener ends
    at ``pos``: fences are read left to right, openers counting up."""
    depth = 1
    for fence in _FENCES[kind].finditer(text, pos):
        depth += 1 if fence.lastindex else -1
        if not depth:
            return fence.end()
    raise ParseError(f"unterminated {kind}", text, start)


def tokenize(text: str) -> list[Token]:
    """Split text into atomic tokens.

    Comments, quoted strings, and cartouches are single tokens preserved
    verbatim (including internal whitespace); everything else splits on
    whitespace.  Raises ParseError on unterminated strings, comments, or
    cartouches.

    One compiled scanner (``_SCANNER``) reads each token at the cursor, and
    a nested comment or cartouche is closed by counting depth over its
    fences, so no Python code runs per character.  Both are linear in the
    text: a character of a string matches only one way (``\\.`` takes the
    one after a backslash), and nothing follows the word group, so the scanner
    never backtracks into a token.
    """
    return list(_tokens(text))


def _tokens(text: str, i: int = 0) -> Iterator[Token]:
    """``tokenize``'s tokens one at a time, from offset ``i`` on: a caller
    that needs only the first few reads no further, and meets a ParseError
    only if it reads up to the fault."""
    match = _SCANNER.match
    while True:
        m = match(text, i)
        kind = m.lastgroup
        if kind is None:
            return
        start, i = m.span(kind)
        if kind == "quote":
            raise ParseError("unterminated string", text, start)
        if kind in _FENCES:
            i = _close_nested(text, kind, start, i)
        yield Token(kind, text[start:i], start)


def token_equivalent(a: str, b: str) -> bool:
    """Whitespace-insensitive equality: identical token sequences."""
    return a.split() == b.split()


# ---------------------------------------------------------------------------
# steps

# Commands that may open a step.  Unknown commands still parse as steps;
# this set is what separates one step from the next.
STEP_KEYWORDS = frozenset(
    {
        "proof", "qed", "oops", "next", "have", "show", "moreover", "ultimately",
        "then", "thus", "hence", "by", "apply", "sorry", "done", "let", "fix",
        "assume", "obtain", "using", "unfolding", "supply", "from", "with",
        "note", "also", "finally", "case", "presume", "define", "consider",
        "subgoal", "prefer", "defer", "include", "including", "interpret",
        "guess", "write",
    }
)

# Steps expecting a terminal justification (`by`/`sorry`) once stated.
GOAL_KEYWORDS = frozenset({"have", "show", "obtain", "thus", "hence", "consider", "subgoal"})

# Chaining prefixes that absorb a following goal command into the same step.
CHAIN_KEYWORDS = frozenset(
    {"moreover", "ultimately", "then", "also", "finally", "from", "with", "note",
     "using", "unfolding", "supply"}
)

# Fact modifiers that may sit between a stated goal and its justification.
FACT_KEYWORDS = frozenset({"using", "unfolding", "supply"})

# The mode of a step a keyword opens; any other keyword opens a plain step.
_MODE_OF = {"by": "justifying", "apply": "justifying", "sorry": "closed",
            **dict.fromkeys(GOAL_KEYWORDS, "goal"),
            **dict.fromkeys(CHAIN_KEYWORDS, "chain")}

# The keywords that continue an open step, by its mode: a goal takes its
# justification and fact modifiers, a chain its goal or more chaining.
_CONTINUES = {"goal": FACT_KEYWORDS | {"by", "sorry"},
              "chain": GOAL_KEYWORDS | CHAIN_KEYWORDS}


@dataclass(frozen=True)
class Step:
    """One Isar command with its chained prefix and terminal justification.

    ``tokens`` hold the body (including any interleaved comments); the
    justification tokens are kept separate so it can be rewritten without
    re-parsing.  ``text``, the body and justification tokens joined by
    single spaces, is set once at construction (``dataclasses.replace``
    sets it anew) and takes no part in equality, hashing or the repr.
    """

    tokens: tuple[str, ...]
    just_tokens: tuple[str, ...] = ()
    lead_comments: tuple[str, ...] = ()
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text",
                           " ".join((*self.tokens, *self.just_tokens)))

    @property
    def body_text(self) -> str:
        return " ".join(self.tokens)

    @property
    def head(self) -> str:
        if self.tokens:
            return self.tokens[0]
        return self.just_tokens[0] if self.just_tokens else ""

    @property
    def is_sorry(self) -> bool:
        return self.just_tokens[:1] == ("sorry",)

    def with_justification(self, justification: str) -> "Step":
        """Return this step with its terminal justification replaced.

        ``justification`` is e.g. ``"by auto"`` or ``"sorry"``.  Steps whose
        whole content is a justification (bare ``by ...``/``apply ...``/
        ``sorry``) are replaced outright.
        """
        return make_step(self.tokens, tuple(justification.split()),
                         lead_comments=self.lead_comments)


def make_step(
    tokens: tuple[str, ...] = (),
    just_tokens: tuple[str, ...] = (),
    lead_comments: tuple[str, ...] = (),
) -> Step:
    if not tokens and not just_tokens:
        raise ValueError("a step needs at least one token")
    return Step(tuple(tokens), tuple(just_tokens), tuple(lead_comments))


SORRY_STEP = make_step(just_tokens=("sorry",))


# ---------------------------------------------------------------------------
# scripts

OPENER = "proof"
CLOSERS = ("qed", "oops")
# Block delimiters: a step with one of these heads opens, closes or splits a
# block and takes no justification.
DELIMITERS = frozenset({OPENER, *CLOSERS, "next"})


@dataclass(frozen=True)
class ProofScript:
    """Immutable parsed proof: preamble text and flat steps."""

    preamble: str
    steps: tuple[Step, ...]
    trailing_comments: tuple[str, ...] = ()

    def step_at(self, step_index: int) -> Step:
        if not 0 <= step_index < len(self.steps):
            raise IndexOutOfRange(f"step index {step_index} out of range "
                                  f"(script has {len(self.steps)} steps)")
        return self.steps[step_index]

    @property
    def text(self) -> str:
        return render(self)

    @property
    def balanced(self) -> bool:
        """Every ``proof`` is closed and every ``qed`` closes one.  A
        top-level ``oops`` legitimately abandons the statement's goal."""
        depth = 0
        for step in self.steps:
            head = step.head
            if head == OPENER:
                depth += 1
            elif head in CLOSERS and depth:
                depth -= 1
            elif head == "qed":
                return False
        return depth == 0


# ---------------------------------------------------------------------------
# parsing

def parse_script(text: str) -> ProofScript:
    """Parse proof text into a ProofScript.

    Any text before the first recognized command (a theorem/lemma header,
    say) becomes the preamble, kept verbatim.  Unbalanced proof/qed structure
    still parses, into a script whose ``balanced`` is False.
    """
    if not text or not text.strip():
        raise ParseError("empty proof text")
    preamble = text.strip()
    steps: list[tuple[list[str], list[str], list[str]]] = []  # body, just, lead
    body: list[str] = []  # the open step's body and justification
    just: list[str] = []
    mode, pending = "closed", []
    match = _SCANNER.match
    pos = 0
    while (m := match(text, pos)).lastgroup is not None:
        kind = m.lastgroup
        start, pos = m.span(kind)
        if kind == "word":
            word = text[start:pos]
            if "(" in word:
                # a step keyword against its parenthesis (``by(simp)``, valid
                # Isar) is a word of its own; the rest is read again
                head = word[:word.index("(")]
                if head in STEP_KEYWORDS:
                    word, pos = head, start + len(head)
            keyword = word in STEP_KEYWORDS
        else:
            if kind == "quote":
                raise ParseError("unterminated string", text, start)
            if kind in _FENCES:
                pos = _close_nested(text, kind, start, pos)
            word, keyword = text[start:pos], False
        if not steps:  # the preamble runs up to the first step keyword
            if not keyword:
                continue
            preamble = text[:start].strip()
        if kind == "comment":
            pending.append(word)
            continue
        if keyword:
            continues = word in _CONTINUES.get(mode, ())
        else:
            continues = mode != "closed"
        if not continues:
            body, just = [], []
            steps.append((body, just, pending))
            mode, pending = "plain", []
        elif pending:
            (just if mode == "justifying" else body).extend(pending)
            pending = []
        # a fact modifier leaves a goal stated; any other keyword sets its mode
        if keyword and not (mode == "goal" and word in FACT_KEYWORDS):
            mode = _MODE_OF.get(word, "plain")
        (just if mode in ("justifying", "closed") else body).append(word)
    return ProofScript(preamble, tuple(Step(tuple(body), tuple(just),
                                            tuple(lead))
                                       for body, just, lead in steps),
                       tuple(pending))


# ---------------------------------------------------------------------------
# rendering

def render(script: ProofScript) -> str:
    """Canonical text: preamble verbatim, one step per line, tokens
    single-spaced, nesting indented two spaces per depth."""
    lines = script.preamble.splitlines()
    depth = 0
    for step in script.steps:
        head = step.head
        if head in CLOSERS and depth:
            depth -= 1
        indent = "  " * depth
        lines.extend(indent + comment for comment in step.lead_comments)
        lines.append(indent + step.text)
        if head == OPENER:
            depth += 1
    lines.extend(script.trailing_comments)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# structural operations

def enclosing_block(script: ProofScript, step_index: int
                    ) -> tuple[int, int, Optional[int], Optional[int]]:
    """The innermost block containing the step, as ``(lo, hi, opener,
    closer)`` step indices with ``lo <= step_index <= hi``.

    A ``proof`` step belongs to the block it opens and a ``qed``/``oops`` to
    the block it closes.  ``opener`` is None at top level; ``closer`` is None
    there and for an unclosed block, which then runs to the last step.  When
    the block has ``next`` separators and the step is not one of its
    delimiters, the result narrows to the step's segment, which has neither
    opener nor closer.
    """
    script.step_at(step_index)
    steps = script.steps
    # Per step: the opener of the innermost block it belongs to.
    owners: list[Optional[int]] = []
    stack: list[int] = []
    for index, step in enumerate(steps):
        if step.head == OPENER:
            stack.append(index)
            owners.append(index)
        elif step.head in CLOSERS and stack:
            owners.append(stack.pop())
        else:
            owners.append(stack[-1] if stack else None)
    opener = owners[step_index]
    members = [j for j, owner in enumerate(owners)
               if owner == opener and j != opener]
    closer = None
    if opener is not None and members and steps[members[-1]].head in CLOSERS:
        closer = members[-1]
    lo = 0 if opener is None else opener
    hi = len(steps) - 1 if closer is None else closer
    separators = [j for j in members if steps[j].head == "next"]
    if not separators or step_index in (opener, closer, *separators):
        return lo, hi, opener, closer
    # Segments lie strictly between fences: the delimiters and separators.
    fences = [lo - 1 if opener is None else lo, *separators,
              hi + 1 if closer is None else hi]
    return (max(j for j in fences if j < step_index) + 1,
            min(j for j in fences if j > step_index) - 1, None, None)


def splice(script: ProofScript, step_index: int,
           replacement: Step) -> ProofScript:
    """Replace the addressed step with ``replacement``, returning a new
    script."""
    script.step_at(step_index)
    return with_steps(script, [*script.steps[:step_index], replacement,
                               *script.steps[step_index + 1:]])


def slice_steps(script: ProofScript, end: int) -> ProofScript:
    """Script consisting of the first ``end`` steps."""
    if not 0 <= end <= len(script.steps):
        raise IndexOutOfRange(f"slice end {end} out of range")
    return with_steps(script, script.steps[:end])


def with_steps(script: ProofScript, steps: Sequence[Step]) -> ProofScript:
    """New script with this step sequence (preamble kept)."""
    return replace(script, steps=tuple(steps))


def truncate_to_block(script: ProofScript, step_index: int) -> ProofScript:
    """Drop the content of the step's enclosing block (``enclosing_block``)
    from the step on and re-close it with a sorry placeholder, keeping the
    block's closer and everything after the block.  At the block's opener
    the whole block collapses into the placeholder."""
    _, hi, opener, closer = enclosing_block(script, step_index)
    keep_from = hi + 1 if closer is None or step_index == opener else closer
    return with_steps(script, [*script.steps[:step_index], SORRY_STEP,
                               *script.steps[keep_from:]])


# ---------------------------------------------------------------------------
# proof extraction from model responses

_FENCE_RE = re.compile(r"```[ \t]*[A-Za-z0-9_+-]*[ \t]*\n(.*?)```", re.S)


def unwrap_proof_comment(text: str) -> str:
    """If the text is nothing but comments, return the body of the comment
    that actually carries a proof (whole proofs often arrive comment-wrapped).
    The scan stops at the first token that is no comment."""
    for _ in range(4):  # comments may nest a wrapped proof once more
        if not text.lstrip().startswith("(*"):
            return text  # empty, or its first token is no comment
        candidates = []
        try:
            for token in _tokens(text):
                if token.kind != "comment":
                    return text
                candidates.append(token.text[2:-2].strip())
        except ParseError:
            return text
        with_proof = [c for c in candidates
                      if any(w in STEP_KEYWORDS for w in c.split())]
        if not with_proof:
            return text
        text = with_proof[-1]
    return text


# What a word cannot run into: the opener of a string, comment or cartouche.
_ATOM_OPENER = re.compile(r'"|\(\*|\\<open>|‹')
_MARKERS = ("oops", "sorry")


def _words_from(text: str) -> int:
    """Where the text's last string, comment or cartouche ends, or 0: after
    it come only words and whitespace.  Each atom is read as ``tokenize``
    reads it, so this raises ParseError where tokenizing would."""
    end = 0
    while (opener := _ATOM_OPENER.search(text, end)) is not None:
        atom = next(_tokens(text, opener.start()))
        end = atom.offset + len(atom.text)
    return end


def strip_terminal_marker(statement: str) -> str:
    """Drop a trailing ``oops``/``sorry`` from a statement so a proof can be
    attempted in its place.

    Only a text that ends in one of those words, or in a comment (``*)``),
    can have one as its last word, so no other text is tokenized; and one
    that ends in a word is read atom by atom, not token by token."""
    text = statement.rstrip()
    try:
        if text.endswith("*)"):
            tokens = tokenize(text)
            while tokens and tokens[-1].kind == "comment":
                tokens.pop()
            last = tokens[-1] if tokens and tokens[-1].kind == "word" else None
        elif text.endswith(_MARKERS):
            word = text[_words_from(text):].split()[-1]
            last = Token("word", word, len(text) - len(word))
        else:
            last = None
    except ParseError:
        return statement.strip()
    if last is not None and last.text in _MARKERS:
        return text[: last.offset].rstrip()
    return statement.strip()


def extract_proof_text(response: str) -> str:
    """Pull the proof out of a model response.

    Recognizes, in priority order: fenced code blocks, comment-wrapped
    proofs, bare ``proof ... qed`` spans embedded in prose.  Falls back to
    the stripped response.  A text whose first word is a step keyword, the
    usual case, is returned once that word is read.
    """
    text = response.strip()
    match = _FENCE_RE.search(text)
    if match:
        text = match.group(1).strip()
    text = unwrap_proof_comment(text).strip()
    scan = (t for t in _tokens(text) if t.kind == "word")
    try:
        first = next(scan, None)
        if first is None or first.text in STEP_KEYWORDS:
            return text
        words = [first, *scan]
    except ParseError:
        return text
    # Prose around a bare proof...qed span: slice out the span.
    for i, tok in enumerate(words):
        if tok.text == OPENER:
            depth = 0
            end = len(text)
            for later in words[i:]:
                if later.text == OPENER:
                    depth += 1
                elif later.text in CLOSERS:
                    depth -= 1
                    if depth == 0:
                        end = later.offset + len(later.text)
                        break
            return text[tok.offset:end].strip()
    return text
