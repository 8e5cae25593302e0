"""Structural analysis of Isar proof scripts.

Scripts are modeled as a flat, immutable sequence of steps plus a block tree
over step indices.  A step is one outer-syntax command together with any
chained prefix (``moreover have ... by simp`` is one step) and its terminal
justification (``by ...`` or ``sorry``).  Only ``proof``/``qed``/``oops``
delimit blocks; ``next`` marks sibling segments inside a block.

The parser is structural, not semantic: quoted strings, cartouches, and
``(* ... *)`` comments are atomic tokens, unknown commands map to
``StepKind.OTHER``, and imbalance produces a best-effort tree with
``ProofScript.balanced == False`` instead of an error.  Semantic validity is
the prover's job.

Equality of two script texts is judged token-wise: ``token_equivalent`` treats
any two texts with identical whitespace-separated token sequences as the same
script.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

from .errors import IndexOutOfRange, ParseError

__all__ = [
    "Block",
    "BlockRef",
    "ProofScript",
    "Step",
    "StepKind",
    "Token",
    "extract_proof_text",
    "find_placeholders",
    "innermost_block",
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

CARTOUCHE_OPEN = ("\\<open>", "‹")
CARTOUCHE_CLOSE = ("\\<close>", "›")


@dataclass(frozen=True)
class Token:
    kind: str  # "word" | "string" | "cartouche" | "comment"
    text: str
    line: int
    column: int
    offset: int


def _startswith_any(text: str, pos: int, needles: tuple[str, ...]) -> Optional[str]:
    for needle in needles:
        if text.startswith(needle, pos):
            return needle
    return None


def tokenize(text: str) -> list[Token]:
    """Split text into atomic tokens.

    Comments, quoted strings, and cartouches are single tokens preserved
    verbatim (including internal whitespace); everything else splits on
    whitespace.  Raises ParseError on unterminated strings, comments, or
    cartouches.
    """
    tokens: list[Token] = []
    i, n = 0, len(text)
    line, col = 1, 1

    def advance(span: str) -> None:
        nonlocal line, col
        newlines = span.count("\n")
        if newlines:
            line += newlines
            col = len(span) - span.rfind("\n")
        else:
            col += len(span)

    while i < n:
        ch = text[i]
        if ch.isspace():
            advance(ch)
            i += 1
            continue
        start, start_line, start_col = i, line, col
        if text.startswith("(*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("(*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*)", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            if depth:
                raise ParseError("unterminated comment", start_line, start_col)
            kind = "comment"
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            j += 1
            kind = "string"
        elif _startswith_any(text, i, CARTOUCHE_OPEN):
            depth, j = 1, i + len(_startswith_any(text, i, CARTOUCHE_OPEN))
            while j < n and depth:
                opener = _startswith_any(text, j, CARTOUCHE_OPEN)
                closer = _startswith_any(text, j, CARTOUCHE_CLOSE)
                if opener:
                    depth, j = depth + 1, j + len(opener)
                elif closer:
                    depth, j = depth - 1, j + len(closer)
                else:
                    j += 1
            if depth:
                raise ParseError("unterminated cartouche", start_line, start_col)
            kind = "cartouche"
        else:
            j = i
            while (
                j < n
                and not text[j].isspace()
                and text[j] != '"'
                and not text.startswith("(*", j)
                and not _startswith_any(text, j, CARTOUCHE_OPEN)
            ):
                j += 1
            kind = "word"
        span = text[i:j]
        tokens.append(Token(kind, span, start_line, start_col, start))
        advance(span)
        i = j
    return tokens


def token_equivalent(a: str, b: str) -> bool:
    """Whitespace-insensitive equality: identical token sequences."""
    return a.split() == b.split()


# ---------------------------------------------------------------------------
# steps

class StepKind(str, Enum):
    HAVE = "have"
    SHOW = "show"
    MOREOVER = "moreover"
    ULTIMATELY = "ultimately"
    THEN = "then"
    THUS = "thus"
    HENCE = "hence"
    BY = "by"
    APPLY = "apply"
    SORRY = "sorry"
    LET = "let"
    FIX = "fix"
    ASSUME = "assume"
    OBTAIN = "obtain"
    USING = "using"
    QED = "qed"
    PROOF = "proof"
    OTHER = "other"


_KIND_BY_WORD = {k.value: k for k in StepKind if k is not StepKind.OTHER}

# Commands that may open a step.  Unknown commands still parse (as OTHER);
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


@dataclass(frozen=True)
class Step:
    """One Isar command with its chained prefix and terminal justification.

    ``tokens`` hold the body (including any interleaved comments); the
    justification tokens are kept separate so it can be rewritten without
    re-parsing.  ``kind`` is SORRY exactly when the terminal justification is
    the literal keyword ``sorry``.
    """

    kind: StepKind
    tokens: tuple[str, ...]
    just_tokens: tuple[str, ...] = ()
    lead_comments: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        return " ".join((*self.tokens, *self.just_tokens))

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
        return self.kind is StepKind.SORRY

    @property
    def terminal_tactic(self) -> Optional[str]:
        """Method of a terminal ``by``/``apply``, e.g. ``simp add: defs``."""
        toks = self.just_tokens
        if len(toks) >= 2 and toks[0] in ("by", "apply"):
            method = " ".join(toks[1:])
            if method.startswith("(") and method.endswith(")"):
                method = method[1:-1].strip()
            return method or None
        return None

    def with_justification(self, justification: str) -> "Step":
        """Return this step with its terminal justification replaced.

        ``justification`` is e.g. ``"by auto"`` or ``"sorry"``.  Steps whose
        whole content is a justification (bare ``by ...``/``apply ...``/
        ``sorry``) are replaced outright.
        """
        return make_step(self.tokens, tuple(justification.split()),
                         lead_comments=self.lead_comments)


def _kind_for(tokens: tuple[str, ...], just_tokens: tuple[str, ...]) -> StepKind:
    if just_tokens and just_tokens[0] == "sorry":
        return StepKind.SORRY
    for tok in tokens:
        if not tok.startswith("(*"):
            return _KIND_BY_WORD.get(tok, StepKind.OTHER)
    if just_tokens:
        return _KIND_BY_WORD.get(just_tokens[0], StepKind.OTHER)
    return StepKind.OTHER


def make_step(
    tokens: tuple[str, ...] = (),
    just_tokens: tuple[str, ...] = (),
    lead_comments: tuple[str, ...] = (),
) -> Step:
    if not tokens and not just_tokens:
        raise ValueError("a step needs at least one token")
    return Step(_kind_for(tuple(tokens), tuple(just_tokens)), tuple(tokens),
                tuple(just_tokens), tuple(lead_comments))


SORRY_STEP = make_step(just_tokens=("sorry",))


# ---------------------------------------------------------------------------
# blocks

@dataclass(frozen=True)
class Block:
    """A proof block: opener/closer step indices and ordered children.

    ``opener`` is None for the virtual root and for ``next``-separated sibling
    segments; ``closer`` is None when the block is unclosed or virtual.
    Children are step indices or nested Blocks, in source order.
    """

    opener: Optional[int]
    children: tuple[Union[int, "Block"], ...]
    closer: Optional[int]

    def span(self) -> tuple[int, int]:
        lo = hi = None
        if self.opener is not None:
            lo = self.opener
        for child in self.children:
            c_lo, c_hi = (child.span() if isinstance(child, Block) else (child, child))
            lo = c_lo if lo is None else min(lo, c_lo)
            hi = c_hi if hi is None else max(hi, c_hi)
        if self.closer is not None:
            hi = self.closer if hi is None else max(hi, self.closer)
            lo = self.closer if lo is None else lo
        if lo is None:
            return (0, -1)  # empty block
        return (lo, hi if hi is not None else lo)

    def contains(self, step_index: int) -> bool:
        lo, hi = self.span()
        return lo <= step_index <= hi


@dataclass(frozen=True)
class BlockRef:
    """Path of child indices from the root block."""

    path: tuple[int, ...] = ()

    def resolve(self, script: "ProofScript") -> Block:
        node = script.root
        for idx in self.path:
            if not isinstance(node, Block) or idx >= len(node.children):
                raise IndexOutOfRange(f"block path {self.path} does not resolve")
            node = node.children[idx]
        if not isinstance(node, Block):
            raise IndexOutOfRange(f"block path {self.path} addresses a step")
        return node


@dataclass(frozen=True)
class ProofScript:
    """Immutable parsed proof: preamble text, flat steps, block tree."""

    preamble: str
    steps: tuple[Step, ...]
    root: Block
    balanced: bool = True
    trailing_comments: tuple[str, ...] = ()

    def step_at(self, step_index: int) -> Step:
        if not 0 <= step_index < len(self.steps):
            raise IndexOutOfRange(f"step index {step_index} out of range "
                                  f"(script has {len(self.steps)} steps)")
        return self.steps[step_index]

    @property
    def text(self) -> str:
        return render(self)


# ---------------------------------------------------------------------------
# parsing

class _StepBuilder:
    __slots__ = ("tokens", "just", "lead", "goal_pending", "chain_open",
                 "justifying", "closed")

    def __init__(self, lead: list[str]):
        self.tokens: list[str] = []
        self.just: list[str] = []
        self.lead = lead
        self.goal_pending = False
        self.chain_open = False
        self.justifying = False
        self.closed = False

    def build(self) -> Step:
        return make_step(tuple(self.tokens), tuple(self.just), tuple(self.lead))


def _split_preamble(tokens: list[Token]) -> tuple[list[Token], list[Token]]:
    for i, tok in enumerate(tokens):
        if tok.kind == "word" and tok.text in STEP_KEYWORDS:
            return tokens[:i], tokens[i:]
    return tokens, []


def parse_script(text: str) -> ProofScript:
    """Parse proof text into a ProofScript.

    Any text before the first recognized command (a theorem/lemma header,
    say) becomes the preamble, kept verbatim.  Unbalanced proof/qed structure
    yields a best-effort tree with ``balanced=False``.
    """
    if not text or not text.strip():
        raise ParseError("empty proof text")
    tokens = tokenize(text)
    pre_tokens, body_tokens = _split_preamble(tokens)
    preamble = ""
    body_start = 0
    if pre_tokens:
        body_start = body_tokens[0].offset if body_tokens else len(text)
        preamble = text[: body_start].strip()

    steps: list[Step] = []
    current: Optional[_StepBuilder] = None
    pending_comments: list[str] = []

    def flush() -> None:
        nonlocal current
        if current is not None:
            steps.append(current.build())
            current = None

    def open_step() -> None:
        nonlocal current
        flush()
        current = _StepBuilder(pending_comments[:])
        pending_comments.clear()

    def drain_into_body() -> None:
        current.tokens.extend(pending_comments)
        pending_comments.clear()

    for tok in body_tokens:
        if tok.kind == "comment":
            pending_comments.append(tok.text)
            continue
        word = tok.text if tok.kind == "word" else None
        is_keyword = word is not None and word in STEP_KEYWORDS

        if is_keyword and word in ("proof", "qed", "oops", "next"):
            open_step()
            current.tokens.append(word)
            continue

        if is_keyword and current is not None and not current.closed:
            if current.goal_pending and word == "by":
                drain_into_body()
                current.justifying = True
                current.goal_pending = False
                current.just.append(word)
                continue
            if current.goal_pending and word == "sorry":
                drain_into_body()
                current.goal_pending = False
                current.just.append(word)
                current.closed = True
                continue
            if current.goal_pending and word in FACT_KEYWORDS:
                drain_into_body()
                current.tokens.append(word)
                continue
            if current.chain_open and word in GOAL_KEYWORDS:
                drain_into_body()
                current.tokens.append(word)
                current.goal_pending = True
                current.chain_open = False
                continue
            if current.chain_open and word in CHAIN_KEYWORDS:
                drain_into_body()
                current.tokens.append(word)
                continue

        if is_keyword:
            open_step()
            if word in ("by", "apply"):
                current.just.append(word)
                current.justifying = True
            elif word == "sorry":
                current.just.append(word)
                current.closed = True
            else:
                current.tokens.append(word)
                current.goal_pending = word in GOAL_KEYWORDS
                current.chain_open = word in CHAIN_KEYWORDS
            continue

        # Non-keyword token (word/string/cartouche): continue current step.
        if current is None or current.closed:
            open_step()
        elif current.justifying:
            current.just.extend(pending_comments)
            pending_comments.clear()
        else:
            drain_into_body()
        if current.justifying:
            current.just.append(tok.text)
        else:
            current.tokens.append(tok.text)

    flush()
    root, balanced = _build_tree(steps)
    return ProofScript(
        preamble=preamble,
        steps=tuple(steps),
        root=root,
        balanced=balanced,
        trailing_comments=tuple(pending_comments),
    )


class _Frame:
    __slots__ = ("opener", "items", "boundaries")

    def __init__(self, opener: Optional[int]):
        self.opener = opener
        self.items: list[Union[int, Block]] = []
        self.boundaries: list[int] = []  # (items position, next-step index) pairs flattened

    def finish(self, closer: Optional[int]) -> Block:
        if not self.boundaries:
            return Block(self.opener, tuple(self.items), closer)
        children: list[Union[int, Block]] = []
        run: list[Union[int, Block]] = []
        bounds = set(self.boundaries)
        for pos, item in enumerate(self.items):
            if pos in bounds:
                children.append(Block(None, tuple(run), None))
                children.append(item)  # the `next` step itself
                run = []
            else:
                run.append(item)
        children.append(Block(None, tuple(run), None))
        return Block(self.opener, tuple(children), closer)


def _build_tree(steps: list[Step]) -> tuple[Block, bool]:
    stack = [_Frame(None)]
    balanced = True
    for idx, step in enumerate(steps):
        head = step.head
        if head == "proof":
            frame = _Frame(idx)
            stack.append(frame)
        elif head in ("qed", "oops"):
            if len(stack) > 1:
                frame = stack.pop()
                stack[-1].items.append(frame.finish(idx))
            else:
                # A top-level `oops` legitimately abandons the statement's
                # goal; a `qed` with no open block is an imbalance.
                if head == "qed":
                    balanced = False
                stack[-1].items.append(idx)
        elif head == "next":
            stack[-1].boundaries.append(len(stack[-1].items))
            stack[-1].items.append(idx)
        else:
            stack[-1].items.append(idx)
    while len(stack) > 1:
        balanced = False
        frame = stack.pop()
        stack[-1].items.append(frame.finish(None))
    return stack[0].finish(None), balanced


# ---------------------------------------------------------------------------
# rendering

def render(script: ProofScript) -> str:
    """Canonical text: preamble verbatim, one step per line, tokens
    single-spaced, nesting indented two spaces per depth."""
    lines = script.preamble.splitlines()

    def emit_step(idx: int, depth: int) -> None:
        step = script.steps[idx]
        indent = "  " * depth
        lines.extend(indent + comment for comment in step.lead_comments)
        lines.append(indent + step.text)

    def walk(block: Block, depth: int) -> None:
        if block.opener is not None:
            emit_step(block.opener, depth)
        child_depth = depth + 1 if block.opener is not None else depth
        for child in block.children:
            if isinstance(child, Block):
                walk(child, child_depth)
            else:
                emit_step(child, child_depth)
        if block.closer is not None:
            emit_step(block.closer, depth)

    walk(script.root, 0)
    lines.extend(script.trailing_comments)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# structural operations

def find_placeholders(script: ProofScript) -> list[int]:
    """Indices of all sorry-justified steps, in source order."""
    return [i for i, step in enumerate(script.steps) if step.is_sorry]


def innermost_block(script: ProofScript, step_index: int) -> BlockRef:
    """Deepest block whose span contains step_index."""
    script.step_at(step_index)
    path: list[int] = []
    node = script.root
    while True:
        descended = False
        for pos, child in enumerate(node.children):
            if isinstance(child, Block) and child.contains(step_index):
                path.append(pos)
                node = child
                descended = True
                break
        if not descended:
            return BlockRef(tuple(path))


def _rebuild(script: ProofScript, steps: list[Step]) -> ProofScript:
    root, balanced = _build_tree(steps)
    return replace(script, steps=tuple(steps), root=root, balanced=balanced)


def splice(script: ProofScript, step_index: int,
           replacement: Union[Step, ProofScript, str]) -> ProofScript:
    """Replace the addressed step, returning a new script.

    ``replacement`` may be a single Step, a parsed script (all of whose steps
    are inserted in place of the addressed one), or raw text to parse.
    """
    script.step_at(step_index)
    if isinstance(replacement, str):
        replacement = parse_script(replacement)
    if isinstance(replacement, ProofScript):
        new_steps = list(replacement.steps)
    else:
        new_steps = [replacement]
    steps = [*script.steps[:step_index], *new_steps, *script.steps[step_index + 1:]]
    return _rebuild(script, steps)


def slice_steps(script: ProofScript, end: int) -> ProofScript:
    """Script consisting of the first ``end`` steps (tree rebuilt)."""
    if not 0 <= end <= len(script.steps):
        raise IndexOutOfRange(f"slice end {end} out of range")
    return _rebuild(script, list(script.steps[:end]))


def with_steps(script: ProofScript, steps: Sequence[Step]) -> ProofScript:
    """New script with this step sequence (preamble kept, tree rebuilt)."""
    return _rebuild(script, list(steps))


def truncate_to_block(script: ProofScript, block: BlockRef,
                      step_index: int) -> ProofScript:
    """Drop the block's content from step_index on and re-close it with a
    sorry placeholder; content outside the block is preserved."""
    script.step_at(step_index)
    node = block.resolve(script)
    lo, hi = node.span()
    if not lo <= step_index <= hi:
        raise IndexOutOfRange(
            f"step {step_index} is outside block span ({lo}, {hi})")
    steps = list(script.steps)
    if node.opener is not None and step_index <= node.opener:
        new_steps = [*steps[:step_index], SORRY_STEP, *steps[hi + 1:]]
    elif node.closer is not None:
        new_steps = [*steps[:step_index], SORRY_STEP, steps[node.closer],
                     *steps[node.closer + 1:]]
    else:
        new_steps = [*steps[:step_index], SORRY_STEP, *steps[hi + 1:]]
    return _rebuild(script, new_steps)


# ---------------------------------------------------------------------------
# proof extraction from model responses

_FENCE_RE = re.compile(r"```[ \t]*[A-Za-z0-9_+-]*[ \t]*\n(.*?)```", re.S)


def unwrap_proof_comment(text: str) -> str:
    """If the text is nothing but comments, return the body of the comment
    that actually carries a proof (whole proofs often arrive comment-wrapped)."""
    for _ in range(4):  # comments may nest a wrapped proof once more
        try:
            tokens = tokenize(text)
        except ParseError:
            return text
        if any(t.kind != "comment" for t in tokens):
            return text
        candidates = [t.text[2:-2].strip() for t in tokens if t.kind == "comment"]
        with_proof = [c for c in candidates
                      if any(w in STEP_KEYWORDS for w in c.split())]
        if not with_proof:
            return text
        text = with_proof[-1]
    return text


def strip_terminal_marker(statement: str) -> str:
    """Drop a trailing ``oops``/``sorry`` from a statement so a proof can be
    attempted in its place."""
    try:
        tokens = tokenize(statement)
    except ParseError:
        return statement.strip()
    while tokens and tokens[-1].kind == "comment":
        tokens.pop()
    if tokens and tokens[-1].kind == "word" and tokens[-1].text in ("oops", "sorry"):
        return statement[: tokens[-1].offset].rstrip()
    return statement.strip()


def extract_proof_text(response: str) -> str:
    """Pull the proof out of a model response.

    Recognizes, in priority order: fenced code blocks, comment-wrapped
    proofs, bare ``proof ... qed`` spans embedded in prose.  Falls back to
    the stripped response.
    """
    text = response.strip()
    match = _FENCE_RE.search(text)
    if match:
        text = match.group(1).strip()
    text = unwrap_proof_comment(text).strip()
    if not text:
        return text
    try:
        tokens = tokenize(text)
    except ParseError:
        return text
    words = [t for t in tokens if t.kind == "word"]
    if not words:
        return text
    if words[0].text in STEP_KEYWORDS:
        return text
    # Prose around a bare proof...qed span: slice out the span.
    for i, tok in enumerate(words):
        if tok.text == "proof":
            depth = 0
            end = len(text)
            for later in words[i:]:
                if later.text == "proof":
                    depth += 1
                elif later.text in ("qed", "oops"):
                    depth -= 1
                    if depth == 0:
                        end = later.offset + len(later.text)
                        break
            return text[tok.offset:end].strip()
    return text
