"""Seeded input generators for the three workloads.

Each generator is a pure function of its seed and batch.  The mix of
intended outcomes and the spread of proof lengths and defect positions are
stratified (a fixed number of items per outcome, each property drawn near the
middle of one quantile band, bands paired independently of the seed) so that
two seeds, or two batches, give different texts and exact sizes but nearly
the same amount of work; the seed changes what is proved, not how much.  The
order of a batch of problems or pairs is a fixed permutation, the same for
every seed, so which items share the pool's workers at a time does not move
with the seed either.

Only the program-facing inputs (statements, proof texts, policy CSV) reach
the program.  The ``Plan`` of each item is what the model double answers
for it.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from typing import Optional

import world
from world import (
    CASCADE_CLASS,
    FALSE_CLASS,
    HAMMER_CLASS,
    MODEL_CLASS,
    correct_tactic,
    goal_info,
    justification,
)

TRUE = frozenset({CASCADE_CLASS, HAMMER_CLASS, MODEL_CLASS})
DISCHARGEABLE = frozenset({CASCADE_CLASS, HAMMER_CLASS})

GARBAGE = ('proof -\n  have h0: "unterminated', "I could not find a proof.", "")

# prove-repair: intended outcome -> items per 100, and shortest script.
PROVE_MIX = {"init_proof": 20, "cascade": 20, "hammer": 14, "erp": 14,
             "heuristic": 12, "backtrack": 10, "failed": 10}
PROVE_MIN_LEN = {"heuristic": 12}
PROVE_LEN = (8, 160)
RETRY_EVERY = 5  # every fifth non-failing item opens with an unusable sample

CURATE_MIX = {"verifies": 66, "fails_late": 30, "unparsable": 4}
CURATE_LEN = (24, 160)

POLICY_MIX = {"init_proof": 36, "cascade": 26, "heuristic": 24, "backtrack": 16,
              "deny": 5, "two_actions": 5, "wildcard_action": 4,
              "multi_class": 4}
UNSUPPORTED = ("deny", "two_actions", "wildcard_action", "multi_class")
POLICY_RESOURCES = (4, 40)


@dataclass
class Plan:
    """What the model double answers for one item."""

    candidates: list = field(default_factory=list)
    true_steps: list = field(default_factory=list)  # ERP answers from these
    erp_good: bool = False
    cand_steps: list = field(default_factory=list)  # a bad ERP repeats these
    nl: str = ""
    # policy items: the candidate is built from the statement and follows
    # whatever ``candidates`` holds
    policy_outcome: str = ""


@dataclass
class ProveItem:
    name: str
    statement: str
    outcome: str
    plan: Plan


@dataclass
class CurateItem:
    name: str
    statement: str
    proof: str
    kind: str
    plan: Plan


@dataclass
class PolicyItem:
    name: str  # problem_name column
    service: str
    policy: dict
    kind: str
    theorem: str  # theorem name the compiled theory will carry
    entry: str
    action_ctor: str
    classes: dict  # resource pattern -> datatype constructor
    plan: Plan


def _split(total: int, mix: dict) -> dict:
    """Largest-remainder split of ``total`` items by the mix's weights."""
    weight = sum(mix.values())
    exact = {k: total * v / weight for k, v in mix.items()}
    counts = {k: int(x) for k, x in exact.items()}
    order = sorted(mix, key=lambda k: counts[k] - exact[k])
    for key in order[:total - sum(counts.values())]:
        counts[key] += 1
    return counts


def _bands(rng: random.Random, m: int, batch: int = 0, batches: int = 1,
           shift: int = 0) -> list[float]:
    """One draw near the middle of each of ``m`` equal bands of [0, 1), in
    band order.  Each band is cut into ``batches`` sub-bands, and batch ``b``
    draws from sub-band ``(b + j + shift) % batches`` of band ``j``: together
    the batches cover every sub-band, and each mixes low and high ones (a
    different ``shift`` per outcome evens out the batches' sizes).  The seed
    moves each value by at most a tenth of its sub-band."""
    return [(j + ((batch + j + shift) % batches + 0.4 + 0.2 * rng.random())
             / batches) / m for j in range(m)]


def _paired_bands(rng: random.Random, m: int, key: str, batch: int = 0,
                  batches: int = 1, shift: int = 0) -> list[float]:
    """Bands for a second property, paired with the first by a permutation
    that depends on ``key`` but not on the seed, so an item's size and its
    defect position (and hence its cost) barely move from seed to seed."""
    values = _bands(rng, m, batch, batches, shift)
    order = random.Random(f"pairing/{key}/{m}").sample(range(m), m)
    return [values[k] for k in order]


def _fixed_order(items: list, key: str) -> None:
    """Shuffle ``items`` in place by a permutation that depends on ``key``
    and their number only."""
    random.Random(f"order/{key}/{len(items)}").shuffle(items)


def _log_length(u: float, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** u))


# ---------------------------------------------------------------------------
# proof layout

@dataclass
class Slot:
    kind: str  # open | close | have | have_open | show_by | show_open
    block: int = -1  # index of the have_open slot whose goal this block proves
    goal: str = ""
    tactic: str = ""


def _body(rng: random.Random, size: int, block: int, start: int) -> list[Slot]:
    """``size`` steps of top-level haves and small nested blocks."""
    slots: list[Slot] = []
    while len(slots) < size:
        left = size - len(slots)
        if left >= 6 and rng.random() < 0.2:
            inner = rng.randint(1, min(5, left - 4))
            opener = start + len(slots)
            slots.append(Slot("have_open", block))
            slots.append(Slot("open", opener))
            slots.extend(Slot("have", opener) for _ in range(inner))
            slots.append(Slot("show_by", opener))
            slots.append(Slot("close", opener))
        else:
            slots.append(Slot("have", block))
    return slots


def _layout(rng: random.Random, n: int, outcome: str,
            frac: float) -> tuple[list[Slot], int]:
    """Slots of an ``n``-step proof and the defect position (or -1).

    Position 0 is the outer ``proof -``; the defect sits in the back half.
    """
    if outcome == "backtrack":
        inner = rng.randint(1, 3)
        body = _body(rng, n - 5 - inner, -1, 1)
        opener = 1 + len(body)
        ending = [Slot("show_open", -1), Slot("open", opener),
                  *[Slot("have", opener) for _ in range(inner)],
                  Slot("close", opener)]
        slots = [Slot("open"), *body, *ending, Slot("close")]
        return slots, n - 2  # the inner qed: its block never shows ?thesis
    size = n - 3
    if outcome == "heuristic":
        inner = rng.randint(2, 4)
        # the last inner step must land in the back half
        first = min(max(int(round(frac * size)) - 2, n // 2 - 2 - inner),
                    size - inner - 4)
        head = _body(rng, first, -1, 1)
        opener = 1 + len(head)
        block = [Slot("have_open", -1), Slot("open", opener),
                 *[Slot("have", opener) for _ in range(inner)],
                 Slot("show_by", opener), Slot("close", opener)]
        tail = _body(rng, size - first - len(block), -1, opener + len(block))
        slots = [Slot("open"), *head, *block, *tail, Slot("show_by"),
                 Slot("close")]
        eligible = [i for i in range(opener + 2, opener + 2 + inner)
                    if i >= n // 2]
        return slots, rng.choice(eligible)
    if outcome == "init_proof":
        slots = [Slot("open"), *_body(rng, size, -1, 1), Slot("show_by"),
                 Slot("close")]
        return slots, -1
    first = min(max(int(round(frac * size)) - 1, n // 2 - 1), size - 1)
    head = _body(rng, first, -1, 1)
    tail = _body(rng, size - first - 1, -1, 2 + first)
    slots = [Slot("open"), *head, Slot("have"), *tail, Slot("show_by"),
             Slot("close")]
    return slots, 1 + first


def _goal_text(rng: random.Random) -> str:
    return (f"f{rng.randrange(1000)} (g{rng.randrange(1000)} x) = "
            f"h{rng.randrange(1000)} x + {rng.randrange(100)}")


def draw_goal(rng: random.Random, item: str, want: frozenset,
              used: set) -> str:
    while True:
        goal = _goal_text(rng)
        if goal not in used and goal_info(item, goal).cls in want:
            used.add(goal)
            return goal


def _render(slots: list[Slot]) -> list[tuple[int, str]]:
    """(depth, text) per slot."""
    lines = []
    depth = 0
    for index, slot in enumerate(slots):
        if slot.kind == "close":
            depth -= 1
        text = {
            "open": "proof -",
            "close": "qed",
            "have": f'have h{index}: "{slot.goal}" {justification(slot.tactic)}',
            "have_open": f'have h{index}: "{slot.goal}"',
            "show_by": f"show ?thesis {justification(slot.tactic)}",
            "show_open": "show ?thesis",
        }[slot.kind]
        lines.append((depth, text))
        if slot.kind == "open":
            depth += 1
    return lines


def proof_text(lines: list[tuple[int, str]]) -> str:
    return "\n".join("  " * depth + text for depth, text in lines)


def _assign_goals(rng: random.Random, item: str, slots: list[Slot], top: str,
                  want_for) -> None:
    """Give every goal-bearing slot a goal and its correct tactic."""
    used = {top}
    goals = {-1: top}
    for index, slot in enumerate(slots):
        if slot.kind in ("have", "have_open"):
            slot.goal = draw_goal(rng, item, want_for(index), used)
            if slot.kind == "have_open":
                goals[index] = slot.goal
        if slot.kind in ("have", "show_by"):
            goal = slot.goal if slot.kind == "have" else goals[slot.block]
            slot.tactic = correct_tactic(goal_info(item, goal))


# ---------------------------------------------------------------------------
# prove-repair

def _prove_item(rng: random.Random, name: str, outcome: str, n: int,
                frac: float, retry: bool) -> ProveItem:
    slots, defect = _layout(rng, n, outcome, frac)
    top_want = {"backtrack": DISCHARGEABLE, "heuristic": DISCHARGEABLE,
                "failed": frozenset({MODEL_CLASS})}.get(outcome, TRUE)
    top = draw_goal(rng, name, top_want, set())
    defect_block = slots[defect].block if defect >= 0 else -1

    def want_for(index: int) -> frozenset:
        if index == defect and outcome == "cascade":
            return frozenset({CASCADE_CLASS})
        if index == defect and outcome == "hammer":
            return frozenset({HAMMER_CLASS})
        if outcome == "heuristic" and (index > defect or index == defect_block):
            return DISCHARGEABLE
        return TRUE

    _assign_goals(rng, name, slots, top, want_for)
    true_lines = _render(slots)
    cand_lines = list(true_lines)
    if outcome in ("cascade", "hammer"):
        depth, text = true_lines[defect]
        wrong = f"metis wrong{rng.randrange(100)}"
        cand_lines[defect] = (depth, text.rsplit(" by ", 1)[0]
                              + " " + justification(wrong))
    elif outcome in ("erp", "heuristic", "failed"):
        bad = draw_goal(rng, name, frozenset({FALSE_CLASS}), {top})
        depth, _ = true_lines[defect]
        cand_lines[defect] = (depth, f'have h{defect}: "{bad}" by auto')
    candidate = proof_text(cand_lines)
    if rng.random() < 0.25:
        candidate = f"```isabelle\n{candidate}\n```"
    candidates = [candidate]
    if outcome == "failed":
        candidates.append(GARBAGE[rng.randrange(len(GARBAGE))])
    elif retry:
        candidates.insert(0, GARBAGE[rng.randrange(len(GARBAGE))])
    plan = Plan(candidates=candidates,
                true_steps=[text for _, text in true_lines],
                erp_good=outcome == "erp",
                cand_steps=[text for _, text in cand_lines])
    statement = f'theorem {name}: "{top}"'
    return ProveItem(name, statement, outcome, plan)


def gen_prove_repair(seed: int, count: int = 100, mix: Optional[dict] = None,
                     batch: int = 0, batches: int = 1) -> list[ProveItem]:
    """Batch ``batch`` of ``batches`` stratified batches of ``count``
    problems; batches of one seed have distinct names and the same mix."""
    rng = random.Random(f"prove-repair/{seed}/{batch}")
    counts = mix or _split(count, PROVE_MIX)
    items: list[ProveItem] = []
    serial = usable = 0
    for shift, (outcome, m) in enumerate(counts.items()):
        lo = PROVE_MIN_LEN.get(outcome, PROVE_LEN[0])
        lengths = [_log_length(u, lo, PROVE_LEN[1])
                   for u in _bands(rng, m, batch, batches, shift)]
        fracs = [0.5 + 0.45 * u for u in _paired_bands(
            rng, m, outcome, batch, batches, shift)]
        for j in range(m):
            name = f"pr{seed}_{batch}_{serial:03d}"
            serial += 1
            retry = False
            if outcome != "failed":
                usable += 1
                retry = usable % RETRY_EVERY == 0
            items.append(_prove_item(rng, name, outcome, lengths[j], fracs[j],
                                     retry))
    _fixed_order(items, "prove-repair")
    return items


# ---------------------------------------------------------------------------
# curate-verify

def gen_curate(seed: int, count: int = 100, batch: int = 0,
               batches: int = 1) -> list[CurateItem]:
    """One stratified batch of ``count`` pairs, as ``gen_prove_repair``."""
    rng = random.Random(f"curate-verify/{seed}/{batch}")
    counts = _split(count, CURATE_MIX)
    items: list[CurateItem] = []
    serial = 0
    for shift, (kind, m) in enumerate(counts.items()):
        lengths = [_log_length(u, *CURATE_LEN)
                   for u in _bands(rng, m, batch, batches, shift)]
        fracs = [0.7 + 0.25 * u for u in _paired_bands(
            rng, m, kind, batch, batches, shift)]
        for j in range(m):
            name = f"cv{seed}_{batch}_{serial:03d}"
            serial += 1
            n = lengths[j]
            top = draw_goal(rng, name, TRUE, set())
            slots, defect = _layout(rng, n, "cascade", fracs[j])
            _assign_goals(rng, name, slots, top, lambda index: TRUE)
            lines = _render(slots)
            if kind == "fails_late":
                depth, text = lines[defect]
                lines[defect] = (depth, text.rsplit(" by ", 1)[0]
                                 + f" by (metis wrong{rng.randrange(100)})")
            elif kind == "unparsable":
                depth, text = lines[defect]
                lines[defect] = (depth, text.replace('" by', " by", 1))
            statement = f'theorem {name}: "{top}"'
            plan = Plan(nl=f"{name} states that {top}.")
            items.append(CurateItem(name, statement, proof_text(lines), kind,
                                    plan))
    _fixed_order(items, "curate-verify")
    return items


# ---------------------------------------------------------------------------
# policy-offline

_SYLLABLES = ("wid", "gad", "lum", "tor", "pex", "ban", "cor", "mir", "vel",
              "nod", "qua", "zen", "fab", "rik", "hol", "jun")
_VERBS = ("Run", "Start", "Attach", "Create", "Launch", "Tag", "Describe")
_NOUNS = ("Instances", "Widget", "Volume", "Cluster", "Bucket", "Stream")


def _kinds(rng: random.Random, k: int) -> list[str]:
    kinds: list[str] = []
    while len(kinds) < k:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word not in kinds and not word.endswith("s"):
            kinds.append(word)
    return kinds


def _policy(rng: random.Random, service: str, kind: str, k: int) -> tuple[dict, dict, str]:
    """(policy document, pattern -> class, action constructor)."""
    region = rng.choice(("us-east-1", "eu-west-2", "ap-south-1"))
    account = f"{rng.randrange(10**11, 10**12)}"
    other = f"{rng.randrange(10**11, 10**12)}"
    verb = rng.choice(_VERBS) + rng.choice(_NOUNS)
    action = f"{service}:{verb}"
    kinds = _kinds(rng, k)
    classes: dict[str, str] = {}
    statements = []
    if kind != "multi_class":
        wildcard = f"arn:aws:{service}:{region}:{account}:*"
        classes[wildcard] = "AllResources"
        statements.append({"Effect": "Allow", "Action": action,
                           "Resource": wildcard})
    groups = max(1, min(3, len(kinds) // 4))
    for g in range(groups):
        part = kinds[g::groups]
        # with several statements the last is granted to another account's
        # principal only, so its patterns are outside the allowed set
        restricted = g > 0 and g == groups - 1
        owner = other if restricted else account
        patterns = []
        for word in part:
            tail = rng.choice(("/*", "/prod-*", "/?-*"))
            pattern = f"arn:aws:{service}:{region}:{owner}:{word}{tail}"
            patterns.append(pattern)
            classes[pattern] = word.capitalize() + "s"
        statement = {"Effect": "Allow",
                     "Action": [action] if rng.random() < 0.5 else action,
                     "Resource": patterns}
        if restricted:
            statement["Principal"] = {"AWS": f"arn:aws:iam::{other}:root"}
        if rng.random() < 0.3:
            statement["Condition"] = {"Bool": {"aws:SecureTransport": "true"}}
        statements.append(statement)
    if kind == "deny":
        statements.append({"Effect": "Deny", "Action": action,
                           "Resource": next(iter(classes))})
    elif kind == "two_actions":
        statements[0]["Action"] = [action, f"{service}:Other{verb}"]
    elif kind == "wildcard_action":
        statements[0]["Action"] = f"{service}:{verb[:3]}*"
    return {"Version": "2012-10-17", "Statement": statements}, classes, verb


def gen_policies(seed: int, count: int = 120) -> list[PolicyItem]:
    rng = random.Random(f"policy-offline/{seed}")
    counts = _split(count, POLICY_MIX)
    items: list[PolicyItem] = []
    serial = 0
    for kind, m in counts.items():
        sizes = [_log_length(u, *POLICY_RESOURCES) for u in _bands(rng, m)]
        for j in range(m):
            service = f"s{seed}p{serial:03d}"
            serial += 1
            policy, classes, verb = _policy(rng, service, kind, sizes[j])
            plan = Plan(policy_outcome="" if kind in UNSUPPORTED else kind,
                        candidates=[GARBAGE[j % len(GARBAGE)]]
                        if j % RETRY_EVERY == RETRY_EVERY - 1 else [])
            items.append(PolicyItem(
                name=f"policy_{service}", service=service, policy=policy,
                kind=kind, theorem=f"{service}_policy_correctness",
                entry=f"{service}_instance_policy", action_ctor=verb,
                classes=classes, plan=plan))
    rng.shuffle(items)
    return items


def policy_csv(items: list[PolicyItem]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["problem_name", "policy_json"])
    for item in items:
        writer.writerow([item.name, json.dumps(item.policy)])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# policy candidates, built by the model double from the statement it is given

def policy_candidate(item: str, conjuncts: list[str], outcome: str,
                     entry: Optional[world.PolicyEntry]) -> list[tuple[int, str]]:
    """Proof lines for a compiled policy theorem.

    Conjuncts are proved one per ``have``; the last two are grouped in a
    nested block.  ``cascade`` gives one back-half conjunct a wrong tactic,
    ``heuristic`` puts a false claim inside the nested block, ``backtrack``
    ends with a ``show ?thesis`` block that never shows it.
    """
    def tac(goal: str) -> str:
        return justification(correct_tactic(goal_info(item, goal, entry)))

    top = " ∧ ".join(conjuncts)
    flat, grouped = conjuncts[:-2], conjuncts[-2:]
    lines = [(0, "proof -")]
    for index, goal in enumerate(flat):
        lines.append((1, f'have c{index}: "{goal}" {tac(goal)}'))
    if outcome == "cascade" and flat:
        depth, text = lines[1 + len(flat) // 2 + len(flat) // 4]
        lines[1 + len(flat) // 2 + len(flat) // 4] = (
            depth, text.rsplit(" by ", 1)[0] + " by (metis wrong_unfold)")
    group = " ∧ ".join(grouped)
    lines.append((1, f'have grp: "{group}"'))
    lines.append((1, "proof -"))
    for index, goal in enumerate(grouped):
        lines.append((2, f'have g{index}: "{goal}" {tac(goal)}'))
    if outcome == "heuristic" and entry is not None:
        false = f"policy_allows {entry.name} No{entry.act} AllResources"
        lines.append((2, f'have gx: "{false}" by simp'))
    lines.append((2, f"show ?thesis {tac(group)}"))
    lines.append((1, "qed"))
    if outcome == "backtrack":
        lines.append((1, "show ?thesis"))
        lines.append((1, "proof -"))
        lines.append((2, f'have z: "{conjuncts[0]}" {tac(conjuncts[0])}'))
        lines.append((1, "qed"))
    else:
        lines.append((1, f"show ?thesis {tac(top)}"))
    lines.append((0, "qed"))
    return lines
