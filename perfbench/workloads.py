"""The three workloads: set-up, one timed window, and the output checks.

A workload's item set is ``batches`` stratified batches of the same mix.  A
window runs the program once over one batch.  Set-up (generate the batch from
the seed, start the doubles, build the clients) is outside the timed region,
and so are the output checks that follow it.
"""

from __future__ import annotations

import functools
import os
import re
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from proofseek import curate
from proofseek.bench import BenchmarkProblem, BenchmarkSpec, aggregate, run_benchmark
from proofseek.curate import (
    TheoremProofPair,
    build_rl_records,
    build_sft_records,
    filter_self_contained,
)
from proofseek.engine import BudgetConfig, prove
from proofseek.errors import UnsupportedPolicy
from proofseek.formalize import compile_policy, render_theory
from proofseek.isar import parse_script
from proofseek.jsonl import read_jsonl
from proofseek.model import ChatModelClient
from proofseek.policy import load_policy_csv
from proofseek.prover import ProverConfig, ProverServer, WireProver, check_script

import gen
from model_double import InProcessModel, ModelServer, Responder
from tracing import Tracer, TracedModel, TracedProver
from world import Latency, WorldProver, ZERO

# Modelled service times of the latency workloads (seconds).  Real Isabelle
# applies take about a second and Sledgehammer or a 10-sample completion tens
# of seconds; these keep that ordering (a Sledgehammer call, a step that times
# out or a completion costs ten applies) at a scale a run can afford, with an
# apply still more than twice the client's own per-call cost (the traced
# run's ``prover.wire_s``).
PROVER_LATENCY = Latency(init_s=0.002, apply_s=0.002, hammer_s=0.020,
                         timeout_s=0.020)
MODEL_LATENCY_S = 0.020

SAMPLE_BUDGET = 4
# One load-generating process; its pool is the machine's cores, at most two.
POOL = max(1, min(2, len(os.sched_getaffinity(0))))

# Items per batch, and batches per item set.
PROVE_ITEMS, PROVE_BATCHES = 20, 5
CURATE_ITEMS, CURATE_BATCHES = 20, 5
POLICY_ITEMS = 120


@dataclass
class Window:
    """What one timed window measured.

    ``successes / determined`` is the success rate and ``attempts /
    attempt_base`` the mean attempts, so both pool over windows.
    """

    items: int
    elapsed_s: float = 0.0
    item_times: dict = field(default_factory=dict)  # item -> wall time
    exec_times: dict = field(default_factory=dict)  # item -> paper-table time
    failed: int = 0
    successes: int = 0
    determined: int = 0
    attempts: int = 0
    attempt_base: int = 0
    prover: dict = field(default_factory=dict)  # double counters
    model: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def normalize(self, factor: float) -> None:
        """Scale the window's timings to the CPU probe's nominal speed."""
        self.elapsed_s *= factor
        self.item_times = {k: t * factor for k, t in self.item_times.items()}
        self.exec_times = {k: t * factor for k, t in self.exec_times.items()}


def recheck(statement: str, final_script: str) -> bool:
    """True when a fresh zero-latency prover double accepts the script."""
    return check_script(WorldProver(ZERO), statement,
                        parse_script(final_script)).success


def _budget(prover_config: ProverConfig) -> BudgetConfig:
    return BudgetConfig(sample_budget=SAMPLE_BUDGET, prover=prover_config)


def _check_records(problems, records, records_path: Path) -> list[str]:
    """One record per problem, in spec order and in the records file; every
    success re-checked by a fresh prover double."""
    errors = []
    names = [p.problem_name for p in problems]
    if [r.problem_name for r in records] != names:
        errors.append("records do not match the problems one to one")
    on_disk = [row["problem_name"] for row in read_jsonl(records_path)]
    if sorted(on_disk) != sorted(names):
        errors.append("records file does not hold exactly one record per problem")
    statements = {p.problem_name: p.formal_statement for p in problems}
    for record in records:
        if record.success and not recheck(statements[record.problem_name],
                                          record.final_script):
            errors.append(f"{record.problem_name}: success does not re-check")
    return errors


class _Timed:
    """prove_fn wrapper: per-item wall time, measured from outside."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.times: dict[str, float] = {}

    def __call__(self, statement, model, prover, budget, few_shots, problem_name=""):
        started = time.perf_counter()
        if self.tracer is None:
            record = prove(statement, model, prover, budget, few_shots,
                           problem_name=problem_name)
        else:
            with self.tracer.span("engine.prove", problem_name):
                record = prove(statement, model, prover, budget, few_shots,
                               problem_name=problem_name)
        self.times[problem_name] = time.perf_counter() - started
        return record


def _span(tracer: Optional[Tracer], name: str, ambient: bool = False):
    return nullcontext({}) if tracer is None else tracer.span(name, ambient=ambient)


def _proving_window(env, spec, model, prover, pool: int,
                    tracer: Optional[Tracer]) -> Window:
    timed = _Timed(tracer)
    handle, name = tempfile.mkstemp(suffix=".jsonl", dir=env.workdir)
    os.close(handle)
    records_path = Path(name)
    with _span(tracer, "bench.run", ambient=True):
        records = run_benchmark(spec, model, prover, records_path,
                                pool_size=pool, prove_fn=timed)
    with _span(tracer, "bench.aggregate"):
        report = aggregate(records)
    env.records_path = records_path
    determined = [r for r in records if not r.undetermined]
    # aggregate()'s success rate and mean i_try, kept as sums so they pool
    # over windows without its rounding
    return Window(
        items=len(records), item_times=timed.times,
        exec_times={r.problem_name: r.wall_time_s for r in determined},
        failed=report.n_undetermined, successes=report.n_success,
        determined=report.n_problems,
        attempts=sum(r.i_try for r in determined),
        attempt_base=len(determined), records=records)


# ---------------------------------------------------------------------------
# environments

class Env:
    """One window's inputs, backends and clients.  ``counters()`` returns
    what the prover and model doubles have served: (prover, model) snapshots."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.records_path: Optional[Path] = None
        self.closers: list = []

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


def _latency_backends(env: Env, plans: dict) -> None:
    prover_double = WorldProver(PROVER_LATENCY)
    server = ProverServer(prover_double).start()
    env.closers.append(server.stop)
    env.prover_config = ProverConfig(endpoint=server.address, pool_size=POOL)
    env.prover = WireProver(env.prover_config)
    env.closers.append(env.prover.shutdown)
    model_double = ModelServer(Responder(plans), MODEL_LATENCY_S).start()
    env.closers.append(model_double.stop)
    env.model = ChatModelClient(url=model_double.url, api_key="")
    env.counters = lambda: (prover_double.counters.snapshot(),
                            model_double.counters.snapshot())


def _clients(env: Env, tracer: Optional[Tracer]):
    if tracer is None:
        return env.model, env.prover
    env.traced_model = TracedModel(env.model, tracer)
    env.traced_prover = TracedProver(env.prover, tracer)
    return env.traced_model, env.traced_prover


class ProveRepair:
    name = "prove-repair"
    batches = PROVE_BATCHES
    cpu_bound = False

    def setup(self, seed: int, workdir: Path, batch: int = 0) -> Env:
        env = Env(workdir)
        env.items = gen.gen_prove_repair(seed, PROVE_ITEMS, batch=batch,
                                        batches=PROVE_BATCHES)
        _latency_backends(env, {i.name: i.plan for i in env.items})
        env.spec = BenchmarkSpec(
            f"prove-repair-{seed}-{batch}",
            tuple(BenchmarkProblem(i.name, i.statement) for i in env.items),
            _budget(env.prover_config))
        return env

    def run(self, env: Env, tracer: Optional[Tracer]) -> Window:
        model, prover = _clients(env, tracer)
        result = _proving_window(env, env.spec, model, prover, POOL, tracer)
        result.extra["problems"] = env.spec.problems
        return result

    def check(self, env: Env, result: Window) -> list[str]:
        return _check_records(result.extra["problems"], result.records,
                              env.records_path)


class CurateVerify:
    name = "curate-verify"
    batches = CURATE_BATCHES
    cpu_bound = False

    def setup(self, seed: int, workdir: Path, batch: int = 0) -> Env:
        env = Env(workdir)
        env.seed = seed
        env.items = gen.gen_curate(seed, CURATE_ITEMS, batch=batch,
                                  batches=CURATE_BATCHES)
        _latency_backends(env, {i.name: i.plan for i in env.items})
        env.pairs = [TheoremProofPair(i.statement, i.proof) for i in env.items]
        return env

    def run(self, env: Env, tracer: Optional[Tracer]) -> Window:
        model, prover = _clients(env, tracer)
        times: dict[str, float] = {}  # statement -> verification time
        check = curate.check_script

        def timed_check(prover, statement, script):
            started = time.perf_counter()
            try:
                return check(prover, statement, script)
            finally:
                times[statement] = time.perf_counter() - started

        curate.check_script = timed_check
        try:
            with _span(tracer, "curate.filter", ambient=True):
                result = filter_self_contained(env.pairs, prover, pool_size=POOL)
        finally:
            curate.check_script = check
        with _span(tracer, "curate.records"):
            sft, sft_drops = build_sft_records(
                result.sft_pool, model, len(result.sft_pool), seed=env.seed)
            rl, rl_drops = build_rl_records(result.rl_pool, model)
        # success rate: the RL pool's share of the determined pairs; mean
        # attempts: model requests per dataset record
        return Window(
            items=len(env.pairs), item_times=times,
            exec_times=times, failed=len(result.undetermined),
            successes=len(result.rl_pool),
            determined=len(env.pairs) - len(result.undetermined),
            attempts=env.counters()[1]["request"],
            attempt_base=len(sft) + len(rl),
            extra={"filter": result, "sft": sft, "rl": rl,
                   "drops": sft_drops + rl_drops})

    def check(self, env: Env, result: Window) -> list[str]:
        errors = []
        filtered = result.extra["filter"]
        want_rl = [i.statement for i in env.items if i.kind == "verifies"]
        want_sft = [i.statement for i in env.items if i.kind != "verifies"]
        if [p.statement for p in filtered.rl_pool] != want_rl:
            errors.append("RL pool differs from the generator's ground truth")
        if [p.statement for p in filtered.sft_pool] != want_sft:
            errors.append("SFT pool differs from the generator's ground truth")
        if filtered.undetermined:
            errors.append(f"{len(filtered.undetermined)} pairs undetermined")
        nl = {i.proof: i.plan.nl for i in env.items}
        records = [(r.proof, r.natural_language_statement) for r in result.extra["sft"]]
        records += [(r.formal_proof, r.natural_language_statement)
                    for r in result.extra["rl"]]
        if len(records) != len(env.items) or result.extra["drops"]:
            errors.append("not exactly one dataset record per pair")
        if any(nl.get(proof) != text for proof, text in records):
            errors.append("a record's statement text is not its pair's")
        return errors


_CONJUNCTS = re.compile(r'shows\s+"([^"]*)"')


@functools.lru_cache(maxsize=None)
def _wildcard(pattern: str) -> re.Pattern:
    return re.compile("".join(".*" if c == "*" else "." if c == "?"
                              else re.escape(c) for c in pattern), re.S)


def _match(pattern: str, value: str) -> bool:
    return _wildcard(pattern).fullmatch(value) is not None


def expected_conjuncts(item: gen.PolicyItem) -> list[str]:
    """Brute force over the request universe: every action crossed with
    every resource pattern's witness, allowed iff some Allow statement and no
    Deny statement matches (principal ``anyone``, conditions ignored)."""
    statements = item.policy["Statement"]

    def listed(value):
        return value if isinstance(value, list) else [value]

    def matches(stmt, action, resource):
        principal = stmt.get("Principal", "*")
        principals = [v for vals in principal.values() for v in listed(vals)] \
            if isinstance(principal, dict) else listed(principal)
        return (any(_match(a, action) for a in listed(stmt["Action"]))
                and any(_match(r, resource) for r in listed(stmt["Resource"]))
                and any(p == "*" or _match(p, "anyone") for p in principals))

    patterns: list[str] = []
    for stmt in statements:
        for resource in listed(stmt["Resource"]):
            if resource not in patterns:
                patterns.append(resource)
    action = f"{item.service}:{item.action_ctor}"
    out = []
    for pattern in patterns:
        witness = pattern.replace("*", "w").replace("?", "w")
        allowed = [s for s in statements if matches(s, action, witness)]
        if any(s["Effect"] == "Allow" for s in allowed) and \
                not any(s["Effect"] == "Deny" for s in allowed):
            out.append(f"policy_allows {item.entry} {item.action_ctor} "
                       f"{item.classes[pattern]}")
    return out


class PolicyOffline:
    name = "policy-offline"
    # one batch: a window over all policies takes well under a second
    batches = 1
    # no modelled latency: every timing is Python CPU time
    cpu_bound = True

    def setup(self, seed: int, workdir: Path, batch: int = 0) -> Env:
        env = Env(workdir)
        env.items = gen.gen_policies(seed, POLICY_ITEMS)
        env.csv = gen.policy_csv(env.items)
        prover = WorldProver(ZERO)
        model = InProcessModel(Responder({i.theorem: i.plan for i in env.items}))
        env.prover, env.model = prover, model
        env.prover_config = ProverConfig(pool_size=1)
        # the closure holds the doubles, not env, so no reference cycle
        # keeps a finished window's inputs alive until a collection
        env.counters = lambda: (prover.counters.snapshot(),
                                model.counters.snapshot())
        return env

    def run(self, env: Env, tracer: Optional[Tracer]) -> Window:
        model, prover = _clients(env, tracer)
        with _span(tracer, "policy.parse"):
            documents = load_policy_csv(env.csv)
        theories: dict[str, str] = {}
        unsupported: list[str] = []
        for document in documents:
            with _span(tracer, "formalize.compile") as attrs:
                try:
                    skeleton = compile_policy(document)
                except UnsupportedPolicy:
                    unsupported.append(document.source_name)
                    attrs["unsupported"] = True
                    continue
            with _span(tracer, "formalize.render"):
                theories[document.source_name] = render_theory(skeleton)
        spec = BenchmarkSpec(
            "policy-offline",
            tuple(BenchmarkProblem(name, text) for name, text in theories.items()),
            _budget(env.prover_config))
        result = _proving_window(env, spec, model, prover, 1, tracer)
        result.items = len(documents)
        result.extra.update(theories=theories, unsupported=unsupported,
                            problems=spec.problems)
        return result

    def check(self, env: Env, result: Window) -> list[str]:
        errors = _check_records(result.extra["problems"], result.records,
                                env.records_path)
        theories = result.extra["theories"]
        want_unsupported = [i.name for i in env.items if i.kind in gen.UNSUPPORTED]
        if sorted(result.extra["unsupported"]) != sorted(want_unsupported):
            errors.append("rejected policies differ from the unsupported ones")
        for item in env.items:
            if item.name not in theories:
                continue
            match = _CONJUNCTS.search(theories[item.name])
            got = [c.strip() for c in match.group(1).split("∧")] if match else []
            if got != expected_conjuncts(item):
                errors.append(f"{item.name}: theorem conjuncts differ from "
                              "brute-force evaluation")
        return errors


WORKLOADS = {w.name: w for w in (ProveRepair(), CurateVerify(), PolicyOffline())}


def new_workdir(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=root))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)

