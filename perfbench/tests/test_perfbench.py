"""Quick checks of the benchmark itself (not part of the program's suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from model_double import InProcessModel, ModelServer, Responder  # noqa: E402
from proofseek.bench import BenchmarkProblem, BenchmarkSpec, run_benchmark  # noqa: E402
from proofseek.engine import BudgetConfig, prove  # noqa: E402
from proofseek.model import ChatModelClient  # noqa: E402
from proofseek.prover import ProverConfig, ProverServer, WireProver  # noqa: E402
from world import ZERO, WorldProver, goal_info  # noqa: E402

ONE_EACH = {outcome: 1 for outcome in gen.PROVE_MIX}


def _texts(items):
    return [(i.name, i.statement, i.plan.candidates) for i in items]


def test_generators_are_reproducible_per_seed():
    assert _texts(gen.gen_prove_repair(5, 30)) == _texts(gen.gen_prove_repair(5, 30))
    assert _texts(gen.gen_prove_repair(5, 30)) != _texts(gen.gen_prove_repair(6, 30))
    assert gen.policy_csv(gen.gen_policies(5, 20)) == gen.policy_csv(gen.gen_policies(5, 20))
    assert gen.policy_csv(gen.gen_policies(5, 20)) != gen.policy_csv(gen.gen_policies(6, 20))
    first = [(i.statement, i.proof) for i in gen.gen_curate(5, 20)]
    assert first == [(i.statement, i.proof) for i in gen.gen_curate(5, 20)]
    assert first != [(i.statement, i.proof) for i in gen.gen_curate(6, 20)]


def test_batches_share_the_mix_but_no_names():
    batches = [gen.gen_prove_repair(5, workloads.PROVE_ITEMS, batch=b)
               for b in range(workloads.PROVE_BATCHES)]
    mixes = [sorted(i.outcome for i in batch) for batch in batches]
    assert all(mix == mixes[0] for mix in mixes)
    names = [i.name for batch in batches for i in batch]
    assert len(set(names)) == len(names)
    pairs = [gen.gen_curate(5, workloads.CURATE_ITEMS, batch=b) for b in range(2)]
    assert sorted(i.kind for i in pairs[0]) == sorted(i.kind for i in pairs[1])
    assert not {i.name for i in pairs[0]} & {i.name for i in pairs[1]}


def _prove(item, model, prover):
    return prove(item.statement, model, prover,
                 BudgetConfig(sample_budget=workloads.SAMPLE_BUDGET),
                 problem_name=item.name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_intended_outcome_is_reached(seed):
    items = gen.gen_prove_repair(seed, mix=ONE_EACH)
    model = InProcessModel(Responder({i.name: i.plan for i in items}))
    prover = WorldProver(ZERO)
    stages = {}
    for item in items:
        record = _prove(item, model, prover)
        stages[item.outcome] = (record.success_stage, record.has_sc,
                                record.extra_calls)
    assert stages["init_proof"][0] == "init_proof"
    assert stages["cascade"][0] == "atp" and not stages["cascade"][1]
    assert stages["hammer"][0] == "atp" and stages["hammer"][2] >= 10
    assert stages["erp"][0] == "erp"
    assert stages["heuristic"][0] == "heuristic"
    assert stages["backtrack"][0] == "atp" and stages["backtrack"][1]
    assert stages["failed"][0] == "failed"


def test_a_full_instance_reaches_timeouts_and_retries():
    items = gen.gen_prove_repair(1, 100)
    model = InProcessModel(Responder({i.name: i.plan for i in items}))
    records = [_prove(i, model, WorldProver(ZERO)) for i in items]
    assert any(r.has_timeout for r in records)
    assert any(r.success and r.i_try > 0 for r in records)
    assert sum(not r.success for r in records) == gen.PROVE_MIX["failed"]


def test_output_check_rejects_a_planted_unsound_success():
    item = next(i for i in gen.gen_prove_repair(1, mix=ONE_EACH)
                if i.outcome == "init_proof")
    script = item.plan.true_steps
    assert workloads.recheck(item.statement, "\n".join(script))
    # swap one justification for a tactic the world does not accept
    at = next(k for k, line in enumerate(script) if " by " in line)
    body = script[at].rsplit(" by ", 1)[0]
    forged = [*script[:at], body + " by (metis forged)", *script[at + 1:]]
    assert not workloads.recheck(item.statement, "\n".join(forged))
    # a placeholder is never accepted either
    sorried = [*script[:at], body + " sorry", *script[at + 1:]]
    assert not workloads.recheck(item.statement, "\n".join(sorried))


def test_record_check_flags_an_unsound_record(tmp_path):
    item = next(i for i in gen.gen_prove_repair(1, mix=ONE_EACH)
                if i.outcome == "failed")
    from proofseek.engine import AttemptRecord
    forged = AttemptRecord(item.name, True, 0, "init_proof", False, 0, False,
                           0.1, final_script="\n".join(item.plan.cand_steps))
    path = tmp_path / "records.jsonl"
    path.write_text('{"problem_name": "%s"}\n' % item.name, encoding="utf-8")
    problem = BenchmarkProblem(item.name, item.statement)
    errors = workloads._check_records([problem], [forged], path)
    assert errors == [f"{item.name}: success does not re-check"]


def _wire_counts(items, pool, tmp_path):
    double = WorldProver(ZERO)
    server = ProverServer(double).start()
    models = ModelServer(Responder({i.name: i.plan for i in items}), 0.0).start()
    prover = WireProver(ProverConfig(endpoint=server.address, pool_size=pool))
    try:
        spec = BenchmarkSpec("t", tuple(BenchmarkProblem(i.name, i.statement)
                                        for i in items),
                             BudgetConfig(sample_budget=workloads.SAMPLE_BUDGET))
        records = run_benchmark(spec, ChatModelClient(url=models.url, api_key=""),
                                prover, tmp_path / f"r{pool}.jsonl", pool_size=pool)
    finally:
        prover.shutdown()
        models.stop()
        server.stop()
    counts = double.counters.snapshot()
    counts.pop("busy_s")
    model = models.counters.snapshot()
    return counts, model["request"], model["samples"], [
        (r.problem_name, r.success_stage, r.i_try, r.extra_calls,
         r.final_script) for r in records]


def test_counts_are_identical_at_pool_1_and_pool_2(tmp_path):
    items = gen.gen_prove_repair(4, 24)
    assert _wire_counts(items, 1, tmp_path) == _wire_counts(items, 2, tmp_path)


def test_curate_partition_matches_ground_truth(tmp_path):
    workload = workloads.CurateVerify()
    workloads.CURATE_ITEMS, saved = 12, workloads.CURATE_ITEMS
    try:
        env = workload.setup(3, tmp_path)
        try:
            result = workload.run(env, None)
        finally:
            env.close()
    finally:
        workloads.CURATE_ITEMS = saved
    assert workload.check(env, result) == []
    assert len(result.extra["filter"].rl_pool) == sum(
        i.kind == "verifies" for i in env.items)


def test_compiled_conjuncts_match_brute_force(tmp_path):
    workload = workloads.PolicyOffline()
    env = workload.setup(2, tmp_path)
    result = workload.run(env, None)
    assert workload.check(env, result) == []
    assert len(result.extra["unsupported"]) == sum(
        gen.POLICY_MIX[k] for k in gen.UNSUPPORTED)
    # a theorem with one wrong conjunct is caught
    name = next(iter(result.extra["theories"]))
    text = result.extra["theories"][name]
    result.extra["theories"][name] = text.replace(" AllResources ∧", " Other ∧", 1)
    assert any("brute-force" in e for e in workload.check(env, result))


def test_world_goal_classes_are_a_pure_function_of_item_and_text():
    goal = "f1 (g2 x) = h3 x + 4"
    assert goal_info("a", goal) == goal_info("a", "  f1 (g2   x) = h3 x + 4 ")
    classes = {goal_info(f"item{k}", goal).cls for k in range(200)}
    assert classes == {"cascade", "hammer", "model", "false"}


def test_a_traced_cycle_leaves_no_thread_running(tmp_path, monkeypatch):
    import threading

    import run
    monkeypatch.setattr(workloads, "PROVE_ITEMS", 3)
    workload = workloads.ProveRepair()
    windows, setups, errors, tracer = run.run_windows(
        workload, 2, 0.0, tmp_path, traced=True)
    assert errors == [] and len(windows) == workload.batches
    assert len(setups) == workload.batches
    layers = run.per_layer(windows, tracer)
    assert layers["engine.prove.count"][0] == 3 * workload.batches
    assert layers["prover.lock_wait_s"][0] >= 0.0
    deadline = time.monotonic() + 5
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert threading.active_count() == 1
