"""Run one workload of the proofseek benchmark and print its metrics.

    python3 perfbench/run.py --workload prove-repair --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``.  A
workload's item set is split into batches of the same mix; a run times one
window per batch, cycling through them in whole cycles: one cycle, then more
until the next would overrun ``--seconds``.  Each window is set up afresh
(its set-up time is one ``setup_s`` sample) and its outputs are checked after
its timed region.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it spends half its time untraced and half traced and
prints the per-layer metrics of the first traced cycle, writing its spans
under ``.perfbench/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from calibrate import probe, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WARM_SETUPS = 4  # extra set-ups per run, so setup_s is a median of several


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_windows(workload, seed: int, budget_s: float, workdir: Path,
                traced: bool, warm: int = 0):
    """Timed windows over the batches in turn, in whole cycles (one window
    per batch): one cycle, then more until the next would overrun
    ``budget_s``.  Whole cycles weigh every batch, and every item, alike.

    Returns (windows, set-up times, check errors, tracer).  In a traced run
    every window is traced; the tracer holds the first cycle's spans, and
    only the first cycle's windows keep their records and the client
    proxies' totals.  No window keeps a client: a live client holds its
    connection, and with it a thread of the double that serves it, open.
    Set-up times, and every timing of a CPU-bound workload, are scaled to
    the CPU probe's nominal speed (see ``calibrate``).
    """
    from tracing import Patches, Tracer
    windows, setups, errors = [], [], []
    cycle_tracer = Tracer() if traced else None

    def set_up(batch: int):
        before = probe()
        started = time.perf_counter()
        env = workload.setup(seed, workdir, batch)
        took = time.perf_counter() - started
        after = probe()
        setups.append(took * speed(before, after))
        return env, after

    for _ in range(warm):
        set_up(0)[0].close()
    started_all = time.perf_counter()
    for k in itertools.count():
        first_cycle = k < workload.batches
        env, before = set_up(k % workload.batches)
        tracer = None if not traced else cycle_tracer if first_cycle else Tracer()
        try:
            with Patches(tracer) if traced else nullcontext():
                started = time.perf_counter()
                result = workload.run(env, tracer)
                result.elapsed_s = time.perf_counter() - started
            if workload.cpu_bound:
                result.normalize(speed(before, probe()))
            result.prover, result.model = env.counters()
        finally:
            env.close()
        errors += workload.check(env, result)
        if traced and first_cycle:
            result.extra.update(traced_prover=env.traced_prover.snapshot(),
                                traced_model=env.traced_model.snapshot())
        else:
            # keep only what the metrics need, so memory does not grow with
            # the number of windows a run makes
            result.records = result.extra = None
        windows.append(result)
        cycles, rest = divmod(k + 1, workload.batches)
        spent = time.perf_counter() - started_all
        if rest == 0 and spent + spent / cycles > budget_s:
            return windows, setups, errors, cycle_tracer


def _throughput(windows) -> float:
    """Median over windows of items per second of the window's timed region."""
    return statistics.median(w.items / w.elapsed_s for w in windows)


def _per_item(windows, attr: str) -> list[float]:
    """Each item's median time over the windows that ran it."""
    times: dict[str, list[float]] = {}
    for window in windows:
        for item, seconds in getattr(window, attr).items():
            times.setdefault(item, []).append(seconds)
    return [statistics.median(v) for v in times.values()]


def end_to_end(windows, setups, batches: int) -> dict:
    """Timings are medians over windows, per item where an item ran more
    than once, so a slow spell of a shared machine during a minority of
    windows does not move them.  Counts and rates are exact: they come from
    the first cycle, which runs every item once."""
    cycle = windows[:batches]
    items = sum(w.items for w in cycle)
    item_times = _per_item(windows, "item_times")
    return {
        "throughput_items_per_s": (_throughput(windows), "items/s"),
        "item_p50_s": (statistics.median(item_times), "s"),
        "item_p90_s": (statistics.quantiles(item_times, n=10)[8], "s"),
        "success_rate": (100.0 * sum(w.successes for w in cycle)
                         / sum(w.determined for w in cycle), "%"),
        "avg_attempts": (sum(w.attempts for w in cycle)
                         / sum(w.attempt_base for w in cycle), "attempts"),
        "total_exec_time_s": (sum(_per_item(windows, "exec_times")), "s"),
        "prover_applies_per_item": (
            sum(w.prover["apply"] + w.prover["hammer"] for w in cycle) / items,
            "calls"),
        "prover_sessions_per_item": (
            sum(w.prover["init"] for w in cycle) / items, "sessions"),
        "model_requests_per_item": (
            sum(w.model["request"] for w in cycle) / items, "requests"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(cycle, tracer) -> dict:
    """Per-layer metrics of one traced cycle (every item once)."""
    from proofseek.engine import Stage
    from tracing import self_times, span_stats
    stats = span_stats(tracer.spans)
    own = self_times(tracer.spans)
    provers = [w.extra["traced_prover"] for w in cycle]
    models = [w.extra["traced_model"] for w in cycle]

    def counted(key, snapshots=provers):
        return sum(s[key] for s in snapshots)

    service_s = sum(w.prover["busy_s"] for w in cycle)
    model_service_s = sum(w.model["busy_s"] for w in cycle)
    client_s, lock_wait_s = counted("client_s"), counted("lock_wait_s")
    model_client_s = counted("client_s", models)

    def count(name):
        return stats.get(name, (0, 0.0, 0))[0]

    def secs(name):
        return stats.get(name, (0, 0.0, 0))[1]

    def ok_share(name):
        entry = stats.get(name, (0, 0.0, 0))
        return _ratio(entry[2], entry[0])

    records = [r for w in cycle for r in w.records]
    out = {
        "prover.init.count": (counted("init"), "count"),
        "prover.apply.count": (counted("apply"), "count"),
        "prover.hammer.count": (counted("hammer"), "count"),
        "prover.close.count": (counted("close"), "count"),
        "prover.timeout.count": (counted("timeout"), "count"),
        "prover.apply.ok_ratio": (_ratio(counted("apply_ok"), counted("apply")),
                                  "ratio"),
        "prover.replay.count": (counted("replay"), "count"),
        "prover.service_s": (service_s, "s"),
        "prover.client_s": (client_s, "s"),
        "prover.wait_s": (client_s - service_s, "s"),
        "prover.lock_wait_s": (lock_wait_s, "s"),
        "prover.wire_s": (client_s - service_s - lock_wait_s, "s"),
        "model.request.count": (counted("request", models), "count"),
        "model.samples.count": (counted("samples", models), "count"),
        "model.service_s": (model_service_s, "s"),
        "model.client_s": (model_client_s, "s"),
        "model.wait_s": (model_client_s - model_service_s, "s"),
        "engine.prove.count": (count("engine.prove"), "count"),
        "engine.candidates.count": (sum(r.i_try + 1 for r in records), "count"),
        "engine.extra_calls": (sum(r.extra_calls for r in records), "calls"),
        "engine.atp.count": (count("engine.atp"), "count"),
        "engine.atp.success_ratio": (ok_share("engine.atp"), "ratio"),
        "engine.atp_s": (secs("engine.atp"), "s"),
        "engine.erp.count": (count("engine.erp"), "count"),
        "engine.erp.success_ratio": (ok_share("engine.erp"), "ratio"),
        "engine.erp_s": (secs("engine.erp"), "s"),
        "engine.heuristic.count": (count("engine.heuristic"), "count"),
        "engine.backtrack.count": (count("isar.surgery.truncate"), "count"),
    }
    for stage in Stage:
        out[f"engine.stage.{stage.value}.count"] = (
            sum(r.success_stage == stage.value for r in records), "count")
    out.update({
        "isar.parse.count": (count("isar.parse"), "count"),
        "isar.parse_s": (secs("isar.parse"), "s"),
        "isar.surgery.count": (count("isar.surgery"), "count"),
        "isar.surgery_s": (secs("isar.surgery"), "s"),
        "isar.render_s": (secs("isar.render"), "s"),
        "policy.parse_s": (secs("policy.parse"), "s"),
        "policy.evaluate.count": (count("policy.evaluate"), "count"),
        "policy.evaluate_s": (secs("policy.evaluate"), "s"),
        "formalize.compile.count": (count("formalize.compile"), "count"),
        "formalize.compile_s": (secs("formalize.compile"), "s"),
        "formalize.render_s": (secs("formalize.render"), "s"),
        "formalize.unsupported.count": (
            sum(len(w.extra.get("unsupported", ())) for w in cycle), "count"),
        "curate.check.count": (count("curate.check"), "count"),
        "curate.check_s": (secs("curate.check"), "s"),
        "curate.records_s": (secs("curate.records"), "s"),
        "bench.append.count": (count("bench.append"), "count"),
        "bench.append_s": (secs("bench.append"), "s"),
        "bench.aggregate_s": (secs("bench.aggregate"), "s"),
    })
    for layer, seconds in own.items():
        out[f"{layer}.self_s"] = (seconds, "s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "proofseek").is_dir():
        return _fail("the program's sources (src/proofseek) are missing; "
                     "run from a full checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import workloads
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")

    workroot = ROOT / ".perfbench"
    workdir = workloads.new_workdir(workroot)
    try:
        if args.trace:
            half = args.seconds / 2
            plain, _, errors, _ = run_windows(workload, args.seed, half,
                                              workdir, False)
            traced, _, more, tracer = run_windows(workload, args.seed, half,
                                                  workdir, True)
            errors += more
            metrics = per_layer(traced[:workload.batches], tracer)
            metrics["trace.overhead_items_per_s"] = (
                _throughput(traced) - _throughput(plain), "items/s")
            tracer.write(workroot / f"trace-{args.workload}-seed{args.seed}.jsonl")
            windows = plain + traced
        else:
            windows, setups, errors, _ = run_windows(
                workload, args.seed, args.seconds, workdir, False,
                warm=WARM_SETUPS)
            metrics = end_to_end(windows, setups, workload.batches)
    finally:
        workloads.remove_workdir(workdir)
        for thread in threading.enumerate():
            if thread is not threading.main_thread():
                thread.join(timeout=10)

    attempted = sum(w.items for w in windows)
    failed = sum(w.failed for w in windows)
    if errors:
        for error in sorted(set(errors)):
            print(f"perfbench: output check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    width = max(len(name) for name in metrics)
    print(f"# {args.workload} seed={args.seed} windows={len(windows)} "
          f"items={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6f}  {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
