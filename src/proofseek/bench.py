"""Benchmark running and report aggregation.

Records stream to JSONL as problems finish, so a killed run resumes by
skipping problems that already have records.  Aggregation excludes
undetermined records (backend aborts) from both numerator and denominator
and reports them separately: infrastructure faults must not masquerade as
proof failures.
"""

from __future__ import annotations

import csv
import io
import logging
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .engine import (
    AttemptRecord,
    BudgetConfig,
    Stage,
    prove,
    run_pool,
    sampling_request,
)
from .errors import EmptyInput, TransportError
from .jsonl import append_jsonl, loads, read_rows, text_values, typed
from .model import ModelBackend, ModelParams, PromptRecord
from .prover import ProverBackend

__all__ = [
    "BenchmarkProblem",
    "BenchmarkSpec",
    "EvalReport",
    "aggregate",
    "format_hms",
    "format_table",
    "last_records",
    "load_benchmark",
    "run_benchmark",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BenchmarkProblem:
    problem_name: str
    formal_statement: str

    def __post_init__(self) -> None:
        if not self.formal_statement.strip():
            raise ValueError("formal_statement must be non-empty")


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    problems: tuple[BenchmarkProblem, ...]
    budget: BudgetConfig = field(default_factory=BudgetConfig)

    def __post_init__(self) -> None:
        names = [p.problem_name for p in self.problems]
        if len(names) != len(set(names)):
            raise ValueError("problem names must be unique")


def load_benchmark(path: Union[str, Path], name: str = "",
                   budget: Optional[BudgetConfig] = None) -> BenchmarkSpec:
    """Build a spec from JSONL rows carrying problem_name/formal_statement;
    other keys are ignored."""
    return BenchmarkSpec(name or Path(path).stem,
                         tuple(read_rows(path, BenchmarkProblem)),
                         budget or BudgetConfig())


def _torn_tail(data: bytes) -> Optional[int]:
    """Where the torn last line of a records file's bytes starts, if it has
    one: a last line that ends in no newline and is not JSON, as a killed or
    still-running run leaves it."""
    cut = data.rfind(b"\n") + 1
    try:
        loads(data[cut:])
    except ValueError:
        return cut if cut < len(data) else None
    return None


def last_records(path: Union[str, Path]) -> dict[str, AttemptRecord]:
    """Each problem's record in a records file, by problem name: its last
    one, since a resumed run appends a problem's new record after the
    undetermined one it replaces.  A torn last line is logged and skipped,
    and the file is never written: a live run may still be writing it."""
    data = Path(path).read_bytes()
    cut = _torn_tail(data)
    if cut is not None:
        log.warning("%s: skipping torn final line %r", path, data[cut:][:80])
    return {record.problem_name: record for record in (
        typed(AttemptRecord, value, where)
        for where, value in text_values(path, data[:cut].decode("utf-8")))}


def _undetermined_record(problem_name: str) -> AttemptRecord:
    return AttemptRecord(
        problem_name=problem_name, success=False, i_try=0,
        success_stage=Stage.FAILED.value, has_timeout=False, extra_calls=0,
        has_sc=False, wall_time_s=0.0, undetermined=True)


def _cut_torn_tail(path: Path) -> None:
    """End the file on a newline, so the next append does not glue a record
    onto its last line: a complete last record gets its missing newline, a
    torn one (left by a killed run) is logged and cut off."""
    data = path.read_bytes() if path.exists() else b""
    cut = _torn_tail(data)
    if cut is not None:
        log.warning("%s: dropping torn final line %r", path, data[cut:][:80])
        os.truncate(path, cut)
    elif data and not data.endswith(b"\n"):
        with open(path, "ab") as handle:
            handle.write(b"\n")


def _text_size(answer: Future) -> int:
    """How much candidate text a returned sample holds; a fault holds none."""
    return 0 if answer.exception() else sum(map(len, answer.result()))


class _SampledAhead(ModelBackend):
    """The run's model as one problem sees it: the problem's whole-proof
    request, sent ahead, is answered from its future, once and only for
    that exact request; every other request goes to the model.  A fault of
    the request sent ahead is raised here, where ``prove`` asks for it."""

    def __init__(self, model: ModelBackend, request: tuple, answer: Future):
        super().__init__()
        self.model = model
        self._request: Optional[tuple] = request
        self._answer = answer

    def complete(self, params: ModelParams, prompt: PromptRecord,
                 n: int = 1) -> list[str]:
        with self._lock:
            ahead = (params, prompt, n) == self._request
            if ahead:
                self._request = None
        if ahead:
            return self._answer.result()
        return self.model.complete(params, prompt, n)


def run_benchmark(
    spec: BenchmarkSpec, model: ModelBackend, prover: ProverBackend,
    records_path: Union[str, Path],
    pool_size: Optional[int] = None,
    prove_fn: Callable[..., AttemptRecord] = prove,
    few_shots: Sequence[tuple[str, str]] = (),
) -> list[AttemptRecord]:
    """One AttemptRecord per problem, written incrementally.

    Problems whose last record in ``records_path`` is determined are not
    re-run; backend aborts become undetermined records rather than failures,
    and a resume runs those problems again.  The problems run on
    ``pool_size`` workers, by default the prover's own ``pool_size``.

    At a pool size p above 1 the model samples ahead of the prover: the
    whole-proof requests (``sampling_request``) of every problem to run go
    out as the run starts, in spec order, p at a time on p sampler threads.
    A free worker takes, of the problems whose sample is back, the one whose
    candidates hold the most text (ties in spec order, a faulted sample
    last), or the next problem in spec order if none is back, so a long
    problem does not start last and run alone.  ``prove_fn`` gets a model
    that answers its problem's request from there and passes every other
    request (ERP's) to ``model``, so a fault of the request sent ahead is
    raised where ``prove`` asks for it, and a TransportError still leaves
    only that problem undetermined.  Up to 2p model requests are in flight
    at once: p sent ahead and the workers' own.  Requests still queued when
    the run ends are cancelled.  A killed run loses the samples of the
    problems it never started, and a resume sends them again.  The records
    file is in completion order.  At pool size 1 nothing is sent ahead, the
    problems run in spec order, and every model request runs on the
    caller's thread.  The returned records are in spec order.
    """
    records_path = Path(records_path)
    _cut_torn_tail(records_path)
    existing = last_records(records_path) if records_path.exists() else {}
    todo = [p for p in spec.problems if p.problem_name not in existing
            or existing[p.problem_name].undetermined]
    pool_size = pool_size or prover.config.pool_size
    write_lock = threading.Lock()
    sampler = (ThreadPoolExecutor(pool_size, "sampler") if pool_size > 1
               else None)
    unstarted = list(range(len(todo)))  # indices into todo, in spec order
    pick_lock = threading.Lock()

    def worker(_: int) -> AttemptRecord:
        # the sampled problem with the most candidate text, else the next one
        with pick_lock:
            index = max((i for i in unstarted if sent and sent[i][1].done()),
                        key=lambda i: _text_size(sent[i][1]),
                        default=unstarted[0])
            unstarted.remove(index)
        problem = todo[index]
        sampled = _SampledAhead(model, *sent[index]) if sent else model
        try:
            record = prove_fn(problem.formal_statement, sampled, prover,
                              spec.budget, few_shots,
                              problem_name=problem.problem_name)
        except TransportError:
            record = _undetermined_record(problem.problem_name)
        with write_lock:
            append_jsonl(records_path, record.to_json())
        return record

    try:
        requests = ([sampling_request(p.formal_statement, spec.budget,
                                      few_shots) for p in todo]
                    if sampler is not None else [])
        sent = [(request, sampler.submit(model.complete, *request))
                for request in requests]
        outcomes = run_pool(range(len(todo)), worker, pool_size)
    finally:
        if sampler is not None:
            sampler.shutdown(cancel_futures=True)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    fresh = {record.problem_name: record for record in outcomes}
    return [fresh.get(p.problem_name) or existing[p.problem_name]
            for p in spec.problems]


# ---------------------------------------------------------------------------
# aggregation

def _round_half_up(value: float, places: int) -> float:
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def format_hms(seconds: float) -> str:
    total = int(Decimal(repr(seconds)).quantize(0, rounding=ROUND_HALF_UP))
    hours, remainder = divmod(total, 3600)
    minutes, secs = divmod(remainder, 60)
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"


@dataclass(frozen=True)
class EvalReport:
    success_rate: float  # percent, one decimal
    avg_attempts: float  # mean i_try, two decimals
    total_exec_time: str  # h:mm:ss
    n_problems: int
    n_success: int
    n_undetermined: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.success_rate <= 100:
            raise ValueError("success_rate out of range")
        if self.n_success > self.n_problems:
            raise ValueError("n_success exceeds n_problems")


def aggregate(records: Sequence[AttemptRecord]) -> EvalReport:
    """Success rate (half-up, 1 decimal), mean attempts (2 decimals), and
    total wall time over the determined records."""
    if not records:
        raise EmptyInput("no records to aggregate")
    determined = [r for r in records if not r.undetermined]
    n_undetermined = len(records) - len(determined)
    if not determined:
        raise EmptyInput("all records are undetermined")
    n_problems = len(determined)
    n_success = sum(1 for r in determined if r.success)
    avg_attempts = sum(r.i_try for r in determined) / n_problems
    return EvalReport(
        success_rate=_round_half_up(100.0 * n_success / n_problems, 1),
        avg_attempts=_round_half_up(avg_attempts, 2),
        total_exec_time=format_hms(sum(r.wall_time_s for r in determined)),
        n_problems=n_problems,
        n_success=n_success,
        n_undetermined=n_undetermined,
    )


# ---------------------------------------------------------------------------
# report formatting

_HEADERS = ["Method", "Success Rate (%)", "Avg Attempts",
            "Total Exec. Time (h:mm:ss)"]


def format_table(rows: Sequence[tuple[str, str, EvalReport]]) -> tuple[str, str]:
    """Markdown and CSV for (dataset, method, report) rows, grouped by
    dataset in first-appearance order."""
    groups: dict[str, list[tuple[str, EvalReport]]] = {}
    for dataset, method, report in rows:
        groups.setdefault(dataset, []).append((method, report))

    md_lines: list[str] = []
    for dataset, entries in groups.items():
        md_lines.append(f"**{dataset}**")
        md_lines.append("")
        md_lines.append("| " + " | ".join(_HEADERS) + " |")
        md_lines.append("|" + "|".join("---" for _ in _HEADERS) + "|")
        for method, report in entries:
            md_lines.append(
                f"| {method} | {report.success_rate:.1f} | "
                f"{report.avg_attempts:.2f} | {report.total_exec_time} |")
        footnotes = sum(r.n_undetermined for _, r in entries)
        if footnotes:
            md_lines.append("")
            md_lines.append(f"_{footnotes} undetermined record(s) excluded "
                            f"(backend aborts)._")
        md_lines.append("")
    markdown = "\n".join(md_lines).rstrip() + "\n"

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["Dataset", *_HEADERS, "Problems", "Successes",
                     "Undetermined"])
    for dataset, entries in groups.items():
        for method, report in entries:
            writer.writerow([dataset, method, f"{report.success_rate:.1f}",
                             f"{report.avg_attempts:.2f}",
                             report.total_exec_time, report.n_problems,
                             report.n_success, report.n_undetermined])
    return markdown, buffer.getvalue()
