import contextlib
import dataclasses
import json
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseek.bench import (
    BenchmarkProblem,
    BenchmarkSpec,
    EvalReport,
    aggregate,
    format_hms,
    format_table,
    load_benchmark,
    run_benchmark,
)
from proofseek.engine import (
    AttemptRecord,
    BudgetConfig,
    run_pool,
    sampling_request,
)
from proofseek.errors import EmptyInput, TransportError
from proofseek.jsonl import read_jsonl, write_jsonl
from proofseek.model import (
    MockModel,
    ModelBackend,
    RecordingModel,
    ReplayModel,
    prompt_digest,
)
from proofseek.prompts import erp_prompt
from proofseek.prover import MockOutcome, MockProver, RecordingProver, ReplayProver

from fixtures import ScheduledProver


def _record(name, success, i_try=0, wall=1.0, undetermined=False):
    return AttemptRecord(
        problem_name=name, success=success, i_try=i_try,
        success_stage="init_proof" if success else "failed",
        has_timeout=False, extra_calls=0, has_sc=False, wall_time_s=wall,
        final_script="by simp" if success else None,
        undetermined=undetermined)


# ---------------------------------------------------------------------------
# aggregation arithmetic

def test_success_rate_24_of_25():
    records = [_record(f"p{i}", i < 24) for i in range(25)]
    assert aggregate(records).success_rate == 96.0


def test_success_rate_168_of_243():
    records = [_record(f"p{i}", i < 168) for i in range(243)]
    assert aggregate(records).success_rate == 69.1


def test_total_time_formatting():
    records = [_record("p", True, wall=196.01)]
    assert aggregate(records).total_exec_time == "00:03:16"


def test_format_hms_values():
    assert format_hms(196.01) == "00:03:16"
    assert format_hms(0) == "00:00:00"
    assert format_hms(3600) == "01:00:00"
    assert format_hms(38651.78) == "10:44:12"
    assert format_hms(59.6) == "00:01:00"


def test_format_hms_within_one_second_of_total():
    import random
    rng = random.Random(59)
    for _ in range(200):
        total = rng.uniform(0, 90000)
        hours, minutes, seconds = (int(p) for p in format_hms(total).split(":"))
        assert minutes < 60 and seconds < 60
        assert abs(hours * 3600 + minutes * 60 + seconds - total) <= 1.0


def test_avg_attempts_two_decimals():
    records = [_record("a", True, 0), _record("b", True, 0),
               _record("c", True, 1), _record("d", False, 3)]
    assert aggregate(records).avg_attempts == 1.00


def test_rounding_half_up():
    # 5 of 8 = 62.5 stays 62.5; 1 of 16 = 6.25 rounds up to 6.3
    records = [_record(f"p{i}", i < 1) for i in range(16)]
    assert aggregate(records).success_rate == 6.3


def test_aggregate_all_success_and_all_failure():
    assert aggregate([_record("a", True)]).success_rate == 100.0
    assert aggregate([_record("a", False)]).success_rate == 0.0


def test_aggregate_permutation_invariant():
    records = [_record(f"p{i}", i % 3 == 0, i % 4, wall=i) for i in range(12)]
    forward = aggregate(records)
    assert aggregate(list(reversed(records))) == forward


def test_aggregate_empty_inputs():
    with pytest.raises(EmptyInput):
        aggregate([])
    with pytest.raises(EmptyInput):
        aggregate([_record("a", False, undetermined=True)])


def test_aggregate_excludes_undetermined_from_both_sides():
    records = [_record("a", True), _record("b", False),
               _record("c", False, undetermined=True)]
    report = aggregate(records)
    assert report.n_problems == 2
    assert report.success_rate == 50.0
    assert report.n_undetermined == 1


def test_report_invariants():
    with pytest.raises(ValueError):
        EvalReport(101.0, 0.0, "00:00:00", 1, 0)
    with pytest.raises(ValueError):
        EvalReport(50.0, 0.0, "00:00:00", 1, 2)


# ---------------------------------------------------------------------------
# table formatting

def _report():
    return EvalReport(96.0, 0.44, "00:03:16", 25, 24)


def test_format_table_single_row():
    markdown, csv_text = format_table([("Curated (25 Problems)",
                                        "pipeline (No ERP)", _report())])
    assert "| pipeline (No ERP) | 96.0 | 0.44 | 00:03:16 |" in markdown
    assert "Success Rate (%)" in markdown
    lines = [l for l in csv_text.strip().splitlines()]
    assert len(lines) == 2


def test_format_table_grouping():
    rows = [("DS-A (2 Problems)", "m1", _report()),
            ("DS-A (2 Problems)", "m2", _report()),
            ("DS-B (3 Problems)", "m1", _report()),
            ("DS-B (3 Problems)", "m2", _report())]
    markdown, csv_text = format_table(rows)
    assert markdown.count("**DS-A (2 Problems)**") == 1
    assert markdown.count("**DS-B (3 Problems)**") == 1
    assert markdown.count("| m1 |") == 2
    assert len(csv_text.strip().splitlines()) == 5


def test_format_table_csv_round_trip():
    import csv as csv_mod
    import io
    _, csv_text = format_table([("D (1 Problems)", "m", _report())])
    rows = list(csv_mod.DictReader(io.StringIO(csv_text)))
    assert float(rows[0]["Success Rate (%)"]) == 96.0
    assert float(rows[0]["Avg Attempts"]) == 0.44
    assert rows[0]["Total Exec. Time (h:mm:ss)"] == "00:03:16"


# ---------------------------------------------------------------------------
# benchmark running

def _fake_prove(outcomes):
    def fake(statement, model, prover, budget, few_shots=(), problem_name=""):
        result = outcomes[problem_name]
        if result == "abort":
            raise TransportError("backend down")
        return _record(problem_name, result)
    return fake


def _spec(names):
    problems = tuple(BenchmarkProblem(n, f'theorem {n}: shows "P" oops')
                     for n in names)
    return BenchmarkSpec("fixture", problems, BudgetConfig(sample_budget=1))


def test_run_benchmark_writes_one_record_per_problem(tmp_path):
    spec = _spec(["p1", "p2", "p3"])
    outcomes = {"p1": True, "p2": True, "p3": False}
    path = tmp_path / "records.jsonl"
    records = run_benchmark(spec, None, None, path, pool_size=1,
                            prove_fn=_fake_prove(outcomes))
    assert [r.problem_name for r in records] == ["p1", "p2", "p3"]
    assert sum(r.success for r in records) == 2
    assert len(read_jsonl(path)) == 3


def test_run_benchmark_resumes_skipping_existing(tmp_path):
    spec = _spec(["p1", "p2", "p3", "p4"])
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [_record("p1", True).to_json(),
                       _record("p2", False).to_json()])
    calls = []

    def tracking(statement, model, prover, budget, few_shots=(),
                 problem_name=""):
        calls.append(problem_name)
        return _record(problem_name, True)

    records = run_benchmark(spec, None, None, path, pool_size=1,
                            prove_fn=tracking)
    assert calls == ["p3", "p4"]
    assert [r.problem_name for r in records] == ["p1", "p2", "p3", "p4"]
    assert not records[1].success  # preserved from the first run


def test_run_benchmark_resume_reruns_an_undetermined_problem(tmp_path):
    # An undetermined record says nothing about the problem: a resume proves
    # it again and returns the fresh record, whose line now comes last.
    spec = _spec(["p1", "p2"])
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [_record("p1", True).to_json(),
                       _record("p2", False, undetermined=True).to_json()])
    calls = []

    def tracking(statement, model, prover, budget, few_shots=(),
                 problem_name=""):
        calls.append(problem_name)
        return _record(problem_name, True)

    records = run_benchmark(spec, None, None, path, pool_size=1,
                            prove_fn=tracking)
    assert calls == ["p2"]
    assert [(r.success, r.undetermined) for r in records] == [
        (True, False), (True, False)]
    assert aggregate(records).n_undetermined == 0
    assert [row["problem_name"] for row in read_jsonl(path)] == [
        "p1", "p2", "p2"]


def test_run_benchmark_resumes_past_a_torn_final_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(_record("p1", False).to_json())
                    + '\n{"extra_calls": 0, "has_sc": false, "has_ti')
    records = run_benchmark(_spec(["p1", "p2", "p3"]), None, None, path,
                            pool_size=1,
                            prove_fn=_fake_prove({"p2": True, "p3": True}))
    assert [r.success for r in records] == [False, True, True]
    assert [row["problem_name"] for row in read_jsonl(path)] == [
        "p1", "p2", "p3"]


def test_run_benchmark_drops_a_torn_final_line_nested_too_deeply(tmp_path):
    # The decoder's RecursionError stopped the resume.
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(_record("p1", False).to_json()) + "\n"
                    + "[" * 100_000)
    records = run_benchmark(_spec(["p1", "p2"]), None, None, path,
                            pool_size=1, prove_fn=_fake_prove({"p2": True}))
    assert [r.success for r in records] == [False, True]
    assert [row["problem_name"] for row in read_jsonl(path)] == ["p1", "p2"]


def test_run_benchmark_resumes_past_a_final_record_without_newline(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(_record("p1", False).to_json()))
    records = run_benchmark(_spec(["p1", "p2"]), None, None, path,
                            pool_size=1, prove_fn=_fake_prove({"p2": True}))
    assert [r.success for r in records] == [False, True]
    assert [row["problem_name"] for row in read_jsonl(path)] == ["p1", "p2"]


def test_run_benchmark_malformed_inner_line_still_raises(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"problem_name": "p1", "succ\n{}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "
                       "Unterminated string") as raised:
        run_benchmark(_spec(["p1"]), None, None, path, pool_size=1,
                      prove_fn=_fake_prove({}))
    assert isinstance(raised.value.__cause__, json.JSONDecodeError)


def test_run_benchmark_rerun_is_noop(tmp_path):
    spec = _spec(["p1", "p2"])
    path = tmp_path / "records.jsonl"
    run_benchmark(spec, None, None, path, pool_size=1,
                  prove_fn=_fake_prove({"p1": True, "p2": True}))
    before = path.read_text()

    def explode(*args, **kwargs):
        raise AssertionError("should not be called")

    run_benchmark(spec, None, None, path, pool_size=1, prove_fn=explode)
    assert path.read_text() == before


def test_run_benchmark_backend_abort_is_undetermined(tmp_path):
    spec = _spec(["p1", "p2"])
    path = tmp_path / "records.jsonl"
    records = run_benchmark(spec, None, None, path, pool_size=1,
                            prove_fn=_fake_prove({"p1": True, "p2": "abort"}))
    assert records[1].undetermined
    report = aggregate(records)
    assert report.n_problems == 1 and report.n_undetermined == 1
    stored = read_jsonl(path)
    assert any(row.get("undetermined") for row in stored)


def test_run_benchmark_empty_completion_batch_is_undetermined(tmp_path):
    from proofseek.model import MockModel
    from proofseek.prover import MockProver

    records = run_benchmark(_spec(["p1"]), MockModel({"whole_proof": [[]]}),
                            MockProver(), tmp_path / "records.jsonl",
                            pool_size=1)
    assert [(r.success, r.undetermined) for r in records] == [(False, True)]
    assert read_jsonl(tmp_path / "records.jsonl")[0]["undetermined"] is True


def test_run_benchmark_records_carry_exact_field_set(tmp_path):
    spec = _spec(["p1"])
    path = tmp_path / "records.jsonl"
    run_benchmark(spec, None, None, path, pool_size=1,
                  prove_fn=_fake_prove({"p1": True}))
    row = read_jsonl(path)[0]
    assert set(row) == {"problem_name", "success", "i_try", "success_stage",
                        "has_timeout", "extra_calls", "has_sc", "wall_time_s",
                        "final_script"}


def test_run_benchmark_concurrent_pool_with_real_backends(tmp_path):
    from proofseek.model import ReplayModel, prompt_digest
    from proofseek.prompts import whole_proof_prompt
    from proofseek.prover import MockProver

    problems, fixtures, table = [], {}, {}
    for i in range(12):
        statement = f'theorem q{i}: shows "Q{i}" oops'
        problems.append(BenchmarkProblem(f"q{i}", statement))
        fixtures[prompt_digest(whole_proof_prompt(statement))] = \
            [f"by (meson w{i})"]
        table[f"by (meson w{i})"] = "ok"
    spec = BenchmarkSpec("pooled", tuple(problems),
                         BudgetConfig(sample_budget=1, erp_enabled=False))
    records = run_benchmark(spec, ReplayModel(fixtures),
                            MockProver(table=table),
                            tmp_path / "records.jsonl", pool_size=4)
    assert [r.problem_name for r in records] == [p.problem_name
                                                 for p in spec.problems]
    assert all(r.success for r in records)


# ---------------------------------------------------------------------------
# sampling ahead

_ERP_CANDIDATE = 'proof -\n  have "x" by foo\n  show ?thesis by simp\nqed'
_ERP_COMPLETION = 'have "x" by (meson helper)\nshow ?thesis by simp\nqed'
_ERP_TABLE = {"proof -": "ok", 'have "x"': "ok",
              'have "x" by (meson helper)': "ok", "show ?thesis": "ok",
              "show ?thesis by simp": "ok", "qed": "ok"}


def _sampled_run(count=8):
    """A spec whose even problems are proved as sampled and whose odd ones
    ERP repairs; the model fixtures and the prover that prove them all."""
    budget = BudgetConfig(sample_budget=1)
    problems, fixtures, table = [], {}, dict(_ERP_TABLE)
    for i in range(count):
        statement = f'theorem q{i}: shows "Q{i}" oops'
        problems.append(BenchmarkProblem(f"q{i}", statement))
        whole = prompt_digest(sampling_request(statement, budget)[1])
        if i % 2:
            fixtures[whole] = [_ERP_CANDIDATE]
            erp = prompt_digest(erp_prompt(statement, "proof -"))
            fixtures[erp] = [_ERP_COMPLETION]
        else:
            fixtures[whole] = [f"by (meson w{i})"]
            table[f"by (meson w{i})"] = "ok"
    return (BenchmarkSpec("sampled", tuple(problems), budget), fixtures,
            lambda: MockProver(table=table))


class _ThreadNoting(ModelBackend):
    """Answers as ``inner`` does, noting each request's purpose, digest and
    thread; a request whose digest is in ``faults`` is a TransportError."""

    def __init__(self, inner, faults=()):
        super().__init__()
        self.inner = inner
        self.faults = set(faults)
        self.requests = []

    def _complete(self, params, prompt, n):
        with self._lock:
            self.requests.append((prompt.purpose, prompt_digest(prompt),
                                  threading.current_thread()))
        if prompt_digest(prompt) in self.faults:
            raise TransportError("model endpoint failed")
        return self.inner.complete(params, prompt, n)

    def digests(self, purpose="whole_proof"):
        return [digest for kind, digest, _ in self.requests if kind == purpose]

    def threads(self, purpose):
        return {thread for kind, _, thread in self.requests if kind == purpose}


def _timeless(records):
    return [dataclasses.replace(r, wall_time_s=0.0) for r in records]


def _whole_proof_digest(spec, name):
    statement = next(p.formal_statement for p in spec.problems
                     if p.problem_name == name)
    return prompt_digest(sampling_request(statement, spec.budget)[1])


class _GatedModel(ModelBackend):
    """Notes each request's problem and thread as it arrives, and answers it
    once the test opens that problem's gate; ``peak`` is the most requests
    it has held at once."""

    def __init__(self):
        super().__init__()
        self.sent = []
        self.threads = []
        self.gates = {}
        self.waiting = 0
        self.peak = 0

    def gate(self, name):
        with self._lock:
            return self.gates.setdefault(name, threading.Event())

    def _complete(self, params, prompt, n):
        name = re.search(r"theorem (\w+):", prompt.text).group(1)
        with self._lock:
            self.sent.append(name)
            self.threads.append(threading.current_thread().name)
            self.waiting += 1
            self.peak = max(self.peak, self.waiting)
        try:
            if not self.gate(name).wait(10):
                raise TransportError(f"gate of {name} never opened")
        finally:
            with self._lock:
                self.waiting -= 1
        return [f"proof of {name}"]


def _settled(check, timeout_s=10.0):
    """Whether ``check`` holds once it first does, and still a moment later,
    long enough for a request sent too early to arrive."""
    deadline = time.monotonic() + timeout_s
    while not check() and time.monotonic() < deadline:
        time.sleep(0.002)
    time.sleep(0.05)
    return check()


def _sampling(statement, model, prover, budget, few_shots=(),
              problem_name=""):
    """A prove_fn that asks for its sample and succeeds."""
    model.complete(*sampling_request(statement, budget, few_shots))
    return _record(problem_name, True)


def test_pool_2_sends_every_sample_at_the_start_two_at_a_time(tmp_path):
    # Every unrecorded problem's request goes out as the run starts, once, in
    # spec order, on the sampler's threads, even while both workers are held
    # at the prover; only two are in flight at once, however slowly they are
    # answered.
    names = [f"p{i}" for i in range(7)]
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [_record("p3", True).to_json()])
    model, release = _GatedModel(), threading.Event()

    def held(statement, model, prover, budget, few_shots=(),
             problem_name=""):
        # held longer than a check waits, so no request is sent only
        # because a held worker gave up
        if not release.wait(60):
            raise TransportError(f"{problem_name} was never let go")
        return _sampling(statement, model, prover, budget, few_shots,
                         problem_name)

    run = threading.Thread(target=lambda: run_benchmark(
        _spec(names), model, None, path, pool_size=2, prove_fn=held))
    run.start()
    unrecorded = [name for name in names if name != "p3"]
    try:
        for count, name in enumerate(unrecorded, start=2):
            # the first requests in spec order are sent, none beyond them
            assert _settled(lambda: sorted(model.sent)
                            == unrecorded[:min(count, len(unrecorded))]), \
                (name, model.sent)
            model.gate(name).set()
    finally:
        for name in names:
            model.gate(name).set()
        release.set()
        run.join(10)
    assert not run.is_alive()
    assert sorted(model.sent) == unrecorded
    assert {thread.split("_")[0] for thread in model.threads} == {"sampler"}
    assert model.peak == 2


class _SizedModel(ModelBackend):
    """Answers each problem's request with its candidates in ``answers``, or
    with a TransportError where they are None; ``answered`` counts the
    requests it has answered either way."""

    def __init__(self, answers):
        super().__init__()
        self.answers = answers
        self.answered = 0

    def _complete(self, params, prompt, n):
        name = re.search(r"theorem (\w+):", prompt.text).group(1)
        try:
            if self.answers[name] is None:
                raise TransportError(f"sample of {name} failed")
            return self.answers[name]
        finally:
            with self._lock:
                self.answered += 1


def test_the_longest_sample_is_proved_first(tmp_path, monkeypatch):
    # Candidates: p2 holds the most text; p1 and p4 tie; p5 holds two; p3's
    # sample fails, so it counts as none.
    answers = {"p0": ["abc"], "p1": ["a" * 7], "p2": ["a" * 12], "p3": None,
               "p4": ["b" * 7], "p5": ["a" * 4, "b" * 5]}
    names = list(answers)
    spec = BenchmarkSpec("sized", tuple(BenchmarkProblem(
        n, f'theorem {n}: shows "P" oops') for n in names),
        BudgetConfig(sample_budget=2))
    model = _SizedModel(answers)

    def run_pool_once_sampled(items, worker, pool_size):
        # every sample is back before the first worker picks its problem
        assert _settled(lambda: model.answered == len(names))
        return run_pool(items, worker, pool_size)

    monkeypatch.setattr("proofseek.bench.run_pool", run_pool_once_sampled)
    started, finish = [], {name: threading.Event() for name in names}

    def proving(statement, model, prover, budget, few_shots=(),
                problem_name=""):
        started.append(problem_name)
        model.complete(*sampling_request(statement, budget, few_shots))
        if not finish[problem_name].wait(10):
            raise TransportError(f"{problem_name} was never let go")
        return _record(problem_name, True)

    outcome = []
    run = threading.Thread(target=lambda: outcome.append(run_benchmark(
        spec, model, None, tmp_path / "records.jsonl", pool_size=2,
        prove_fn=proving)))
    run.start()
    want = ["p2", "p5", "p1", "p4", "p0", "p3"]
    try:
        # the two longest start together; then each problem the test lets
        # go frees a worker for the next, one at a time
        assert _settled(lambda: sorted(started) == sorted(want[:2])), started
        for count, name in enumerate(want[:-2], start=3):
            finish[name].set()
            assert _settled(lambda: len(started) == count), (name, started)
        assert started[2:] == want[2:]
    finally:
        for name in names:
            finish[name].set()
        run.join(10)
    assert not run.is_alive()
    assert [(r.problem_name, r.undetermined) for r in outcome[0]] == [
        (name, name == "p3") for name in names]


def _sampler_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("sampler")]


def test_no_sampler_thread_outlives_the_run(tmp_path):
    names = [f"p{i}" for i in range(6)]
    model = _GatedModel()
    for name in names:
        model.gate(name).set()
    run_benchmark(_spec(names), model, None, tmp_path / "ok.jsonl",
                  pool_size=2, prove_fn=_sampling)
    assert model.threads and not _sampler_threads()

    def proving(statement, model, prover, budget, few_shots=(),
                problem_name=""):
        if problem_name == "p2":
            raise RuntimeError("prover bug")
        return _sampling(statement, model, prover, budget, few_shots,
                         problem_name)

    with pytest.raises(RuntimeError, match="prover bug"):
        run_benchmark(_spec(names), model, None, tmp_path / "bug.jsonl",
                      pool_size=2, prove_fn=proving)
    assert not _sampler_threads()


def test_many_workers_each_get_their_own_sample_once(tmp_path):
    # more workers than cores, switching threads as often as it can: a lost
    # update to what was sent would send a request twice or hand a problem
    # another's answer
    names = [f"p{i}" for i in range(40)]
    model = _GatedModel()
    for name in names:
        model.gate(name).set()

    def proving(statement, model, prover, budget, few_shots=(),
                problem_name=""):
        (proof,) = model.complete(*sampling_request(statement, budget))
        return _record(problem_name, proof == f"proof of {problem_name}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = run_benchmark(_spec(names), model, None,
                                tmp_path / "records.jsonl", pool_size=8,
                                prove_fn=proving)
    finally:
        sys.setswitchinterval(interval)
    assert all(r.success for r in records)
    assert sorted(model.sent) == sorted(names)


def test_pool_2_sends_each_sample_once_ahead_and_records_as_pool_1(tmp_path):
    spec, fixtures, prover = _sampled_run()
    runs, models = [], []
    for pool in (1, 2):
        model = _ThreadNoting(ReplayModel(fixtures))
        runs.append(run_benchmark(spec, model, prover(),
                                  tmp_path / f"pool{pool}.jsonl",
                                  pool_size=pool))
        models.append(model)
    assert [r.success_stage for r in runs[0]] == ["init_proof", "erp"] * 4
    assert _timeless(runs[1]) == _timeless(runs[0])
    assert sorted(models[1].digests()) == sorted(models[0].digests())
    assert len(set(models[1].digests())) == len(spec.problems)
    # the samples ran ahead, on the sampler's threads; ERP asks the run's
    # model from the problem's worker
    assert {t.name.split("_")[0] for t in models[1].threads("whole_proof")} \
        == {"sampler"}
    assert models[1].threads("whole_proof").isdisjoint(
        models[1].threads("erp"))


def test_a_trace_recorded_at_pool_1_replays_at_pool_4_to_equal_records(
        tmp_path):
    # The replay answers each request by its question, not by its place in
    # the trace: four workers, switching threads as often as they can,
    # interleave the sessions that one worker opened in turn.
    spec, fixtures, prover = _sampled_run(12)
    recorder = RecordingProver(prover())
    want = run_benchmark(spec, ReplayModel(fixtures), recorder,
                         tmp_path / "pool1.jsonl", pool_size=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_benchmark(spec, ReplayModel(fixtures),
                            ReplayProver(recorder.trace),
                            tmp_path / "pool4.jsonl", pool_size=4)
    finally:
        sys.setswitchinterval(interval)
    assert [r.success_stage for r in want] == ["init_proof", "erp"] * 6
    assert _timeless(got) == _timeless(want)


def test_a_fault_of_a_sample_sent_ahead_leaves_only_its_problem_undetermined(
        tmp_path):
    spec, fixtures, prover = _sampled_run()
    bad = _whole_proof_digest(spec, "q3")
    model = _ThreadNoting(ReplayModel(fixtures), faults=[bad])
    records = run_benchmark(spec, model, prover(), tmp_path / "records.jsonl",
                            pool_size=2)
    assert [(r.problem_name, r.undetermined) for r in records
            if not r.success] == [("q3", True)]
    thread = next(t for _, digest, t in model.requests if digest == bad)
    assert thread.name.startswith("sampler")


def test_pool_1_asks_the_model_on_the_callers_thread(tmp_path):
    spec, fixtures, prover = _sampled_run()
    model = _ThreadNoting(ReplayModel(fixtures))
    records = run_benchmark(spec, model, prover(), tmp_path / "records.jsonl",
                            pool_size=1)
    assert all(r.success for r in records)
    assert {kind for kind, _, _ in model.requests} == {"whole_proof", "erp"}
    assert {t for _, _, t in model.requests} == {threading.current_thread()}


def test_a_resume_at_pool_2_samples_no_recorded_problem(tmp_path):
    spec, fixtures, prover = _sampled_run(6)
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [_record("q0", True).to_json(),
                       _record("q1", False).to_json(),
                       _record("q2", False, undetermined=True).to_json()])
    model = _ThreadNoting(ReplayModel(fixtures))
    records = run_benchmark(spec, model, prover(), path, pool_size=2)
    assert sorted(model.digests()) == sorted(
        _whole_proof_digest(spec, name) for name in ("q2", "q3", "q4", "q5"))
    assert [r.success for r in records] == [True, False, True, True, True,
                                            True]


def test_a_pool_2_recording_replays_and_dumps_as_a_pool_1_one(tmp_path):
    spec, fixtures, prover = _sampled_run()
    runs = []
    for pool in (1, 2):
        recorder = RecordingModel(ReplayModel(fixtures))
        runs.append(run_benchmark(spec, recorder, prover(),
                                  tmp_path / f"live{pool}.jsonl",
                                  pool_size=pool))
        recorder.dump(tmp_path / f"fixtures{pool}.jsonl")
    assert (tmp_path / "fixtures2.jsonl").read_bytes() == \
        (tmp_path / "fixtures1.jsonl").read_bytes()
    replayed = run_benchmark(spec, ReplayModel(tmp_path / "fixtures2.jsonl"),
                             prover(), tmp_path / "replayed.jsonl",
                             pool_size=2)
    assert _timeless(replayed) == _timeless(runs[1]) == _timeless(runs[0])


# The candidates of a recorded run: q0 and q4 are proved as sampled, ERP
# repairs q1, q2's two candidates are one text, and q3's one step faults.
_RECORDED_CANDIDATES = {
    "q0": ["by (meson w0)"], "q1": [_ERP_CANDIDATE],
    "q2": [_ERP_CANDIDATE] * 2, "q3": ["by (meson w3)"],
    "q4": ["by (meson w4)"]}


class _FaultingOnce(MockProver):
    """Answers as MockProver, except that the first apply of ``step``
    raises TransportError."""

    def __init__(self, step, **kwargs):
        super().__init__(**kwargs)
        self.step = step

    def apply(self, session_id, step_text, timeout_s=None):
        if step_text == self.step:  # asked at pool 1 only: no race
            self.step = None
            raise TransportError("prover connection failed")
        return super().apply(session_id, step_text, timeout_s)


def _record_and_replay(tmp_path, names, pool_size):
    """The records of problems ``names`` of ``_RECORDED_CANDIDATES`` proved
    at pool 1 through a model and a prover that record, and the records of
    their dumps replayed at ``pool_size``.  The live model answers q1's ERP
    prompt with a continuation the prover accepts, and q2's one prompt
    first with a continuation it refuses, then with the accepted one."""
    spec = BenchmarkSpec("recorded", tuple(
        BenchmarkProblem(name, f'theorem {name}: shows "{name.upper()}" oops')
        for name in names), BudgetConfig(sample_budget=2))
    erp = ([[_ERP_COMPLETION]] if "q1" in names else []) + (
        [["by blast"], [_ERP_COMPLETION]] if "q2" in names else [])
    model = RecordingModel(MockModel({
        "whole_proof": [_RECORDED_CANDIDATES[name] for name in names],
        "erp": erp}))
    table = {**_ERP_TABLE, "by (meson w0)": "ok", "by (meson w3)": "ok",
             "by (meson w4)": "ok"}
    prover = RecordingProver(_FaultingOnce("by (meson w3)", table=table))
    live = run_benchmark(spec, model, prover, tmp_path / "live.jsonl",
                         pool_size=1)
    model.dump(tmp_path / "model.jsonl")
    prover.dump(tmp_path / "trace.jsonl")
    replayed = run_benchmark(spec, ReplayModel(tmp_path / "model.jsonl"),
                             ReplayProver(tmp_path / "trace.jsonl"),
                             tmp_path / "replayed.jsonl", pool_size=pool_size)
    return live, replayed


def test_a_prompt_asked_twice_replays_its_answers_in_recorded_order(
        tmp_path):
    # The dump kept only the prompt's second answer, so the replay's first
    # candidate got the continuation the live one was refused, and won.
    live, replayed = _record_and_replay(tmp_path, ["q2"], 1)
    assert [(r.success_stage, r.i_try) for r in live] == [("erp", 1)]
    assert _timeless(replayed) == _timeless(live)


def test_a_recorded_transport_fault_replays_as_the_same_fault(tmp_path):
    # The trace held no reply to the faulted step, so the replay raised
    # MissingFixture and wrote no record.
    live, replayed = _record_and_replay(tmp_path, ["q3"], 1)
    assert [r.undetermined for r in live] == [True]
    assert _timeless(replayed) == _timeless(live)


def test_a_recording_at_pool_1_replays_at_pool_4_to_equal_records(tmp_path):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        live, replayed = _record_and_replay(
            tmp_path, list(_RECORDED_CANDIDATES), 4)
    finally:
        sys.setswitchinterval(interval)
    assert [(r.success_stage, r.i_try, r.undetermined) for r in live] == [
        ("init_proof", 0, False), ("erp", 0, False), ("erp", 1, False),
        ("failed", 0, True), ("init_proof", 0, False)]
    assert _timeless(replayed) == _timeless(live)


# ---------------------------------------------------------------------------
# fault schedules over whole runs

# A problem's candidates are drawn from these; `{i}` is its number.  ERP
# repairs `_ERP_CANDIDATE` when its drawn continuation is accepted, or the
# hammer does first when one is drawn.
_FAULT_CANDIDATES = ("by (meson w{i})", "by nope", "by slow", _ERP_CANDIDATE,
                     "I cannot prove this.")


class _ByProblem(ReplayModel):
    """A ReplayModel keyed by purpose and problem, one batch per key: every
    answer is a function of the question, never of the order of arrival.
    ``asked`` notes the problems whose whole-proof request it answered."""

    def __init__(self, fixtures):
        super().__init__(fixtures)
        self.asked = set()

    def _key(self, prompt):
        problem = re.search(r"theorem (f\d+):", prompt.text)[1]
        if prompt.purpose == "whole_proof":
            with self._lock:
                self.asked.add(problem)
        return f"{prompt.purpose} {problem}"


class _ScheduledModel(ModelBackend):
    """Answers as ``inner`` does, except that the requests whose 0-based
    arrival index is in ``faults`` raise TransportError."""

    def __init__(self, inner, faults):
        super().__init__()
        self.inner, self.faults, self.count = inner, faults, 0

    def _complete(self, params, prompt, n):
        with self._lock:
            index, self.count = self.count, self.count + 1
        if index in self.faults:
            raise TransportError("model endpoint failed")
        return self.inner.complete(params, prompt, n)


@st.composite
def _fault_runs(draw):
    """A spec of 3-8 problems, the model fixtures and MockProver arguments
    that answer it, a pool size, the fault schedules of the prover and the
    model, and the byte, if any, at which the records file is cut."""
    count = draw(st.integers(3, 8))
    budget = BudgetConfig(sample_budget=2)
    table = {**_ERP_TABLE, "by slow": MockOutcome("ok", delay_s=99.0)}
    problems, fixtures = [], {}
    for i in range(count):
        name = f"f{i}"
        problems.append(BenchmarkProblem(name, f'theorem {name}: shows "F{i}" oops'))
        table[f"by (meson w{i})"] = draw(st.sampled_from(["ok", "error"]))
        fixtures[f"whole_proof {name}"] = [
            text.format(i=i) for text in draw(st.lists(
                st.sampled_from(_FAULT_CANDIDATES), min_size=1, max_size=2))]
        fixtures[f"erp {name}"] = [draw(st.sampled_from(
            [_ERP_COMPLETION, "show ?thesis by blast"]))]
    prover = {"table": table,
              "hammer": draw(st.sampled_from([None, "meson helper"]))}
    prover_faults = draw(st.dictionaries(
        st.integers(0, 60), st.sampled_from(["transport", "session", "lost"]),
        max_size=4))
    model_faults = draw(st.sets(st.integers(0, 12), max_size=3))
    cut = draw(st.none() | st.integers(min_value=0))
    return (BenchmarkSpec("faults", tuple(problems), budget), fixtures, prover,
            draw(st.sampled_from([1, 2])), prover_faults, model_faults, cut)


def _kept_records(data: bytes) -> dict:
    """The records a resume reads from ``data``, by problem: every line that
    ends in a newline, and a last line without one when it is whole."""
    *lines, last = data.split(b"\n")
    rows = [json.loads(line) for line in lines]
    with contextlib.suppress(ValueError):  # a torn or empty last line
        rows.append(json.loads(last))
    return {row["problem_name"]: row for row in rows}


@settings(max_examples=100, deadline=None, database=None)
@given(_fault_runs())
def test_a_faulted_run_then_a_healthy_resume_gives_the_clean_runs_records(
        run):
    # Faults on prover and model requests leave their problems undetermined
    # and no determined record differs from a clean run's; a resume on
    # healthy backends, after the records file is cut anywhere, re-runs
    # exactly the problems with no whole determined record left, and ends
    # with the clean run's records.
    spec, fixtures, prover, pool, prover_faults, model_faults, cut = run

    def bench(path, prover_faults=None, model_faults=()):
        model = _ByProblem(fixtures)
        records = run_benchmark(
            spec, _ScheduledModel(model, model_faults),
            ScheduledProver(MockProver(**prover), prover_faults),
            path, pool_size=pool)
        return records, model.asked

    with tempfile.TemporaryDirectory() as tmp:
        clean, _ = bench(Path(tmp) / "clean.jsonl")
        want = {r.problem_name: r for r in _timeless(clean)}
        path = Path(tmp) / "records.jsonl"
        bench(path, prover_faults, model_faults)
        for row in read_jsonl(path):
            record = dataclasses.replace(AttemptRecord(**row), wall_time_s=0.0)
            assert record.undetermined or record == want[record.problem_name]
        if cut is not None:
            data = path.read_bytes()
            path.write_bytes(data[:cut % (len(data) + 1)])
        kept = _kept_records(path.read_bytes())
        resumed, asked = bench(path)
    names = [p.problem_name for p in spec.problems]
    assert asked == {name for name in names
                     if name not in kept or kept[name].get("undetermined")}
    assert _timeless(resumed) == _timeless(clean)
    assert aggregate(resumed).n_undetermined == 0


def test_load_benchmark_and_unique_names(tmp_path):
    path = tmp_path / "spec.jsonl"
    write_jsonl(path, [
        {"problem_name": "a", "formal_statement": "s1",
         "informal_statement": "nl"},
        {"problem_name": "b", "formal_statement": "s2"},
    ])
    spec = load_benchmark(path, name="mini")
    assert spec.name == "mini"
    assert spec.problems == (BenchmarkProblem("a", "s1"),
                             BenchmarkProblem("b", "s2"))
    with pytest.raises(ValueError):
        BenchmarkSpec("x", (BenchmarkProblem("a", "s"),
                            BenchmarkProblem("a", "t")))


def test_run_benchmark_resume_reads_records_by_their_types(tmp_path):
    # `"success": "false"` once read as a success, so a resume skipped the
    # problem for good
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [{**_record("p1", True).to_json(), "success": "false"}])
    with pytest.raises(ValueError, match=f"{path}:1: field 'success'"):
        run_benchmark(_spec(["p1"]), None, None, path, pool_size=1,
                      prove_fn=_fake_prove({"p1": True}))
