"""The typed row reader: each record type read from a file is checked
against its dataclass declaration."""

import dataclasses
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofseek.bench import BenchmarkProblem, load_benchmark
from proofseek.cli import RunConfig
from proofseek.curate import TheoremProofPair
from proofseek.engine import AttemptRecord, BudgetConfig
from proofseek.formalize import FormalizationRecord
from proofseek.jsonl import (
    append_jsonl,
    read_jsonl,
    read_rows,
    text_values,
    typed,
    write_jsonl,
)
from proofseek.model import ModelParams
from proofseek.prover import MockOutcome, ProverConfig

from fixtures import json_field, json_objects


@dataclasses.dataclass(frozen=True)
class Row:
    flag: bool
    count: int
    ratio: float = 0.0
    note: Optional[str] = None
    words: tuple[str, ...] = ()
    names: dict[str, str] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")


@pytest.mark.parametrize("value, read", [
    ({"flag": True, "count": 1}, Row(True, 1)),
    ({"flag": False, "count": 0, "ratio": 2, "note": None, "words": ["a"],
      "names": {"k": "v"}, "extra": [1]},
     Row(False, 0, 2, None, ("a",), {"k": "v"})),
])
def test_typed_reads_each_declared_type(value, read):
    row = typed(Row, value, "f.jsonl:3")
    assert row == read
    assert type(row.words) is tuple


@pytest.mark.parametrize("value, named", [
    ({"flag": "false", "count": 1}, "field 'flag'"),
    ({"flag": 1, "count": 1}, "field 'flag'"),
    ({"flag": True, "count": True}, "field 'count'"),
    ({"flag": True, "count": 1.0}, "field 'count'"),
    ({"flag": True, "count": 1, "ratio": False}, "field 'ratio'"),
    ({"flag": True, "count": 1, "note": 5}, "field 'note'"),
    ({"flag": True, "count": 1, "words": "ab"}, "field 'words'"),
    ({"flag": True, "count": 1, "words": [1]}, "field 'words'"),
    ({"flag": True, "count": 1, "names": {"k": 1}}, "field 'names'"),
    ({"count": 1}, "missing field 'flag'"),
    ({"flag": True, "count": -1}, "count must be >= 0"),
    ([1, 2], "expected a JSON object"),
])
def test_typed_names_the_place_and_the_field(value, named):
    with pytest.raises(ValueError, match=f"^f.jsonl:3: .*{named}"):
        typed(Row, value, "f.jsonl:3")


def test_read_rows_numbers_lines_past_blank_ones(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"flag": true, "count": 1}\n\n{"flag": "true", "count": 1}\n',
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: field 'flag'"):
        read_rows(path, Row)


@pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
def test_a_value_holding_a_unicode_line_break_reads_back_equal(tmp_path, char):
    # Both writers keep these characters raw (ensure_ascii=False), and
    # str.splitlines() ended a line at each of them, mid-value.
    rows = [{"text": f"a{char}b"}, {"text": char}]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows[:1])
    append_jsonl(path, rows[1])
    assert read_jsonl(path) == rows
    assert [value for _, value in text_values(path, path.read_text(
        encoding="utf-8"))] == rows


def test_a_crlf_terminated_file_still_reads(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\r\n{"a": 2}\r\n')
    assert read_jsonl(path) == [{"a": 1}, {"a": 2}]
    assert list(text_values(path, path.read_bytes().decode("utf-8"))) == [
        (f"{path}:1", {"a": 1}), (f"{path}:3", {"a": 2})]


def test_formalization_record_round_trip_and_bench_spec(tmp_path):
    # formalizations.jsonl, as `policy` and `formalize` write it, is read back
    # as records and as a benchmark spec
    record = FormalizationRecord("p", "s", "d", "pf", "theorem t: shows P oops",
                                 provenance="compiled")
    path = tmp_path / "formalizations.jsonl"
    write_jsonl(path, [record.to_json()])
    assert read_rows(path, FormalizationRecord) == [record]
    assert load_benchmark(path).problems == (
        BenchmarkProblem("p", "theorem t: shows P oops"),)


# ---------------------------------------------------------------------------
# any drawn row gives the typed record or a ValueError, and True only from a
# literal true

TEXT = json_field("x", "by simp")
BOOL = json_field(True, False)
COUNT = json_field(0, 1, 3)
NUMBER = json_field(0.5, 2, 10.0)

ROW_TYPES = {
    AttemptRecord: json_objects(
        problem_name=TEXT, success=BOOL, i_try=COUNT,
        success_stage=json_field("failed", "atp", "init_proof"),
        has_timeout=BOOL, extra_calls=COUNT, has_sc=BOOL,
        wall_time_s=NUMBER, final_script=json_field(None, "by simp"),
        undetermined=BOOL),
    TheoremProofPair: json_objects(statement=TEXT, proof=TEXT),
    BenchmarkProblem: json_objects(problem_name=TEXT, formal_statement=TEXT),
    FormalizationRecord: json_objects(
        problem_name=TEXT, natural_statement=TEXT, informal_description=TEXT,
        informal_proof=TEXT, formal_statement=TEXT, provenance=TEXT),
    MockOutcome: json_objects(
        status=json_field("ok", "error", "timeout"),
        is_done=json_field(None, True, False), message=TEXT,
        delay_s=NUMBER),
    ProverConfig: json_objects(
        endpoint=TEXT, pool_size=COUNT, step_timeout_s=NUMBER,
        hammer_timeout_s=NUMBER, init_timeout_s=NUMBER, theory_header=TEXT),
    ModelParams: json_objects(
        temperature=NUMBER, top_p=json_field(0.5, 1), max_samples=COUNT,
        max_tokens=COUNT, stop=json_field([], ["qed"]), model=TEXT),
    BudgetConfig: json_objects(sample_budget=COUNT, erp_enabled=BOOL),
    RunConfig: json_objects(
        mode=json_field("mock", "replay"), seed=COUNT, label=TEXT,
        out_dir=TEXT, fixtures=json_field({}, {"few_shots": "s.jsonl"})),
}

# rows that read, so that the property also checks what a built record holds
VALID = {
    AttemptRecord: [
        {"problem_name": "p", "success": False, "i_try": 0,
         "success_stage": "failed", "has_timeout": True, "extra_calls": 2,
         "has_sc": False},
        {"problem_name": "p", "success": True, "i_try": 1,
         "success_stage": "atp", "has_timeout": False, "extra_calls": 0,
         "has_sc": True, "wall_time_s": 2, "final_script": "by simp",
         "undetermined": False}],
    TheoremProofPair: [{"statement": "lemma l: P", "proof": "by simp"}],
    BenchmarkProblem: [{"problem_name": "p", "formal_statement": "x"}],
    FormalizationRecord: [{}, {"natural_statement": "x", "provenance": "c"}],
    MockOutcome: [{"status": "ok", "is_done": True, "delay_s": 1}],
    ProverConfig: [{"pool_size": 2, "step_timeout_s": 1, "endpoint": "h:1"}],
    ModelParams: [{"temperature": 1, "stop": ["qed"], "max_samples": 3}],
    BudgetConfig: [{"sample_budget": 2, "erp_enabled": False}],
    RunConfig: [{"mode": "replay", "seed": 7, "fixtures": {"a": "b"}}],
}

# the fields a reader passes as they are, not from the row
GIVEN = {BudgetConfig: {"model": ModelParams(), "prover": ProverConfig()},
         RunConfig: {"budget": BudgetConfig(), "base_dir": Path(".")}}


def _read(cls, row):
    if cls is MockOutcome:
        return MockOutcome.of(row)
    return typed(cls, row, "f.jsonl:1", **GIVEN.get(cls, {}))


@pytest.mark.parametrize("cls", ROW_TYPES, ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_any_row_is_a_typed_record_or_a_value_error(cls, data):
    valid = st.builds(lambda row, extra: {**extra, **row},
                      st.sampled_from(VALID[cls]), json_objects())
    row = data.draw(ROW_TYPES[cls] | valid)
    try:
        record = _read(cls, row)
    except ValueError:
        return
    given_fields = GIVEN.get(cls, {})
    fields = {f.name: f for f in dataclasses.fields(cls)
              if f.name not in given_fields}
    assert all(name in row for name, f in fields.items()
               if f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING)
    for name, value in row.items():
        if name in fields:
            got = getattr(record, name)
            assert (got is True) == (value is True)
            assert got == (tuple(value) if isinstance(got, tuple) else value)
