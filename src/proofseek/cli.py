"""Command-line entry point: a thin shell over the library.

Subcommands: prove, policy, formalize, bench, curate, report.  A JSON config
file supplies the backend mode (live | replay | mock), the budget (prover and
model parameters, sample budget, ERP) and fixture paths; environment
variables (PROOFSEEK_MODEL_URL, PROOFSEEK_MODEL_KEY, PROOFSEEK_PROVER_ADDR)
override the config and flags override both.  A command builds only the
backends it calls.  Replay and mock modes are fully offline — no sockets are
ever opened.

Exit codes: 0 success, 1 proof failure (``prove`` only), 2 any error — a bad
config or input file, an unreachable backend, a question the replay fixture
or trace never recorded.  ``main`` is the one place an error becomes
exit 2; ``policy`` and ``formalize`` record a row's error in their summary
and go on.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from . import bench as bench_mod
from . import curate as curate_mod
from .engine import AttemptRecord, BudgetConfig, prove
from .errors import (
    MissingFixture,
    PolicyFormatError,
    ProofSeekError,
    StageValidationError,
    UnsupportedPolicy,
)
from .formalize import (
    FormalizationRecord,
    _dedupe,
    compile_policy,
    formalize_nl,
    render_theory,
    wrap_theory,
)
from .jsonl import loads, read_rows, typed, write_jsonl
from .model import ChatModelClient, MockModel, ModelBackend, ModelParams, ReplayModel
from .policy import parse_policy, policy_rows
from .prover import (
    ENV_PROVER_ADDR,
    MockProver,
    ProverBackend,
    ProverConfig,
    ReplayProver,
    WireProver,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INFRA = 2

MODES = ("live", "replay", "mock")


class ConfigError(ProofSeekError):
    pass


@dataclass
class RunConfig:
    budget: BudgetConfig
    base_dir: Path  # fixture paths are relative to it
    mode: str = "mock"
    seed: int = 0
    label: str = "proofseek"
    out_dir: str = "out"
    fixtures: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} ({'|'.join(MODES)})")

    def fixture(self, key: str, required: bool = True) -> Optional[Path]:
        """The path of fixtures.<key>; None for an absent optional
        fixture."""
        raw = self.fixtures.get(key)
        if not raw:
            if required:
                raise ConfigError(f"{self.mode} mode needs fixtures.{key}")
            return None
        path = Path(raw)
        return path if path.is_absolute() else self.base_dir / path


def load_config(path: Optional[str], no_erp: bool = False) -> RunConfig:
    """The config file's sections, each read by ``typed``: ``prover`` into
    ProverConfig, ``model`` into ModelParams, ``budget`` into BudgetConfig
    and the top level into RunConfig.  Without a file, the defaults."""
    data: dict = {}
    base_dir = Path.cwd()
    if path:
        data = loads(Path(path).read_text(encoding="utf-8"))
        base_dir = Path(path).parent
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    where = path or "config"
    endpoint = os.environ.get(ENV_PROVER_ADDR)
    prover = typed(ProverConfig, data.get("prover", {}), f"{where}: prover",
                   **({"endpoint": endpoint} if endpoint else {}))
    model = typed(ModelParams, data.get("model", {}), f"{where}: model")
    budget = typed(BudgetConfig, data.get("budget", {}), f"{where}: budget",
                   model=model, prover=prover)
    if no_erp:
        budget = replace(budget, erp_enabled=False)
    return typed(RunConfig, data, where, budget=budget, base_dir=base_dir)


# ---------------------------------------------------------------------------
# backend construction

def build_model(config: RunConfig) -> ModelBackend:
    if config.mode == "live":
        return ChatModelClient()
    if config.mode == "replay":
        return ReplayModel(config.fixture("model_replay"))
    return MockModel(loads(
        config.fixture("model_mock").read_text(encoding="utf-8")))


def build_prover(config: RunConfig) -> ProverBackend:
    """The live wire client; in replay mode a recorded trace when one is
    given, which answers each request by its question, so it replays at any
    pool size; otherwise the mock prover, whose JSON fixture holds
    MockProver's own keyword arguments."""
    if config.mode == "live":
        return WireProver(config.budget.prover)
    trace = config.fixture("prover_trace", required=False)
    if config.mode == "replay" and trace is not None:
        return ReplayProver(trace, config=config.budget.prover)
    spec = loads(config.fixture("prover_mock").read_text(encoding="utf-8"))
    try:
        return MockProver(**spec, config=config.budget.prover)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fixtures.prover_mock: {exc}") from exc


def _load_few_shots(config: RunConfig) -> list[tuple[str, str]]:
    path = config.fixture("few_shots", required=False)
    return [(pair.statement, pair.proof) for pair
            in (read_rows(path, curate_mod.TheoremProofPair) if path else [])]


def _load_formalize_shots(config: RunConfig) -> list[FormalizationRecord]:
    path = config.fixture("formalize_shots", required=False)
    return read_rows(path, FormalizationRecord) if path else []


# ---------------------------------------------------------------------------
# output helpers

def _sanitize_name(name: str) -> str:
    cleaned = re.sub(r"[^0-9A-Za-z_]+", "_", name).strip("_")
    return cleaned or "policy"


def _out_dir(args: argparse.Namespace, config: RunConfig) -> Path:
    out_dir = Path(args.out or config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _print_json(data: dict) -> None:
    print(json.dumps(data, ensure_ascii=False, sort_keys=True))


def _write_report(out_dir: Path, dataset: str, config: RunConfig,
                  report: bench_mod.EvalReport) -> str:
    """Write report.md and report.csv for one row; return its method label."""
    method = (f"{config.label} "
              f"({'ERP' if config.budget.erp_enabled else 'No ERP'})")
    markdown, csv_text = bench_mod.format_table([(dataset, method, report)])
    (out_dir / "report.md").write_text(markdown, encoding="utf-8")
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
    return method


# ---------------------------------------------------------------------------
# subcommands

def cmd_prove(args: argparse.Namespace, config: RunConfig) -> int:
    statement = Path(args.statement).read_text(encoding="utf-8")
    model, prover = build_model(config), build_prover(config)
    try:
        record = prove(statement, model, prover, config.budget,
                       few_shots=_load_few_shots(config),
                       problem_name=args.problem_name or Path(args.statement).stem)
    finally:
        prover.shutdown()
    _print_json(record.to_json())
    return EXIT_OK if record.success else EXIT_FAILED


def cmd_policy(args: argparse.Namespace, config: RunConfig) -> int:
    source = Path(args.input)
    text = source.read_text(encoding="utf-8")
    from_csv = source.suffix.lower() == ".csv"
    rows = policy_rows(text) if from_csv else [(source.stem, text)]
    model = build_model(config) if args.llm else None
    shots = _load_formalize_shots(config) if args.llm else []
    out_dir = _out_dir(args, config)
    theories_dir = out_dir / "theories"
    theories_dir.mkdir(exist_ok=True)

    records, errors, used = [], [], set()
    for index, (row_name, policy_text) in enumerate(rows):
        # names that sanitize alike get a numeric suffix: one theory file each
        name = _dedupe(_sanitize_name(row_name or f"policy_{index}"), used)
        try:
            policy = parse_policy(policy_text, source_name=row_name)
            if model is not None:
                record = formalize_nl(policy.source_text, model,
                                      few_shots=shots,
                                      params=config.budget.model,
                                      problem_name=name)
            else:
                record = FormalizationRecord(
                    name, policy.source_text, "", "",
                    render_theory(compile_policy(policy)),
                    provenance="compiled")
        except (PolicyFormatError, UnsupportedPolicy, StageValidationError,
                MissingFixture) as exc:
            if not from_csv and isinstance(exc, PolicyFormatError):
                raise  # a lone policy file that is no policy is a bad input
            errors.append({"problem_name": name, "error": str(exc)})
            continue
        (theories_dir / f"{name}.thy").write_text(
            wrap_theory(record.formal_statement, name), encoding="utf-8")
        records.append(record)

    write_jsonl(out_dir / "formalizations.jsonl",
                [r.to_json() for r in records])
    _print_json({"n_policies": len(rows), "n_theories": len(records),
                 "n_errors": len(errors), "errors": errors})
    return EXIT_OK


def cmd_formalize(args: argparse.Namespace, config: RunConfig) -> int:
    rows = read_rows(args.input, FormalizationRecord)
    shots = _load_formalize_shots(config)
    model = build_model(config)
    out_dir = _out_dir(args, config)
    records, errors = [], []
    for index, row in enumerate(rows):
        name = row.problem_name or f"problem_{index}"
        try:
            records.append(formalize_nl(row.natural_statement, model,
                                        few_shots=shots,
                                        params=config.budget.model,
                                        problem_name=name).to_json())
        except (StageValidationError, MissingFixture, ValueError) as exc:
            errors.append({"problem_name": name, "error": str(exc)})
    write_jsonl(out_dir / "formalizations.jsonl", records)
    _print_json({"n_records": len(records), "n_errors": len(errors),
                 "errors": errors})
    return EXIT_OK


def cmd_bench(args: argparse.Namespace, config: RunConfig) -> int:
    spec = bench_mod.load_benchmark(args.spec, name=args.name or "",
                                    budget=config.budget)
    model, prover = build_model(config), build_prover(config)
    few_shots = _load_few_shots(config)
    out_dir = _out_dir(args, config)
    records_path = Path(args.records) if args.records else out_dir / "records.jsonl"
    try:
        records = bench_mod.run_benchmark(spec, model, prover, records_path,
                                          few_shots=few_shots)
    finally:
        prover.shutdown()
    report = bench_mod.aggregate(records)
    dataset = f"{spec.name} ({len(spec.problems)} Problems)"
    method = _write_report(out_dir, dataset, config, report)
    _print_json({
        "dataset": dataset, "method": method,
        "success_rate": report.success_rate,
        "avg_attempts": report.avg_attempts,
        "total_exec_time": report.total_exec_time,
        "n_problems": report.n_problems, "n_success": report.n_success,
        "n_undetermined": report.n_undetermined,
        "records": str(records_path),
    })
    # a backend fault left problems unjudged: a rerun resumes them
    return EXIT_INFRA if report.n_undetermined else EXIT_OK


def cmd_curate(args: argparse.Namespace, config: RunConfig) -> int:
    pairs = read_rows(args.corpus, curate_mod.TheoremProofPair)
    model, prover = build_model(config), build_prover(config)
    out_dir = _out_dir(args, config)
    seed = config.seed if args.seed is None else args.seed
    try:
        result = curate_mod.filter_self_contained(pairs, prover)
    finally:
        prover.shutdown()
    sample_count = len(result.sft_pool) if args.sample_count is None \
        else min(args.sample_count, len(result.sft_pool))
    sft_records, rl_records, drops = curate_mod.build_records(
        result.sft_pool, result.rl_pool, model, sample_count, seed=seed,
        params=config.budget.model)

    write_jsonl(out_dir / "sft.jsonl", [r.to_json() for r in sft_records])
    write_jsonl(out_dir / "rl.jsonl", [r.to_json() for r in rl_records])
    manifest = {
        "seed": seed,
        "n_input": len(pairs),
        "n_rl_pool": len(result.rl_pool),
        "n_sft_pool": len(result.sft_pool),
        "n_undetermined": len(result.undetermined),
        "undetermined": [{"statement": p.statement, "reason": reason}
                         for p, reason in result.undetermined],
        "sft_sample_count": sample_count,
        "n_sft_records": len(sft_records),
        "n_rl_records": len(rl_records),
        "drops": drops,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    _print_json(manifest)
    return EXIT_OK


def cmd_report(args: argparse.Namespace, config: RunConfig) -> int:
    report = bench_mod.aggregate(read_rows(args.records, AttemptRecord))
    dataset = args.name or Path(args.records).stem
    _write_report(_out_dir(args, config),
                  f"{dataset} ({report.n_problems} Problems)", config, report)
    _print_json({"success_rate": report.success_rate,
                 "avg_attempts": report.avg_attempts,
                 "total_exec_time": report.total_exec_time})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _count(text: str) -> int:
    """An argparse type for a count: an integer that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofseek",
        description="Whole-proof generation with ATP/ERP repair, policy "
                    "formalization, benchmarking, and dataset curation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", "-c", default=None, help="JSON config file")
        p.add_argument("--out", "-o", default=None, help="output directory")

    p = sub.add_parser("prove", help="prove one formal statement")
    common(p)
    p.add_argument("statement", help="file containing the formal statement")
    p.add_argument("--problem-name", default=None)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("policy", help="compile policies to theory files")
    common(p)
    p.add_argument("input", help="policy JSON file or CSV "
                                 "(problem_name, policy_json)")
    p.add_argument("--llm", action="store_true",
                   help="use the staged LLM workflow instead of the compiler")
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("formalize", help="staged natural-language formalization")
    common(p)
    p.add_argument("input", help="JSONL with problem_name/natural_statement")
    p.set_defaults(func=cmd_formalize)

    p = sub.add_parser("bench", help="run a benchmark and report")
    common(p)
    p.add_argument("spec", help="benchmark JSONL "
                                "(problem_name, formal_statement, ...)")
    p.add_argument("--name", default=None, help="dataset display name")
    p.add_argument("--records", default=None, help="records JSONL path "
                                                   "(resumable)")
    p.add_argument("--no-erp", action="store_true", help="disable ERP repair")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("curate", help="filter a corpus and build datasets")
    common(p)
    p.add_argument("corpus", help="JSONL with statement/proof")
    p.add_argument("--sample-count", type=_count, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("report", help="aggregate existing records")
    common(p)
    p.add_argument("records", help="records JSONL")
    p.add_argument("--name", default=None, help="dataset display name")
    p.add_argument("--no-erp", action="store_true",
                   help="label the report (No ERP)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config,
                             no_erp=getattr(args, "no_erp", False))
        return args.func(args, config)
    except (ProofSeekError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except KeyboardInterrupt:
        print("interrupted; partial outputs are flushed", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
