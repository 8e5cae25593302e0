"""Command-line entry point.

Subcommands: prove, policy, formalize, bench, curate, report.  A JSON config
file supplies backend mode (live | replay | mock), sampling parameters, and
fixture paths; environment variables (PROOFSEEK_MODEL_URL, PROOFSEEK_MODEL_KEY,
PROOFSEEK_PROVER_ADDR) override the config and flags override both.  Replay
and mock modes are fully offline — no sockets are ever opened.

Exit codes: 0 success, 1 proof failure (prove), 2 infrastructure or
configuration fault.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import bench as bench_mod
from . import curate as curate_mod
from .engine import AttemptRecord, BudgetConfig, prove
from .errors import (
    BackendUnavailable,
    MissingFixture,
    PolicyFormatError,
    ProofSeekError,
    StageValidationError,
    TransportError,
    UnsupportedPolicy,
)
from .formalize import (
    FormalizationRecord,
    compile_policy,
    formalize_nl,
    render_theory,
    wrap_theory,
)
from .jsonl import read_jsonl, write_jsonl
from .model import (
    ENV_MODEL_URL,
    ChatModelClient,
    MockModel,
    ModelBackend,
    ModelParams,
    ReplayModel,
)
from .policy import load_policy_csv, parse_policy
from .prover import (
    ENV_PROVER_ADDR,
    MockOutcome,
    MockProver,
    ProverBackend,
    ProverConfig,
    ReplayProver,
    WireProver,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INFRA = 2


class ConfigError(ProofSeekError):
    pass


@dataclass
class RunConfig:
    mode: str = "mock"
    seed: int = 0
    label: str = "proofseek"
    out_dir: str = "out"
    prover: ProverConfig = field(default_factory=ProverConfig)
    model: ModelParams = field(default_factory=ModelParams)
    sample_budget: int = 10
    erp_enabled: bool = True
    fixtures: dict = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path.cwd)

    def budget(self) -> BudgetConfig:
        return BudgetConfig(sample_budget=self.sample_budget, model=self.model,
                            prover=self.prover, erp_enabled=self.erp_enabled)

    def fixture_path(self, key: str) -> Optional[Path]:
        raw = self.fixtures.get(key)
        if not raw:
            return None
        path = Path(raw)
        return path if path.is_absolute() else self.base_dir / path


def load_config(path: Optional[str]) -> RunConfig:
    data: dict = {}
    base_dir = Path.cwd()
    if path:
        config_path = Path(path)
        if not config_path.exists():
            raise ConfigError(f"config file not found: {path}")
        data = json.loads(config_path.read_text(encoding="utf-8"))
        base_dir = config_path.parent
    prover_raw = dict(data.get("prover", {}))
    if os.environ.get(ENV_PROVER_ADDR):
        prover_raw["endpoint"] = os.environ[ENV_PROVER_ADDR]
    model_raw = dict(data.get("model", {}))
    if "stop" in model_raw:
        model_raw["stop"] = tuple(model_raw["stop"])
    budget_raw = data.get("budget", {})
    try:
        return RunConfig(
            mode=data.get("mode", "mock"),
            seed=int(data.get("seed", 0)),
            label=data.get("label", "proofseek"),
            out_dir=data.get("out_dir", "out"),
            prover=ProverConfig(**prover_raw),
            model=ModelParams(**model_raw),
            sample_budget=int(budget_raw.get("sample_budget", 10)),
            erp_enabled=bool(budget_raw.get("erp_enabled", True)),
            fixtures=dict(data.get("fixtures", {})),
            base_dir=base_dir,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


# ---------------------------------------------------------------------------
# backend construction

def _mock_outcome(raw) -> MockOutcome:
    if isinstance(raw, str):
        return MockOutcome(status=raw)
    return MockOutcome(
        status=raw.get("status", "ok"),
        is_done=raw.get("is_done"),
        message=raw.get("message", ""),
        delay_s=float(raw.get("delay_s", 0.0)),
    )


def _load_mock_prover(config: RunConfig) -> MockProver:
    path = config.fixture_path("prover_mock")
    if path is None:
        raise ConfigError("mock/replay mode needs fixtures.prover_mock "
                          "(or fixtures.prover_trace)")
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    hammer = spec.get("hammer")
    if isinstance(hammer, list):
        hammer = [h if h is None or isinstance(h, str) else _mock_outcome(h)
                  for h in hammer]
    return MockProver(
        table={k: _mock_outcome(v) for k, v in spec.get("table", {}).items()},
        default=_mock_outcome(spec.get("default", "error")),
        hammer=hammer,
        reject_theory=spec.get("reject_theory", False),
        config=config.prover,
    )


def build_backends(config: RunConfig) -> tuple[ModelBackend, ProverBackend]:
    if config.mode == "live":
        if not (config.prover.endpoint or os.environ.get(ENV_PROVER_ADDR)):
            raise ConfigError(f"live mode needs {ENV_PROVER_ADDR} or "
                              "prover.endpoint")
        if not os.environ.get(ENV_MODEL_URL):
            raise ConfigError(f"live mode needs {ENV_MODEL_URL}")
        return ChatModelClient(), WireProver(config.prover)
    if config.mode == "replay":
        replay_path = config.fixture_path("model_replay")
        if replay_path is None:
            raise ConfigError("replay mode needs fixtures.model_replay")
        model = ReplayModel(replay_path)
        trace_path = config.fixture_path("prover_trace")
        prover: ProverBackend
        if trace_path is not None:
            prover = ReplayProver(trace_path, config=config.prover)
        else:
            prover = _load_mock_prover(config)
        return model, prover
    if config.mode == "mock":
        mock_path = config.fixture_path("model_mock")
        if mock_path is None:
            raise ConfigError("mock mode needs fixtures.model_mock")
        script = json.loads(Path(mock_path).read_text(encoding="utf-8"))
        return MockModel(script), _load_mock_prover(config)
    raise ConfigError(f"unknown mode {config.mode!r} (live|replay|mock)")


def _load_few_shots(config: RunConfig) -> list[tuple[str, str]]:
    path = config.fixture_path("few_shots")
    if path is None:
        return []
    return [(row["statement"], row["proof"]) for row in read_jsonl(path)]


def _load_formalize_shots(config: RunConfig) -> list[FormalizationRecord]:
    path = config.fixture_path("formalize_shots")
    if path is None:
        return []
    return [FormalizationRecord.from_json(row) for row in read_jsonl(path)]


def _sanitize_name(name: str) -> str:
    cleaned = re.sub(r"[^0-9A-Za-z_]+", "_", name).strip("_")
    return cleaned or "policy"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INFRA


# ---------------------------------------------------------------------------
# subcommands

def cmd_prove(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        statement = Path(args.statement).read_text(encoding="utf-8")
        model, prover = build_backends(config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    try:
        record = prove(statement, model, prover, config.budget(),
                       few_shots=_load_few_shots(config),
                       problem_name=args.problem_name or Path(args.statement).stem)
    except (BackendUnavailable, TransportError, MissingFixture) as exc:
        return _fail(str(exc))
    print(json.dumps(record.to_json(), ensure_ascii=False, sort_keys=True))
    return EXIT_OK if record.success else EXIT_FAILED


def cmd_policy(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        source = Path(args.input)
        text = source.read_text(encoding="utf-8")
    except (ConfigError, OSError) as exc:
        return _fail(str(exc))

    out_dir = Path(args.out or config.out_dir)
    theories_dir = out_dir / "theories"
    theories_dir.mkdir(parents=True, exist_ok=True)

    model = None
    if args.llm:
        try:
            model, _ = build_backends(config)
        except ConfigError as exc:
            return _fail(str(exc))
        formalize_shots = _load_formalize_shots(config)

    try:
        if source.suffix.lower() == ".csv":
            policies = load_policy_csv(text)
        else:
            policies = [parse_policy(text, source_name=source.stem)]
    except PolicyFormatError as exc:
        return _fail(f"cannot read policies: {exc}")

    records, errors = [], []
    for index, policy in enumerate(policies):
        name = _sanitize_name(policy.source_name or f"policy_{index}")
        try:
            if args.llm:
                record = formalize_nl(policy.source_text, model,
                                      few_shots=formalize_shots,
                                      params=config.model, problem_name=name)
            else:
                skeleton = compile_policy(policy)
                body = render_theory(skeleton)
                record = FormalizationRecord(
                    problem_name=name, natural_statement=policy.source_text,
                    informal_description="", informal_proof="",
                    formal_statement=body, theory_text=body,
                    provenance="compiled")
        except (UnsupportedPolicy, StageValidationError, MissingFixture) as exc:
            errors.append({"problem_name": name, "error": str(exc)})
            continue
        (theories_dir / f"{name}.thy").write_text(
            wrap_theory(record.theory_text, name), encoding="utf-8")
        records.append(record)

    write_jsonl(out_dir / "formalizations.jsonl",
                [r.to_json() for r in records])
    summary = {"n_policies": len(policies), "n_theories": len(records),
               "n_errors": len(errors), "errors": errors}
    print(json.dumps(summary, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


def cmd_formalize(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        rows = read_jsonl(args.input)
        model, _ = build_backends(config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    shots = _load_formalize_shots(config)
    out_dir = Path(args.out or config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, errors = [], []
    for index, row in enumerate(rows):
        name = row.get("problem_name", f"problem_{index}")
        statement = row.get("natural_statement") or row.get("statement", "")
        try:
            records.append(formalize_nl(statement, model, few_shots=shots,
                                        params=config.model,
                                        problem_name=name).to_json())
        except (StageValidationError, MissingFixture, ValueError) as exc:
            errors.append({"problem_name": name, "error": str(exc)})
    write_jsonl(out_dir / "formalizations.jsonl", records)
    print(json.dumps({"n_records": len(records), "n_errors": len(errors),
                      "errors": errors}, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


def _write_report(out_dir: Path, rows) -> None:
    markdown, csv_text = bench_mod.format_table(rows)
    (out_dir / "report.md").write_text(markdown, encoding="utf-8")
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        if args.no_erp:
            config.erp_enabled = False
        budget = config.budget()
        spec = bench_mod.load_benchmark(args.spec, name=args.name or "",
                                        budget=budget)
        model, prover = build_backends(config)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(str(exc))

    out_dir = Path(args.out or config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = Path(args.records) if args.records else out_dir / "records.jsonl"
    try:
        records = bench_mod.run_benchmark(spec, model, prover, records_path,
                                          few_shots=_load_few_shots(config))
        report = bench_mod.aggregate(records)
    except (MissingFixture, TransportError, ProofSeekError) as exc:
        return _fail(str(exc))
    method = f"{config.label} ({'ERP' if config.erp_enabled else 'No ERP'})"
    dataset = f"{spec.name} ({len(spec.problems)} Problems)"
    _write_report(out_dir, [(dataset, method, report)])
    print(json.dumps({
        "dataset": dataset, "method": method,
        "success_rate": report.success_rate,
        "avg_attempts": report.avg_attempts,
        "total_exec_time": report.total_exec_time,
        "n_problems": report.n_problems, "n_success": report.n_success,
        "n_undetermined": report.n_undetermined,
        "records": str(records_path),
    }, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


def cmd_curate(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        rows = read_jsonl(args.corpus)
        pairs = [curate_mod.TheoremProofPair.from_json(row) for row in rows]
        model, prover = build_backends(config)
    except (ConfigError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        return _fail(str(exc))

    out_dir = Path(args.out or config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = config.seed if args.seed is None else args.seed
    result = curate_mod.filter_self_contained(pairs, prover)
    sample_count = args.sample_count if args.sample_count is not None \
        else len(result.sft_pool)
    sample_count = min(sample_count, len(result.sft_pool))
    try:
        sft_records, sft_drops = curate_mod.build_sft_records(
            result.sft_pool, model, sample_count, seed=seed,
            params=config.model)
        rl_records, rl_drops = curate_mod.build_rl_records(
            result.rl_pool, model, params=config.model)
    except MissingFixture as exc:
        return _fail(str(exc))

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
        "drops": [*sft_drops, *rl_drops],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps(manifest, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        if args.no_erp:
            config.erp_enabled = False
        rows = read_jsonl(args.records)
        records = [AttemptRecord.from_json(row) for row in rows]
        report = bench_mod.aggregate(records)
    except (ConfigError, OSError, json.JSONDecodeError, KeyError,
            ProofSeekError) as exc:
        return _fail(str(exc))
    out_dir = Path(args.out or config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    method = f"{config.label} ({'ERP' if config.erp_enabled else 'No ERP'})"
    dataset = args.name or Path(args.records).stem
    _write_report(out_dir, [(f"{dataset} ({report.n_problems} Problems)",
                             method, report)])
    print(json.dumps({"success_rate": report.success_rate,
                      "avg_attempts": report.avg_attempts,
                      "total_exec_time": report.total_exec_time},
                     ensure_ascii=False, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

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
    p.add_argument("corpus", help="JSONL with statement/proof/source_theory")
    p.add_argument("--sample-count", type=int, default=None)
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
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted; partial outputs are flushed", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
