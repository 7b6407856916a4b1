"""Subcommand front-end: prompt -> predict -> eval -> report, plus suite
pre-generation and annotation skeletons. Stages communicate only via files."""

from __future__ import annotations

import argparse
import glob as globmod
import hashlib
import json
import sys
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

import yaml

from . import __version__
from .backend import (BackendError, HttpBackend, Prediction, ReplayBackend, gold_completion,
                      predict)
from .dataset import IngestionError, load_benchmark, read_jsonl, select_support
from .errors import annotation_skeleton, breakdown, load_annotations, sample_for_annotation
from .evaluate import EvalOutcome, evaluate_benchmark
from .fuzz import build_test_suite
from .prompt import (BudgetError, PromptBudget, PromptStyle, SchemaSection, StyleKind,
                     fit_support, parse_style, render_schema)
from .report import (curve_csv, learning_curve, metrics_table, render_breakdown_markdown,
                     render_csv, render_json, render_markdown)
from .schema import IntrospectionError, connect_ro, introspect, sample_rows


class UsageError(Exception):
    """A setting, or a combination of settings, a command cannot run with."""


class Option(NamedTuple):
    """One setting of a stage that takes --config. Its flag is the name with
    `-` for `_`; its config key is the name itself. A required option must be
    set for the stage to run. A recorded option goes into the config of the
    stage's manifest, in table order, unless it is unset."""
    name: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    recorded: bool = False


BENCHMARK = Option("benchmark", required=True, recorded=True)
DB_ROOT = Option("db_root", required=True, recorded=True)
PROMPTS = Option("prompts", Path, "prompts.jsonl", recorded=True)
PREDICTIONS = Option("predictions", Path, "predictions.jsonl", recorded=True)
SUITE_K = Option("suite_k", int, 32, recorded=True)
SUITE_SEED = Option("suite_seed", int, 0, recorded=True)
CACHE = Option("cache", Path, ".sqlbench-suites")

# Each stage writes by default where the next one reads by default.
STAGE_OPTIONS = {
    "prompt": (
        BENCHMARK, DB_ROOT,
        Option("prompt", default="create+select:3", recorded=True,
               help="question|apidocs|select:<X>|create|create+select:<X>"),
        Option("shots", int, 0, recorded=True),
        Option("seed", int, 0, recorded=True),
        Option("context_tokens", int, 4096, recorded=True),
        Option("completion_reserve", int, 200, recorded=True),
        Option("train", recorded=True, help="training split for few-shot support selection"),
        Option("out", Path, PROMPTS.default),
    ),
    "predict": (
        PROMPTS,
        Option("backend", default="replay", choices=("replay", "gold", "http"), recorded=True),
        Option("replay_file"),
        Option("benchmark"),
        Option("db_root", default="."),
        Option("base_url"),
        Option("model", default="", recorded=True),
        Option("rpm", int, 20),
        Option("retries", int, 5),
        Option("max_tokens", int, 200, recorded=True),
        Option("temperature", float, 0.0, recorded=True),
        Option("sql_out", help="also write one SQL per line in benchmark order"),
        Option("out", Path, PREDICTIONS.default),
    ),
    "eval": (
        BENCHMARK, DB_ROOT, PREDICTIONS, SUITE_K, SUITE_SEED,
        Option("timeout_ms", int, 30000, recorded=True),
        CACHE,
        Option("out", Path, "outcomes.jsonl"),
    ),
    "suite": (
        Option("db", Path, required=True, help="path to the original database file"),
        SUITE_K, SUITE_SEED, CACHE,
    ),
}
CONFIG_KEYS = {opt.name for options in STAGE_OPTIONS.values() for opt in options}


def _resolve(args) -> None:
    """Set each option of the stage to its flag, else its --config key, else its
    default. A value from the file is converted as the same text given to the
    flag would be. Raises UsageError for an unusable config file or value, or
    a missing required option."""
    config = {}
    if args.config:
        try:
            with open(args.config, "rb") as f:  # yaml reports undecodable bytes
                config = yaml.safe_load(f) or {}
        except (OSError, yaml.YAMLError) as e:
            raise UsageError(f"cannot read config file {args.config}: {e}") from e
        if not isinstance(config, dict):
            raise UsageError(f"{args.config} does not map option names to values")
        unknown = [key for key in config if key not in CONFIG_KEYS]
        if unknown:
            raise UsageError(f"unknown key {unknown[0]!r} in {args.config} "
                             "(a config key is a flag name with '_' for '-')")
    for opt in STAGE_OPTIONS[args.command]:
        value = getattr(args, opt.name)
        if value is None:
            value = config.get(opt.name)
        if value is None:  # an empty key in the file is the same as no key
            value = opt.default
        if value is not None:
            bad = f"{opt.name} {value!r} in {args.config} is not a {opt.type.__name__}"
            if isinstance(value, (list, dict)):
                raise UsageError(bad)
            try:
                value = opt.type(str(value))
            except ValueError as e:
                raise UsageError(bad) from e
        if opt.choices and value not in opt.choices:
            raise UsageError(f"{opt.name} {value!r} in {args.config} is not one of {opt.choices}")
        if opt.required and value is None:
            raise UsageError(f"{args.command} needs --{opt.name.replace('_', '-')} "
                             f"or the config key {opt.name}")
        setattr(args, opt.name, value)


def _write_manifest(args, extra: dict):
    """Write <out>.manifest.json. Its config holds the stage's recorded options
    that are set: numbers as resolved, every other value as a string."""
    config = {"stage": args.command}
    for opt in STAGE_OPTIONS[args.command]:
        value = getattr(args, opt.name)
        if opt.recorded and value is not None:
            config[opt.name] = value if isinstance(value, (int, float)) else str(value)
    canonical = json.dumps(config, sort_keys=True)
    manifest = {
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "code_version": __version__,
    }
    manifest.update(extra)
    Path(str(args.out) + ".manifest.json").write_text(json.dumps(manifest, indent=2, default=str))


def _read_manifest(artifact_path) -> dict | None:
    p = Path(str(artifact_path) + ".manifest.json")
    if not p.exists():
        return None
    try:
        return json.loads(p.read_text())
    except ValueError as e:
        raise IngestionError(f"{p} is not JSON") from e


def _write_jsonl(path: Path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _warn(message: str) -> None:
    """The one way a stage reports a problem it goes on past. sys.stderr is
    looked up on each call, so a redirect made after import still catches it."""
    print(f"warning: {message}", file=sys.stderr)


def _skip_database(db_id: str, error: IntrospectionError) -> None:
    """What prompt and eval do with a database they cannot open."""
    _warn(f"{db_id}: {error}; its examples are skipped")


def _schema_section(db_id: str, db_file, style: PromptStyle) -> SchemaSection:
    """Read a database's schema and row samples through one connection, and
    render them once for style. The question style shows no schema, so it
    opens no database."""
    if style.kind is StyleKind.QUESTION:
        return render_schema(style, None, None)
    with closing(connect_ro(db_file)) as conn:
        tables = introspect(db_file, conn, lambda message: _warn(f"{db_id}: {message}"))
        samples = None
        if style.x is not None:
            samples = [sample_rows(conn, t.name, style.x) for t in tables]
    return render_schema(style, tables, samples)


def cmd_prompt(args) -> None:
    bench = load_benchmark(args.benchmark, args.db_root)
    style = parse_style(args.prompt)
    budget = PromptBudget(args.context_tokens, args.completion_reserve)

    support = None
    if args.shots > 0:
        if not args.train:
            raise UsageError("--shots requires --train")
        train = load_benchmark(args.train, args.db_root)
        support = select_support(train, args.shots, args.seed,
                                 lambda message: _warn(f"train: {message}"))
        support_out = args.out.with_suffix(".support.json")
        support_out.parent.mkdir(parents=True, exist_ok=True)
        support_out.write_text(support.to_json())
    else:  # a zero-shot run reads no training split, so its manifest names none
        args.train = None

    sections = {}  # db_id -> the schema section of its prompts, None if it cannot be read
    records = []
    skipped = []
    for rec in bench.examples:
        if rec.db_id not in sections:
            try:
                sections[rec.db_id] = _schema_section(rec.db_id, bench.db_path(rec.db_id), style)
            except IntrospectionError as e:
                sections[rec.db_id] = None
                _skip_database(rec.db_id, e)
        section = sections[rec.db_id]
        if section is None:
            continue
        try:
            rendered, n_used = fit_support(budget, section, rec.question, support)
        except BudgetError as e:
            skipped.append(rec.example_id)
            _warn(f"{rec.example_id}: {e}; skipped")
            continue
        records.append({
            "example_id": rec.example_id,
            "db_id": rec.db_id,
            "prompt": rendered.text,
            "est_tokens": rendered.est_tokens,
            "shots_used": n_used,
        })
    _write_jsonl(args.out, records)
    _write_manifest(args, {"skipped": skipped, "n_prompts": len(records)})
    print(f"wrote {len(records)} prompts to {args.out} ({len(skipped)} over budget)")


def cmd_predict(args) -> None:
    if args.backend == "replay":
        if not args.replay_file:
            raise UsageError("replay backend requires --replay-file")
        replay = read_jsonl(args.replay_file, {"example_id": str, "raw_completion": str})
        backend = ReplayBackend({r["example_id"]: r["raw_completion"] for r in replay})
    elif args.backend == "gold":
        if not args.benchmark:
            raise UsageError("gold backend requires --benchmark")
        bench = load_benchmark(args.benchmark, args.db_root)
        backend = ReplayBackend({e.example_id: gold_completion(e.gold_sql)
                                 for e in bench.examples})
    else:
        if not args.base_url:
            raise UsageError("http backend requires --base-url")
        backend = HttpBackend(args.base_url, args.model, args.rpm, args.retries)

    records = []
    for rec in read_jsonl(args.prompts, {"example_id": str, "prompt": str}):
        p = predict(rec["example_id"], rec["prompt"], backend, args.max_tokens,
                    args.temperature)
        records.append({"example_id": p.example_id,
                        "raw_completion": p.raw_completion, "sql": p.sql})

    _write_jsonl(args.out, records)
    prompt_manifest = _read_manifest(args.prompts)
    extra = {}
    if prompt_manifest:
        extra["prompt_config_hash"] = prompt_manifest.get("config_hash")
        extra["prompt_config"] = prompt_manifest.get("config")
    _write_manifest(args, extra)
    if args.sql_out:
        Path(args.sql_out).write_text("".join(r["sql"] + "\n" for r in records))
    print(f"wrote {len(records)} predictions to {args.out}")


def cmd_eval(args) -> None:
    pred_manifest = _read_manifest(args.predictions)
    if pred_manifest and pred_manifest.get("prompt_config"):
        prompt_bench = pred_manifest["prompt_config"].get("benchmark")
        if prompt_bench and str(args.benchmark) != prompt_bench and not args.allow_mismatch:
            raise UsageError(f"predictions were made for benchmark {prompt_bench!r}, "
                             f"not {args.benchmark!r} (use --allow-mismatch to override)")

    bench = load_benchmark(args.benchmark, args.db_root)
    predictions = {}
    for rec in read_jsonl(args.predictions, {"example_id": str, "sql": str}):
        example_id = rec["example_id"]
        if example_id in predictions:
            raise IngestionError(f"{args.predictions} has more than one prediction for "
                                 f"{example_id!r}")
        predictions[example_id] = Prediction(example_id, rec.get("raw_completion", ""),
                                             rec["sql"])
    suites = {}
    for db_id in sorted({e.db_id for e in bench.examples}):
        try:
            suites[db_id] = build_test_suite(bench.db_path(db_id), args.suite_k,
                                             args.suite_seed, args.cache, _warn, db_id)
        except IntrospectionError as e:
            _skip_database(db_id, e)

    result = evaluate_benchmark(bench, predictions, suites, _warn, args.timeout_ms)
    _write_jsonl(args.out, [o.to_dict() for o in result.outcomes])
    _write_manifest(args, {
        "gold_broken": result.gold_broken,
        "n_outcomes": len(result.outcomes),
        "prompt_config": (pred_manifest or {}).get("prompt_config"),
        "model": (pred_manifest or {}).get("config", {}).get("model", ""),
        "suites": {db_id: {"source_sha256": s.source_sha256, "suite_hash": s.content_hash}
                   for db_id, s in suites.items()},
        "gold_store": result.gold_store,
    })
    print(f"wrote {len(result.outcomes)} outcomes to {args.out} "
          f"({len(result.gold_broken)} gold-broken excluded)")


def _outcome(rec: dict) -> EvalOutcome:
    return EvalOutcome(rec["example_id"], rec["valid"], rec.get("invalid_reason"),
                       rec["ex"], rec["ts"], rec.get("timing_ms", 0.0))


def _load_outcomes(path) -> list[EvalOutcome]:
    return list(read_jsonl(path, {"example_id": str, "valid": bool, "ex": bool, "ts": bool},
                           _outcome))


def _load_run(path) -> tuple[str, list[EvalOutcome], dict]:
    """One run's report label, outcomes and manifest ({} when it has none)."""
    manifest = _read_manifest(path) or {}
    label = Path(path).stem
    if manifest:
        cfg = manifest.get("prompt_config") or {}
        parts = [Path(manifest["config"].get("benchmark", "")).stem,
                 manifest.get("model", ""), cfg.get("prompt", "")]
        shots = cfg.get("shots")
        if shots:
            parts.append(f"{shots}-shot")
        label = " / ".join(p for p in parts if p) or label
    return label, _load_outcomes(path), manifest


def cmd_report(args) -> None:
    paths = sorted(p for pattern in args.runs for p in globmod.glob(pattern))
    if not paths:
        raise UsageError("no outcome files match")
    loaded = [_load_run(p) for p in paths]
    if args.report_kind == "metrics":
        for path, (_, outcomes, _) in zip(paths, loaded):
            if not outcomes:
                raise IngestionError(f"{path} holds no outcomes")
        rows = metrics_table([(label, outcomes, len(manifest.get("gold_broken", [])))
                              for label, outcomes, manifest in loaded])
        fmt = args.format
        if fmt == "markdown":
            text = render_markdown(rows)
        elif fmt == "csv":
            text = render_csv(rows)
        else:
            text = render_json(rows)
    elif args.report_kind == "curve":
        by_shots = {}
        for _, outcomes, manifest in loaded:
            cfg = manifest.get("prompt_config") or {}
            shots = int(cfg.get("shots", 0))
            if shots in by_shots and not args.average:
                raise UsageError(f"duplicate shot count {shots} (use --average)")
            by_shots.setdefault(shots, []).extend(outcomes)
        text = curve_csv(learning_curve(by_shots, args.reference))
    else:  # breakdown
        outcomes = []
        n_broken = 0
        for _, run_outcomes, manifest in loaded:
            outcomes.extend(run_outcomes)
            n_broken += len(manifest.get("gold_broken", []))
        annotations = load_annotations(args.annotations) if args.annotations else []
        result = breakdown(outcomes, annotations, n_broken)
        text = render_breakdown_markdown(result)

    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def cmd_suite(args) -> None:
    suite = build_test_suite(args.db, args.suite_k, args.suite_seed, args.cache, _warn)
    print(f"suite for {suite.db_id}: {suite.k} variants under seed {suite.seed}")


def cmd_annotate(args) -> None:
    outcomes = _load_outcomes(args.outcomes)
    ids = sample_for_annotation(outcomes, args.n, args.seed, _warn)
    text = annotation_skeleton(ids)
    Path(args.out).write_text(text)
    print(f"wrote annotation skeleton with {len(ids)} examples to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqlbench",
                                     description="Text-to-SQL evaluation harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, func in (
            ("prompt", "render prompts for every benchmark example", cmd_prompt),
            ("predict", "obtain completions and finalize SQL", cmd_predict),
            ("eval", "build suites and score predictions", cmd_eval),
            ("suite", "pre-generate fuzzed test-suite variants", cmd_suite)):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config")
        for opt in STAGE_OPTIONS[name]:
            p.add_argument("--" + opt.name.replace("_", "-"), type=opt.type,
                           choices=opt.choices, help=opt.help)
        p.set_defaults(func=func)
    # a flag only: a run.yaml shared by many runs must not switch the check off for all
    sub.choices["eval"].add_argument("--allow-mismatch", action="store_true")

    p = sub.add_parser("report", help="aggregate outcomes into tables and curves")
    rsub = p.add_subparsers(dest="report_kind", required=True)
    for kind in ("metrics", "curve", "breakdown"):
        rp = rsub.add_parser(kind)
        rp.add_argument("--runs", nargs="+", required=True,
                        help="glob(s) of outcome JSONL files")
        rp.add_argument("--out")
        if kind == "metrics":
            rp.add_argument("--format", choices=["markdown", "csv", "json"],
                            default="markdown")
        if kind == "curve":
            rp.add_argument("--reference", type=float,
                            help="horizontal baseline annotation value")
            rp.add_argument("--average", action="store_true")
        if kind == "breakdown":
            rp.add_argument("--annotations")
        rp.set_defaults(func=cmd_report)

    p = sub.add_parser("annotate", help="emit a manual-annotation skeleton")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: 0 on success, 1 when the
    completion backend fails (BackendError), and 2 when an input or a setting
    is unusable: the library's input errors (IngestionError,
    IntrospectionError), the CLI's UsageError, and ValueError. Every
    ValueError raised in sqlbench is a deliberate check on a value from
    outside the program. Each failure prints one `error: <message>` line;
    anything else is a bug and ends in a traceback."""
    args = build_parser().parse_args(argv)
    try:
        if args.command in STAGE_OPTIONS:
            _resolve(args)
        args.func(args)
    except (BackendError, UsageError, IngestionError, IntrospectionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, BackendError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
