"""Subcommand front-end: prompt -> predict -> eval -> report, plus suite
pre-generation and annotation skeletons. Stages communicate only via files."""

from __future__ import annotations

import argparse
import functools
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
                      one_line, predict)
from .dataset import (IngestionError, check_fields, db_path, load_benchmark, read_jsonl,
                      select_support)
from .errors import annotation_skeleton, breakdown, load_annotations, sample_for_annotation
from .evaluate import EvalOutcome, evaluate_benchmark
from .fuzz import SuiteError, build_test_suite
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
    stage's manifest, in table order, unless it is unset. A number below its
    minimum is refused."""
    name: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    recorded: bool = False
    minimum: int | None = None


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
        Option("shots", int, 0, recorded=True, minimum=0),
        Option("seed", int, 0, recorded=True),
        Option("context_tokens", int, 4096, recorded=True),
        Option("completion_reserve", int, 200, recorded=True, minimum=0),
        Option("train", recorded=True, help="training split for few-shot support selection"),
        Option("out", Path, PROMPTS.default),
    ),
    "predict": (
        PROMPTS,
        Option("backend", default="replay", choices=("replay", "gold", "http"), recorded=True),
        Option("replay_file"),
        Option("benchmark"),
        Option("base_url"),
        Option("model", default="", recorded=True),
        Option("rpm", int, 20),
        Option("retries", int, 5, minimum=0),
        Option("max_tokens", int, 200, recorded=True, minimum=1),
        Option("temperature", float, 0.0, recorded=True),
        Option("sql_out", help="also write one SQL per line in the order of the prompt "
               "manifest's benchmark, an empty line for an example with no prompt"),
        Option("out", Path, PREDICTIONS.default),
    ),
    "eval": (
        BENCHMARK, DB_ROOT, PREDICTIONS, SUITE_K, SUITE_SEED,
        # a deadline already past stops only the queries long enough to reach
        # the progress handler, so a gold would count as broken by its size
        Option("timeout_ms", int, 30000, recorded=True, minimum=1),
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
        if opt.minimum is not None and value < opt.minimum:
            raise UsageError(f"{opt.name} must be at least {opt.minimum}, not {value}")
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
    _write(str(args.out) + ".manifest.json", [json.dumps(manifest, indent=2, default=str)])


class RunConfig(NamedTuple):
    """A config a manifest records: the mapping, which later manifests copy
    whole, and the keys later stages read ("" or 0 when unset)."""
    values: dict | None = None
    benchmark: str = ""
    model: str = ""
    prompt: str = ""
    shots: int = 0


class Manifest(NamedTuple):
    """What later stages read of a .manifest.json; Manifest() when there is none."""
    config: RunConfig = RunConfig()
    config_hash: str | None = None
    prompt_config: RunConfig = RunConfig()
    model: str = ""
    n_gold_broken: int = 0


def _read_manifest(artifact_path) -> Manifest:
    """The manifest beside artifact_path; no other code reads a manifest's JSON.
    A file that is not a JSON object, or a field a stage reads that is missing
    or of the wrong type, raises IngestionError naming the file and the field.
    A null field counts as absent."""
    p = Path(str(artifact_path) + ".manifest.json")
    if not p.exists():
        return Manifest()
    try:
        raw = json.loads(p.read_text())
    except (OSError, ValueError) as e:  # ValueError: not JSON, or not UTF-8
        raise IngestionError(f"cannot read {p} as JSON: {e}") from e
    check_fields(str(p), raw, {"config": dict})
    check_fields(str(p), raw, {"config_hash": str, "prompt_config": dict, "model": str,
                               "gold_broken": list}, optional=True)
    if not all(isinstance(example_id, str) for example_id in raw.get("gold_broken") or []):
        raise IngestionError(f"{p}: field 'gold_broken' is not a list of strings")

    def config(key) -> RunConfig:
        values = raw.get(key) or {}
        read = {"benchmark": str, "model": str, "prompt": str, "shots": int}
        check_fields(f"{p}: {key}", values, read, optional=True)
        return RunConfig(raw.get(key), *(values.get(f) or kind() for f, kind in read.items()))
    return Manifest(config("config"), raw.get("config_hash"), config("prompt_config"),
                    raw.get("model") or "", len(raw.get("gold_broken") or []))


def _write(path, chunks) -> None:
    """Write the strings of chunks, in order, to the file path, making its
    directory first. Every file a command writes is written here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.writelines(chunks)


def _write_jsonl(path, records) -> None:
    _write(path, (json.dumps(rec) + "\n" for rec in records))


def _escape(text: str) -> str:
    """text as a JSON string, without its quotes."""
    return json.dumps(text)[1:-1]


def _prompt_lines(prompts):
    """The prompts file's line of each (example, rendered prompt): the
    json.dumps of its record, joined from pieces each escaped once per call.
    JSON escapes one code point at a time, so the escaped pieces of a prompt
    join to the escaped prompt, and a database's schema section, shown in
    each of its prompts, is escaped once."""
    escape = functools.cache(_escape)
    for rec, rendered in prompts:
        yield (f'{{"example_id": {json.dumps(rec.example_id)}, "db_id": {json.dumps(rec.db_id)}, '
               f'"prompt": "{"".join(map(escape, rendered.pieces))}", '
               f'"est_tokens": {rendered.est_tokens}, "shots_used": {rendered.shots_used}}}\n')


def _warn(message: str) -> None:
    """The one way a stage reports a problem it goes on past. sys.stderr is
    looked up on each call, so a redirect made after import still catches it."""
    print(f"warning: {message}", file=sys.stderr)


def _skip_database(db_id: str, error: IntrospectionError | SuiteError) -> None:
    """What prompt and eval do with a database they cannot open, and eval with
    one whose suite cannot be generated."""
    _warn(f"{db_id}: {error}; its examples are skipped")


def _schema_section(db_id: str, db_file, style: PromptStyle) -> SchemaSection | None:
    """Read a database's schema and row samples through one connection, and
    render them once for style; the warnings of reading it go to _warn.
    Returns None, after _skip_database, for a database that cannot be read.
    The question style shows no schema, so it opens no database."""
    if style.kind is StyleKind.QUESTION:
        return render_schema(style, None, None)
    try:
        with closing(connect_ro(db_file)) as conn:
            tables = introspect(db_file, conn, lambda message: _warn(f"{db_id}: {message}"))
            samples = None
            if style.x is not None:
                samples = [sample_rows(conn, t.name, style.x) for t in tables]
    except IntrospectionError as e:
        _skip_database(db_id, e)
        return None
    return render_schema(style, tables, samples)


def cmd_prompt(args) -> None:
    examples = load_benchmark(args.benchmark)
    style = parse_style(args.prompt)
    budget = PromptBudget(args.context_tokens, args.completion_reserve)

    support = None
    if args.shots > 0:
        if not args.train:
            raise UsageError("--shots requires --train")
        train = load_benchmark(args.train)
        support = select_support(train, args.shots, args.seed,
                                 lambda message: _warn(f"train: {message}"))
        _write(args.out.with_suffix(".support.json"), [support.to_json()])
    else:  # a zero-shot run reads no training split, so its manifest names none
        args.train = None

    sections = {}  # db_id -> the schema section of its prompts, None if it cannot be read
    prompts = []
    skipped = []
    for rec in examples:
        if rec.db_id not in sections:
            sections[rec.db_id] = _schema_section(rec.db_id, db_path(args.db_root, rec.db_id),
                                                  style)
        section = sections[rec.db_id]
        if section is None:
            continue
        try:
            rendered, _ = fit_support(budget, section, rec.question, support)
        except BudgetError as e:
            skipped.append(rec.example_id)
            _warn(f"{rec.example_id}: {e}; skipped")
            continue
        prompts.append((rec, rendered))
    _write(args.out, _prompt_lines(prompts))
    _write_manifest(args, {"skipped": skipped, "n_prompts": len(prompts)})
    print(f"wrote {len(prompts)} prompts to {args.out} ({len(skipped)} over budget)")


def cmd_predict(args) -> None:
    prompt_manifest = _read_manifest(args.prompts)
    if args.sql_out and not prompt_manifest.config.benchmark:
        raise UsageError(f"--sql-out needs the benchmark that {args.prompts}.manifest.json "
                         "names in config.benchmark")
    golds = {}  # the gold backend's SQL: each gold query as it is, never cut at a stop string
    if args.backend == "replay":
        if not args.replay_file:
            raise UsageError("replay backend requires --replay-file")
        replay = read_jsonl(args.replay_file, {"example_id": str, "raw_completion": str})
        backend = ReplayBackend({r["example_id"]: r["raw_completion"] for r in replay})
    elif args.backend == "gold":
        if not args.benchmark:
            raise UsageError("gold backend requires --benchmark")
        golds = {e.example_id: e.gold_sql for e in load_benchmark(args.benchmark)}
        backend = ReplayBackend({example_id: gold_completion(gold)
                                 for example_id, gold in golds.items()})
    else:
        if not args.base_url:
            raise UsageError("http backend requires --base-url")
        backend = HttpBackend(args.base_url, args.model, args.rpm, args.retries)
    sql_order = load_benchmark(prompt_manifest.config.benchmark) if args.sql_out else []

    records = []
    for rec in read_jsonl(args.prompts, {"example_id": str, "prompt": str}):
        p = predict(rec["example_id"], rec["prompt"], backend, args.max_tokens,
                    args.temperature)
        records.append({"example_id": p.example_id, "raw_completion": p.raw_completion,
                        "sql": golds.get(p.example_id, p.sql)})

    _write_jsonl(args.out, records)
    _write_manifest(args, {} if prompt_manifest.config.values is None else {
        "prompt_config_hash": prompt_manifest.config_hash,
        "prompt_config": prompt_manifest.config.values})
    if args.sql_out:
        sql = {r["example_id"]: r["sql"] for r in records}
        _write(args.sql_out, (one_line(sql.get(e.example_id, "")) + "\n" for e in sql_order))
    print(f"wrote {len(records)} predictions to {args.out}")


def cmd_eval(args) -> None:
    pred_manifest = _read_manifest(args.predictions)
    prompt_bench = pred_manifest.prompt_config.benchmark
    if prompt_bench and str(args.benchmark) != prompt_bench and not args.allow_mismatch:
        raise UsageError(f"predictions were made for benchmark {prompt_bench!r}, "
                         f"not {args.benchmark!r} (use --allow-mismatch to override)")

    examples = load_benchmark(args.benchmark)
    predictions = {}
    for rec in read_jsonl(args.predictions, {"example_id": str, "sql": str}):
        example_id = rec["example_id"]
        if example_id in predictions:
            raise IngestionError(f"{args.predictions} has more than one prediction for "
                                 f"{example_id!r}")
        predictions[example_id] = Prediction(example_id, rec.get("raw_completion", ""),
                                             rec["sql"])
    suites = {}
    for db_id in sorted({e.db_id for e in examples}):
        try:
            suites[db_id] = build_test_suite(db_path(args.db_root, db_id), args.suite_k,
                                             args.suite_seed, args.cache, _warn, db_id)
        except (IntrospectionError, SuiteError) as e:
            _skip_database(db_id, e)

    result = evaluate_benchmark(examples, predictions, suites, _warn, args.timeout_ms)
    _write_jsonl(args.out, [o.to_dict() for o in result.outcomes])
    _write_manifest(args, {
        "gold_broken": result.gold_broken,
        "n_outcomes": len(result.outcomes),
        "prompt_config": pred_manifest.prompt_config.values,
        "model": pred_manifest.config.model,
        "suites": {db_id: {"source_sha256": s.source_sha256, "suite_hash": s.content_hash}
                   for db_id, s in suites.items()},
        "gold_store": result.gold_store,
        "queries": result.queries,
    })
    print(f"wrote {len(result.outcomes)} outcomes to {args.out} "
          f"({len(result.gold_broken)} gold-broken excluded)")


def _load_run(path) -> tuple[str, list[EvalOutcome], int, int]:
    """One run's report label, outcomes, gold-broken count and shot count. The
    label joins the benchmark, model, prompt style and shot count its manifest
    sets, or is the file's stem when it sets none."""
    manifest = _read_manifest(path)
    prompt_config = manifest.prompt_config
    parts = [Path(manifest.config.benchmark).stem, manifest.model, prompt_config.prompt]
    if prompt_config.shots:
        parts.append(f"{prompt_config.shots}-shot")
    label = " / ".join(p for p in parts if p) or Path(path).stem
    return label, EvalOutcome.load(path), manifest.n_gold_broken, prompt_config.shots


def cmd_report(args) -> None:
    # a file two patterns match is one run
    paths = sorted({p for pattern in args.runs for p in globmod.glob(pattern)})
    if not paths:
        raise UsageError("no outcome files match")
    runs = [_load_run(p) for p in paths]
    if args.report_kind == "metrics":
        for path, (_, outcomes, _, _) in zip(paths, runs):
            if not outcomes:
                raise IngestionError(f"{path} holds no outcomes")
        rows = metrics_table([(label, outcomes, n_broken)
                              for label, outcomes, n_broken, _ in runs])
        render = {"markdown": render_markdown, "csv": render_csv, "json": render_json}
        text = render[args.format](rows)
    elif args.report_kind == "curve":
        by_shots = {}
        for _, outcomes, _, shots in runs:
            if shots in by_shots and not args.average:
                raise UsageError(f"duplicate shot count {shots} (use --average)")
            by_shots.setdefault(shots, []).extend(outcomes)
        text = curve_csv(learning_curve(by_shots, args.reference))
    else:  # breakdown
        outcomes = [o for _, run_outcomes, _, _ in runs for o in run_outcomes]
        known_ids = {o.example_id for o in outcomes}
        annotations = load_annotations(args.annotations, known_ids) if args.annotations else []
        text = render_breakdown_markdown(
            breakdown(outcomes, annotations, sum(n_broken for _, _, n_broken, _ in runs)))

    if args.out:
        _write(args.out, [text, "" if text.endswith("\n") else "\n"])
        print(f"wrote {args.out}")
    else:
        print(text)


def cmd_suite(args) -> None:
    suite = build_test_suite(args.db, args.suite_k, args.suite_seed, args.cache, _warn)
    print(f"suite for {suite.db_id}: {suite.k} variants under seed {suite.seed}")


def cmd_annotate(args) -> None:
    if args.n < 0:
        raise UsageError(f"n must be at least 0, not {args.n}")
    outcomes = EvalOutcome.load(args.outcomes)
    ids = sample_for_annotation(outcomes, args.n, args.seed, _warn)
    _write(args.out, [annotation_skeleton(ids)])
    print(f"wrote annotation skeleton with {len(ids)} examples to {args.out}")


COMMANDS = {
    "prompt": "render prompts for every benchmark example",
    "predict": "obtain completions and finalize SQL",
    "eval": "build suites and score predictions",
    "suite": "pre-generate fuzzed test-suite variants",
    "report": "aggregate outcomes into tables and curves",
    "annotate": "emit a manual-annotation skeleton",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, when command is one of COMMANDS, of that
    command alone: main builds the command a valid command line names first.
    Any other first argument (none, -h, --help, --version, an unknown word)
    gets the full build, whose help and errors list every command. A lone
    command's metavar names all six, so a top-level error's usage line reads as
    the full build's; the full build sets none, so its errors say `command`."""
    whole = command not in COMMANDS
    parser = argparse.ArgumentParser(prog="sqlbench",
                                     description="Text-to-SQL evaluation harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if whole else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if whole else [command]:
        p = sub.add_parser(name, help=COMMANDS[name])
        # looked up per build, so a wrapper set on this module's cmd_* is the one run
        p.set_defaults(func=globals()["cmd_" + name])
        if name in STAGE_OPTIONS:
            p.add_argument("--config")
            for opt in STAGE_OPTIONS[name]:
                p.add_argument("--" + opt.name.replace("_", "-"), type=opt.type,
                               choices=opt.choices, help=opt.help)
        if name == "eval":
            # a flag only: a run.yaml shared by many runs must not switch the check off for all
            p.add_argument("--allow-mismatch", action="store_true")
        elif name == "report":
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
        elif name == "annotate":
            p.add_argument("--outcomes", required=True)
            p.add_argument("--n", type=int, default=100)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: 0 on success, 1 when the
    completion backend fails (BackendError), and 2 when an input or a setting
    is unusable: the library's input errors (IngestionError,
    IntrospectionError, SuiteError), the CLI's UsageError, and ValueError. Every
    ValueError raised in sqlbench is a deliberate check on a value from
    outside the program. Each failure prints one `error: <message>` line;
    anything else is a bug and ends in a traceback."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command in STAGE_OPTIONS:
            _resolve(args)
        args.func(args)
    except (BackendError, UsageError, IngestionError, IntrospectionError, SuiteError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, BackendError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
