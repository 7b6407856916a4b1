"""Subcommand front-end: prompt -> predict -> eval -> report, plus suite
pre-generation and annotation skeletons. Stages communicate only via files."""

from __future__ import annotations

import argparse
import glob as globmod
import hashlib
import json
import sys
from pathlib import Path

import yaml

from . import __version__
from .backend import (BackendError, GoldOracleBackend, HttpBackend, Prediction,
                      ReplayBackend, predict)
from .dataset import load_benchmark, select_support, SupportSet
from .errors import annotation_skeleton, breakdown, load_annotations, sample_for_annotation
from .evaluate import EvalOutcome, evaluate_benchmark
from .fuzz import build_test_suite
from .prompt import (BudgetError, PromptBudget, StyleKind, fit_support, parse_style,
                     render_prompt)
from .report import (curve_csv, learning_curve, metrics_table, render_breakdown_markdown,
                     render_csv, render_json, render_markdown)
from .schema import introspect, sample_rows


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as f:
        data = yaml.safe_load(f)
    return data or {}


def _merged(args, config: dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_manifest(artifact_path: Path, config: dict, extra: dict | None = None):
    manifest = {
        "config": config,
        "config_hash": _config_hash(config),
        "code_version": __version__,
    }
    if extra:
        manifest.update(extra)
    Path(str(artifact_path) + ".manifest.json").write_text(json.dumps(manifest, indent=2, default=str))


def _read_manifest(artifact_path) -> dict | None:
    p = Path(str(artifact_path) + ".manifest.json")
    if not p.exists():
        return None
    return json.loads(p.read_text())


def _write_jsonl(path: Path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _read_jsonl(path):
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)


def cmd_prompt(args) -> int:
    config = _load_config(args.config)
    bench_path = _merged(args, config, "benchmark")
    db_root = _merged(args, config, "db_root")
    style_spec = _merged(args, config, "prompt", "create+select:3")
    shots = int(_merged(args, config, "shots", 0))
    seed = int(_merged(args, config, "seed", 0))
    context_tokens = int(_merged(args, config, "context_tokens", 4096))
    reserve = int(_merged(args, config, "completion_reserve", 200))
    out = Path(_merged(args, config, "out", "prompts.jsonl"))

    bench = load_benchmark(bench_path, db_root)
    for w in bench.warnings:
        print(f"warning: {w}", file=sys.stderr)
    style = parse_style(style_spec, shots)
    budget = PromptBudget(context_tokens=context_tokens, completion_reserve=reserve)

    support = SupportSet(n=0, seed=seed, examples=[])
    if shots > 0:
        train_path = _merged(args, config, "train")
        if not train_path:
            print("error: --shots requires --train", file=sys.stderr)
            return 2
        train = load_benchmark(train_path, db_root, split="train")
        support = select_support(train, shots, seed)
        support_out = out.with_suffix(".support.json")
        support_out.parent.mkdir(parents=True, exist_ok=True)
        support_out.write_text(support.to_json())

    schemas = {}
    samples_cache = {}
    records = []
    skipped = []
    for rec in bench.examples:
        db_file = bench.db_path(rec.db_id)
        if rec.db_id not in schemas:
            schemas[rec.db_id] = introspect(db_file)
            if style.needs_rows:
                samples_cache[rec.db_id] = [
                    sample_rows(db_file, t.name, style.row_limit)
                    for t in schemas[rec.db_id].tables
                ]
        schema = schemas[rec.db_id]
        samples = samples_cache.get(rec.db_id)
        try:
            if style.kind is StyleKind.FEW_SHOT:
                rendered, n_used = fit_support(budget, style, schema, samples,
                                               rec.question, support)
            else:
                rendered = render_prompt(style, schema, samples, rec.question,
                                         budget=budget)
                n_used = 0
                if not rendered.fits_budget:
                    skipped.append(rec.example_id)
                    print(f"warning: {rec.example_id} exceeds the token budget; skipped",
                          file=sys.stderr)
                    continue
        except BudgetError as e:
            skipped.append(rec.example_id)
            print(f"warning: {rec.example_id}: {e}; skipped", file=sys.stderr)
            continue
        records.append({
            "example_id": rec.example_id,
            "db_id": rec.db_id,
            "prompt": rendered.text,
            "est_tokens": rendered.est_tokens,
            "shots_used": n_used,
        })
    _write_jsonl(out, records)
    run_config = {
        "stage": "prompt", "benchmark": str(bench_path), "db_root": str(db_root),
        "prompt": style_spec, "shots": shots, "seed": seed,
        "context_tokens": context_tokens, "completion_reserve": reserve,
    }
    _write_manifest(out, run_config, {"skipped": skipped, "n_prompts": len(records)})
    print(f"wrote {len(records)} prompts to {out} ({len(skipped)} over budget)")
    return 0


def cmd_predict(args) -> int:
    config = _load_config(args.config)
    prompts_path = Path(_merged(args, config, "prompts", "prompts.jsonl"))
    backend_kind = _merged(args, config, "backend", "replay")
    out = Path(_merged(args, config, "out", "predictions.jsonl"))
    max_tokens = int(_merged(args, config, "max_tokens", 200))
    temperature = float(_merged(args, config, "temperature", 0.0))

    if backend_kind == "replay":
        replay_file = _merged(args, config, "replay_file")
        if not replay_file:
            print("error: replay backend requires --replay-file", file=sys.stderr)
            return 2
        backend = ReplayBackend(replay_file)
    elif backend_kind == "gold":
        bench_path = _merged(args, config, "benchmark")
        db_root = _merged(args, config, "db_root", ".")
        if not bench_path:
            print("error: gold backend requires --benchmark", file=sys.stderr)
            return 2
        bench = load_benchmark(bench_path, db_root)
        backend = GoldOracleBackend({e.example_id: e.gold_sql for e in bench.examples})
    elif backend_kind == "http":
        base_url = _merged(args, config, "base_url")
        model = _merged(args, config, "model", "")
        if not base_url:
            print("error: http backend requires --base-url", file=sys.stderr)
            return 2
        backend = HttpBackend(base_url, model,
                              rpm=int(_merged(args, config, "rpm", 20)),
                              retries=int(_merged(args, config, "retries", 5)))
    else:
        print(f"error: unknown backend {backend_kind!r}", file=sys.stderr)
        return 2

    records = []
    try:
        for rec in _read_jsonl(prompts_path):
            p = predict(rec["example_id"], rec["prompt"], backend,
                        max_tokens=max_tokens, temperature=temperature)
            records.append({"example_id": p.example_id,
                            "raw_completion": p.raw_completion, "sql": p.sql})
    except BackendError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    _write_jsonl(out, records)
    prompt_manifest = _read_manifest(prompts_path)
    run_config = {
        "stage": "predict", "prompts": str(prompts_path), "backend": backend_kind,
        "model": _merged(args, config, "model", ""),
        "max_tokens": max_tokens, "temperature": temperature,
    }
    extra = {}
    if prompt_manifest:
        extra["prompt_config_hash"] = prompt_manifest.get("config_hash")
        extra["prompt_config"] = prompt_manifest.get("config")
    _write_manifest(out, run_config, extra)
    sql_out = _merged(args, config, "sql_out")
    if sql_out:
        Path(sql_out).write_text("".join(r["sql"] + "\n" for r in records))
    print(f"wrote {len(records)} predictions to {out}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    bench_path = _merged(args, config, "benchmark")
    db_root = _merged(args, config, "db_root")
    predictions_path = Path(_merged(args, config, "predictions", "predictions.jsonl"))
    suite_k = int(_merged(args, config, "suite_k", 32))
    suite_seed = int(_merged(args, config, "suite_seed", 0))
    timeout_ms = int(_merged(args, config, "timeout_ms", 30000))
    cache = Path(_merged(args, config, "cache", ".sqlbench-suites"))
    out = Path(_merged(args, config, "out", "outcomes.jsonl"))

    pred_manifest = _read_manifest(predictions_path)
    if pred_manifest and pred_manifest.get("prompt_config"):
        prompt_bench = pred_manifest["prompt_config"].get("benchmark")
        if prompt_bench and str(bench_path) != prompt_bench and not args.allow_mismatch:
            print(
                f"error: predictions were made for benchmark {prompt_bench!r}, "
                f"not {bench_path!r} (use --allow-mismatch to override)",
                file=sys.stderr,
            )
            return 2

    bench = load_benchmark(bench_path, db_root)
    predictions = {}
    for rec in _read_jsonl(predictions_path):
        example_id = rec["example_id"]
        if example_id in predictions:
            print(f"error: {predictions_path} has more than one prediction for "
                  f"{example_id!r}", file=sys.stderr)
            return 2
        predictions[example_id] = Prediction(example_id, rec.get("raw_completion", ""),
                                             rec["sql"])
    suites = {}
    for db_id in sorted({e.db_id for e in bench.examples}):
        db_file = bench.db_path(db_id)
        if not db_file.exists():
            print(f"warning: missing database for {db_id}; its examples are skipped",
                  file=sys.stderr)
            continue
        suites[db_id] = build_test_suite(
            db_file, suite_k, suite_seed, cache, db_id=db_id,
            log=lambda msg: print(f"warning: {msg}", file=sys.stderr),
        )

    result = evaluate_benchmark(bench, predictions, suites, timeout_ms)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_jsonl(out, [o.to_dict() for o in result.outcomes])
    run_config = {
        "stage": "eval", "benchmark": str(bench_path), "db_root": str(db_root),
        "predictions": str(predictions_path), "suite_k": suite_k,
        "suite_seed": suite_seed, "timeout_ms": timeout_ms,
    }
    _write_manifest(out, run_config, {
        "gold_broken": result.gold_broken,
        "n_outcomes": len(result.outcomes),
        "prompt_config": (pred_manifest or {}).get("prompt_config"),
        "model": (pred_manifest or {}).get("config", {}).get("model", ""),
        "suites": {db_id: {"source_sha256": s.source_sha256, "suite_hash": s.content_hash}
                   for db_id, s in suites.items()},
    })
    print(f"wrote {len(result.outcomes)} outcomes to {out} "
          f"({len(result.gold_broken)} gold-broken excluded)")
    return 0


def _load_outcomes(path) -> list[EvalOutcome]:
    return [
        EvalOutcome(r["example_id"], r["valid"], r.get("invalid_reason"),
                    r["ex"], r["ts"], r.get("timing_ms", 0.0))
        for r in _read_jsonl(path)
    ]


def _run_label(path) -> str:
    manifest = _read_manifest(path)
    if manifest:
        cfg = manifest.get("prompt_config") or {}
        parts = [Path(manifest["config"].get("benchmark", "")).stem,
                 manifest.get("model", ""), cfg.get("prompt", "")]
        shots = cfg.get("shots")
        if shots:
            parts.append(f"{shots}-shot")
        label = " / ".join(p for p in parts if p)
        if label:
            return label
    return Path(path).stem


def cmd_report(args) -> int:
    paths = sorted(p for pattern in args.runs for p in globmod.glob(pattern))
    if not paths:
        print("error: no outcome files match", file=sys.stderr)
        return 2
    if args.report_kind == "metrics":
        runs = []
        broken = {}
        for p in paths:
            label = _run_label(p)
            runs.append((label, _load_outcomes(p)))
            manifest = _read_manifest(p)
            if manifest:
                broken[label] = len(manifest.get("gold_broken", []))
        rows = metrics_table(runs, broken)
        fmt = args.format
        if fmt == "markdown":
            text = render_markdown(rows)
        elif fmt == "csv":
            text = render_csv(rows)
        else:
            text = render_json(rows)
    elif args.report_kind == "curve":
        by_shots = {}
        for p in paths:
            manifest = _read_manifest(p) or {}
            cfg = manifest.get("prompt_config") or {}
            shots = int(cfg.get("shots", 0))
            if shots in by_shots and not args.average:
                print(f"error: duplicate shot count {shots} (use --average)", file=sys.stderr)
                return 2
            by_shots.setdefault(shots, []).extend(_load_outcomes(p))
        try:
            curve = learning_curve(by_shots, args.reference)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        text = curve_csv(curve)
    else:  # breakdown
        outcomes = []
        n_broken = 0
        for p in paths:
            outcomes.extend(_load_outcomes(p))
            manifest = _read_manifest(p)
            if manifest:
                n_broken += len(manifest.get("gold_broken", []))
        annotations = load_annotations(args.annotations) if args.annotations else []
        result = breakdown(outcomes, annotations, n_broken)
        text = render_breakdown_markdown(result)

    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_suite(args) -> int:
    config = _load_config(args.config)
    db_file = Path(_merged(args, config, "db"))
    suite = build_test_suite(
        db_file, int(_merged(args, config, "suite_k", 32)),
        int(_merged(args, config, "suite_seed", 0)),
        Path(_merged(args, config, "cache", ".sqlbench-suites")),
        log=lambda msg: print(f"warning: {msg}", file=sys.stderr),
    )
    print(f"suite for {suite.db_id}: {suite.k} variants under seed {suite.seed}")
    return 0


def cmd_annotate(args) -> int:
    outcomes = _load_outcomes(args.outcomes)
    warnings = []
    ids = sample_for_annotation(outcomes, args.n, args.seed, warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    text = annotation_skeleton(ids)
    Path(args.out).write_text(text)
    print(f"wrote annotation skeleton with {len(ids)} examples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqlbench",
                                     description="Text-to-SQL evaluation harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prompt", help="render prompts for every benchmark example")
    p.add_argument("--config")
    p.add_argument("--benchmark")
    p.add_argument("--db-root")
    p.add_argument("--prompt", help="question|apidocs|select:<X>|create|create+select:<X>")
    p.add_argument("--shots", type=int)
    p.add_argument("--train", help="training split for few-shot support selection")
    p.add_argument("--seed", type=int)
    p.add_argument("--context-tokens", type=int)
    p.add_argument("--completion-reserve", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("predict", help="obtain completions and finalize SQL")
    p.add_argument("--config")
    p.add_argument("--prompts")
    p.add_argument("--backend", choices=["replay", "gold", "http"])
    p.add_argument("--replay-file")
    p.add_argument("--benchmark")
    p.add_argument("--db-root")
    p.add_argument("--base-url")
    p.add_argument("--model")
    p.add_argument("--rpm", type=int)
    p.add_argument("--retries", type=int)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--sql-out", help="also write one SQL per line in benchmark order")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="build suites and score predictions")
    p.add_argument("--config")
    p.add_argument("--benchmark")
    p.add_argument("--db-root")
    p.add_argument("--predictions")
    p.add_argument("--suite-k", type=int)
    p.add_argument("--suite-seed", type=int)
    p.add_argument("--timeout-ms", type=int)
    p.add_argument("--cache")
    p.add_argument("--allow-mismatch", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

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

    p = sub.add_parser("suite", help="pre-generate fuzzed test-suite variants")
    p.add_argument("--config")
    p.add_argument("--db", help="path to the original database file")
    p.add_argument("--suite-k", type=int)
    p.add_argument("--suite-seed", type=int)
    p.add_argument("--cache")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("annotate", help="emit a manual-annotation skeleton")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
