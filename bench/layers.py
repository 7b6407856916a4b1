"""Per-layer metrics of the traced run, one layer per sqlbench module.

The benchmark wraps the public functions below from its own files (nothing
under src/ is changed) and derives every per-layer metric from the recorded
spans and the counters the hooks keep at the same call boundaries.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager

from spans import END, NAME, PARENT, START, TAG, Tracer, instrument, self_times

PACKAGE = "sqlbench"
TARGETS = {
    "cli": ("cmd_prompt", "cmd_predict", "cmd_eval", "cmd_report", "cmd_suite"),
    "dataset": ("load_benchmark", "select_support"),
    "schema": ("introspect", "sample_rows"),
    "prompt": ("fit_support", "render_prompt", "estimate_tokens"),
    "backend": ("predict",),
    "fuzz": ("build_test_suite",),
    "evaluate": ("evaluate_benchmark", "evaluate"),
    "execution": ("execute_sql", "has_top_level_order_by", "compare_results"),
    "report": ("metrics_table", "render_markdown", "render_csv", "render_json"),
}

# (name, unit, better, is_count). Count metrics must repeat exactly between
# passes of one run and between runs of one seed.
METRICS = [
    ("cli.prompt_s", "s", "lower", False),
    ("cli.predict_s", "s", "lower", False),
    ("cli.eval_s", "s", "lower", False),
    ("cli.report_s", "s", "lower", False),
    ("dataset.load_ms", "ms", "lower", False),
    ("dataset.select_support_ms", "ms", "lower", False),
    ("schema.introspect_calls", "count", "lower", True),
    ("schema.introspect_ms", "ms", "lower", False),
    ("schema.sample_rows_calls", "count", "lower", True),
    ("schema.sample_rows_us", "us", "lower", False),
    ("prompt.prompts", "count", "higher", True),
    ("prompt.render_calls", "count", "lower", True),
    ("prompt.renders_per_prompt", "ratio", "lower", True),
    ("prompt.render_us", "us", "lower", False),
    ("prompt.estimate_tokens_us", "us", "lower", False),
    ("backend.predict_calls", "count", "lower", True),
    ("backend.predict_us", "us", "lower", False),
    ("fuzz.cold_build_s_per_db", "s", "lower", False),
    ("fuzz.source_rows", "count", "higher", True),
    ("fuzz.source_rows_per_s", "rows/s", "higher", False),
    ("fuzz.variants_written", "count", "lower", True),
    ("fuzz.warm_build_ms", "ms", "lower", False),
    ("execution.exec_calls", "count", "lower", True),
    ("execution.exec_us_p50", "us", "lower", False),
    ("execution.exec_self_ms", "ms", "lower", False),
    ("execution.exec_calls_per_example", "ratio", "lower", True),
    ("execution.gold_exec_share", "share", "lower", True),
    ("execution.rows_fetched", "count", "lower", True),
    ("execution.errors_engine", "count", "lower", True),
    ("execution.errors_timeout", "count", "lower", True),
    ("execution.errors_forbidden", "count", "lower", True),
    ("execution.compare_calls", "count", "lower", True),
    ("execution.compare_us_p50", "us", "lower", False),
    ("execution.rows_compared", "count", "lower", True),
    ("evaluate.examples", "count", "higher", True),
    ("evaluate.self_ms", "ms", "lower", False),
    ("evaluate.ts_loop_share", "share", "lower", False),
    ("evaluate.variant_execs_per_example", "ratio", "lower", True),
    ("evaluate.variants_skipped", "count", "lower", True),
    ("evaluate.repeat_gold_share", "share", "lower", True),
    ("evaluate.duplicate_pred_share", "share", "lower", True),
    ("report.render_ms", "ms", "lower", False),
    ("bench.examples_per_s_traced", "1/s", "higher", False),
    ("bench.trace_overhead", "ratio", "lower", False),
    ("bench.machine_speed", "ratio", "higher", False),
]


class Probe:
    """A tracer plus the hooks that turn call arguments into counts.

    Counts restart with each phase (one set-up or one pipeline pass), so
    each phase's counts can be compared with the next."""

    def __init__(self):
        self.tracer = Tracer()
        self.phases: list[tuple[str, int, int, Counter]] = []  # kind, first, end, counts
        self.missing: set[str] = set()  # targets not found in the program
        self._eval = None  # (example, original database) of the evaluate call in progress
        self._seen_gold: set = set()
        self._seen_pred: set = set()
        self._hooks = {
            "evaluate.evaluate": (self._before_evaluate, self._after_evaluate),
            "execution.execute_sql": (self._before_exec, self._after_exec),
            "execution.compare_results": (None, self._after_compare),
            "fuzz.build_test_suite": (None, self._after_build),
        }

    @contextmanager
    def phase(self, kind: str):
        """Trace one set-up or pass under a root span "bench.<kind>"."""
        t = self.tracer
        t.counts = Counter()
        self._seen_gold, self._seen_pred = set(), set()
        first = len(t.spans)
        with instrument(t, PACKAGE, TARGETS, self._hooks) as missing, t.span(f"bench.{kind}"):
            self.missing.update(missing)
            yield
        self.phases.append((kind, first, len(t.spans), t.counts))

    def _before_evaluate(self, args, kwargs):
        example, prediction, suite = args[:3]
        self._eval = (example, suite.variants[0])
        self.tracer.example_id = example.example_id
        c = self.tracer.counts
        key = (example.db_id, prediction.sql)
        c["evaluate.predictions"] += 1
        c["evaluate.duplicate_preds"] += key in self._seen_pred
        self._seen_pred.add(key)

    def _after_evaluate(self, args, kwargs, result, span):
        self._eval = None
        self.tracer.example_id = None

    def _before_exec(self, args, kwargs):
        if self._eval is None:
            return None
        example, original = self._eval
        # evaluate passes example.gold_sql itself for gold runs; predictions
        # are separate strings even when their text equals the gold query
        who = "gold" if args[1] is example.gold_sql else "pred"
        return who + (".original" if args[0] == original else ".variant")

    def _after_exec(self, args, kwargs, result, span):
        c = self.tracer.counts
        rows = getattr(result, "rows", None)
        if rows is None:
            c[f"execution.errors_{result.kind}"] += 1
        else:
            c["execution.rows_fetched"] += len(rows)
        tag = span[TAG] or ""
        if tag.startswith("gold"):
            c["execution.gold_execs"] += 1
            key = (str(args[0]), args[1])
            c["evaluate.repeat_gold"] += key in self._seen_gold
            self._seen_gold.add(key)
            c["evaluate.variants_skipped"] += tag == "gold.variant" and rows is None
        c["evaluate.variant_execs"] += tag.endswith(".variant")

    def _after_compare(self, args, kwargs, result, span):
        self.tracer.counts["execution.rows_compared"] += len(args[0].rows) + len(args[1].rows)

    def _after_build(self, args, kwargs, result, span):
        self.tracer.counts["fuzz.variants_built"] += len(result.variants) - 1


def _ratio(a, b):
    return a / b if b else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def pass_metrics(spans, selfs, first, end, counts, prompts: int) -> dict:
    """Per-layer metrics of one pipeline pass, spans[first:end]."""
    dur, own, by_index = {}, {}, {}
    for i in range(first, end):
        s = spans[i]
        dur.setdefault(s[NAME], []).append(s[END] - s[START])
        own.setdefault(s[NAME], []).append(selfs[i])
        by_index[i] = s

    def d(name):
        return dur.get(name, [])

    c = counts
    execs = len(d("execution.execute_sql"))
    examples = len(d("evaluate.evaluate"))
    # TS loop: from the first execution on a fuzzed variant to the end of evaluate
    loop = 0.0
    loop_start = {}
    for i, s in by_index.items():
        if s[NAME] == "execution.execute_sql" and (s[TAG] or "").endswith(".variant"):
            loop_start.setdefault(s[PARENT], s[START])
    for parent, start in loop_start.items():
        loop += spans[parent][END] - start
    report_s = sum(s[END] - s[START] for s in by_index.values()
                   if s[NAME].startswith("report.")
                   and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith("report.")))
    return {
        "cli.prompt_s": sum(d("cli.cmd_prompt")),
        "cli.predict_s": sum(d("cli.cmd_predict")),
        "cli.eval_s": sum(d("cli.cmd_eval")),
        "cli.report_s": sum(d("cli.cmd_report")),
        "dataset.load_ms": _mean(d("dataset.load_benchmark")) * 1e3,
        "dataset.select_support_ms": _mean(d("dataset.select_support")) * 1e3,
        "schema.introspect_calls": len(d("schema.introspect")),
        "schema.introspect_ms": _mean(d("schema.introspect")) * 1e3,
        "schema.sample_rows_calls": len(d("schema.sample_rows")),
        "schema.sample_rows_us": _mean(d("schema.sample_rows")) * 1e6,
        "prompt.prompts": prompts,
        "prompt.render_calls": len(d("prompt.render_prompt")),
        "prompt.renders_per_prompt": _ratio(len(d("prompt.render_prompt")), prompts),
        "prompt.render_us": _mean(d("prompt.render_prompt")) * 1e6,
        "prompt.estimate_tokens_us": _mean(d("prompt.estimate_tokens")) * 1e6,
        "backend.predict_calls": len(d("backend.predict")),
        "backend.predict_us": _mean(d("backend.predict")) * 1e6,
        "fuzz.warm_build_ms": _mean(d("fuzz.build_test_suite")) * 1e3,
        "execution.exec_calls": execs,
        "execution.exec_us_p50": _median(d("execution.execute_sql")) * 1e6,
        "execution.exec_self_ms": sum(own.get("execution.execute_sql", [])) * 1e3,
        "execution.exec_calls_per_example": _ratio(execs, examples),
        "execution.gold_exec_share": _ratio(c["execution.gold_execs"], execs),
        "execution.rows_fetched": c["execution.rows_fetched"],
        "execution.errors_engine": c["execution.errors_engine"],
        "execution.errors_timeout": c["execution.errors_timeout"],
        "execution.errors_forbidden": c["execution.errors_forbidden"],
        "execution.compare_calls": len(d("execution.compare_results")),
        "execution.compare_us_p50": _median(d("execution.compare_results")) * 1e6,
        "execution.rows_compared": c["execution.rows_compared"],
        "evaluate.examples": examples,
        "evaluate.self_ms": sum(own.get("evaluate.evaluate", [])) * 1e3,
        "evaluate.ts_loop_share": _ratio(loop, sum(d("evaluate.evaluate"))),
        "evaluate.variant_execs_per_example": _ratio(c["evaluate.variant_execs"], examples),
        "evaluate.variants_skipped": c["evaluate.variants_skipped"],
        "evaluate.repeat_gold_share": _ratio(c["evaluate.repeat_gold"],
                                             c["execution.gold_execs"]),
        "evaluate.duplicate_pred_share": _ratio(c["evaluate.duplicate_preds"],
                                                c["evaluate.predictions"]),
        "report.render_ms": report_s * 1e3,
    }


def setup_metrics(spans, first, end, counts, source_rows: int) -> dict:
    """Per-layer metrics of one cold set-up, spans[first:end]."""
    builds = [s[END] - s[START] for s in spans[first:end] if s[NAME] == "fuzz.build_test_suite"]
    return {
        "fuzz.cold_build_s_per_db": _mean(builds),
        "fuzz.source_rows": source_rows,
        "fuzz.source_rows_per_s": _ratio(source_rows, sum(builds)),
        "fuzz.variants_written": counts["fuzz.variants_built"],
    }


def summarize(probe: Probe, pass_prompts: list[int], source_rows: int):
    """Median of each metric over the phases that measure it, and the names
    of count metrics that did not repeat exactly between phases."""
    spans = probe.tracer.spans
    selfs = self_times(spans)
    per_phase = []
    passes = iter(pass_prompts)
    for kind, first, end, counts in probe.phases:
        if kind == "setup":
            per_phase.append(setup_metrics(spans, first, end, counts, source_rows))
        else:
            per_phase.append(pass_metrics(spans, selfs, first, end, counts, next(passes)))
    merged, unstable = {}, []
    counts = {name for name, _, _, is_count in METRICS if is_count}
    for values in per_phase:
        for name, value in values.items():
            merged.setdefault(name, []).append(value)
    out = {}
    for name, values in merged.items():
        if name in counts and len(set(values)) > 1:
            unstable.append(name)
        out[name] = statistics.median(values)
    return out, unstable
