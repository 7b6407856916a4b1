"""Per-example metric computation: validity, execution accuracy, test-suite accuracy."""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field

from .backend import EMPTY_PREDICTION, Prediction
from .dataset import ExampleRecord, read_jsonl
from .execution import (Connections, ExecError, ExecResult, compare_results, execute_sql,
                        has_top_level_order_by)
from .fuzz import TestSuite
from .parallel import fork_map
from .store import GoldStore


@dataclass
class EvalOutcome:
    """One line of an outcomes file, which to_dict writes and load reads."""
    example_id: str
    valid: bool
    invalid_reason: str | None
    ex: bool
    ts: bool
    timing_ms: float

    def to_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "valid": self.valid,
            "invalid_reason": self.invalid_reason,
            "ex": self.ex,
            "ts": self.ts,
            "timing_ms": round(self.timing_ms, 3),
        }

    @classmethod
    def load(cls, path) -> list[EvalOutcome]:
        """The outcomes of a file of to_dict records, in which invalid_reason and
        timing_ms may be absent (older files); a bad line, or one that breaks
        TS => EX => VA, raises IngestionError."""
        fields = {"example_id": str, "valid": bool, "ex": bool, "ts": bool}

        def make(r):
            if r["ts"] > r["ex"] or r["ex"] > r["valid"]:
                raise ValueError("outcome breaks TS => EX => VA")
            return cls(r["example_id"], r["valid"], r.get("invalid_reason"), r["ex"], r["ts"],
                       r.get("timing_ms", 0.0))

        return list(read_jsonl(path, fields, make))


def _same_results(gold: ExecResult, pred: ExecResult, gold_sql: str) -> bool:
    """Whether pred's rows are gold's, in order when gold_sql has a top-level
    ORDER BY. Decided without rows where it can be: a result equals itself,
    and no result of another shape. Then rows equal in order are checked in
    C; only a pair still apart reads gold_sql, for compare_results. Exact on
    results of Connections.execute: == and cells_equal differ only on bool
    and NaN cells, which SQLite never returns."""
    return gold is pred or (gold.shape == pred.shape and (
        gold.rows == pred.rows
        or compare_results(gold, pred, has_top_level_order_by(gold_sql))))


def evaluate(example: ExampleRecord, prediction: Prediction, suite: TestSuite,
             warn, result_on) -> EvalOutcome | None:
    """Score one prediction. valid: executes on the original database;
    ex: matches gold there; ts: matches gold on every suite variant. None
    when the gold query fails on the original database, with a note to warn.

    result_on(sql, i, gold) is the result of sql on suite file i, gold
    telling a gold query (example.gold_sql itself) from the prediction; see
    _score_group. Variants the gold query fails on are skipped, with a note
    to warn."""
    start = time.monotonic()
    gold_res = result_on(example.gold_sql, 0, True)
    if isinstance(gold_res, ExecError):
        warn(f"{example.example_id}: gold query failed on {suite.db_id}: {gold_res.message}")
        return None

    def done(valid, reason, ex, ts):
        return EvalOutcome(
            example_id=example.example_id,
            valid=valid,
            invalid_reason=reason,
            ex=ex,
            ts=ts,
            timing_ms=(time.monotonic() - start) * 1000,
        )

    if prediction.sql == EMPTY_PREDICTION:
        return done(False, "empty prediction", False, False)

    pred_res = result_on(prediction.sql, 0, False)
    if isinstance(pred_res, ExecError):
        return done(False, pred_res.message, False, False)

    ex = _same_results(gold_res, pred_res, example.gold_sql)
    if not ex:
        return done(True, None, False, False)

    ts = True
    for i, variant in enumerate(suite.variants[1:], 1):
        gold_v = result_on(example.gold_sql, i, True)
        if isinstance(gold_v, ExecError):
            warn(f"{example.example_id}: gold failed on variant {variant}; skipped")
            continue
        pred_v = result_on(prediction.sql, i, False)
        if isinstance(pred_v, ExecError) or not _same_results(gold_v, pred_v, example.gold_sql):
            ts = False
            break
    return done(True, None, ex, ts)


@dataclass
class BenchmarkEvaluation:
    outcomes: list[EvalOutcome]
    gold_broken: list[str]
    gold_store: dict[str, int] = field(default_factory=lambda: {"hits": 0, "misses": 0})
    queries: int = 0  # SQL queries run, gold and prediction alike


def _score_group(examples: list[ExampleRecord], indices: list[int],
                 predictions: dict[str, Prediction], suite: TestSuite,
                 timeout_ms: int) -> tuple:
    """Score the examples at indices, all of suite's database, in order, on one
    set of connections and one gold store. Returns, per example, its outcome,
    or None when its gold is broken, and its notes; then the counts {"hits",
    "misses", "queries"}; then the store's warning or None.

    result_on serves a gold's result from the store, a hit, else runs it, a
    miss, and a prediction's from the group's table, SQL text -> {suite file
    index -> result}, else runs it; queries counts every run. A result that
    timed out or called a volatile function may not repeat, so it is never
    served again. Any other is stored if a gold's that ran, and is in the table
    while a prediction of its text is still to be scored, this one included; a
    text leaves after its last prediction. So a prediction takes the very
    result of an earlier lookup of its text, gold or not, its own gold's
    included: only the queries run differ from scoring each example alone, but
    where a rerun would time out."""
    scored = []
    counts = {"hits": 0, "misses": 0, "queries": 0}
    last = {predictions[examples[i].example_id].sql: i for i in indices}  # text -> last example
    table: dict[str, dict[int, ExecResult | ExecError]] = {sql: {} for sql in last}
    # the fuzzed variants are cache files never rewritten in place
    with closing(Connections(immutable=suite.variants[1:])) as connections, \
            closing(GoldStore(suite)) as store:

        def result_on(sql: str, i: int, gold: bool) -> ExecResult | ExecError:
            result = store.get(sql, i) if gold else table[sql].get(i)
            if result is None:
                result = execute_sql(suite.variants[i], sql, timeout_ms, connections)
                counts["queries"] += 1
                counts["misses"] += gold
                if connections.volatile or (isinstance(result, ExecError)
                                            and result.kind == "timeout"):
                    return result
                if gold:
                    store.put(sql, i, result)
            elif gold:
                counts["hits"] += 1
            if sql in table:
                table[sql][i] = result
            return result

        for i in indices:
            example = examples[i]
            prediction = predictions[example.example_id]
            notes: list[str] = []
            scored.append((evaluate(example, prediction, suite, notes.append, result_on), notes))
            if last[prediction.sql] == i:
                del table[prediction.sql]
    warning = store.warning and f"gold store {store.path}: {store.warning}"
    return scored, counts, warning


def evaluate_benchmark(examples: list[ExampleRecord], predictions: dict[str, Prediction],
                       suites: dict[str, TestSuite], warn,
                       timeout_ms: int) -> BenchmarkEvaluation:
    """Evaluate every benchmark example that has a prediction and a suite.

    Examples run grouped by database, so each suite file is opened once per
    group, the suite's gold store is read once per group and written at most
    once, and at most one suite's connections are open at a time in a
    process. Outcomes, gold-broken ids and the warnings sent to warn still
    come out in benchmark order, after one warning per gold store that
    failed. Gold-broken examples are excluded from outcomes and listed
    separately.

    The groups, in the order their databases first appear, are scored
    through parallel.fork_map, across the usable CPUs; no two groups share a
    connection or a gold store. Eval stays in one process where every suite
    has k = 1: an example then runs at most four queries, and a second busy
    CPU costs each example more than it saves. The groups of a child that
    dies are scored again by the caller, so their counts may read extra
    hits: the results the child stored before it died.
    """
    groups: dict[str, list[int]] = {}
    for i, example in enumerate(examples):
        if example.example_id in predictions and example.db_id in suites:
            groups.setdefault(example.db_id, []).append(i)

    def score(db_id: str) -> tuple:
        return _score_group(examples, groups[db_id], predictions, suites[db_id], timeout_ms)

    one_process = all(suites[db_id].k == 1 for db_id in groups)
    scored_groups = (map if one_process else fork_map)(score, groups)

    result = BenchmarkEvaluation(outcomes=[], gold_broken=[])
    scored: dict[int, tuple[EvalOutcome | None, list[str]]] = {}
    for indices, (group_scored, counts, warning) in zip(groups.values(), scored_groups):
        scored.update(zip(indices, group_scored))
        result.queries += counts["queries"]
        for name in result.gold_store:
            result.gold_store[name] += counts[name]
        if warning:
            warn(warning)

    for i, (outcome, notes) in sorted(scored.items()):
        for note in notes:
            warn(note)
        if outcome is None:
            result.gold_broken.append(examples[i].example_id)
        else:
            result.outcomes.append(outcome)
    for i, example in enumerate(examples):
        if i not in scored:
            reason = ("no prediction" if example.example_id not in predictions
                      else "no test suite for its database")
            warn(f"{example.example_id}: {reason}; skipped")
    return result
