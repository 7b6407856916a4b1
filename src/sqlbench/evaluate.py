"""Per-example metric computation: validity, execution accuracy, test-suite accuracy."""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field

from .backend import EMPTY_PREDICTION, Prediction
from .dataset import ExampleRecord, read_jsonl
from .execution import Connections, ExecError, compare_results, execute_sql
from .fuzz import TestSuite
from .store import GoldStore


class GoldBrokenError(Exception):
    """The gold query fails on the original database; the example is excluded."""


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
        timing_ms may be absent (older files); a bad line raises IngestionError."""
        fields = {"example_id": str, "valid": bool, "ex": bool, "ts": bool}
        return [cls(r["example_id"], r["valid"], r.get("invalid_reason"), r["ex"], r["ts"],
                    r.get("timing_ms", 0.0)) for r in read_jsonl(path, fields)]


def evaluate(example: ExampleRecord, prediction: Prediction, suite: TestSuite,
             timeout_ms: int, warn, connections: Connections,
             gold_store: GoldStore) -> EvalOutcome:
    """Score one prediction. valid: executes on the original database;
    ex: matches gold there; ts: matches gold on every suite variant.

    Queries run on the connections `connections` holds for the suite's
    files. Gold results come from gold_store when it holds them, and go into
    it when it does not. Variants the gold query fails on are skipped, with a
    note to warn."""
    start = time.monotonic()
    original = suite.variants[0]

    def gold_on(i, db_file):
        result = gold_store.get(example.gold_sql, i)
        if result is None:
            result = execute_sql(db_file, example.gold_sql, timeout_ms, connections)
            gold_store.put(example.gold_sql, i, result, volatile=connections.volatile)
        return result

    gold_res = gold_on(0, original)
    if isinstance(gold_res, ExecError):
        raise GoldBrokenError(
            f"{example.example_id}: gold query failed on {suite.db_id}: {gold_res.message}"
        )

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

    pred_res = execute_sql(original, prediction.sql, timeout_ms, connections)
    if isinstance(pred_res, ExecError):
        return done(False, pred_res.message, False, False)

    ex = compare_results(gold_res, pred_res)
    if not ex:
        return done(True, None, False, False)

    ts = True
    for i, variant in enumerate(suite.variants[1:], 1):
        gold_v = gold_on(i, variant)
        if isinstance(gold_v, ExecError):
            warn(f"{example.example_id}: gold failed on variant {variant}; skipped")
            continue
        pred_v = execute_sql(variant, prediction.sql, timeout_ms, connections)
        if isinstance(pred_v, ExecError) or not compare_results(gold_v, pred_v):
            ts = False
            break
    return done(True, None, ex, ts)


@dataclass
class BenchmarkEvaluation:
    outcomes: list[EvalOutcome]
    gold_broken: list[str]
    gold_store: dict[str, int] = field(default_factory=lambda: {"hits": 0, "misses": 0})


def evaluate_benchmark(examples: list[ExampleRecord], predictions: dict[str, Prediction],
                       suites: dict[str, TestSuite], warn,
                       timeout_ms: int) -> BenchmarkEvaluation:
    """Evaluate every benchmark example that has a prediction and a suite.

    Examples run grouped by database, so each suite file is opened once per
    group, the suite's gold store is read once per group and written at most
    once, and at most one suite's connections are open at a time. Outcomes,
    gold-broken ids and the warnings sent to warn still come out in benchmark
    order, after one warning per gold store that failed. Gold-broken examples
    are excluded from outcomes and listed separately.
    """
    groups: dict[str, list[int]] = {}
    for i, example in enumerate(examples):
        if example.example_id in predictions and example.db_id in suites:
            groups.setdefault(example.db_id, []).append(i)

    result = BenchmarkEvaluation(outcomes=[], gold_broken=[])
    scored: dict[int, tuple[EvalOutcome | None, list[str]]] = {}
    for db_id, indices in groups.items():
        suite = suites[db_id]
        # the fuzzed variants are cache files never rewritten in place
        with closing(Connections(immutable=suite.variants[1:])) as connections, \
                closing(GoldStore(suite)) as store:
            for i in indices:
                example = examples[i]
                notes: list[str] = []
                try:
                    outcome = evaluate(example, predictions[example.example_id], suite,
                                       timeout_ms, notes.append, connections, store)
                except GoldBrokenError as e:
                    outcome = None
                    notes.append(str(e))
                scored[i] = (outcome, notes)
        result.gold_store["hits"] += store.hits
        result.gold_store["misses"] += store.misses
        if store.warning:
            warn(f"gold store {store.path}: {store.warning}")

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
