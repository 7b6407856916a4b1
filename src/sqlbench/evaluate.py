"""Per-example metric computation: validity, execution accuracy, test-suite accuracy."""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field

from .backend import EMPTY_PREDICTION, Prediction
from .dataset import ExampleRecord, read_jsonl
from .execution import Connections, ExecError, compare_results, execute_sql
from .fuzz import TestSuite, run_shares, strided_shares
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
    note to warn.

    A prediction whose text is exactly the gold query runs no query: on each
    file it takes the gold's result as its own, stored or just run, and is
    compared with it as any other prediction is. So it never races the
    timeout a second time, and a stored result serves it under any
    timeout_ms. The exception is a gold query run in this call that called a
    volatile function: its result may not repeat, so the prediction runs as
    well."""
    start = time.monotonic()
    original = suite.variants[0]
    is_gold = prediction.sql == example.gold_sql

    def gold_on(i, db_file):
        """The gold's result on suite file i, and whether the prediction
        takes it as its own. A stored result never came from a volatile query."""
        result = gold_store.get(example.gold_sql, i)
        if result is not None:
            return result, is_gold
        result = execute_sql(db_file, example.gold_sql, timeout_ms, connections)
        gold_store.put(example.gold_sql, i, result, volatile=connections.volatile)
        return result, is_gold and not connections.volatile

    gold_res, shared = gold_on(0, original)
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

    pred_res = gold_res if shared else execute_sql(original, prediction.sql, timeout_ms,
                                                   connections)
    if isinstance(pred_res, ExecError):
        return done(False, pred_res.message, False, False)

    ex = compare_results(gold_res, pred_res)
    if not ex:
        return done(True, None, False, False)

    ts = True
    for i, variant in enumerate(suite.variants[1:], 1):
        gold_v, shared = gold_on(i, variant)
        if isinstance(gold_v, ExecError):
            warn(f"{example.example_id}: gold failed on variant {variant}; skipped")
            continue
        pred_v = gold_v if shared else execute_sql(variant, prediction.sql, timeout_ms,
                                                   connections)
        if isinstance(pred_v, ExecError) or not compare_results(gold_v, pred_v):
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
    """Score the examples at indices, all of suite's database, on one set of
    connections and one gold store. Returns plain values, which a forked
    child can marshal: per example, its outcome's fields, or None when its
    gold is broken, and its notes; then the queries run, the store's hits
    and misses, and the store's warning or None."""
    scored = []
    # the fuzzed variants are cache files never rewritten in place
    with closing(Connections(immutable=suite.variants[1:])) as connections, \
            closing(GoldStore(suite)) as store:
        for i in indices:
            example = examples[i]
            notes: list[str] = []
            try:
                outcome = evaluate(example, predictions[example.example_id], suite,
                                   timeout_ms, notes.append, connections, store)
                # in field order; dataclasses.astuple would deep-copy each field
                fields = tuple(vars(outcome).values())
            except GoldBrokenError as e:
                fields = None
                notes.append(str(e))
            scored.append((fields, notes))
    warning = store.warning and f"gold store {store.path}: {store.warning}"
    return scored, connections.queries, store.hits, store.misses, warning


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

    The groups, in the order their databases first appear, are split into
    fixed strided shares, one per usable CPU and at most one per group
    (fuzz.strided_shares). The calling process scores the first share and
    forked children the others (fuzz.run_shares); no two groups share a
    connection or a gold store. Eval stays in one process where the platform
    cannot fork, where another thread runs, and where every suite has k = 1:
    an example then runs at most four queries, and a second busy CPU costs
    each example more than it saves. No option sets this, and the result
    does not depend on it. A share whose child dies is scored again by the
    caller, so its groups' stores may count extra hits: the results the
    child stored before it died.
    """
    groups: dict[str, list[int]] = {}
    for i, example in enumerate(examples):
        if example.example_id in predictions and example.db_id in suites:
            groups.setdefault(example.db_id, []).append(i)

    order = list(groups)
    shares = ([order] if all(suites[db_id].k == 1 for db_id in order)
              else strided_shares(order))

    def score_share(share: list[str]) -> list[tuple]:
        return [_score_group(examples, groups[db_id], predictions, suites[db_id], timeout_ms)
                for db_id in share]

    by_group = {}
    for share, scored_groups in zip(shares, run_shares(shares, score_share)):
        by_group.update(zip(share, scored_groups))

    result = BenchmarkEvaluation(outcomes=[], gold_broken=[])
    scored: dict[int, tuple[tuple | None, list[str]]] = {}
    for db_id, indices in groups.items():
        group_scored, queries, hits, misses, warning = by_group[db_id]
        scored.update(zip(indices, group_scored))
        result.queries += queries
        result.gold_store["hits"] += hits
        result.gold_store["misses"] += misses
        if warning:
            warn(warning)

    for i, (fields, notes) in sorted(scored.items()):
        for note in notes:
            warn(note)
        if fields is None:
            result.gold_broken.append(examples[i].example_id)
        else:
            result.outcomes.append(EvalOutcome(*fields))
    for i, example in enumerate(examples):
        if i not in scored:
            reason = ("no prediction" if example.example_id not in predictions
                      else "no test suite for its database")
            warn(f"{example.example_id}: {reason}; skipped")
    return result
