import hashlib
import json
import marshal
import math
import os
import re
import shutil
import sqlite3
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import example as case, given, settings
from hypothesis import strategies as st

import sqlbench
from sqlbench import evaluate, execution, parallel, store
from sqlbench.backend import EMPTY_PREDICTION, Prediction
from sqlbench.cli import main
from sqlbench.dataset import ExampleRecord, load_benchmark
from sqlbench.evaluate import evaluate_benchmark
from sqlbench.execution import (Connections, ExecError, ExecResult, compare_results,
                                has_top_level_order_by)
from sqlbench.fuzz import TestSuite, build_test_suite
from sqlbench.store import GoldStore, StoredResult

from conftest import (FIXTURE_QUESTIONS, ONE_CPU, TIMEOUT_MS, evaluate_one, interrupt_when,
                      live_thread, make_geo_db, make_network1_db, needs_fork, run_python,
                      run_sql, running)


def example(gold, eid="e0000", db_id="network_1"):
    return ExampleRecord(example_id=eid, db_id=db_id, question="q", gold_sql=gold)


def prediction(sql, eid="e0000"):
    return Prediction(example_id=eid, raw_completion="", sql=sql)


@pytest.fixture(scope="module")
def suite(network1_db, tmp_path_factory):
    cache = tmp_path_factory.mktemp("suites")
    return build_test_suite(network1_db, 4, seed=11, cache_dir=cache)


class TestEvaluate:
    def test_prediction_equal_to_gold(self, suite):
        gold = "SELECT name FROM Highschooler WHERE grade = 9"
        out = evaluate_one(example(gold), prediction(gold), suite)
        assert out.valid and out.ex and out.ts
        assert out.invalid_reason is None
        assert out.timing_ms >= 0

    def test_invalid_prediction(self, suite):
        out = evaluate_one(example("SELECT name FROM Highschooler"),
                           prediction("SELECT nocol FROM Highschooler"), suite)
        assert not out.valid and not out.ex and not out.ts
        assert "no such column" in out.invalid_reason

    def test_valid_but_wrong(self, suite):
        out = evaluate_one(example("SELECT name FROM Highschooler WHERE grade = 9"),
                           prediction("SELECT name FROM Highschooler WHERE grade = 12"), suite)
        assert out.valid and not out.ex and not out.ts

    def test_empty_prediction_marker(self, suite):
        out = evaluate_one(example("SELECT name FROM Highschooler"), prediction(""), suite)
        assert not out.valid
        assert out.invalid_reason == "empty prediction"

    def test_implication_chain(self, suite):
        cases = [
            "SELECT name FROM Highschooler",
            "SELECT grade FROM Highschooler",
            "SELECT nocol FROM t",
            "",
            "SELECT count(*) FROM Highschooler",
        ]
        gold = "SELECT name FROM Highschooler"
        for sql in cases:
            out = evaluate_one(example(gold), prediction(sql), suite)
            assert (not out.ts or out.ex) and (not out.ex or out.valid)

    def test_gold_broken_is_none(self, suite):
        assert evaluate_one(example("SELECT broken FROM nowhere"),
                            prediction("SELECT name FROM Highschooler"), suite) is None

    def test_max_vs_order_by_limit_separated_by_empty_variant(self, suite):
        # MAX over an empty table yields one NULL row; ORDER BY ... LIMIT 1 yields none
        gold = "SELECT max(grade) FROM Highschooler"
        pred = "SELECT grade FROM Highschooler ORDER BY grade DESC LIMIT 1"
        out = evaluate_one(example(gold), prediction(pred), suite)
        assert out.ex
        assert not out.ts

    def test_semantically_equal_written_differently(self, suite):
        gold = "SELECT name FROM Highschooler WHERE grade = 9"
        pred = "SELECT name FROM Highschooler WHERE grade < 10 AND grade > 8"
        out = evaluate_one(example(gold), prediction(pred), suite)
        assert out.ts

    def test_deterministic(self, suite):
        gold = "SELECT name FROM Highschooler WHERE grade = 9"
        pred = "SELECT name FROM Highschooler WHERE grade = 12"
        a = evaluate_one(example(gold), prediction(pred), suite)
        b = evaluate_one(example(gold), prediction(pred), suite)
        assert (a.valid, a.ex, a.ts) == (b.valid, b.ex, b.ts)


@pytest.fixture(scope="module")
def cars_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("cars")
    db = root / "cars.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript("""
        CREATE TABLE cars_data(id int primary key, mpg real, cylinders int, year int);
        INSERT INTO cars_data VALUES
            (1, 18.0, 8, 1970), (2, 15.0, 8, 1972), (3, 24.0, 8, 1975),
            (4, 30.0, 8, 1978), (5, 26.0, 8, 1973);
    """)
    conn.close()
    return build_test_suite(db, 8, seed=2, cache_dir=root / "cache")


class TestPredicateSeparation:
    """AND written where gold says OR: equal on the original data, caught by a
    variant containing a row that satisfies exactly one predicate."""

    def test_and_or_flip_ts_below_ex(self, cars_suite):
        gold = "select max(mpg) from cars_data where cylinders = 8 or year < 1980"
        pred = "SELECT MAX(MPG) FROM cars_data WHERE Cylinders = 8 AND Year < 1980"
        ex_rec = ExampleRecord("e0000", "cars", "q", gold)
        out = evaluate_one(ex_rec, prediction(pred), cars_suite)
        assert out.ex, "predicates coincide on the original rows"
        assert not out.ts, "some fuzzed variant separates OR from AND"


@pytest.fixture
def opened(monkeypatch):
    """The database argument of every sqlite3.connect call from here on."""
    databases = []
    connect = sqlite3.connect

    def counting_connect(database, *args, **kwargs):
        databases.append(database)
        return connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    return databases


class TestEvaluateBenchmark:
    def test_oracle_run_and_gold_broken_exclusion(self, db_root, tmp_path):
        items = [
            {"db_id": "network_1", "question": "names", "query": "SELECT name FROM Highschooler"},
            {"db_id": "network_1", "question": "broken", "query": "SELECT x FROM missing_table"},
            {"db_id": "network_1", "question": "count", "query": "SELECT count(*) FROM Friend"},
        ]
        bench_file = tmp_path / "bench.json"
        bench_file.write_text(json.dumps(items))
        bench = load_benchmark(bench_file)
        predictions = {e.example_id: prediction(e.gold_sql, e.example_id)
                       for e in bench}
        suites = {"network_1": build_test_suite(db_root / "network_1" / "network_1.sqlite",
                                                2, seed=1, cache_dir=tmp_path / "cache")}
        result = evaluate_benchmark(bench, predictions, suites, print, TIMEOUT_MS)
        assert len(result.outcomes) == 2
        assert result.gold_broken == ["e0001"]
        assert all(o.ts for o in result.outcomes)

    def test_one_connection_per_variant_file(self, db_root, tmp_path, monkeypatch, opened):
        db_file = db_root / "network_1" / "network_1.sqlite"
        items = [{"db_id": "network_1", "question": q, "query": sql}
                 for q, sql in FIXTURE_QUESTIONS[:3]]
        bench_file = tmp_path / "bench.json"
        bench_file.write_text(json.dumps(items))
        bench = load_benchmark(bench_file)
        # the gold query to SQLite, but not its text: a prediction that is its
        # gold's text runs no query, and so would open no connection
        predictions = {e.example_id: prediction(e.gold_sql + " ", e.example_id)
                       for e in bench}
        suite = build_test_suite(db_file, 2, seed=1, cache_dir=tmp_path / "cache")
        store_files = []

        def counting_open(file, mode="r", *args, **kwargs):
            store_files.append((Path(file).name, mode))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(store, "open", counting_open, raising=False)
        for pass_store_files in (
                # read when made and again at close(), then written once
                [("gold.marshal", "rb"), ("gold.marshal", "rb"),
                 (f"gold.marshal.{os.getpid()}.new", "wb")],
                [("gold.marshal", "rb")]):  # all hits: read once, not written
            opened.clear()
            store_files.clear()
            result = evaluate_benchmark(bench, predictions, {"network_1": suite}, print,
                                        TIMEOUT_MS)
            assert [o.ts for o in result.outcomes] == [True, True, True]
            variants = [d for d in opened if any(str(v) in str(d) for v in suite.variants)]
            # one connection per query would be 3 examples x (1 + 2) files x 2 queries = 18
            assert len(variants) == len(set(variants)) == 3
            assert opened == variants  # the gold store opens no connection
            # and opens its file once per database group
            assert store_files == pass_store_files
        assert result.gold_store["misses"] == 0

    def test_gold_prediction_runs_only_the_gold(self, db_root, tmp_path, opened):
        bench = [example(sql, f"e{i:04d}") for i, (_, sql) in enumerate(FIXTURE_QUESTIONS[:3])]
        predictions = {e.example_id: prediction(e.gold_sql, e.example_id) for e in bench}
        suites = {"network_1": build_test_suite(db_root / "network_1" / "network_1.sqlite", 2,
                                                seed=1, cache_dir=tmp_path / "cache")}
        opened.clear()
        cold = evaluate_benchmark(bench, predictions, suites, print, TIMEOUT_MS)
        assert all(o.ts for o in cold.outcomes)
        assert cold.queries == cold.gold_store["misses"] == 3 * (1 + 2)  # each gold's k+1
        assert len(opened) == 3
        opened.clear()
        warm = evaluate_benchmark(bench, predictions, suites, print, TIMEOUT_MS)
        assert scores(warm) == scores(cold)
        assert warm.gold_store == {"hits": 9, "misses": 0}
        assert warm.queries == 0 and not opened

    def test_volatile_gold_prediction_still_runs(self, db_root, tmp_path):
        for _ in range(2):  # never stored, so the second eval runs it again
            result, _ = network1_eval(db_root, tmp_path, ["SELECT random()"],
                                      ["SELECT random()"])
            assert scores(result) == [("e0000", True, None, False, False)]
            assert result.queries == 2  # the gold and the prediction, on the original

    def test_interleaved_databases_keep_benchmark_order(self, tmp_path):
        root = tmp_path / "dbroot"
        (root / "network_1").mkdir(parents=True)
        (root / "geography").mkdir()
        make_network1_db(root / "network_1" / "network_1.sqlite")
        geo_file = make_geo_db(root / "geography" / "geography.sqlite")
        no_lake = make_geo_db(tmp_path / "no_lake.sqlite")
        conn = sqlite3.connect(no_lake)
        conn.execute("DROP TABLE lake")
        conn.commit()
        conn.close()
        items = [
            ("geography", "SELECT population FROM city WHERE city_name = 'austin'"),
            ("network_1", "SELECT name FROM Highschooler WHERE grade = 9"),
            ("geography", "SELECT state_name FROM state ORDER BY population DESC"),
            ("network_1", "SELECT x FROM missing_table"),
            ("geography", "SELECT lake_name FROM lake WHERE area > 1000"),
            ("network_1", "SELECT count(*) FROM Friend"),
            ("geography", "SELECT count(*) FROM river"),
        ]
        bench_file = tmp_path / "bench.json"
        bench_file.write_text(json.dumps(
            [{"db_id": db, "question": "q", "query": sql} for db, sql in items]))
        bench = load_benchmark(bench_file)
        predictions = {e.example_id: prediction(e.gold_sql, e.example_id)
                       for e in bench if e.example_id != "e0005"}
        geo_suite = build_test_suite(geo_file, 2, seed=3, cache_dir=tmp_path / "cache")
        mixed = tmp_path / "mixed-suite"
        mixed.mkdir()
        suites = {
            "network_1": build_test_suite(root / "network_1" / "network_1.sqlite", 2,
                                          seed=3, cache_dir=tmp_path / "cache"),
            # the gold query on lake fails on the middle variant only
            "geography": TestSuite("geography", 3, 2,
                                   [geo_file, no_lake, geo_suite.variants[1]],
                                   geo_suite.source_sha256, "mixed", mixed),
        }
        warnings = []
        result = evaluate_benchmark(bench, predictions, suites, warnings.append, TIMEOUT_MS)
        assert [o.example_id for o in result.outcomes] == [
            "e0000", "e0001", "e0002", "e0004", "e0006"]
        assert all(o.ts for o in result.outcomes)
        assert result.gold_broken == ["e0003"]
        assert warnings == [
            "e0003: gold query failed on network_1: no such table: missing_table",
            f"e0004: gold failed on variant {no_lake}; skipped",
            "e0005: no prediction; skipped",
        ]

    def test_prediction_past_row_cap_is_invalid(self, suite, monkeypatch):
        monkeypatch.setattr(execution, "MAX_ROWS", 5)
        out = evaluate_one(example("SELECT count(*) FROM Highschooler"),
                           prediction("SELECT name FROM Highschooler"), suite)
        assert not out.valid and not out.ex and not out.ts
        assert "more than 5 rows" in out.invalid_reason


# golds for the reference check: the fixture's (three of them read Likes, which
# the mixed suite's second variant lacks), one more ordered gold, one broken
# on the original, and two that call a volatile function
REFERENCE_GOLDS = [sql for _, sql in FIXTURE_QUESTIONS] + [
    "SELECT name, grade FROM Highschooler ORDER BY grade DESC, name",
    "SELECT x FROM missing_table",
    "SELECT random()",
    "SELECT count(*) FROM Highschooler WHERE random() IS NOT NULL",
]
# predictions that no gold above is: a wrong, an invalid, a volatile and an
# empty text
OTHER_PREDICTIONS = [
    "SELECT name FROM Highschooler WHERE grade = 10",
    "SELECT nocol FROM Likes",
    "SELECT random() IS NOT NULL",
    EMPTY_PREDICTION,
]


def reference_outcome(example, prediction, suite):
    """The (valid, invalid_reason, ex, ts) of one prediction, or None when its
    gold fails on the original, and the notes evaluate sends, worked out by
    brute force: both queries run on one-shot connections on every suite
    file, and the files the gold fails on are skipped. An empty prediction
    is invalid without a run."""
    runs = [(run_sql(f, example.gold_sql), run_sql(f, prediction.sql)) for f in suite.variants]
    (gold, pred), *variants = runs
    if isinstance(gold, ExecError):
        return None, [f"{example.example_id}: gold query failed on {suite.db_id}: "
                      f"{gold.message}"]
    if prediction.sql == EMPTY_PREDICTION:
        return (False, "empty prediction", False, False), []
    if isinstance(pred, ExecError):
        return (False, pred.message, False, False), []
    ordered = has_top_level_order_by(example.gold_sql)
    if not compare_results(gold, pred, ordered):
        return (True, None, False, False), []
    notes = []
    for variant, (gold, pred) in zip(suite.variants[1:], variants):
        if isinstance(gold, ExecError):
            notes.append(f"{example.example_id}: gold failed on variant {variant}; skipped")
        elif isinstance(pred, ExecError) or not compare_results(gold, pred, ordered):
            return (True, None, True, False), notes
    return (True, None, True, True), notes


@pytest.fixture(scope="module")
def mixed_suite(network1_db, tmp_path_factory):
    """A k=3 suite of network_1 whose second variant has no Likes table."""
    root = tmp_path_factory.mktemp("mixed")
    built = build_test_suite(network1_db, 2, seed=5, cache_dir=root / "cache")
    no_likes = root / "no_likes.sqlite"
    shutil.copy(built.variants[1], no_likes)
    with closing(sqlite3.connect(no_likes)) as conn:
        conn.execute("DROP TABLE Likes")
    variants = [built.variants[0], built.variants[1], no_likes, built.variants[2]]
    (root / "store").mkdir()
    return TestSuite("network_1", 5, 3, variants, built.source_sha256, "mixed", root / "store")


class TestGoldPredictionAgainstReference:
    @settings(max_examples=30, deadline=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from(REFERENCE_GOLDS),
                                    st.one_of(st.integers(0, 7), st.sampled_from(REFERENCE_GOLDS),
                                              *map(st.just, OTHER_PREDICTIONS))),
                          min_size=1, max_size=6))
    # every reference gold once: the first four also predicted by
    # OTHER_PREDICTIONS, each later one by an earlier gold
    @case(pairs=list(zip(REFERENCE_GOLDS, [*OTHER_PREDICTIONS, *range(len(REFERENCE_GOLDS))])))
    def test_scores_and_notes(self, mixed_suite, pairs):
        """Each drawn (gold, prediction) pair is two examples of that gold: one
        predicted by the gold itself, one by the prediction, an int i standing
        for the gold of pair i modulo their number."""
        golds = [gold for gold, _ in pairs]
        texts = []  # (gold, prediction) of each example
        for gold, pred in pairs:
            texts += [(gold, gold),
                      (gold, golds[pred % len(golds)] if isinstance(pred, int) else pred)]
        bench = [example(gold, f"e{i:04d}") for i, (gold, _) in enumerate(texts)]
        predictions = {e.example_id: prediction(sql, e.example_id)
                       for e, (_, sql) in zip(bench, texts)}
        expected, expected_broken, expected_notes = [], [], []
        for e in bench:
            scored, notes = reference_outcome(e, predictions[e.example_id], mixed_suite)
            if scored is None:
                expected_broken.append(e.example_id)
            else:
                expected.append((e.example_id, *scored))
            expected_notes += notes
        (mixed_suite.directory / "gold.marshal").unlink(missing_ok=True)
        for store_state in ("cold", "warm"):
            notes = []
            result = evaluate_benchmark(bench, predictions, {"network_1": mixed_suite},
                                        notes.append, TIMEOUT_MS)
            assert scores(result) == expected, store_state
            assert result.gold_broken == expected_broken, store_state
            assert notes == expected_notes, store_state

    def test_reference_golds_cover_each_case(self, mixed_suite):
        outcomes = [reference_outcome(example(gold), prediction(gold), mixed_suite)
                    for gold in REFERENCE_GOLDS]
        assert (None, ["e0000: gold query failed on network_1: no such table: missing_table"]
                ) in outcomes
        assert sum(bool(notes) for _, notes in outcomes) == 4  # three Likes golds + broken
        assert ((True, None, False, False), []) in outcomes  # SELECT random()
        assert ((True, None, True, True), []) in outcomes


SLOW = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
        "SELECT count(*) FROM (SELECT x FROM c LIMIT 1000000000)")


def score_group(bench, predictions, suite, monkeypatch):
    """_score_group on every example of bench, timeout 100 ms, and its table
    after each example: each text's file indices."""
    real, tables, after = evaluate.evaluate, [], []

    def recording(*args):
        tables.append(sys._getframe(1).f_locals["table"])  # _score_group's
        after.append({sql: sorted(results) for sql, results in tables[-1].items()})
        return real(*args)

    monkeypatch.setattr(evaluate, "evaluate", recording)
    group = evaluate._score_group(bench, range(len(bench)), predictions, suite, 100)
    monkeypatch.setattr(evaluate, "evaluate", real)
    after.append({sql: sorted(results) for sql, results in tables[-1].items()})
    return group, after[1:]


def untimed(outcome):
    return {k: v for k, v in outcome.to_dict().items() if k != "timing_ms"}


def scored_alone(bench, predictions, suite):
    return [(untimed(o), notes) for o, notes in (
        evaluate._score_group(bench, [i], predictions, suite, 100)[0][0]
        for i in range(len(bench)))]


class TestRecurringPrediction:
    def test_reused_within_group(self, mixed_suite, monkeypatch):
        original = mixed_suite.variants[0]
        likes = "SELECT max(student_id) FROM Likes"
        n = run_sql(original, likes).rows[0][0]
        assert run_sql(mixed_suite.variants[1], likes).rows[0][0] != n
        volatile, slow, nocol = "SELECT random() IS NOT NULL", SLOW, "SELECT nocol FROM Likes"
        pairs = [  # (gold, prediction), in benchmark order
            (f"SELECT {n}", likes),  # equal on the original only: TS breaks at file 1
            ("SELECT 1", volatile), ("SELECT 2", slow), ("SELECT 3", nocol),
            # runs further: skips file 2, which has no Likes, and runs on file 3
            ("SELECT max(l.student_id) FROM Likes AS l", likes),
            ("SELECT 1", volatile), ("SELECT 2", slow), ("SELECT 3", nocol),
            (f"SELECT {n}", likes)]
        bench = [example(gold, f"e{i:04d}") for i, (gold, _) in enumerate(pairs)]
        predictions = {e.example_id: prediction(sql, e.example_id)
                       for e, (_, sql) in zip(bench, pairs)}
        (mixed_suite.directory / "gold.marshal").unlink(missing_ok=True)
        (scored, counts, warning), table_after = score_group(
            bench, predictions, mixed_suite, monkeypatch)

        assert [(untimed(o), notes) for o, notes in scored] == scored_alone(
            bench, predictions, mixed_suite)
        recurring = [(True, None, True, True), (False, "query exceeded 100 ms", False, False),
                     (False, "no such column: nocol", False, False)]
        assert [(o.valid, o.invalid_reason, o.ex, o.ts) for o, _ in scored] == [
            (True, None, True, False), *recurring, (True, None, True, True), *recurring,
            (True, None, True, False)]
        assert scored[4][1] == [f"e0004: gold failed on variant {mixed_suite.variants[2]}; "
                                "skipped"]
        # golds: 2 + 4 + 1 + 1 + 4 files; predictions: likes on files 0 and 1,
        # then 3; volatile on all 4 files twice; slow twice; nocol once
        assert counts == {"hits": 8, "misses": 12, "queries": 12 + 3 + 8 + 2 + 1}
        assert warning is None
        # a text held until its last prediction is scored; never a volatile
        # or timed-out result, nor a gold's that no prediction will look up
        early = {likes: [0, 1], volatile: [], slow: [], nocol: []}
        late = {**early, likes: [0, 1, 3], nocol: [0]}
        assert table_after == [
            early, early, early, {**early, nocol: [0]}, late,
            {likes: [0, 1, 3], slow: [], nocol: [0]}, {likes: [0, 1, 3], nocol: [0]},
            {likes: [0, 1, 3]}, {}]

    def test_gold_texts_within_group(self, mixed_suite, monkeypatch):
        count, later = "SELECT count(*) FROM Highschooler", "SELECT name FROM Highschooler"
        volatile = "SELECT abs(random()) >= 0"
        pairs = [  # (gold, prediction), in benchmark order
            (count, "SELECT count(1) FROM Highschooler"),
            (count + " AS h", count),  # an earlier gold's text: served that result
            (later + " ", later),  # a later gold's text: runs
            (later, later),  # the gold still runs, is stored, and serves its prediction
            (volatile, "SELECT 1"),
            ("SELECT 1", volatile)]  # an earlier volatile gold's text: runs
        bench = [example(gold, f"e{i:04d}") for i, (gold, _) in enumerate(pairs)]
        predictions = {e.example_id: prediction(sql, e.example_id)
                       for e, (_, sql) in zip(bench, pairs)}
        (mixed_suite.directory / "gold.marshal").unlink(missing_ok=True)
        (scored, counts, warning), table_after = score_group(
            bench, predictions, mixed_suite, monkeypatch)

        assert [(untimed(o), notes) for o, notes in scored] == scored_alone(
            bench, predictions, mixed_suite)
        assert all(o.ts for o, _ in scored)
        # every gold on all 4 files; predictions: e0, e2, e4 and e5 on all 4
        assert counts == {"hits": 0, "misses": 24, "queries": 24 + 4 * 4}
        assert warning is None
        still = {"SELECT 1": [], volatile: []}
        assert table_after == [{count: [0, 1, 2, 3], later: [], **still}, {later: [], **still},
                               {later: [0, 1, 2, 3], **still}, still, {volatile: []}, {}]
        for i, variant in enumerate(mixed_suite.variants):
            assert stored(mixed_suite, later, i) == run_sql(variant, later)
            assert stored(mixed_suite, volatile, i) is None


# Cells of each SQLite storage class, with the values on which == and
# cells_equal could part: ±inf, -0.0, ints about 2**53 and their floats, '1'
# and b'1', and NaN, which SQLite stores as NULL.
SQLITE_CELLS = st.one_of(
    st.sampled_from([0, 1, 1.0, -0.0, 0.0, math.inf, -math.inf, math.nan, "1", b"1", None,
                     2**53, 2**53 + 1, float(2**53), -(2**53) - 1, -float(2**53), 2**63 - 1]),
    st.integers(-2**63, 2**63 - 1), st.floats(), st.text(max_size=3), st.binary(max_size=3))
AFFINITIES = st.sampled_from(["", "INTEGER", "REAL", "TEXT", "BLOB"])
# every kind of error; the store keeps whatever it is handed
STORED_ERRORS = st.builds(ExecError,
                          st.sampled_from(["engine", "forbidden", "too_many_rows", "timeout"]),
                          st.text(max_size=12))


def sqlite_results(data) -> list[tuple[ExecResult, str]]:
    """What SQLite returns for queries on two tables of drawn cells and
    affinities, each with its query: in stored order, in other orders, with
    no rows, one row, and no rows at an arity neither table has."""
    pool = data.draw(st.lists(SQLITE_CELLS, min_size=1, max_size=6))
    cells = st.sampled_from(pool)  # from one pool, so equal rows are common
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "t.sqlite"
        with closing(sqlite3.connect(db)) as conn:
            for table in ("g", "p"):
                affinities = data.draw(st.lists(AFFINITIES, min_size=1, max_size=3))
                width = len(affinities)
                rows = data.draw(st.lists(st.tuples(*[cells] * width), max_size=5))
                conn.execute(f"CREATE TABLE {table} (" + ", ".join(
                    f"c{j} {a}" for j, a in enumerate(affinities)) + ")")
                conn.executemany(f"INSERT INTO {table} VALUES ({','.join('?' * width)})",
                                 rows)
            conn.commit()
        queries = [sql for table in ("g", "p")
                   for sql in (f"SELECT * FROM {table}",
                               f"SELECT * FROM {table} ORDER BY rowid DESC",
                               f"SELECT * FROM {table} ORDER BY 1",
                               f"SELECT * FROM {table} WHERE 0",
                               f"SELECT * FROM {table} LIMIT 1")]
        queries.append("SELECT 1, 2, 3, 4 WHERE 0")
        with closing(Connections()) as connections:
            results = [(connections.execute(db, sql, TIMEOUT_MS), sql) for sql in queries]
    for result, _ in results:
        assert not any(isinstance(v, bool) or v != v for row in result.rows for v in row)
    return results


class TestSameResults:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_compare_results(self, data):
        results = sqlite_results(data)
        for gold, gold_sql in results:
            ordered = has_top_level_order_by(gold_sql)
            for pred, _ in results:
                assert (evaluate._same_results(gold, pred, gold_sql)
                        == compare_results(gold, pred, ordered))

    def test_reads_the_gold_query_only_for_a_full_comparison(self, monkeypatch):
        read = []
        monkeypatch.setattr(evaluate, "has_top_level_order_by",
                            lambda sql: read.append(sql) or has_top_level_order_by(sql))
        gold, ordered_sql = ExecResult(1, [(1,), (2,)]), "SELECT a FROM t ORDER BY a"
        for pred in (gold, ExecResult(2, [(1, 1), (2, 2)]), ExecResult(1, [(1,)]),
                     ExecResult(1, [(1,), (2,)])):  # itself, shapes apart, equal in order
            assert evaluate._same_results(gold, pred, ordered_sql) == (pred.shape == gold.shape)
        assert read == []
        swapped = ExecResult(1, [(2,), (1,)])
        assert not evaluate._same_results(gold, swapped, ordered_sql)
        assert evaluate._same_results(gold, swapped, "SELECT a FROM t")
        assert read == [ordered_sql, "SELECT a FROM t"]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), error=STORED_ERRORS)
    def test_stored_gold_agrees_with_compare_results(self, data, error):
        """A gold result read back from the store, its rows not yet decoded,
        against a query's result, another stored result and itself; rows are
        decoded only for a pair of one arity and row count."""
        results = sqlite_results(data)
        with tempfile.TemporaryDirectory() as tmp:
            suite = TestSuite("t", 0, 1, [], "s" * 64, "c" * 64, Path(tmp))
            with closing(GoldStore(suite)) as gold:
                for i, (result, _) in enumerate(results):
                    gold.put(f"q{i}", 0, result)
                gold.put("error", 0, error)
            with closing(GoldStore(suite)) as gold:
                assert gold.get("error", 0) == error

                def fresh(i):
                    return gold.get(f"q{i}", 0)

                for i, (result, gold_sql) in enumerate(results):
                    full = decoded(fresh(i))
                    assert repr(full) == repr(result)
                    same = fresh(i)
                    pairs = [(same, same, full)]
                    pairs += [(fresh(i), pred, pred) for pred, _ in results]
                    pairs += [(fresh(i), fresh(j), decoded(fresh(j))) for j in range(len(results))]
                    ordered = has_top_level_order_by(gold_sql)
                    for stored, pred, reference in pairs:
                        assert (evaluate._same_results(stored, pred, gold_sql)
                                == compare_results(full, reference, ordered))
                        must_decode = stored is not pred and full.shape == reference.shape
                        assert ("rows" in vars(stored)) == must_decode


SPECIAL_CELLS = [1, 1.0, "1", b"1", None, -0.0, math.inf, -math.inf, math.nan,
                 2**63 - 1, -(2**63 - 1), "naïve ☃ 日本"]
CELLS = st.one_of(st.sampled_from(SPECIAL_CELLS), st.integers(-2**63, 2**63 - 1),
                  st.floats(), st.text(max_size=6), st.binary(max_size=6))


def decoded(result):
    """result, a StoredResult read out as the ExecResult it holds."""
    if isinstance(result, StoredResult):
        return ExecResult(result.width, result.rows)
    return result


def round_trip(suite, sql, result):
    """result put into the store of suite, then read back, decoded, by a store
    opened anew."""
    with closing(GoldStore(suite)) as gold:
        gold.put(sql, 0, result)
    with closing(GoldStore(suite)) as gold:
        got = gold.get(sql, 0)
        assert gold.warning is None
    if isinstance(result, ExecResult):
        assert got.shape == (result.width, len(result.rows))
    return decoded(got)


def stored(suite, sql, variant=0):
    """The result of sql on variant in the gold store of suite, opened anew,
    decoded."""
    with closing(GoldStore(suite)) as gold:
        return decoded(gold.get(sql, variant))


def network1_eval(db_root, tmp_path, golds, preds, warn=print, timeout_ms=TIMEOUT_MS):
    """evaluate_benchmark on network_1 examples with these golds and
    predictions, against the k=2 suite cached under tmp_path."""
    bench_file = tmp_path / "bench.json"
    bench_file.write_text(json.dumps(
        [{"db_id": "network_1", "question": "q", "query": gold} for gold in golds]))
    bench = load_benchmark(bench_file)
    predictions = {e.example_id: prediction(sql, e.example_id)
                   for e, sql in zip(bench, preds)}
    suite = build_test_suite(db_root / "network_1" / "network_1.sqlite", 2, seed=1,
                             cache_dir=tmp_path / "cache", db_id="network_1")
    return evaluate_benchmark(bench, predictions, {"network_1": suite}, warn, timeout_ms), suite


def scores(result):
    return [(o.example_id, o.valid, o.invalid_reason, o.ex, o.ts) for o in result.outcomes]


def without_timing(path) -> list[str]:
    return [re.sub(r', "timing_ms": [-+.eE0-9]+', "", line)
            for line in path.read_text().splitlines()]


class TestGoldStore:
    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 4), data=st.data())
    def test_round_trip(self, width, data):
        rows = data.draw(st.lists(st.tuples(*[CELLS] * width), max_size=6))
        columns = [f"c{j}" for j in range(width)]
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "t.sqlite"
            with closing(sqlite3.connect(db)) as conn:
                conn.execute(f"CREATE TABLE t ({', '.join(columns)})")
                conn.executemany(f"INSERT INTO t VALUES ({','.join('?' * width)})", rows)
                conn.commit()
            suite = TestSuite("t", 0, 1, [db], "s" * 64, "c" * 64, Path(tmp))
            raw = ExecResult(width, rows)
            assert repr(round_trip(suite, "raw", raw)) == repr(raw)
            error = data.draw(STORED_ERRORS)
            assert repr(round_trip(suite, "error", error)) == repr(error)
            for sql in ("SELECT * FROM t", "SELECT * FROM t ORDER BY 1",
                        "SELECT * FROM t WHERE 0", "-- no statement", "SELECT nocol FROM t"):
                executed = run_sql(db, sql)
                assert repr(round_trip(suite, sql, executed)) == repr(executed)

    def test_volatile_golds_never_stored(self, db_root, tmp_path):
        with closing(Connections()) as connections:
            connections.execute(db_root / "network_1" / "network_1.sqlite",
                                "SELECT random()", 1000)
            assert connections.volatile
            connections.execute(db_root / "network_1" / "network_1.sqlite", "SELECT 1", 1000)
            assert not connections.volatile
        golds = ["SELECT random()", "SELECT CURRENT_TIMESTAMP", "SELECT count(*) FROM Friend"]
        invalid = ["SELECT nocol FROM Friend"] * 3  # only the gold on the original runs
        first, suite = network1_eval(db_root, tmp_path, golds, invalid)
        assert first.gold_store == {"hits": 0, "misses": 3}
        again, _ = network1_eval(db_root, tmp_path, golds, invalid)
        assert again.gold_store == {"hits": 1, "misses": 2}
        assert [stored(suite, gold) for gold in golds] == [
            None, None, run_sql(suite.variants[0], golds[2])]

    def test_warm_store_decodes_only_what_a_comparison_reads(self, db_root, tmp_path,
                                                            monkeypatch):
        names = "SELECT name FROM Highschooler"
        no_decode = [  # (gold, prediction)
            *[(gold, gold) for _, gold in FIXTURE_QUESTIONS[:6]],
            (names, "SELECT name, grade FROM Highschooler"),  # another arity
            (names, names + " LIMIT 1"),  # another row count
            ("SELECT nocol FROM Friend", names),  # a stored error
            ("SELECT grade FROM Highschooler WHERE grade > 99", "SELECT 1")]
        decoding = [(names, "SELECT  name FROM Highschooler")]  # the gold, respaced
        decodes = []
        real_decode, real_get = StoredResult.rows.func, GoldStore.get

        def counted(result):
            decodes.append(result)
            return real_decode(result)

        def eager(self, sql, variant):  # every stored result decoded when read
            return decoded(real_get(self, sql, variant))

        for pairs in (no_decode, decoding):
            shutil.rmtree(tmp_path / "cache", ignore_errors=True)
            golds, preds = zip(*pairs)
            runs = {}
            for run in ("cold", "eager", "lazy"):
                notes = []
                with monkeypatch.context() as patch:
                    if run == "eager":
                        patch.setattr(GoldStore, "get", eager)
                    elif run == "lazy":
                        patch.setattr(StoredResult.rows, "func", counted)
                    result, _ = network1_eval(db_root, tmp_path, golds, preds, notes.append)
                runs[run] = (scores(result), notes, result.gold_broken, result.queries,
                             result.gold_store)
            assert runs["lazy"] == runs["eager"]
            assert runs["lazy"][:3] == runs["cold"][:3]
            assert runs["lazy"][4] == {"hits": sum(runs["cold"][4].values()), "misses": 0}
            if pairs is no_decode:
                assert runs["lazy"][2] == ["e0008"] and not decodes
        assert len(decodes) == 3  # the original database and both variants

    def test_bytes_depend_on_content_alone(self, tmp_path):
        """The same results, put in other orders, by two stores rather than
        one, and held in equal objects that are not the same ones, give the
        same gold.marshal bytes."""
        text = "naïve ☃ 日本"
        row = (text, 1, -0.0, math.inf, None, b"\x00", 2**63 - 1)
        entries = [(f"SELECT {i}", variant, ExecResult(3, [row] * i))
                   for i in range(5) for variant in (2, 0, 1)]
        entries.append(("SELECT 9", 0, ExecError("engine", text)))

        def anew(value):  # an equal value, every str, float and tuple in it a new object
            return marshal.loads(marshal.dumps(value, 2))

        def store_file(name, *batches):
            suite = TestSuite("t", 0, 1, [], "s" * 64, "c" * 64, tmp_path / name)
            suite.directory.mkdir()
            for batch in batches:
                with closing(GoldStore(suite)) as gold:
                    for sql, variant, result in batch:
                        gold.put(sql, variant, result)
            return (suite.directory / "gold.marshal").read_bytes()

        copies = [(anew(sql), variant, ExecResult(r.width, anew(r.rows))
                   if isinstance(r, ExecResult) else ExecError(anew(r.kind), anew(r.message)))
                  for sql, variant, r in entries]
        one = store_file("one", entries)
        assert store_file("reversed", entries[::-1]) == one
        assert store_file("two", copies[7:][::-1], copies[:7]) == one
        assert store_file("shuffled", copies[1::2], entries[::2][::-1]) == one

    def test_timeout_never_stored(self, db_root, tmp_path):
        for _ in range(2):
            result, suite = network1_eval(db_root, tmp_path, [SLOW], [SLOW], timeout_ms=50)
            assert result.gold_broken == ["e0000"]
            assert result.gold_store == {"hits": 0, "misses": 1}
        assert stored(suite, SLOW) is None
        assert not list(suite.directory.glob("gold.*"))  # nothing stored, nothing written

    @pytest.mark.parametrize("damage", ["tampered", "truncated", "garbage", "unopenable"])
    def test_damaged_store_falls_back(self, db_root, tmp_path, damage):
        golds = [sql for _, sql in FIXTURE_QUESTIONS[:4]]
        preds = [golds[0], golds[1], "SELECT name FROM Highschooler", "SELECT nocol FROM t"]
        warned = {"first": [], "damaged": [], "next": []}
        first, suite = network1_eval(db_root, tmp_path, golds, preds, warned["first"].append)
        lookups = sum(first.gold_store.values())
        assert first.gold_store["misses"] == lookups and not warned["first"]
        path = suite.directory / "gold.marshal"
        data = path.read_bytes()
        if damage == "tampered":  # one bit
            path.write_bytes(data[:-9] + bytes([data[-9] ^ 1]) + data[-8:])
        elif damage == "truncated":
            path.write_bytes(data[:len(data) // 2])
        elif damage == "garbage":
            path.write_bytes(b"not a store " * 300)
        else:
            path.unlink()
            path.mkdir()
        for run in ("damaged", "next"):
            result, _ = network1_eval(db_root, tmp_path, golds, preds, warned[run].append)
            assert scores(result) == scores(first)
            if run == "damaged" or damage == "unopenable":  # a directory is never replaced
                assert result.gold_store == {"hits": 0, "misses": lookups}
                assert len(warned[run]) == 1
                assert warned[run][0].startswith(f"gold store {path}: ")
            else:  # replaced by the damaged run's results
                assert result.gold_store == {"hits": lookups, "misses": 0}
                assert not warned[run]
            assert [p.name for p in suite.directory.glob("gold.*")] == ["gold.marshal"]

    def test_foreign_header_is_silently_empty(self, db_root, tmp_path, monkeypatch):
        golds = [sql for _, sql in FIXTURE_QUESTIONS[:3]]
        warned = []
        first, suite = network1_eval(db_root, tmp_path, golds, golds, warned.append)
        lookups = first.gold_store["misses"]
        monkeypatch.setattr(store, "FORMAT", "other")
        for expected in ({"hits": 0, "misses": lookups}, {"hits": lookups, "misses": 0}):
            result, _ = network1_eval(db_root, tmp_path, golds, golds, warned.append)
            assert result.gold_store == expected
            assert scores(result) == scores(first)
        assert not warned

    @pytest.mark.parametrize("old_format", ["2", "3"])
    def test_format_2_store_is_silently_empty(self, db_root, tmp_path, old_format):
        golds = [sql for _, sql in FIXTURE_QUESTIONS[:3]]
        first, suite = network1_eval(db_root, tmp_path, golds, golds)
        lookups = sum(first.gold_store.values())
        # a store as an older format wrote it, each result a wrong one
        header = (suite.content_hash, old_format, sqlite3.sqlite_version,
                  "%d.%d" % sys.version_info[:2], marshal.version)
        if old_format == "2":  # flat keys, each result marshalled on its own
            data = marshal.dumps((header, {
                (gold, i): marshal.dumps(("rows", ["x"], [(7,)], False))
                for gold in golds for i in range(3)}))
        else:  # grouped and sorted, as format 4; rows kept with names and an order flag
            data = marshal.dumps((header, {
                gold: {i: (1, 1, False, marshal.dumps((["x"], [(7,)]), 2)) for i in range(3)}
                for gold in sorted(golds)}), 2)
        (suite.directory / "gold.marshal").write_bytes(hashlib.sha256(data).digest() + data)
        warned = []
        for expected in ({"hits": 0, "misses": lookups}, {"hits": lookups, "misses": 0}):
            result, _ = network1_eval(db_root, tmp_path, golds, golds, warned.append)
            assert result.gold_store == expected
            assert scores(result) == scores(first)
        assert not warned

    def test_concurrent_evals_share_one_store(self, fixture_benchmark_path, db_root, tmp_path):
        bench = load_benchmark(fixture_benchmark_path)
        preds = tmp_path / "predictions.jsonl"
        preds.write_text("".join(
            json.dumps({"example_id": e.example_id, "raw_completion": "",
                        "sql": e.gold_sql if i % 3 else "SELECT name FROM Highschooler"}) + "\n"
            for i, e in enumerate(bench)))
        cache = tmp_path / "cache"
        build_test_suite(db_root / "network_1" / "network_1.sqlite", 4, seed=7,
                         cache_dir=cache, db_id="network_1")

        def argv(out):
            return [str(a) for a in ("eval", "--benchmark", fixture_benchmark_path,
                                     "--db-root", db_root, "--predictions", preds,
                                     "--suite-k", 4, "--suite-seed", 7, "--cache", cache,
                                     "--out", tmp_path / out)]

        env = {**os.environ, "PYTHONPATH": str(Path(sqlbench.__file__).parents[1])}
        procs = [subprocess.Popen([sys.executable, "-m", "sqlbench.cli", *argv(f"{name}.jsonl")],
                                  env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
                 for name in ("a", "b")]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "gold store" not in err
        assert main(argv("warm.jsonl")) == 0
        a, b, warm = (without_timing(tmp_path / f"{n}.jsonl") for n in ("a", "b", "warm"))
        assert a == b == warm and len(a) == len(bench)
        manifest = json.loads((tmp_path / "warm.jsonl.manifest.json").read_text())
        assert manifest["gold_store"]["misses"] == 0
        assert manifest["gold_store"]["hits"] > len(bench)


GEO_GOLDS = ["SELECT population FROM city WHERE city_name = 'austin'",
             "SELECT state_name FROM state ORDER BY population DESC",
             "SELECT lake_name FROM lake WHERE area > 1000",
             "SELECT count(*) FROM river",
             "SELECT state_name, count(*) FROM border_info GROUP BY state_name"]
FORKED_DBS = ("network_1", "geography", "network_2")  # network_2: network_1's data


@pytest.fixture(scope="module")
def three_dbs(tmp_path_factory):
    """A database root holding FORKED_DBS; a benchmark that interleaves
    examples on them and on `gone`, which has no file, one of them
    gold-broken; and predictions that are the gold, the gold respaced, wrong
    or invalid in turn, one example left without. Returns the root, the
    benchmark and predictions files, and both as eval takes them."""
    tmp = tmp_path_factory.mktemp("three")
    root = tmp / "dbroot"
    for db_id, make in zip(FORKED_DBS, (make_network1_db, make_geo_db, make_network1_db)):
        (root / db_id).mkdir(parents=True)
        make(root / db_id / f"{db_id}.sqlite")
    golds = {"network_1": [sql for _, sql in FIXTURE_QUESTIONS[:6]],
             "geography": GEO_GOLDS,
             "network_2": [sql for _, sql in FIXTURE_QUESTIONS[6:11]]
             + ["SELECT x FROM missing_table"],
             "gone": ["SELECT 1"]}
    items = [{"db_id": db_id, "question": "q", "query": sqls[i]}
             for i in range(6) for db_id, sqls in golds.items() if i < len(sqls)]
    bench_file = tmp / "bench.json"
    bench_file.write_text(json.dumps(items))
    bench = load_benchmark(bench_file)
    predictions = {e.example_id: prediction(
        (e.gold_sql, e.gold_sql + " ", "SELECT name FROM Highschooler",
         "SELECT nocol FROM t")[i % 4], e.example_id)
        for i, e in enumerate(bench) if i != 5}
    preds_file = tmp / "predictions.jsonl"
    preds_file.write_text("".join(json.dumps({"example_id": p.example_id, "sql": p.sql}) + "\n"
                                  for p in predictions.values()))
    return root, bench_file, preds_file, bench, predictions


def three_suites(root, cache, k=3):
    return {db_id: build_test_suite(root / db_id / f"{db_id}.sqlite", k, 0, cache, db_id=db_id)
            for db_id in FORKED_DBS}


# Two evals through the CLI in a child interpreter, on a cold and then a warm
# gold store, with network_2's store damaged between them. Prints, per eval,
# its exit code, stderr lines, outcomes without timing_ms, the manifest's
# gold_store and queries, each gold.marshal's sha256, how many processes ran
# evaluate and whether the calling process was one of them. A forked child
# works only once every child has claimed a database, or after 10 s, so each
# child claims one. pin "one" pins the interpreter to one CPU; thread "1"
# keeps a thread alive through both evals.
FORKED_EVAL = (
    "import contextlib, hashlib, io, json, os, shutil, sys, threading, time\n"
    "from pathlib import Path\n"
    "from sqlbench import evaluate, parallel\n"
    "from sqlbench.cli import main\n"
    "root, bench, preds, work, pin, k, thread, n_dbs = sys.argv[1:]\n"
    "os.chdir(work)\n"
    "if pin == 'one':\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "stop = threading.Event()\n"
    "if thread == '1':\n"
    "    threading.Thread(target=stop.wait, daemon=True).start()\n"
    "caller, n_children = os.getpid(), parallel._processes(int(n_dbs))\n"
    "real = evaluate.evaluate\n"
    "def marked(*args):\n"
    "    mark = Path('pids', str(os.getpid()))\n"
    "    if not mark.exists():\n"
    "        mark.touch()\n"
    "        deadline = time.monotonic() + 10\n"
    "        while (os.getpid() != caller and len(list(Path('pids').iterdir())) < n_children\n"
    "               and time.monotonic() < deadline):\n"
    "            time.sleep(0.01)\n"
    "    return real(*args)\n"
    "evaluate.evaluate = marked\n"
    "runs = []\n"
    "for name in ('cold', 'warm'):\n"
    "    if name == 'warm':\n"
    "        next(Path('cache', 'network_2').rglob('gold.marshal')).write_bytes(b'damaged')\n"
    "    Path('pids').mkdir()\n"
    "    err = io.StringIO()\n"
    "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = main(['eval', '--benchmark', bench, '--db-root', root,\n"
    "                     '--predictions', preds, '--suite-k', k, '--cache', 'cache',\n"
    "                     '--out', f'{name}.jsonl'])\n"
    "    manifest = json.loads(Path(f'{name}.jsonl.manifest.json').read_text())\n"
    "    runs.append({\n"
    "        'code': code, 'stderr': err.getvalue().splitlines(),\n"
    "        'outcomes': [{key: value for key, value in json.loads(line).items()\n"
    "                      if key != 'timing_ms'}\n"
    "                     for line in Path(f'{name}.jsonl').read_text().splitlines()],\n"
    "        'gold_store': manifest['gold_store'], 'queries': manifest['queries'],\n"
    "        'stores': {str(path): hashlib.sha256(path.read_bytes()).hexdigest()\n"
    "                   for path in sorted(Path('cache').rglob('gold.marshal'))},\n"
    "        'pids': len(list(Path('pids').iterdir())),\n"
    "        'caller': Path('pids', str(caller)).exists()})\n"
    "    shutil.rmtree('pids')\n"
    "stop.set()\n"
    "print(json.dumps(runs))\n")


def forked_eval(three_dbs, work, pin="all", k=3, thread=False, preds_file=None):
    """The evals of FORKED_EVAL on three_dbs, run in the directory work, of
    three_dbs' predictions or those in preds_file."""
    root, bench_file, default_preds, *_ = three_dbs
    preds_file = preds_file or default_preds
    work.mkdir()
    # -W error: a fork with a thread running warns from Python 3.12
    proc = run_python(FORKED_EVAL, root, bench_file, preds_file, work, pin, k, int(thread),
                      len(FORKED_DBS), flags=("-W", "error"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def without_pids(runs):
    return [{key: value for key, value in run.items() if key not in ("pids", "caller")}
            for run in runs]


class TestForkedEval:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or ONE_CPU,
                        reason="needs sched_setaffinity and two usable CPUs")
    def test_same_output_as_one_process(self, three_dbs, tmp_path):
        one = forked_eval(three_dbs, tmp_path / "one", pin="one")
        every = forked_eval(three_dbs, tmp_path / "all")
        assert without_pids(every) == without_pids(one)
        assert [(run["pids"], run["caller"]) for run in one] == [(1, True)] * 2
        # the caller claims no database while its children run
        n = min(len(os.sched_getaffinity(0)), len(FORKED_DBS))
        assert [(run["pids"], run["caller"]) for run in every] == [(n, False)] * 2
        cold, warm = one
        assert cold["code"] == warm["code"] == 0
        assert len(cold["outcomes"]) == 15 and len(cold["stores"]) == 3
        # every kind of warning, in order: the database that cannot be opened,
        # the damaged store, the gold-broken example, the skipped ones
        [damaged] = [path for path in cold["stores"] if "network_2" in path]
        assert warm["stderr"] == [
            f"warning: gone: database file not found: {three_dbs[0] / 'gone' / 'gone.sqlite'}; "
            "its examples are skipped",
            f"warning: gold store {damaged}: checksum mismatch; the queries run instead",
            "warning: e0017: gold query failed on network_2: no such table: missing_table",
            "warning: e0003: no test suite for its database; skipped",
            "warning: e0005: no prediction; skipped"]
        assert cold["stderr"] == [warm["stderr"][0], *warm["stderr"][2:]]
        assert warm["stores"] == cold["stores"]  # the damaged one replaced, byte for byte
        assert cold["gold_store"]["hits"] == 0 and warm["gold_store"]["hits"] > 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or ONE_CPU,
                        reason="needs sched_setaffinity and two usable CPUs")
    def test_recurring_predictions_same_output_as_one_process(self, three_dbs, tmp_path):
        # four texts in turn, so texts recur in a database under other
        # golds: right on some, wrong, volatile, or failing
        texts = ["SELECT count(*) FROM Highschooler", "SELECT name FROM Highschooler",
                 "SELECT random() IS NOT NULL", "SELECT count(*) FROM river"]
        bench = three_dbs[3]
        preds = [(e, texts[i % len(texts)]) for i, e in enumerate(bench)]
        assert max(Counter((e.db_id, sql) for e, sql in preds).values()) > 1
        preds_file = tmp_path / "recurring.jsonl"
        preds_file.write_text("".join(
            json.dumps({"example_id": e.example_id, "sql": sql}) + "\n" for e, sql in preds))
        one = forked_eval(three_dbs, tmp_path / "one", pin="one", preds_file=preds_file)
        every = forked_eval(three_dbs, tmp_path / "all", preds_file=preds_file)
        assert without_pids(every) == without_pids(one)
        assert [run["pids"] for run in one] == [1, 1]
        assert [run["pids"] for run in every] == [min(len(os.sched_getaffinity(0)),
                                                      len(FORKED_DBS))] * 2
        cold, warm = one
        assert cold["code"] == warm["code"] == 0 and len(cold["outcomes"]) == 16
        assert {o["ts"] for o in cold["outcomes"]} == {True, False}

    @needs_fork
    def test_child_that_dies_has_its_share_scored_again(self, three_dbs, tmp_path,
                                                        monkeypatch):
        root, _, _, bench, predictions = three_dbs
        with live_thread():  # one process: the reference
            ref_warnings = []
            ref = evaluate_benchmark(bench, predictions, three_suites(root, tmp_path / "one"),
                                     ref_warnings.append, TIMEOUT_MS)
        caller, real, scored_here = os.getpid(), evaluate.evaluate, []
        n = parallel._processes(len(FORKED_DBS))
        n_children = n if n > 1 else 0
        marks = tmp_path / "marks"
        marks.mkdir()

        def dying(*args):
            # a child marks itself at its first example, waits until every
            # child has claimed a database, and dies at its second example
            if os.getpid() != caller:
                mark = marks / str(os.getpid())
                if mark.exists():
                    os._exit(7)
                mark.touch()
                deadline = time.monotonic() + 5
                while len(list(marks.iterdir())) < n_children and time.monotonic() < deadline:
                    time.sleep(0.01)
            else:
                scored_here.append(args[0].example_id)
            return real(*args)

        monkeypatch.setattr(evaluate, "evaluate", dying)
        suites = three_suites(root, tmp_path / "forked")
        warnings = []
        start = time.monotonic()
        forked = evaluate_benchmark(bench, predictions, suites, warnings.append, TIMEOUT_MS)
        assert time.monotonic() - start < 10
        assert len(list(marks.iterdir())) == n_children
        # every example, database by database: what the children claimed,
        # and what they left
        assert scored_here == [e.example_id for db_id in FORKED_DBS for e in bench
                               if e.db_id == db_id and e.example_id in predictions]
        assert scores(forked) == scores(ref)
        assert warnings == ref_warnings
        assert (forked.gold_broken, forked.gold_store, forked.queries) == (
            ref.gold_broken, ref.gold_store, ref.queries)

    @needs_fork
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_interrupted_eval_kills_its_children(self, three_dbs, tmp_path, monkeypatch):
        root, _, _, bench, predictions = three_dbs
        suites = three_suites(root, tmp_path / "cache")
        marks = tmp_path / "marks"
        marks.mkdir()
        n_children = parallel._processes(len(FORKED_DBS))

        def hanging(*args):  # only children run it: each marks itself and hangs
            Path(marks, str(os.getpid())).touch()
            time.sleep(60)

        monkeypatch.setattr(evaluate, "evaluate", hanging)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt), interrupt_when(
                lambda: len(list(marks.iterdir())) == n_children
                or time.monotonic() > start + 20):
            evaluate_benchmark(bench, predictions, suites, print, TIMEOUT_MS)
        assert time.monotonic() - start < 20
        children = [int(p.name) for p in marks.iterdir()]
        assert len(children) == n_children and os.getpid() not in children
        assert not any(running(pid) for pid in children)  # killed and reaped

    @pytest.mark.parametrize("k, thread", [(3, True), (1, False)], ids=["thread", "k1"])
    def test_one_process(self, three_dbs, tmp_path, k, thread):
        runs = forked_eval(three_dbs, tmp_path / "work", k=k, thread=thread)
        assert [run["pids"] for run in runs] == [1, 1]
        assert [run["code"] for run in runs] == [0, 0]
