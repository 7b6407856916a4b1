import json
import math
import os
import re
import shutil
import sqlite3
import subprocess
import sys
import tempfile
import time
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlbench
from sqlbench import evaluate, execution, parallel, store
from sqlbench.backend import Prediction
from sqlbench.cli import main
from sqlbench.dataset import ExampleRecord, load_benchmark
from sqlbench.evaluate import GoldBrokenError, evaluate_benchmark
from sqlbench.execution import (Connections, ExecError, ExecResult, compare_results,
                                execute_sql)
from sqlbench.fuzz import TestSuite, build_test_suite
from sqlbench.store import GoldStore

from conftest import (FIXTURE_QUESTIONS, ONE_CPU, TIMEOUT_MS, evaluate_one, interrupt_when,
                      live_thread, make_geo_db, make_network1_db, needs_fork, run_python,
                      running)


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

    def test_gold_broken_raises(self, suite):
        with pytest.raises(GoldBrokenError):
            evaluate_one(example("SELECT broken FROM nowhere"),
                         prediction("SELECT name FROM Highschooler"), suite)

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


def reference_outcome(example, prediction, suite):
    """The (valid, invalid_reason, ex, ts) of one prediction, or None when its
    gold fails on the original, and the notes evaluate sends, worked out by
    brute force: both queries run on one-shot connections on every suite
    file, and the files the gold fails on are skipped."""
    runs = [(execute_sql(f, example.gold_sql, TIMEOUT_MS),
             execute_sql(f, prediction.sql, TIMEOUT_MS)) for f in suite.variants]
    (gold, pred), *variants = runs
    if isinstance(gold, ExecError):
        return None, [f"{example.example_id}: gold query failed on {suite.db_id}: "
                      f"{gold.message}"]
    if isinstance(pred, ExecError):
        return (False, pred.message, False, False), []
    if not compare_results(gold, pred):
        return (True, None, False, False), []
    notes = []
    for variant, (gold, pred) in zip(suite.variants[1:], variants):
        if isinstance(gold, ExecError):
            notes.append(f"{example.example_id}: gold failed on variant {variant}; skipped")
        elif isinstance(pred, ExecError) or not compare_results(gold, pred):
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
    @given(golds=st.lists(st.sampled_from(REFERENCE_GOLDS), min_size=1, max_size=6))
    def test_scores_and_notes(self, mixed_suite, golds):
        bench = [example(gold, f"e{i:04d}") for i, gold in enumerate(golds)]
        predictions = {e.example_id: prediction(e.gold_sql, e.example_id) for e in bench}
        expected, expected_notes = [], []
        for e in bench:
            scored, notes = reference_outcome(e, predictions[e.example_id], mixed_suite)
            if scored is not None:
                expected.append((e.example_id, *scored))
            expected_notes += notes
        (mixed_suite.directory / "gold.marshal").unlink(missing_ok=True)
        for store_state in ("cold", "warm"):
            notes = []
            result = evaluate_benchmark(bench, predictions, {"network_1": mixed_suite},
                                        notes.append, TIMEOUT_MS)
            assert scores(result) == expected, store_state
            assert notes == expected_notes, store_state

    def test_reference_golds_cover_each_case(self, mixed_suite):
        outcomes = [reference_outcome(example(gold), prediction(gold), mixed_suite)
                    for gold in REFERENCE_GOLDS]
        assert (None, ["e0000: gold query failed on network_1: no such table: missing_table"]
                ) in outcomes
        assert sum(bool(notes) for _, notes in outcomes) == 4  # three Likes golds + broken
        assert ((True, None, False, False), []) in outcomes  # SELECT random()
        assert ((True, None, True, True), []) in outcomes


SPECIAL_CELLS = [1, 1.0, "1", b"1", None, -0.0, math.inf, -math.inf, math.nan,
                 2**63 - 1, -(2**63 - 1), "naïve ☃ 日本"]
CELLS = st.one_of(st.sampled_from(SPECIAL_CELLS), st.integers(-2**63, 2**63 - 1),
                  st.floats(), st.text(max_size=6), st.binary(max_size=6))
# every kind of error the store keeps; a timeout is never stored
STORED_ERRORS = st.builds(ExecError, st.sampled_from(["engine", "forbidden", "too_many_rows"]),
                          st.text(max_size=12))


def round_trip(suite, sql, result):
    """result put into the store of suite, then read back by a store opened anew."""
    with closing(GoldStore(suite)) as gold:
        gold.put(sql, 0, result, volatile=False)
    with closing(GoldStore(suite)) as gold:
        got = gold.get(sql, 0)
        assert gold.hits == 1 and gold.warning is None
    return got


def stored(suite, sql, variant=0):
    """The result of sql on variant in the gold store of suite, opened anew."""
    with closing(GoldStore(suite)) as gold:
        return gold.get(sql, variant)


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
            raw = ExecResult(columns, rows)
            assert repr(round_trip(suite, "raw", raw)) == repr(raw)
            error = data.draw(STORED_ERRORS)
            assert repr(round_trip(suite, "error", error)) == repr(error)
            for sql in ("SELECT * FROM t", "SELECT * FROM t ORDER BY 1",
                        "SELECT * FROM t WHERE 0", "-- no statement", "SELECT nocol FROM t"):
                executed = execute_sql(db, sql, TIMEOUT_MS)
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
            None, None, execute_sql(suite.variants[0], golds[2], TIMEOUT_MS)]

    def test_timeout_never_stored(self, db_root, tmp_path):
        slow = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
                "SELECT count(*) FROM (SELECT x FROM c LIMIT 1000000000)")
        for _ in range(2):
            result, suite = network1_eval(db_root, tmp_path, [slow], [slow], timeout_ms=50)
            assert result.gold_broken == ["e0000"]
            assert result.gold_store == {"hits": 0, "misses": 1}
        assert stored(suite, slow) is None
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

    def test_first_write_deletes_legacy_sqlite_store(self, db_root, tmp_path):
        golds = [sql for _, sql in FIXTURE_QUESTIONS[:2]]
        suite = build_test_suite(db_root / "network_1" / "network_1.sqlite", 2, seed=1,
                                 cache_dir=tmp_path / "cache", db_id="network_1")
        with closing(sqlite3.connect(suite.directory / "gold.sqlite")) as conn:
            conn.execute("CREATE TABLE gold (sql_sha BLOB, variant INTEGER, payload BLOB)")
        network1_eval(db_root, tmp_path, golds, golds)
        assert [p.name for p in suite.directory.glob("gold.*")] == ["gold.marshal"]

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


def forked_eval(three_dbs, work, pin="all", k=3, thread=False):
    """The evals of FORKED_EVAL on three_dbs, run in the directory work."""
    root, bench_file, preds_file, *_ = three_dbs
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
