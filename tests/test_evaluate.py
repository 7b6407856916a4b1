import json
import sqlite3

import pytest

from sqlbench import execution
from sqlbench.backend import Prediction
from sqlbench.dataset import ExampleRecord, load_benchmark
from sqlbench.evaluate import GoldBrokenError, evaluate, evaluate_benchmark
from sqlbench.fuzz import TestSuite, build_test_suite

from conftest import FIXTURE_QUESTIONS, make_geo_db, make_network1_db


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
        out = evaluate(example(gold), prediction(gold), suite)
        assert out.valid and out.ex and out.ts
        assert out.invalid_reason is None
        assert out.timing_ms >= 0

    def test_invalid_prediction(self, suite):
        out = evaluate(example("SELECT name FROM Highschooler"),
                       prediction("SELECT nocol FROM Highschooler"), suite)
        assert not out.valid and not out.ex and not out.ts
        assert "no such column" in out.invalid_reason

    def test_valid_but_wrong(self, suite):
        out = evaluate(example("SELECT name FROM Highschooler WHERE grade = 9"),
                       prediction("SELECT name FROM Highschooler WHERE grade = 12"), suite)
        assert out.valid and not out.ex and not out.ts

    def test_empty_prediction_marker(self, suite):
        out = evaluate(example("SELECT name FROM Highschooler"), prediction(""), suite)
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
            out = evaluate(example(gold), prediction(sql), suite)
            assert (not out.ts or out.ex) and (not out.ex or out.valid)

    def test_gold_broken_raises(self, suite):
        with pytest.raises(GoldBrokenError):
            evaluate(example("SELECT broken FROM nowhere"),
                     prediction("SELECT name FROM Highschooler"), suite)

    def test_max_vs_order_by_limit_separated_by_empty_variant(self, suite):
        # MAX over an empty table yields one NULL row; ORDER BY ... LIMIT 1 yields none
        gold = "SELECT max(grade) FROM Highschooler"
        pred = "SELECT grade FROM Highschooler ORDER BY grade DESC LIMIT 1"
        out = evaluate(example(gold), prediction(pred), suite)
        assert out.ex
        assert not out.ts

    def test_semantically_equal_written_differently(self, suite):
        gold = "SELECT name FROM Highschooler WHERE grade = 9"
        pred = "SELECT name FROM Highschooler WHERE grade < 10 AND grade > 8"
        out = evaluate(example(gold), prediction(pred), suite)
        assert out.ts

    def test_deterministic(self, suite):
        gold = "SELECT name FROM Highschooler WHERE grade = 9"
        pred = "SELECT name FROM Highschooler WHERE grade = 12"
        a = evaluate(example(gold), prediction(pred), suite)
        b = evaluate(example(gold), prediction(pred), suite)
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
        out = evaluate(ex_rec, prediction(pred), cars_suite)
        assert out.ex, "predicates coincide on the original rows"
        assert not out.ts, "some fuzzed variant separates OR from AND"


class TestEvaluateBenchmark:
    def test_oracle_run_and_gold_broken_exclusion(self, db_root, tmp_path):
        items = [
            {"db_id": "network_1", "question": "names", "query": "SELECT name FROM Highschooler"},
            {"db_id": "network_1", "question": "broken", "query": "SELECT x FROM missing_table"},
            {"db_id": "network_1", "question": "count", "query": "SELECT count(*) FROM Friend"},
        ]
        bench_file = tmp_path / "bench.json"
        bench_file.write_text(json.dumps(items))
        bench = load_benchmark(bench_file, db_root)
        predictions = {e.example_id: prediction(e.gold_sql, e.example_id)
                       for e in bench.examples}
        suites = {"network_1": build_test_suite(db_root / "network_1" / "network_1.sqlite",
                                                2, seed=1, cache_dir=tmp_path / "cache")}
        result = evaluate_benchmark(bench, predictions, suites)
        assert len(result.outcomes) == 2
        assert result.gold_broken == ["e0001"]
        assert all(o.ts for o in result.outcomes)

    def test_one_connection_per_variant_file(self, db_root, tmp_path, monkeypatch):
        db_file = db_root / "network_1" / "network_1.sqlite"
        items = [{"db_id": "network_1", "question": q, "query": sql}
                 for q, sql in FIXTURE_QUESTIONS[:3]]
        bench_file = tmp_path / "bench.json"
        bench_file.write_text(json.dumps(items))
        bench = load_benchmark(bench_file, db_root)
        predictions = {e.example_id: prediction(e.gold_sql, e.example_id)
                       for e in bench.examples}
        suites = {"network_1": build_test_suite(db_file, 2, seed=1,
                                                cache_dir=tmp_path / "cache")}
        opened = []
        connect = sqlite3.connect

        def counting_connect(database, *args, **kwargs):
            opened.append(database)
            return connect(database, *args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        result = evaluate_benchmark(bench, predictions, suites)
        assert [o.ts for o in result.outcomes] == [True, True, True]
        # one connection per query would be 3 examples x (1 + 2) files x 2 queries = 18
        assert len(opened) == len(set(opened)) == 3

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
        bench = load_benchmark(bench_file, root)
        predictions = {e.example_id: prediction(e.gold_sql, e.example_id)
                       for e in bench.examples if e.example_id != "e0005"}
        geo_suite = build_test_suite(geo_file, 2, seed=3, cache_dir=tmp_path / "cache")
        suites = {
            "network_1": build_test_suite(root / "network_1" / "network_1.sqlite", 2,
                                          seed=3, cache_dir=tmp_path / "cache"),
            # the gold query on lake fails on the middle variant only
            "geography": TestSuite("geography", 3, 2,
                                   [geo_file, no_lake, geo_suite.variants[1]]),
        }
        result = evaluate_benchmark(bench, predictions, suites)
        assert [o.example_id for o in result.outcomes] == [
            "e0000", "e0001", "e0002", "e0004", "e0006"]
        assert all(o.ts for o in result.outcomes)
        assert result.gold_broken == ["e0003"]
        assert result.warnings == [
            "e0003: gold query failed on network_1: no such table: missing_table",
            f"e0004: gold failed on variant {no_lake}; skipped",
            "e0005: no prediction; skipped",
        ]

    def test_prediction_past_row_cap_is_invalid(self, suite, monkeypatch):
        monkeypatch.setattr(execution, "MAX_ROWS", 5)
        out = evaluate(example("SELECT count(*) FROM Highschooler"),
                       prediction("SELECT name FROM Highschooler"), suite)
        assert not out.valid and not out.ex and not out.ts
        assert "more than 5 rows" in out.invalid_reason
