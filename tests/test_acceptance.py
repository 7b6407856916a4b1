"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s` to see them."""

import json
import math
import sqlite3
import time
from contextlib import contextmanager
from itertools import product

import pytest

from sqlbench.backend import Prediction
from sqlbench.cli import main
from sqlbench.dataset import (ExampleRecord, canonical_template,
                              load_benchmark, select_support, template_groups)
from sqlbench.errors import (AnnotationRecord, ErrorCategory, breakdown,
                             classify_invalid, detect_extra_columns)
from sqlbench.evaluate import evaluate_benchmark
from sqlbench.execution import ExecResult, compare_results, execute_sql, has_top_level_order_by
from sqlbench.fuzz import build_test_suite
from sqlbench.prompt import (PromptBudget, PromptStyle, StyleKind, fit_support,
                             render_prompt)
from sqlbench.report import metrics_row

from conftest import (FIXTURE_QUESTIONS, GEO_SUPPORT_PAIRS, GOLDEN_DIR, TIMEOUT_MS,
                      evaluate_one, load_golden, read_section)
from test_fuzz import check_integrity, make_item_db


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion] {name}: FAIL")
        raise
    print(f"\n[criterion] {name}: PASS")


# every metrics row computed anywhere in this suite, for the global
# TS <= EX <= VA ordering check
ALL_RUNS = []


def record(row):
    ALL_RUNS.append(row)
    return row


def test_golden_prompt_fixtures(network1_db, geo_db):
    with criterion("golden prompt fixtures byte-exact, < 1 s"):
        start = time.perf_counter()
        styles = [
            ("question", PromptStyle(StyleKind.QUESTION)),
            ("apidocs", PromptStyle(StyleKind.API_DOCS)),
            ("select3", PromptStyle(StyleKind.SELECT_X, x=3)),
            ("create_table", PromptStyle(StyleKind.CREATE_TABLE)),
            ("create_table_select3", PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3)),
        ]
        for name, style in styles:
            got = render_prompt(read_section(network1_db, style), "What is Kyle's id?").text
            assert got == load_golden(name), f"{name} drifted from its golden fixture"

        support = [ExampleRecord(f"s{i}", "geography", q, sql.rstrip(" ;"))
                   for i, (q, sql) in enumerate(GEO_SUPPORT_PAIRS)]
        five_shot = select_support(support, 5, seed=0, warn=print)
        style = PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3)
        text = render_prompt(read_section(geo_db, style),
                             "what is the biggest city in arizona", five_shot).text
        lines = text.split("\n")
        instr = ("-- Using valid SQLite, answer the following questions "
                 "for the tables provided above.")
        assert instr in lines
        pair_lines = lines[lines.index(instr) + 1:]
        assert sum(l.startswith("-- ") for l in pair_lines) == 6
        sqls = [l for l in pair_lines if l.startswith("SELECT ")]
        assert len(sqls) == 5 and all(l.endswith(" ;") for l in sqls)
        assert text.endswith("SELECT")
        golden = (GOLDEN_DIR / "geography_create_table_select3_5shot.txt").read_text()
        assert text == golden, "5-shot geography prompt drifted from its golden fixture"

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"golden rendering took {elapsed:.2f} s"


def test_metric_properties(db_root, fixture_benchmark_path, tmp_path):
    with criterion("oracle run 100/100/100; AND-OR mutation TS < EX; TS <= EX <= VA"):
        bench = load_benchmark(fixture_benchmark_path)
        assert len(bench) == 20
        suites = {"network_1": build_test_suite(
            db_root / "network_1" / "network_1.sqlite", 8, seed=7,
            cache_dir=tmp_path / "suites")}
        # verbatim, the oracle takes its gold's results; with a space added it
        # is the same query to SQLite, but runs as a query of its own
        for label, suffix in (("oracle", ""), ("oracle, respaced", " ")):
            oracle = {e.example_id: Prediction(e.example_id, "", e.gold_sql + suffix)
                      for e in bench}
            result = evaluate_benchmark(bench, oracle, suites, print, TIMEOUT_MS)
            row = record(metrics_row(label, result.outcomes))
            assert (row.va_pct, row.ex_pct, row.ts_pct) == (100.0, 100.0, 100.0), label

        # predicate flip that coincides with gold on the original rows only
        db = tmp_path / "cars.sqlite"
        conn = sqlite3.connect(db)
        conn.executescript("""
            CREATE TABLE cars_data(id int primary key, mpg real, cylinders int, year int);
            INSERT INTO cars_data VALUES
                (1, 18.0, 8, 1970), (2, 15.0, 8, 1972), (3, 24.0, 8, 1975),
                (4, 30.0, 8, 1978), (5, 26.0, 8, 1973);
        """)
        conn.close()
        cars_suite = build_test_suite(db, 8, seed=2, cache_dir=tmp_path / "cars-suites")
        gold = "select max(mpg) from cars_data where cylinders = 8 or year < 1980"
        mutated = gold.replace(" or ", " and ")
        out = evaluate_one(ExampleRecord("m0", "cars", "q", gold),
                           Prediction("m0", "", mutated), cars_suite)
        mutation = record(metrics_row("mutation", [out]))
        assert mutation.ts_pct < mutation.ex_pct

        for r in ALL_RUNS:
            assert r.ts_pct <= r.ex_pct <= r.va_pct, f"ordering violated in {r.label}"


def _naive_cells_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)
    if isinstance(a, str) != isinstance(b, str):
        return False
    return a == b


def _naive_compare(gold, pred, ordered):
    """Independent brute-force reference: sequence when ordered (the gold
    query has a top-level ORDER BY), otherwise an exhaustive backtracking
    search for a pairing of each gold row with its own equal pred row."""
    if gold.width != pred.width or len(gold.rows) != len(pred.rows):
        return False
    rows_equal = lambda r, s: all(_naive_cells_equal(a, b) for a, b in zip(r, s))
    if ordered:
        return all(rows_equal(r, s) for r, s in zip(gold.rows, pred.rows))
    used = [False] * len(pred.rows)

    def match(i):
        if i == len(gold.rows):
            return True
        for j, s in enumerate(pred.rows):
            if not used[j] and rows_equal(gold.rows[i], s):
                used[j] = True
                if match(i + 1):
                    return True
                used[j] = False
        return False

    return match(0)


def test_comparator_equivalence(tmp_path):
    with criterion("comparator matches brute-force reference on >= 50 query pairs"):
        db = tmp_path / "micro.sqlite"
        conn = sqlite3.connect(db)
        conn.executescript("""
            CREATE TABLE t(a int primary key, b text);
            CREATE TABLE nums(x real);
            CREATE TABLE empty_t(e int);
            INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'y'), (4, NULL);
            INSERT INTO nums VALUES (1.5), (2.5), (2.5);
        """)
        conn.close()
        queries = [
            "SELECT a FROM t",
            "SELECT a FROM t ORDER BY a",
            "SELECT a FROM t ORDER BY a DESC",
            "SELECT b FROM t",
            "SELECT a, b FROM t",
            "SELECT count(*) FROM t",
            "SELECT max(a) FROM t",
            "SELECT a FROM t WHERE a > 2",
            "SELECT DISTINCT b FROM t",
            "SELECT x FROM nums",
            "SELECT avg(x) FROM nums",
            "SELECT max(e) FROM empty_t",
            "SELECT e FROM empty_t ORDER BY e DESC LIMIT 1",
        ]
        results = [execute_sql(db, q, TIMEOUT_MS) for q in queries]
        # (gold, pred, ordered): ordered as the gold query's top-level ORDER BY says
        triples = [(gold, pred, has_top_level_order_by(q))
                   for (gold, q), pred in product(zip(results, queries), results)]
        # a tolerance pairing that taking the first equal row misses
        near = ExecResult(1, [(1.0,), (1.0 + 0.99e-6,)])
        far = ExecResult(1, [(1.0,), (1.0 - 0.99e-6,)])
        triples += [(near, far, False), (far, near, False)]
        assert compare_results(near, far, False) and compare_results(far, near, False)
        assert len(triples) >= 50
        for triple in triples:
            assert compare_results(*triple) == _naive_compare(*triple)
        # the aggregate-vs-limit pair must be separated on the empty table
        assert not compare_results(results[-2], results[-1], False)


def test_fuzzer_integrity(network1_db, tmp_path):
    with criterion("1000 suite generations: integrity clean, repeat-identical, < 60 s"):
        start = time.perf_counter()
        n_seeds = 250  # x2 variants per suite x2 repeats = 1000 generations
        for seed in range(n_seeds):
            first = build_test_suite(network1_db, 2, seed=seed,
                                     cache_dir=tmp_path / "a")
            again = build_test_suite(network1_db, 2, seed=seed,
                                     cache_dir=tmp_path / "b")
            for variant in first.variants[1:]:
                check_integrity(variant)
            for va, vb in zip(first.variants[1:], again.variants[1:]):
                assert va.read_bytes() == vb.read_bytes(), f"seed {seed} not reproducible"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"fuzzing took {elapsed:.1f} s"


def test_large_table_suite_build(tmp_path):
    with criterion("cold k=4 suite for one 16,000-row table in < 3 s"):
        db = make_item_db(tmp_path / "items.sqlite", 16_000)
        start = time.perf_counter()
        suite = build_test_suite(db, 4, seed=0, cache_dir=tmp_path / "cache")
        elapsed = time.perf_counter() - start
        check_integrity(suite.variants[1])
        assert elapsed < 3.0, f"building the suite took {elapsed:.1f} s"


def test_few_shot_protocol(geo_db):
    with criterion("support picks top-n templates for n in 0..3; budget monotone"):
        shapes = [
            "SELECT name FROM t WHERE x = {}",
            "SELECT count(*) FROM t WHERE y = {}",
            "SELECT a, b FROM t ORDER BY a LIMIT {}",
        ]
        train = []
        for shape, freq in zip(shapes, (5, 3, 1)):
            for j in range(freq):
                train.append(ExampleRecord(f"e{len(train):04d}", "d",
                                           f"q{len(train)}", shape.format(j + 1)))
        groups = template_groups(train, print)
        ranked = sorted(groups, key=lambda t: (-len(groups[t]), t))
        for n in range(4):
            s = select_support(train, n, seed=7, warn=print)
            assert [e.template_id for e in s.examples] == ranked[:n]
            assert select_support(train, n, seed=7, warn=print) == s
            for e in s.examples:
                assert canonical_template(e.gold_sql) == e.template_id

        support = [ExampleRecord(f"s{i}", "geography", q, sql.rstrip(" ;"))
                   for i, (q, sql) in enumerate(GEO_SUPPORT_PAIRS)]
        five = select_support(support, 5, seed=0, warn=print)
        section = read_section(geo_db, PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3))
        _, n_2048 = fit_support(PromptBudget(2048, 200), section, "q", five)
        _, n_4096 = fit_support(PromptBudget(4096, 200), section, "q", five)
        assert n_4096 >= n_2048


def test_error_triage(tmp_path):
    with criterion("triage: named engine errors, extra-column detector, sums 100 +/- 0.1"):
        assert classify_invalid("ambiguous column name: name") is \
            ErrorCategory.INVALID_AMBIGUOUS_COLUMN
        assert classify_invalid("no such column: Year_of_Work") is \
            ErrorCategory.INVALID_NO_SUCH_COLUMN

        db = tmp_path / "orchestra.sqlite"
        conn = sqlite3.connect(db)
        conn.executescript("""
            CREATE TABLE conductor(Conductor_ID int primary key, Name text,
                                   Year_of_Work int);
            INSERT INTO conductor VALUES
                (1, 'Antal Brown', 20), (2, 'Gerard Schwarz', 15),
                (3, 'Robert Waters', 15), (4, 'Michael Morgan', 10);
        """)
        conn.close()
        gold = execute_sql(db, "SELECT Name FROM conductor ORDER BY Year_of_Work DESC", TIMEOUT_MS)
        pred = execute_sql(db, "SELECT Name, Year_of_Work FROM conductor "
                               "ORDER BY Year_of_Work DESC", TIMEOUT_MS)
        assert detect_extra_columns(gold, pred, True, print)
        wrong = execute_sql(db, "SELECT Conductor_ID FROM conductor", TIMEOUT_MS)
        assert not detect_extra_columns(gold, wrong, True, print)

        from sqlbench.evaluate import EvalOutcome
        outs = [
            EvalOutcome("a", True, None, True, True, 1.0),
            EvalOutcome("b", False, "no such column: x", False, False, 1.0),
            EvalOutcome("c", True, None, True, False, 1.0),
            EvalOutcome("d", True, None, False, False, 1.0),
            EvalOutcome("e", True, None, True, False, 1.0),
        ]
        anns = [AnnotationRecord("c", ErrorCategory.ARGMAX),
                AnnotationRecord("d", ErrorCategory.SHORTCUTS)]
        result = breakdown(outs, anns, n_gold_broken=1)
        rows = result["rows"]
        assert abs(sum(r["pct"] for r in rows) - 100.0) <= 0.1
        assert abs(sum(r["e_pct"] or 0 for r in rows) - 100.0) <= 0.1


def test_end_to_end_offline(db_root, fixture_benchmark_path, tmp_path, capsys):
    with criterion("offline prompt -> predict(replay) -> eval -> report, < 60 s"):
        start = time.perf_counter()
        prompts = tmp_path / "prompts.jsonl"
        rc = main(["prompt", "--benchmark", str(fixture_benchmark_path),
                   "--db-root", str(db_root), "--prompt", "create+select:3",
                   "--out", str(prompts)])
        assert rc == 0

        bench = load_benchmark(fixture_benchmark_path)
        replay = tmp_path / "replay.jsonl"
        replay.write_text("".join(
            json.dumps({"example_id": e.example_id,
                        "raw_completion": e.gold_sql[len("SELECT "):] + ";"}) + "\n"
            for e in bench))
        predictions = tmp_path / "predictions.jsonl"
        rc = main(["predict", "--prompts", str(prompts), "--backend", "replay",
                   "--replay-file", str(replay), "--out", str(predictions)])
        assert rc == 0

        outcomes = tmp_path / "outcomes.jsonl"
        rc = main(["eval", "--benchmark", str(fixture_benchmark_path),
                   "--db-root", str(db_root), "--predictions", str(predictions),
                   "--suite-k", "16", "--suite-seed", "0",
                   "--cache", str(tmp_path / "suites"), "--out", str(outcomes)])
        assert rc == 0

        rc = main(["report", "metrics", "--runs", str(outcomes)])
        assert rc == 0
        report_text = capsys.readouterr().out
        assert "100.0" in report_text

        records = [json.loads(line) for line in outcomes.read_text().splitlines()]
        assert len(records) == len(FIXTURE_QUESTIONS)
        assert all(r["ts"] for r in records)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f} s"
