import math
import random
import shutil
import sqlite3
from contextlib import closing
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench import execution
from sqlbench.execution import (
    Connections,
    ExecError,
    ExecResult,
    cells_equal,
    compare_results,
    execute_sql,
    has_top_level_order_by,
)
from sqlbench.errors import detect_extra_columns
from sqlbench.fuzz import build_test_suite

from conftest import TIMEOUT_MS, run_sql


class TestExecuteSql:
    def test_valid_query_returns_stored_rows(self, network1_db):
        res = run_sql(network1_db, "SELECT ID, name FROM Highschooler WHERE grade = 12")
        assert isinstance(res, ExecResult)
        assert set(res.rows) == {(1934, "Kyle"), (1661, "Logan")}
        assert res.width == 2

    def test_no_such_column(self, network1_db):
        res = run_sql(network1_db, "SELECT nocol FROM Highschooler")
        assert isinstance(res, ExecError)
        assert res.kind == "engine"
        assert "no such column" in res.message

    def test_ambiguous_column(self, network1_db):
        res = run_sql(
            network1_db,
            "SELECT student_id FROM Friend JOIN Likes ON Friend.friend_id = Likes.liked_id",
        )
        assert isinstance(res, ExecError)
        assert "ambiguous column name" in res.message

    def test_syntax_error_message_verbatim(self, network1_db):
        res = run_sql(network1_db, "SELECT * FORM Highschooler")
        assert isinstance(res, ExecError)
        assert "syntax error" in res.message

    def test_nonterminating_recursive_cte_times_out(self, network1_db):
        sql = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
               "SELECT count(*) FROM c")
        res = run_sql(network1_db, sql, 300)
        assert isinstance(res, ExecError)
        assert res.kind == "timeout"

    def test_write_rejected(self, network1_db):
        res = run_sql(network1_db, "DELETE FROM Likes")
        assert isinstance(res, ExecError)
        assert res.kind == "forbidden"
        # and the file is untouched
        ok = run_sql(network1_db, "SELECT count(*) FROM Likes")
        assert ok.rows == [(3,)]

    def test_row_cap(self, network1_db, monkeypatch):
        monkeypatch.setattr(execution, "MAX_ROWS", 5)
        count_to = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
                    "WHERE x < {}) SELECT x FROM c")
        res = run_sql(network1_db, count_to.format(6))
        assert isinstance(res, ExecError)
        assert res.kind == "too_many_rows"
        assert len(run_sql(network1_db, count_to.format(5)).rows) == 5


# (sql, timeout_ms): one query of each outcome a reused connection must isolate
REUSE_POOL = [
    ("SELECT ID, name FROM Highschooler WHERE grade = 12", 30000),
    ("SELECT name FROM Highschooler ORDER BY name", 30000),
    ("SELECT nocol FROM Highschooler", 30000),
    ("SELECT * FORM Highschooler", 30000),
    ("DELETE FROM Likes", 30000),
    ("SELECT name FROM pragma_table_info('Highschooler')", 30000),
    ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
     "SELECT count(*) FROM c", 50),
]


class TestReusedConnection:
    @pytest.fixture(scope="class")
    def one_shot(self, network1_db):
        return [run_sql(network1_db, sql, timeout_ms) for sql, timeout_ms in REUSE_POOL]

    def test_pool_covers_every_outcome(self, one_shot):
        kinds = [getattr(r, "kind", "ok") for r in one_shot]
        assert kinds == ["ok", "ok", "engine", "engine", "forbidden", "forbidden", "timeout"]

    @settings(max_examples=40, deadline=None)
    @given(sequence=st.lists(st.integers(0, len(REUSE_POOL) - 1), min_size=1, max_size=8))
    def test_matches_one_shot_in_any_sequence(self, network1_db, one_shot, sequence):
        for immutable in ((), [network1_db]):
            with closing(Connections(immutable=immutable)) as connections:
                for i in sequence:
                    sql, timeout_ms = REUSE_POOL[i]
                    assert execute_sql(network1_db, sql, timeout_ms, connections) == one_shot[i]

    def test_unopenable_file_leaves_no_flag_of_the_last_query(self, network1_db, tmp_path):
        with closing(Connections()) as connections:
            execute_sql(network1_db, "SELECT random()", TIMEOUT_MS, connections)
            assert connections.volatile
            missing = execute_sql(tmp_path / "missing.sqlite", "SELECT 1", TIMEOUT_MS,
                                  connections)
            assert missing == ExecError("engine", "unable to open database file")
            assert not connections.volatile

    def test_plain_file_sees_a_change_between_queries(self, network1_db, tmp_path):
        db = tmp_path / "copy.sqlite"
        shutil.copy(network1_db, db)
        count = "SELECT count(*) FROM Likes"
        with closing(Connections()) as connections:
            assert execute_sql(db, count, TIMEOUT_MS, connections).rows == [(3,)]
            with closing(sqlite3.connect(db)) as writer:
                writer.execute("INSERT INTO Likes VALUES (1510, 1934)")
                writer.commit()
            assert execute_sql(db, count, TIMEOUT_MS, connections).rows == [(4,)]

    def test_immutable_file_is_read_under_an_exclusive_lock(self, network1_db, tmp_path):
        suite = build_test_suite(network1_db, 2, seed=3, cache_dir=tmp_path / "cache")
        variant = tmp_path / "variant.db"
        shutil.copy(suite.variants[1], variant)
        sql = "SELECT count(*) FROM Highschooler"
        expected = run_sql(variant, sql)
        assert expected.rows != [(0,)]  # the last variant is the empty one
        with closing(sqlite3.connect(variant, isolation_level=None)) as holder, \
                closing(Connections(immutable=[variant])) as connections:
            holder.execute("BEGIN EXCLUSIVE")
            assert execute_sql(variant, sql, TIMEOUT_MS, connections) == expected
            holder.execute("ROLLBACK")


# Separators, select items and table aliases that must never be read as SQL:
# comments, string literals and quoted identifiers holding parens or ORDER BY.
GAPS = [" ", "\n", " -- ) ORDER BY a\n", " /* ( */ ", " /* ORDER BY ) */ ", " /* ("]
ITEMS = ["a", "'ORDER BY ('", '"ORDER BY )"', "'it''s )'"]
ALIASES = ["", " [x (]", " AS `y )`", " ORDERS", " AS BYTES"]


@st.composite
def ordered_queries(draw, depth=2):
    """A SELECT and whether it has a top-level ORDER BY, known by construction.
    Its subqueries, in FROM and in WHERE, may have ORDER BYs of their own. The
    SQL runs on any table t with a column a."""
    def gap(last=False):
        # an unterminated block comment runs to the end, so it may only come last
        return draw(st.sampled_from(GAPS if last else GAPS[:-1]))

    def subquery():
        sql, _ = draw(ordered_queries(depth - 1))
        return f"({gap()}{sql}{gap()})"

    source = subquery() if depth and draw(st.booleans()) else "t"
    sql = (f"SELECT{gap()}{draw(st.sampled_from(ITEMS))} AS a{gap()}FROM{gap()}{source}"
           f"{draw(st.sampled_from(ALIASES))}")
    if depth and draw(st.booleans()):
        sql += f"{gap()}WHERE a IN{gap()}{subquery()}"
    ordered = draw(st.booleans())
    if ordered:
        sql += f"{gap()}ORDER{gap()}BY{gap()}a"
    if depth == 2:
        sql += gap(last=True)
    return sql, ordered


class TestTopLevelOrderBy:
    @pytest.mark.parametrize("sql,expected", [
        ("SELECT a FROM t ORDER BY a", True),
        ("SELECT a FROM t order   by a DESC", True),
        ("SELECT a FROM (SELECT a FROM t ORDER BY a)", False),
        ("SELECT a FROM t WHERE x IN (SELECT y FROM u ORDER BY y LIMIT 1)", False),
        ("SELECT a FROM t", False),
        ("SELECT 'ORDER BY' FROM t", False),
        ("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1", True),
        ("SELECT a FROM t -- )\nORDER BY a", True),
        ("SELECT [x (] FROM t ORDER BY a", True),
        ("SELECT a FROM t /* ( */ ORDER BY a", True),
        ("SELECT `x (` FROM t ORDER BY a", True),
        ("SELECT a FROM t ORDER BYTES", False),
    ])
    def test_detection(self, sql, expected):
        assert has_top_level_order_by(sql) is expected

    @settings(max_examples=300, deadline=None)
    @given(query=ordered_queries())
    def test_detection_property(self, query):
        sql, ordered = query
        assert has_top_level_order_by(sql) is ordered


# cells_equal(V, V + T) and cells_equal(V, V - T) hold, but not
# cells_equal(V - T, V + T); likewise for 0.0 and +-1e-9.
V, T = 1.0, 0.99e-6
CELLS = [None, 0, 1, 2, 1.0, "1", b"1", True, False, "a", b"a", math.inf, -math.inf,
         math.nan, V + T, V - T, 1.0 + 1e-9, 0.0, 1e-9, -1e-9]


def rs(rows):
    return ExecResult(len(rows[0]) if rows else 1, rows)


class TestCompareResults:
    def test_multiset_ignores_row_order(self):
        assert compare_results(rs([(1,), (2,)]), rs([(2,), (1,)]), False)

    def test_order_sensitive_respects_order(self):
        gold = rs([(1,), (2,)])
        assert not compare_results(gold, rs([(2,), (1,)]), True)
        assert compare_results(gold, rs([(1,), (2,)]), True)

    def test_arity_mismatch_false(self):
        assert not compare_results(rs([(1,)]), rs([(1, 2)]), False)

    def test_multiset_multiplicity_matters(self):
        assert not compare_results(rs([(1,), (1,), (2,)]), rs([(1,), (2,), (2,)]), False)

    def test_column_names_ignored(self, network1_db):
        named = [run_sql(network1_db, f"SELECT 1 AS {name}") for name in "ab"]
        assert named[0] == named[1] == rs([(1,)])

    def test_real_tolerance(self):
        assert compare_results(rs([(1.0,)]), rs([(1.0 + 1e-9,)]), False)
        assert not compare_results(rs([(1.0,)]), rs([(1.001,)]), False)

    def test_int_vs_float_numeric_equality(self):
        assert compare_results(rs([(9,)]), rs([(9.0,)]), False)

    def test_null_handling(self):
        assert compare_results(rs([(None,)]), rs([(None,)]), False)
        assert not compare_results(rs([(None,)]), rs([(0,)]), False)
        assert not compare_results(rs([(None,)]), rs([("",)]), False)

    def test_text_vs_number_distinct(self):
        assert not compare_results(rs([("1",)]), rs([(1,)]), False)

    def test_empty_results_equal(self):
        assert compare_results(rs([]), rs([]), False)

    def test_exact_cells_keep_their_type(self):
        assert not compare_results(rs([(True,)]), rs([(1,)]), False)
        assert not compare_results(rs([("1",)]), rs([(b"1",)]), False)
        assert not compare_results(rs([(1, "a"), (2, "b")]), rs([(1, "b"), (2, "a")]), False)
        assert not compare_results(rs([(True,), (2,)]), rs([(1,), (2,)]), False)

    def test_nan_equals_nothing(self):
        # list == would call a row equal to itself through the NaN object it holds
        for rows in ([(math.nan,)], [(1, math.nan), (2, 0.5)], [(0.5,), (math.nan,)]):
            for ordered in (False, True):
                r = rs(rows)
                assert not compare_results(r, r, ordered)
                assert not compare_results(r, rs(list(rows)), ordered)

    def test_multiset_within_tolerance(self):
        # sorting pairs (1.0, 'b') with (1.0, 'a'): a row-by-row check after a
        # sort rejects this, though each row has an equal partner
        gold = rs([(1.0, "b"), (1.0 + 1e-9, "a")])
        assert compare_results(gold, rs([(1.0 + 1e-9, "b"), (1.0, "a")]), False)

    def test_tolerance_is_not_transitive(self):
        # pairing v with v first would leave v + t with v - t, which differ
        assert compare_results(rs([(V,), (V + T,)]), rs([(V,), (V - T,)]), False)
        assert not compare_results(rs([(V + T,), (V + T,)]), rs([(V,), (V - T,)]), False)

    def test_matching_takes_back_a_pairing(self):
        # (V - T, V - T) equals both pred rows; pairing it with the first one
        # leaves (V - T, V + T) without a partner
        gold = rs([(V - T, V - T), (V - T, V + T)])
        assert compare_results(gold, rs([(V - T, V), (V, V - T)]), False)
        assert compare_results(gold, rs([(V, V - T), (V - T, V)]), False)

    def test_many_rows_within_tolerance(self):
        gold, pred = [], []
        for k in range(1000):
            gold += [(float(k), 0.5), (k + 1e-9, 2.5)]
            pred += [(k + 1e-9, 0.5), (float(k), 2.5)]
        random.Random(1).shuffle(pred)
        assert compare_results(rs(gold), rs(pred), False)
        pred[500] = (pred[500][0], 7.5)
        assert not compare_results(rs(gold), rs(pred), False)

    def test_many_equal_reals(self):
        # identical rows are matched as one counted node, not one node each,
        # so a failed shortcut does not cost time quadratic in the rows
        gold = [(0.0, 2.5)] * 2500 + [(1e-9, 2.5)] * 2500
        pred = [(1e-9, 2.5)] * 2500 + [(0.0, 2.5 + 1e-9)] * 2500
        assert compare_results(rs(gold), rs(pred), False)
        assert not compare_results(rs(gold), rs(pred[:-1] + [(0.0, 3.5)]), False)

    def test_infinity_from_sqlite(self, network1_db):
        res = run_sql(network1_db, "SELECT 1e999, -1e999")
        assert res.rows == [(math.inf, -math.inf)]
        same = run_sql(network1_db, "SELECT 1e999, -1e999")
        assert compare_results(res, same, False)
        for other in ("SELECT 1e999, 1e999", "SELECT 1e999, -1e300"):
            assert not compare_results(res, run_sql(network1_db, other), False)

    def test_reflexive_and_symmetric(self):
        a = rs([(1, "x"), (2, None), (2, None)])
        b = rs([(2, None), (1, "x"), (2, None)])
        assert compare_results(a, a, False)
        assert compare_results(a, b, False) == compare_results(b, a, False) == True  # noqa: E712


class TestCellsEqual:
    def test_bool_not_confused_with_int(self):
        # SQLite never returns bools, but the guard keeps semantics strict
        assert cells_equal(1, 1)
        assert cells_equal(1.5, 1.5)
        assert not cells_equal("a", "b")

    def test_infinity_equals_only_itself(self):
        assert cells_equal(math.inf, math.inf)
        assert not cells_equal(math.inf, -math.inf)
        assert not cells_equal(math.inf, 1e308)
        assert not cells_equal(math.nan, math.nan)

    def test_int_past_float_range_equals_no_float(self):
        assert not cells_equal(10**400, 1.0)
        assert not cells_equal(10**400, math.inf)
        assert cells_equal(10**400, 10**400)

    def test_int_past_float_range_in_multiset(self):
        gold = ExecResult(1, [(10**400,), (2,)])
        assert not compare_results(gold, ExecResult(1, [(1.0,), (2,)]), False)
        assert compare_results(gold, ExecResult(1, [(2.0,), (10**400,)]), False)


def reference_compare(gold: ExecResult, pred: ExecResult, ordered: bool) -> bool:
    """Brute force: some order of the pred rows (only the given one when
    ordered) equals gold row by row under cells_equal."""
    if gold.width != pred.width or len(gold.rows) != len(pred.rows):
        return False

    def equal_in_order(rows):
        return all(len(g) == len(p) and all(map(cells_equal, g, p))
                   for g, p in zip(gold.rows, rows))

    if ordered:
        return equal_in_order(pred.rows)
    return any(equal_in_order(rows) for rows in permutations(pred.rows))


def reference_extra_columns(gold: ExecResult, pred: ExecResult, ordered: bool) -> bool:
    g, p = gold.width, pred.width
    return p > g and any(
        reference_compare(gold, ExecResult(g, [tuple(r[i] for i in kept) for r in pred.rows]),
                          ordered)
        for kept in combinations(range(p), g))


@st.composite
def result_pairs(draw, max_rows=6, extra_columns=0, near_only=False):
    """A gold result, a pred result built from it and whether gold is ordered:
    rows shuffled, some cells replaced, now and then a row added or dropped,
    and up to extra_columns columns inserted. near_only keeps to two columns
    of V - T, V and V + T."""
    near = st.sampled_from([V - T, V, V + T])
    cells = near if near_only else st.one_of(near, near, st.sampled_from(CELLS))
    arity = 2 if near_only else draw(st.sampled_from([1, 1, 2, 3]))
    gold = draw(st.lists(st.tuples(*[cells] * arity), max_size=max_rows))
    pred = [tuple(draw(cells) if draw(st.integers(0, 4)) == 0 else v for v in row)
            for row in draw(st.permutations(gold))]
    if pred and draw(st.integers(0, 5)) == 0:
        pred.pop()
    elif len(pred) < max_rows and draw(st.integers(0, 5)) == 0:
        pred.append(draw(st.tuples(*[cells] * arity)))
    width = arity
    for _ in range(draw(st.integers(0, extra_columns))):
        at = draw(st.integers(0, width))
        pred = [row[:at] + (draw(cells),) + row[at:] for row in pred]
        width += 1
    return ExecResult(arity, gold), ExecResult(width, pred), draw(st.booleans())


class TestAgainstReference:
    @settings(max_examples=1000, deadline=None)
    @given(pair=result_pairs())
    def test_compare_results(self, pair):
        assert compare_results(*pair) is reference_compare(*pair)

    @settings(max_examples=500, deadline=None)
    @given(pair=result_pairs(max_rows=5, near_only=True))
    def test_compare_results_near_tolerance(self, pair):
        assert compare_results(*pair) is reference_compare(*pair)

    @settings(max_examples=500, deadline=None)
    @given(pair=result_pairs(max_rows=5, extra_columns=2))
    def test_detect_extra_columns(self, pair):
        assert detect_extra_columns(*pair, print) is reference_extra_columns(*pair)

    def test_cell_pool(self):
        for v, t in ((V, T), (0.0, 1e-9)):
            assert cells_equal(v, v + t) and cells_equal(v, v - t)
            assert not cells_equal(v - t, v + t)
