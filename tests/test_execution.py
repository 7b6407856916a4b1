import math
import random
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


class TestExecuteSql:
    def test_valid_query_returns_stored_rows(self, network1_db):
        res = execute_sql(network1_db, "SELECT ID, name FROM Highschooler WHERE grade = 12")
        assert isinstance(res, ExecResult)
        assert set(res.rows) == {(1934, "Kyle"), (1661, "Logan")}
        assert res.columns == ["ID", "name"]

    def test_no_such_column(self, network1_db):
        res = execute_sql(network1_db, "SELECT nocol FROM Highschooler")
        assert isinstance(res, ExecError)
        assert res.kind == "engine"
        assert "no such column" in res.message

    def test_ambiguous_column(self, network1_db):
        res = execute_sql(
            network1_db,
            "SELECT student_id FROM Friend JOIN Likes ON Friend.friend_id = Likes.liked_id",
        )
        assert isinstance(res, ExecError)
        assert "ambiguous column name" in res.message

    def test_syntax_error_message_verbatim(self, network1_db):
        res = execute_sql(network1_db, "SELECT * FORM Highschooler")
        assert isinstance(res, ExecError)
        assert "syntax error" in res.message

    def test_nonterminating_recursive_cte_times_out(self, network1_db):
        sql = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
               "SELECT count(*) FROM c")
        res = execute_sql(network1_db, sql, timeout_ms=300)
        assert isinstance(res, ExecError)
        assert res.kind == "timeout"

    def test_write_rejected(self, network1_db):
        res = execute_sql(network1_db, "DELETE FROM Likes")
        assert isinstance(res, ExecError)
        assert res.kind == "forbidden"
        # and the file is untouched
        ok = execute_sql(network1_db, "SELECT count(*) FROM Likes")
        assert ok.rows == [(3,)]

    def test_order_sensitivity_from_query(self, network1_db):
        ordered = execute_sql(network1_db, "SELECT name FROM Highschooler ORDER BY name")
        unordered = execute_sql(network1_db, "SELECT name FROM Highschooler")
        assert ordered.order_sensitive and not unordered.order_sensitive

    def test_row_cap(self, network1_db, monkeypatch):
        monkeypatch.setattr(execution, "MAX_ROWS", 5)
        count_to = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
                    "WHERE x < {}) SELECT x FROM c")
        res = execute_sql(network1_db, count_to.format(6))
        assert isinstance(res, ExecError)
        assert res.kind == "too_many_rows"
        assert len(execute_sql(network1_db, count_to.format(5)).rows) == 5


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
        return [execute_sql(network1_db, sql, timeout_ms) for sql, timeout_ms in REUSE_POOL]

    def test_pool_covers_every_outcome(self, one_shot):
        kinds = [getattr(r, "kind", "ok") for r in one_shot]
        assert kinds == ["ok", "ok", "engine", "engine", "forbidden", "forbidden", "timeout"]

    @settings(max_examples=40, deadline=None)
    @given(sequence=st.lists(st.integers(0, len(REUSE_POOL) - 1), min_size=1, max_size=8))
    def test_matches_one_shot_in_any_sequence(self, network1_db, one_shot, sequence):
        with closing(Connections()) as connections:
            for i in sequence:
                sql, timeout_ms = REUSE_POOL[i]
                assert execute_sql(network1_db, sql, timeout_ms, connections) == one_shot[i]


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
         V + T, V - T, 1.0 + 1e-9, 0.0, 1e-9, -1e-9]


def rs(rows, cols=None, ordered=False):
    n = len(rows[0]) if rows else 1
    return ExecResult(columns=cols or [f"c{i}" for i in range(n)], rows=rows,
                      order_sensitive=ordered)


class TestCompareResults:
    def test_multiset_ignores_row_order(self):
        assert compare_results(rs([(1,), (2,)]), rs([(2,), (1,)]))

    def test_order_sensitive_respects_order(self):
        gold = rs([(1,), (2,)], ordered=True)
        assert not compare_results(gold, rs([(2,), (1,)], ordered=True))
        assert compare_results(gold, rs([(1,), (2,)]))

    def test_arity_mismatch_false(self):
        assert not compare_results(rs([(1,)]), rs([(1, 2)]))

    def test_multiset_multiplicity_matters(self):
        assert not compare_results(rs([(1,), (1,), (2,)]), rs([(1,), (2,), (2,)]))

    def test_column_names_ignored(self):
        assert compare_results(rs([(1,)], cols=["a"]), rs([(1,)], cols=["b"]))

    def test_real_tolerance(self):
        assert compare_results(rs([(1.0,)]), rs([(1.0 + 1e-9,)]))
        assert not compare_results(rs([(1.0,)]), rs([(1.001,)]))

    def test_int_vs_float_numeric_equality(self):
        assert compare_results(rs([(9,)]), rs([(9.0,)]))

    def test_null_handling(self):
        assert compare_results(rs([(None,)]), rs([(None,)]))
        assert not compare_results(rs([(None,)]), rs([(0,)]))
        assert not compare_results(rs([(None,)]), rs([("",)]))

    def test_text_vs_number_distinct(self):
        assert not compare_results(rs([("1",)]), rs([(1,)]))

    def test_empty_results_equal(self):
        assert compare_results(rs([], cols=["a"]), rs([], cols=["b"]))

    def test_exact_cells_keep_their_type(self):
        assert not compare_results(rs([(True,)]), rs([(1,)]))
        assert not compare_results(rs([("1",)]), rs([(b"1",)]))
        assert not compare_results(rs([(1, "a"), (2, "b")]), rs([(1, "b"), (2, "a")]))

    def test_multiset_within_tolerance(self):
        # sorting pairs (1.0, 'b') with (1.0, 'a'): a row-by-row check after a
        # sort rejects this, though each row has an equal partner
        gold = rs([(1.0, "b"), (1.0 + 1e-9, "a")])
        assert compare_results(gold, rs([(1.0 + 1e-9, "b"), (1.0, "a")]))

    def test_tolerance_is_not_transitive(self):
        # pairing v with v first would leave v + t with v - t, which differ
        assert compare_results(rs([(V,), (V + T,)]), rs([(V,), (V - T,)]))
        assert not compare_results(rs([(V + T,), (V + T,)]), rs([(V,), (V - T,)]))

    def test_matching_takes_back_a_pairing(self):
        # (V - T, V - T) equals both pred rows; pairing it with the first one
        # leaves (V - T, V + T) without a partner
        gold = rs([(V - T, V - T), (V - T, V + T)])
        assert compare_results(gold, rs([(V - T, V), (V, V - T)]))
        assert compare_results(gold, rs([(V, V - T), (V - T, V)]))

    def test_many_rows_within_tolerance(self):
        gold, pred = [], []
        for k in range(1000):
            gold += [(float(k), 0.5), (k + 1e-9, 2.5)]
            pred += [(k + 1e-9, 0.5), (float(k), 2.5)]
        random.Random(1).shuffle(pred)
        assert compare_results(rs(gold), rs(pred))
        pred[500] = (pred[500][0], 7.5)
        assert not compare_results(rs(gold), rs(pred))

    def test_many_equal_reals(self):
        # identical rows are matched as one counted node, not one node each,
        # so a failed shortcut does not cost time quadratic in the rows
        gold = [(0.0, 2.5)] * 2500 + [(1e-9, 2.5)] * 2500
        pred = [(1e-9, 2.5)] * 2500 + [(0.0, 2.5 + 1e-9)] * 2500
        assert compare_results(rs(gold), rs(pred))
        assert not compare_results(rs(gold), rs(pred[:-1] + [(0.0, 3.5)]))

    def test_infinity_from_sqlite(self, network1_db):
        res = execute_sql(network1_db, "SELECT 1e999, -1e999")
        assert res.rows == [(math.inf, -math.inf)]
        assert compare_results(res, execute_sql(network1_db, "SELECT 1e999, -1e999"))
        assert not compare_results(res, execute_sql(network1_db, "SELECT 1e999, 1e999"))
        assert not compare_results(res, execute_sql(network1_db, "SELECT 1e999, -1e300"))

    def test_reflexive_and_symmetric(self):
        a = rs([(1, "x"), (2, None), (2, None)])
        b = rs([(2, None), (1, "x"), (2, None)])
        assert compare_results(a, a)
        assert compare_results(a, b) == compare_results(b, a) == True  # noqa: E712


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
        gold = ExecResult(["a"], [(10**400,), (2,)])
        assert not compare_results(gold, ExecResult(["a"], [(1.0,), (2,)]))
        assert compare_results(gold, ExecResult(["a"], [(2.0,), (10**400,)]))


def reference_compare(gold: ExecResult, pred: ExecResult) -> bool:
    """Brute force: some order of the pred rows (only the given one when gold
    is ordered) equals gold row by row under cells_equal."""
    if len(gold.columns) != len(pred.columns) or len(gold.rows) != len(pred.rows):
        return False

    def equal_in_order(rows):
        return all(len(g) == len(p) and all(map(cells_equal, g, p))
                   for g, p in zip(gold.rows, rows))

    if gold.order_sensitive:
        return equal_in_order(pred.rows)
    return any(equal_in_order(rows) for rows in permutations(pred.rows))


def reference_extra_columns(gold: ExecResult, pred: ExecResult) -> bool:
    g, p = len(gold.columns), len(pred.columns)
    return p > g and any(
        reference_compare(gold, ExecResult(columns=[pred.columns[i] for i in kept],
                                           rows=[tuple(r[i] for i in kept) for r in pred.rows]))
        for kept in combinations(range(p), g))


@st.composite
def result_pairs(draw, max_rows=6, extra_columns=0, near_only=False):
    """A gold result and a pred result built from it: rows shuffled, some cells
    replaced, now and then a row added or dropped, and up to extra_columns
    columns inserted. near_only keeps to two columns of V - T, V and V + T."""
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
    ordered = draw(st.booleans())
    return (ExecResult([f"g{i}" for i in range(arity)], gold, ordered),
            ExecResult([f"p{i}" for i in range(width)], pred, ordered))


class TestAgainstReference:
    @settings(max_examples=1000, deadline=None)
    @given(pair=result_pairs())
    def test_compare_results(self, pair):
        gold, pred = pair
        assert compare_results(gold, pred) is reference_compare(gold, pred)

    @settings(max_examples=500, deadline=None)
    @given(pair=result_pairs(max_rows=5, near_only=True))
    def test_compare_results_near_tolerance(self, pair):
        gold, pred = pair
        assert compare_results(gold, pred) is reference_compare(gold, pred)

    @settings(max_examples=500, deadline=None)
    @given(pair=result_pairs(max_rows=5, extra_columns=2))
    def test_detect_extra_columns(self, pair):
        gold, pred = pair
        assert detect_extra_columns(gold, pred, print) is reference_extra_columns(gold, pred)

    def test_cell_pool(self):
        for v, t in ((V, T), (0.0, 1e-9)):
            assert cells_equal(v, v + t) and cells_equal(v, v - t)
            assert not cells_equal(v - t, v + t)
