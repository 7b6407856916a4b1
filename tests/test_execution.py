from contextlib import closing

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


class TestTopLevelOrderBy:
    @pytest.mark.parametrize("sql,expected", [
        ("SELECT a FROM t ORDER BY a", True),
        ("SELECT a FROM t order   by a DESC", True),
        ("SELECT a FROM (SELECT a FROM t ORDER BY a)", False),
        ("SELECT a FROM t WHERE x IN (SELECT y FROM u ORDER BY y LIMIT 1)", False),
        ("SELECT a FROM t", False),
        ("SELECT 'ORDER BY' FROM t", False),
        ("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1", True),
    ])
    def test_detection(self, sql, expected):
        assert has_top_level_order_by(sql) is expected


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
