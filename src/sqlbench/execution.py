"""Sandboxed read-only SQL execution and denotation comparison."""

from __future__ import annotations

import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-9

# Rows one query may return: far above any benchmark result, low enough that a
# runaway prediction cannot exhaust memory.
MAX_ROWS = 1_000_000

# SQLite authorizer action codes permitted for arbitrary predicted SQL.
_ALLOWED_ACTIONS = {
    20,  # SQLITE_READ
    21,  # SQLITE_SELECT
    31,  # SQLITE_FUNCTION
    33,  # SQLITE_RECURSIVE
}


@dataclass
class ExecResult:
    columns: list[str]
    rows: list[tuple]
    order_sensitive: bool = False


@dataclass
class ExecError:
    kind: str  # engine | timeout | forbidden | too_many_rows
    message: str


def has_top_level_order_by(sql: str) -> bool:
    """True when the query has an ORDER BY outside any parenthesized subquery."""
    depth = 0
    i = 0
    n = len(sql)
    upper = sql.upper()
    while i < n:
        c = sql[i]
        if c in "'\"":
            quote = c
            i += 1
            while i < n:
                if sql[i] == quote:
                    if i + 1 < n and sql[i + 1] == quote:
                        i += 2
                        continue
                    break
                i += 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and upper.startswith("ORDER", i):
            before_ok = i == 0 or not (sql[i - 1].isalnum() or sql[i - 1] == "_")
            rest = upper[i + 5:].lstrip()
            if before_ok and rest.startswith("BY"):
                return True
        i += 1
    return False


class Connections:
    """Read-only connections, one per database file, each opened on first use
    and reused for every later query on that file until close().

    The authorizer and progress handler are installed once per connection;
    every query resets the deadline and the denied/timed-out flags they set,
    so a rejected, timed-out or failed query never affects the next one.
    SQLite connections belong to the thread that opened them, so one holder
    serves one thread."""

    def __init__(self):
        self._open: dict[str, sqlite3.Connection] = {}
        self._order_sensitive: dict[str, bool] = {}
        self._deadline = 0.0
        self._denied = False
        self._timed_out = False

    def _authorize(self, action, *args):
        if action in _ALLOWED_ACTIONS:
            return sqlite3.SQLITE_OK
        self._denied = True
        return sqlite3.SQLITE_DENY

    def _progress(self):
        if time.monotonic() > self._deadline:
            self._timed_out = True
            return 1
        return 0

    def _connection(self, db_file) -> sqlite3.Connection:
        key = str(db_file)
        conn = self._open.get(key)
        if conn is None:
            # Each query runs about once per connection, so a statement cache
            # would only hold memory.
            conn = sqlite3.connect(f"file:{Path(db_file)}?mode=ro", uri=True,
                                   cached_statements=0)
            conn.set_authorizer(self._authorize)
            conn.set_progress_handler(self._progress, 10000)
            self._open[key] = conn
        return conn

    def execute(self, db_file, sql: str, timeout_ms: int) -> ExecResult | ExecError:
        try:
            conn = self._connection(db_file)
        except sqlite3.Error as e:
            return ExecError("engine", str(e))
        self._denied = self._timed_out = False
        self._deadline = time.monotonic() + timeout_ms / 1000.0
        try:
            with closing(conn.execute(sql)) as cur:
                rows = cur.fetchmany(MAX_ROWS + 1)
                columns = [d[0] for d in cur.description] if cur.description else []
        except sqlite3.Error as e:
            if self._timed_out:
                return ExecError("timeout", f"query exceeded {timeout_ms} ms")
            if self._denied:
                return ExecError("forbidden", f"write or unsafe statement rejected: {e}")
            return ExecError("engine", str(e))
        except RecursionError as e:
            return ExecError("engine", str(e))
        if len(rows) > MAX_ROWS:
            return ExecError("too_many_rows", f"query returned more than {MAX_ROWS} rows")
        ordered = self._order_sensitive.get(sql)
        if ordered is None:
            ordered = self._order_sensitive[sql] = has_top_level_order_by(sql)
        return ExecResult(columns=columns, rows=rows, order_sensitive=ordered)

    def close(self) -> None:
        for conn in self._open.values():
            conn.close()
        self._open.clear()


def execute_sql(db_file, sql: str, timeout_ms: int = 30000,
                connections: Connections | None = None) -> ExecResult | ExecError:
    """Run arbitrary SQL read-only with a wall-clock timeout.

    Write attempts are denied via the authorizer; engine errors carry the
    engine message verbatim so they can be triaged later. The query runs on
    the connection that `connections` holds for db_file, or, without it, on
    one opened and closed for this call.
    """
    if connections is not None:
        return connections.execute(db_file, sql, timeout_ms)
    with closing(Connections()) as one_shot:
        return one_shot.execute(db_file, sql, timeout_ms)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if _is_number(a) and _is_number(b):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))
    if type(a) is not type(b):
        return False
    return a == b


def _rows_equal(ra: tuple, rb: tuple) -> bool:
    return len(ra) == len(rb) and all(cells_equal(x, y) for x, y in zip(ra, rb))


def _sort_key(row: tuple):
    key = []
    for v in row:
        if v is None:
            key.append((0, ""))
        elif _is_number(v):
            key.append((1, float(v)))
        elif isinstance(v, bytes):
            key.append((3, v.hex()))
        else:
            key.append((2, str(v)))
    return key


def compare_results(gold: ExecResult, pred: ExecResult) -> bool:
    """Denotation equality: sequence comparison when the gold query orders its
    output, multiset comparison otherwise. Column names are ignored; arity
    must match. Reals compare within tolerance."""
    if len(gold.columns) != len(pred.columns):
        return False
    if len(gold.rows) != len(pred.rows):
        return False
    if gold.order_sensitive:
        return all(_rows_equal(g, p) for g, p in zip(gold.rows, pred.rows))
    gold_sorted = sorted(gold.rows, key=_sort_key)
    pred_sorted = sorted(pred.rows, key=_sort_key)
    return all(_rows_equal(g, p) for g, p in zip(gold_sorted, pred_sorted))
