"""Sandboxed read-only SQL execution and denotation comparison."""

from __future__ import annotations

import math
import re
import sqlite3
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, groupby

from .schema import read_only_uri

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
_SQLITE_FUNCTION = 31

# SQL functions whose result can differ between two runs of one query on one
# database: randomness, connection state and the clock. Names as the
# authorizer reports them.
VOLATILE_FUNCTIONS = frozenset({
    "random", "randomblob", "changes", "last_insert_rowid", "total_changes",
    "date", "time", "datetime", "julianday", "unixepoch", "strftime", "timediff",
    "current_date", "current_time", "current_timestamp",
})


@dataclass
class ExecResult:
    width: int  # column count
    rows: list[tuple]

    @property
    def shape(self) -> tuple[int, int]:  # (column count, row count)
        return self.width, len(self.rows)


@dataclass
class ExecError:
    kind: str  # engine | timeout | forbidden | too_many_rows
    message: str


# The one SQL lexer. Whitespace and comments are skipped; an unterminated block
# comment runs to the end, as in SQLite. A character no other kind takes is
# `other`, one at a time.
_SQL_TOKEN = re.compile(
    r"""
      (?P<skip>\s+ | --[^\n]* | /\*[\s\S]*?(?:\*/|\Z))
    | (?P<str>'(?:[^']|'')*' | "(?:[^"]|"")*")  # Spider golds use "..." as strings
    | (?P<ident>\[[^\]]*\] | `(?:[^`]|``)*`)
    | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)? | \.\d+(?:[eE][+-]?\d+)? | \d+(?:[eE][+-]?\d+)?)
    | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op><> | <= | >= | != | \|\| | [(),.;*=<>+\-/%])
    | (?P<other>.)
    """,
    re.VERBOSE,
)


def sql_tokens(sql: str):
    """Yield (kind, text) for each token of sql, kind being one of str, ident,
    num, word, op and other."""
    for m in _SQL_TOKEN.finditer(sql):
        if m.lastgroup != "skip":
            yield m.lastgroup, m.group()


def has_top_level_order_by(sql: str) -> bool:
    """True when the query has an ORDER BY outside any parenthesized subquery.
    Comments, string literals and quoted identifiers are never read as SQL."""
    if "ORDER" not in sql.upper():  # true of most queries: skip the costly token walk
        return False
    depth = 0
    after_order = False
    for kind, text in sql_tokens(sql):
        word = text.upper() if kind == "word" else None
        if word == "BY" and after_order and depth == 0:
            return True
        after_order = word == "ORDER"
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
    return False


class Connections:
    """Read-only connections, one per database file, each opened on first use
    and reused for every later query on that file until close().

    The authorizer and progress handler are installed once per connection;
    every query resets the denied/timed-out/volatile flags they set before it
    opens its file, and the deadline after, so a rejected, timed-out or
    failed query never affects the next one.
    After a query, `volatile` tells whether it called one of
    VOLATILE_FUNCTIONS, so that its result may not repeat.
    SQLite connections belong to the thread that opened them, so one holder
    serves one thread.

    The files named in `immutable` are opened with SQLite's immutable flag:
    no file lock and no change-counter read per statement. Only files that no
    process rewrites belong there, such as a test suite's fuzzed variants,
    which are built in a private directory, renamed into place and never
    written again. Every other file, the user's original database among
    them, keeps SQLite's locking and change detection. A variant edited by
    hand during an eval may be read stale or as corrupt; that is unsupported,
    and the suite's sha256 check catches the edit on the next reuse."""

    def __init__(self, immutable=()):
        self._immutable = frozenset(map(str, immutable))
        self._open: dict[str, sqlite3.Connection] = {}
        self._deadline = 0.0
        self._denied = False
        self._timed_out = False
        self.volatile = False

    def _authorize(self, action, arg1, arg2, *rest):
        if action in _ALLOWED_ACTIONS:
            if action == _SQLITE_FUNCTION and arg2 in VOLATILE_FUNCTIONS:
                self.volatile = True
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
            conn = sqlite3.connect(read_only_uri(db_file, key in self._immutable), uri=True,
                                   cached_statements=0)
            conn.set_authorizer(self._authorize)
            conn.set_progress_handler(self._progress, 10000)
            self._open[key] = conn
        return conn

    def execute(self, db_file, sql: str, timeout_ms: int) -> ExecResult | ExecError:
        self._denied = self._timed_out = self.volatile = False
        try:
            conn = self._connection(db_file)
        except sqlite3.Error as e:
            return ExecError("engine", str(e))
        self._deadline = time.monotonic() + timeout_ms / 1000.0
        try:
            with closing(conn.execute(sql)) as cur:
                rows = cur.fetchmany(MAX_ROWS + 1)
                width = len(cur.description or ())
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
        return ExecResult(width, rows)

    def close(self) -> None:
        for conn in self._open.values():
            conn.close()
        self._open.clear()


def execute_sql(db_file, sql: str, timeout_ms: int,
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
    """Cell equality: NULL only equals NULL; an int equals an int exactly; a
    float equals a number within REL_TOL/ABS_TOL, an infinity only itself, an
    int outside the float range no float; any other value equals a value of
    the same type that compares ==, so bool is kept apart from int and text
    from bytes."""
    if a is None or b is None:
        return a is None and b is None
    if _is_number(a) and _is_number(b):
        if a == b:
            return True
        if isinstance(a, int) and isinstance(b, int):
            return False
        try:
            diff = abs(a - b)  # inf, or NaN, when either side is not finite
            return diff != math.inf and diff <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))
        except OverflowError:  # an int past the float range, against a float
            return False
    if type(a) is not type(b):
        return False
    return a == b


def _rows_equal(ra: tuple, rb: tuple) -> bool:
    return len(ra) == len(rb) and all(cells_equal(x, y) for x, y in zip(ra, rb))


# Types on which cells_equal is plain == and hashing agrees with it. A float
# is equal within tolerance; a bool is ==, and hashes alike, to 1 or 0, which
# cells_equal keeps apart.
_EXACT_TYPES = frozenset({int, str, bytes, type(None)})
_TOLERANT = object()  # key mark of a cell compared within tolerance


def _typed(cells: tuple) -> tuple:
    return tuple((type(v), v) for v in cells)


def _split_row(row: tuple, tolerant: set[int]) -> tuple[tuple, tuple]:
    """Split a row into its exact key and its tolerance part: the numbers in
    columns that hold a float. cells_equal on the key is ==, numbers keyed by
    value (ints only) and every other cell by (type, value)."""
    key, reals = [], []
    for j, v in enumerate(row):
        if not _is_number(v):
            key.append((type(v), v))
        elif j in tolerant:
            key.append(_TOLERANT)
            reals.append(v)
        else:
            key.append(v)
    return tuple(key), tuple(reals)


def _augment(start: int, candidates: list[list[int]], need: list[int], free: list[int],
             paired: list[dict[int, int]]) -> bool:
    """Pair more rows of gold run start along a shortest path, found breadth
    first: to a pred run with rows free, maybe through pred runs whose gold
    partners move on to another candidate. False when no such path exists."""
    reached_from = {}  # pred run -> the gold run that reached it
    gives_up = {start: None}  # gold run -> the pred run it would leave
    queue = [start]
    for i in queue:
        for j in candidates[i]:
            if j in reached_from:
                continue
            reached_from[j] = i
            if free[j]:
                path = []  # (gold run, pred run it pairs with more rows), from j back to start
                while j is not None:
                    i = reached_from[j]
                    path.append((i, j))
                    j = gives_up[i]
                amount = min(need[start], free[path[0][1]],
                             *(paired[gives_up[i]][i] for i, _ in path[:-1]))
                for i, j in path:
                    paired[j][i] = paired[j].get(i, 0) + amount
                    if gives_up[i] is not None:
                        paired[gives_up[i]][i] -= amount
                need[start] -= amount
                free[path[0][1]] -= amount
                return True
            for k, rows in paired[j].items():
                if rows and k not in gives_up:
                    gives_up[k] = j
                    queue.append(k)
    return False


def _as_float(v) -> float:
    """v as a float; an int past the float range becomes the infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _perfect_matching(gold: list[tuple], pred: list[tuple]) -> bool:
    """True when the tolerance parts of gold and pred (equally many, of one
    length) pair up one to one with every pair equal under cells_equal."""
    gold, pred = sorted(gold), sorted(pred)
    if all(map(_rows_equal, gold, pred)):  # a matching; its absence proves nothing
        return True
    if any(v != v for part in chain(gold, pred) for v in part):
        return False  # NaN equals nothing, and would leave the sort order undefined
    # Identical parts are interchangeable, so runs of them are matched as one
    # node with a count: many equal REALs cost one node, not a quadratic graph.
    gold_runs = [list(run) for _, run in groupby(gold, key=_typed)]
    pred_runs = [list(run) for _, run in groupby(pred, key=_typed)]
    firsts = [_as_float(run[0][0]) for run in pred_runs]  # ascending, pred being sorted
    candidates = []
    for run in gold_runs:
        a = _as_float(run[0][0])
        # cells_equal(a, b) implies |a - b| <= max(ABS_TOL, REL_TOL * |a| / (1 - REL_TOL));
        # an infinity equals only itself
        reach = 2 * max(ABS_TOL, REL_TOL * abs(a)) if math.isfinite(a) else 0.0
        lo, hi = bisect_left(firsts, a - reach), bisect_right(firsts, a + reach)
        equal = [j for j in range(lo, hi) if _rows_equal(run[0], pred_runs[j][0])]
        if not equal:
            return False
        candidates.append(equal)
    need = [len(run) for run in gold_runs]
    free = [len(run) for run in pred_runs]
    paired = [{} for _ in pred_runs]  # pred run -> {gold run: rows paired}
    for i in range(len(gold_runs)):
        while need[i]:
            # no path now means none later either: a perfect matching would
            # leave one from this run (Berge)
            if not _augment(i, candidates, need, free, paired):
                return False
    return True


def _tolerant_multisets_equal(gold_rows: list[tuple], pred_rows: list[tuple]) -> bool:
    """Multiset equality under cells_equal: a perfect matching between gold
    and pred rows. Rows are grouped on their exact key and matched within each
    group on their tolerance part; rows that are exactly equal are not paired
    off first, since equality within tolerance is not transitive."""
    tolerant = {j for row in chain(gold_rows, pred_rows)
                for j, v in enumerate(row) if isinstance(v, float)}
    groups: dict[tuple, tuple[list, list]] = {}
    for side, rows in enumerate((gold_rows, pred_rows)):
        for row in rows:
            key, reals = _split_row(row, tolerant)
            groups.setdefault(key, ([], []))[side].append(reals)
    return all(len(g) == len(p) and _perfect_matching(g, p) for g, p in groups.values())


def compare_results(gold: ExecResult, pred: ExecResult, ordered: bool) -> bool:
    """Denotation equality: sequence comparison when ordered (the gold query
    orders its output), multiset comparison otherwise. Widths must match.
    Reals compare within tolerance (cells_equal), and multisets are equal
    when their rows pair up one to one, each pair equal. Without a REAL or
    bool cell, equality is exact, so rows are counted, not sorted."""
    if gold.width != pred.width or len(gold.rows) != len(pred.rows):
        return False
    in_order = ordered or len(gold.rows) < 2  # one row is a sequence too
    # Rows equal in the order given are equal as a multiset too: the common
    # case, checked first, before any Counter or matching is built.
    if _EXACT_TYPES.issuperset(map(type, chain.from_iterable(chain(gold.rows, pred.rows)))):
        # list == is cells_equal only here: True == 1, and list == calls one
        # NaN object equal to itself
        same = gold.rows == pred.rows
        if same or in_order:
            return same
        # dict's == runs in C, Counter's in Python; the same here, as counts of
        # rows are never zero
        return dict.__eq__(Counter(gold.rows), Counter(pred.rows))
    same = all(map(_rows_equal, gold.rows, pred.rows))
    if same or in_order:
        return same
    return _tolerant_multisets_equal(gold.rows, pred.rows)
