"""Gold results stored beside a test suite, so that a gold query runs once per
suite variant, not once per eval.

The store is one SQLite file, gold.sqlite, in the suite's cache directory. A
row holds the result of one gold query on one variant (0 is the original
database), keyed by the sha256 of the SQL and the variant index. The result
is JSON, bytes cells tagged, with a sha256 of the payload and its key; a row
that does not match it is a miss. The file records the suite's content hash,
the SQLite version and the row format; if any differs, the file counts as
empty, and it is emptied when opened.

Never stored: a timeout, and a result of a query that called a function whose
result may change from run to run (execution.VOLATILE_FUNCTIONS).

Reading takes no lock beyond each query's own. Writes go into one transaction,
begun at the first miss (or on opening a file that has to be emptied) and
committed by close(); the busy timeout and INSERT OR IGNORE let concurrent
evals share a file. Commits are not synced to disk: the file is a cache, and
what a crash of the machine may damage fails the checks above. A store that
cannot be opened, read or written falls back to running the queries, and
keeps one warning. A file that is not a database at all is also swapped for
an empty store, which this eval fills and the next one reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3

from .execution import ExecError, ExecResult
from .fuzz import TestSuite

FILE_NAME = "gold.sqlite"
FORMAT = "1"  # of the rows; change it with _encode() or _checksum()
BUSY_TIMEOUT_S = 30.0
# Each lookup reads its own rows once, so a small page cache loses nothing;
# a write transaction spills past it to the file instead of holding a whole
# database group's results in memory.
CACHE_KIB = 256
SQLITE_HEADER = b"SQLite format 3\x00"

_RESET = (
    "DROP TABLE IF EXISTS meta",
    "DROP TABLE IF EXISTS gold",
    "CREATE TABLE meta (content_hash TEXT, sqlite_version TEXT, format TEXT)",
    # a rowid table: WITHOUT ROWID would keep payloads of a kilobyte and more
    # inside its key b-tree, which made the file twice as large and writes slower
    "CREATE TABLE gold (sql_sha BLOB, variant INTEGER, payload BLOB, sha BLOB,"
    " PRIMARY KEY (sql_sha, variant))",
)
_SELECT = "SELECT variant, payload, sha FROM gold WHERE sql_sha = ?"
_INSERT = "INSERT OR IGNORE INTO gold VALUES (?, ?, ?, ?)"
_REPAIR = "INSERT OR REPLACE INTO gold VALUES (?, ?, ?, ?)"


def _checksum(key: bytes, variant: int, payload: bytes) -> bytes:
    """The sha256 of a row: it binds the payload to its key, so a row read
    for another key, as a damaged index could return, fails like a damaged
    payload."""
    return hashlib.sha256(b"%s%d:%s" % (key, variant, payload)).digest()


def _tag_bytes(value):
    if isinstance(value, bytes):
        return {"hex": value.hex()}
    raise TypeError(f"cannot store a {type(value).__name__} cell")


def _untag_bytes(tagged: dict) -> bytes:
    return bytes.fromhex(tagged["hex"])


# Made once: json.dumps and json.loads build a new coder per call when given
# options, which costs more than coding a small result.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_tag_bytes, check_circular=False)
_DECODER = json.JSONDecoder(object_hook=_untag_bytes)


def _encode(result: ExecResult | ExecError) -> bytes:
    """result as JSON. Floats keep their exact value, ±inf and -0.0 included,
    and bytes cells are tagged objects, so 1, 1.0, '1' and b'1' stay apart."""
    if isinstance(result, ExecError):
        value = ["error", result.kind, result.message]
    else:
        value = ["rows", result.columns, result.order_sensitive, result.rows]
    return _ENCODER.encode(value).encode()


def _decode(payload: bytes) -> ExecResult | ExecError:
    value, _ = _DECODER.raw_decode(payload.decode())
    if value[0] == "error":
        return ExecError(value[1], value[2])
    return ExecResult(value[1], list(map(tuple, value[3])), value[2])


def _not_a_database(path) -> bool:
    """path is a file, not empty, that does not start with SQLite's header."""
    try:
        with open(path, "rb") as f:
            head = f.read(len(SQLITE_HEADER))
    except OSError:
        return False
    return bool(head) and head != SQLITE_HEADER


def _replace_with_empty(path) -> None:
    """Swap path for an empty file, which SQLite opens as an empty database:
    made beside it and renamed into place, so no reader sees a partial file."""
    tmp = path.with_name(f"{FILE_NAME}.{os.getpid()}.new")
    tmp.write_bytes(b"")
    try:
        os.replace(tmp, path)
    except OSError:
        os.unlink(tmp)
        raise


class GoldStore:
    """The gold store of one suite, open from construction until close().

    hits counts gold results served from the file, misses gold queries run.
    warning holds the first fault met in the file, if any."""

    def __init__(self, suite: TestSuite):
        self.path = suite.directory / FILE_NAME
        self.hits = self.misses = 0
        self.warning: str | None = None
        self._header = (suite.content_hash, sqlite3.sqlite_version, FORMAT)
        self._conn: sqlite3.Connection | None = None
        self._valid = False  # the file's header is self._header
        self._writing = False
        try:
            self._open()
        except sqlite3.Error as e:
            self._fail(str(e))
            if _not_a_database(self.path):
                try:
                    _replace_with_empty(self.path)
                    self._open()
                except (OSError, sqlite3.Error) as e:
                    self._fail(f"cannot replace: {e}")  # the first warning stays
                else:
                    self.warning += "; replaced by an empty store"

    def _open(self) -> None:
        self._conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None)
        self._conn.execute(f"PRAGMA cache_size = -{CACHE_KIB}")
        self._conn.execute("PRAGMA synchronous = OFF")
        self._valid = self._read_header() == self._header
        if not self._valid:  # a new or stale file: made ready now, not at the first miss
            self._begin()

    def _read_header(self) -> tuple | None:
        try:
            rows = self._conn.execute("SELECT * FROM meta").fetchall()
        except sqlite3.OperationalError:  # no meta table: a new file
            return None
        return rows[0] if len(rows) == 1 else None

    def _fail(self, reason: str) -> None:
        self.warning = self.warning or reason
        if self._conn is not None:
            self._conn.close()  # rolls back what this store wrote
        self._conn = None
        self._valid = self._writing = False

    def lookup(self, gold_sql: str) -> StoredGold:
        """The stored results of gold_sql, read with one query."""
        key = hashlib.sha256(gold_sql.encode()).digest()
        found = {}
        if self._valid:
            try:
                found = {v: (p, s) for v, p, s in self._conn.execute(_SELECT, (key,))}
            except sqlite3.Error as e:
                self._fail(str(e))
        return StoredGold(self, key, found)

    def _begin(self) -> None:
        """Open the write transaction, first emptying the file if its header
        is not this store's."""
        self._conn.execute("BEGIN IMMEDIATE")
        self._writing = True
        if self._read_header() != self._header:
            for statement in _RESET:
                self._conn.execute(statement)
            self._conn.execute("INSERT INTO meta VALUES (?, ?, ?)", self._header)
        self._valid = True

    def _write(self, key: bytes, variant: int, payload: bytes, repair: bool) -> None:
        if self._conn is None:
            return
        try:
            if not self._writing:
                self._begin()
            self._conn.execute(_REPAIR if repair else _INSERT,
                               (key, variant, payload, _checksum(key, variant, payload)))
        except sqlite3.Error as e:
            self._fail(f"cannot write: {e}")

    def close(self) -> None:
        if self._conn is None:
            return
        try:
            if self._writing:
                self._conn.execute("COMMIT")
        except sqlite3.Error as e:
            self._fail(f"cannot write: {e}")
        else:
            self._conn.close()
            self._conn = None


class StoredGold:
    """The stored results of one gold query, each decoded and checked only
    when asked for."""

    def __init__(self, store: GoldStore, key: bytes, found: dict[int, tuple[bytes, bytes]]):
        self._store = store
        self._key = key
        self._found = found

    def get(self, variant: int) -> ExecResult | ExecError | None:
        """The stored result on variant, or None when there is none to trust."""
        stored = self._found.get(variant)
        if stored is None:
            return None
        payload, sha = stored
        if isinstance(payload, bytes) and _checksum(self._key, variant, payload) == sha:
            try:
                result = _decode(payload)
            except (ValueError, TypeError, IndexError, KeyError):
                pass
            else:
                self._store.hits += 1
                return result
        self._store.warning = self._store.warning or \
            f"a stored result on variant {variant} is corrupt; the query runs instead"
        return None

    def put(self, variant: int, result: ExecResult | ExecError, volatile: bool) -> None:
        """Record that the gold query ran on variant, and store result unless
        it timed out or the query called a volatile function."""
        self._store.misses += 1
        if volatile or (isinstance(result, ExecError) and result.kind == "timeout"):
            return
        self._store._write(self._key, variant, _encode(result), repair=variant in self._found)
