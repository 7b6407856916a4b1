"""Gold results stored beside a test suite, so that a gold query runs once per
suite variant, not once per eval.

The store is one file per suite, gold.marshal: the sha256 of the rest, then
marshal.dumps((header, results)). results maps (gold SQL, variant; 0 is the
original database) to the marshal.dumps of one result, decoded only when
asked for. marshal keeps int, float (±inf, -0.0 and NaN included), str,
bytes, None, lists and tuples apart, so results come back with exact types.
A file whose header (suite content hash, format, SQLite, Python and marshal
versions) is not this store's counts as empty.

Never stored: a timeout, and a result of a query that called a function whose
result may change from run to run (execution.VOLATILE_FUNCTIONS).

The file is read once. close() writes only if this eval stored something: it
reads the file again, puts its own results over it, writes the whole beside
it and renames that into place, so no reader sees a partial file. Of evals
that close at once the last rename wins, and a result only another stored
runs again later. The checksum guards against damage, not an attacker: a
file that cannot be read or fails it counts as empty, with one warning, and
is replaced at close(). Writes are not synced: the file is a cache, and what
a machine crash may damage fails the checksum.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sqlite3
import sys

from .execution import ExecError, ExecResult
from .fuzz import TestSuite

FILE_NAME = "gold.marshal"
FORMAT = "2"  # of results; change it with put() or get()


class GoldStore:
    """The gold store of one suite, read when made and written by close().

    hits counts gold results served from the file, misses gold queries run.
    warning holds the first fault met in the file, if any."""

    def __init__(self, suite: TestSuite):
        self.path = suite.directory / FILE_NAME
        self.hits = self.misses = 0
        self.warning: str | None = None
        self._header = (suite.content_hash, FORMAT, sqlite3.sqlite_version,
                        "%d.%d" % sys.version_info[:2], marshal.version)
        self._new: dict[tuple[str, int], bytes] = {}  # what this eval stored
        self._results = self._read()

    def _read(self) -> dict:
        """The results in the file: none if there is no file or its header is
        not this store's, and none, with a warning, if it cannot be read or is
        damaged."""
        try:
            with open(self.path, "rb") as f:
                data = memoryview(f.read())  # sliced without a copy
            if hashlib.sha256(data[32:]).digest() != data[:32]:
                raise ValueError("checksum mismatch")
            header, results = marshal.loads(data[32:])
        except FileNotFoundError:
            return {}
        except (OSError, EOFError, ValueError, TypeError) as e:
            self.warning = self.warning or f"{e}; the queries run instead"
            return {}
        return results if header == self._header else {}

    def get(self, sql: str, variant: int) -> ExecResult | ExecError | None:
        """The stored result of sql on variant, or None if there is none."""
        payload = self._results.get((sql, variant))
        if payload is None:
            return None
        self.hits += 1
        value = marshal.loads(payload)
        if value[0] == "error":
            return ExecError(value[1], value[2])
        return ExecResult(value[1], value[2], value[3])

    def put(self, sql: str, variant: int, result: ExecResult | ExecError,
            volatile: bool) -> None:
        """Record that sql ran on variant, and store result unless it timed
        out or the query called a volatile function."""
        self.misses += 1
        if volatile or (isinstance(result, ExecError) and result.kind == "timeout"):
            return
        if isinstance(result, ExecError):
            value = ("error", result.kind, result.message)
        else:
            value = ("rows", result.columns, result.rows, result.order_sensitive)
        self._results[sql, variant] = self._new[sql, variant] = marshal.dumps(value)

    def close(self) -> None:
        if not self._new:
            return
        results = self._read()
        results.update(self._new)
        self._new = {}
        data = marshal.dumps((self._header, results))
        tmp = self.path.with_name(f"{FILE_NAME}.{os.getpid()}.new")
        try:
            with open(tmp, "wb") as f:
                f.write(hashlib.sha256(data).digest())
                f.write(data)
            os.replace(tmp, self.path)
        except OSError as e:
            self.warning = self.warning or f"cannot write: {e}"
            tmp.unlink(missing_ok=True)
