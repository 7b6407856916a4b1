"""Gold results stored beside a test suite, so that a gold query runs once per
suite variant, not once per eval.

The store is one file per suite, gold.marshal: the sha256 of the rest, then
marshal.dumps((header, results), 2). results maps a gold SQL to a dict from
variant (0 is the original database) to (kind, message) for an error, or
(column count, row count, marshal.dumps(rows, 2)) for rows, which get()
returns as a StoredResult whose rows are decoded when first read; column
names are never kept. Keys are written sorted, and marshal version 2 writes
no back-references, so the bytes depend on the content alone. marshal keeps
int, float (±inf, -0.0 and NaN included), str, bytes, None, lists and tuples
apart, so results come back with exact types. A file whose header (suite
content hash, format, SQLite, Python and marshal versions) is not this
store's counts as empty.

The store keeps whatever it is handed; evaluate._score_group decides what may
be served again. The file is read once. close() writes only if this eval
stored something: it reads the file again, puts its own results over it,
writes the whole beside it and renames that into place, so no reader sees a
partial file. Of evals that close at once the last rename wins, and a result
only another stored runs again later. The checksum guards against damage, not
an attacker: a file that cannot be read or fails it counts as empty, with one
warning, and is replaced at close(). Writes are not synced: the file is a
cache, and what a machine crash may damage fails the checksum.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sqlite3
import sys
from functools import cached_property

from .execution import ExecError, ExecResult
from .fuzz import TestSuite

FILE_NAME = "gold.marshal"
FORMAT = "4"  # of results; change it with put() or get()


class StoredResult(ExecResult):
    """A stored result; its shape is known before its rows are decoded."""

    def __init__(self, width: int, length: int, payload: bytes):
        self.width, self._length, self._payload = width, length, payload

    @property
    def shape(self) -> tuple[int, int]:
        return self.width, self._length

    @cached_property
    def rows(self) -> list[tuple]:
        return marshal.loads(self._payload)


class GoldStore:
    """The gold store of one suite, read when made and written by close().
    It keeps every result put into it; warning holds the first fault met in
    the file, if any."""

    def __init__(self, suite: TestSuite):
        self.path = suite.directory / FILE_NAME
        self.warning: str | None = None
        self._header = (suite.content_hash, FORMAT, sqlite3.sqlite_version,
                        "%d.%d" % sys.version_info[:2], marshal.version)
        self._new: dict[str, dict[int, tuple]] = {}  # what this eval stored
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
        entry = self._results.get(sql, {}).get(variant)
        if entry is None:
            return None
        return ExecError(*entry) if len(entry) == 2 else StoredResult(*entry)

    def put(self, sql: str, variant: int, result: ExecResult | ExecError) -> None:
        """Store result as that of sql on variant."""
        if isinstance(result, ExecError):
            entry = (result.kind, result.message)
        else:
            entry = (*result.shape, marshal.dumps(result.rows, 2))
        self._results.setdefault(sql, {})[variant] = self._new.setdefault(sql, {})[variant] = entry

    def close(self) -> None:
        if not self._new:
            return
        results = self._read()
        for sql, entries in self._new.items():
            results.setdefault(sql, {}).update(entries)
        self._new = {}
        data = marshal.dumps((self._header, {sql: dict(sorted(results[sql].items()))
                                             for sql in sorted(results)}), 2)
        tmp = self.path.with_name(f"{FILE_NAME}.{os.getpid()}.new")
        try:
            with open(tmp, "wb") as f:
                f.write(hashlib.sha256(data).digest())
                f.write(data)
            os.replace(tmp, self.path)
        except OSError as e:
            self.warning = self.warning or f"cannot write: {e}"
            tmp.unlink(missing_ok=True)
