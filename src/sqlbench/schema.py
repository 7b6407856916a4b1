"""SQLite schema introspection and content-row sampling for prompt rendering."""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote


class IntrospectionError(Exception):
    pass


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    declared_type: str
    is_primary_key: bool
    not_null: bool


@dataclass
class TableSchema:
    name: str
    columns: list[ColumnSchema]
    foreign_keys: list[tuple[str, str, str]]  # (from_column, ref_table, ref_column)
    create_sql: str

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def primary_key(self) -> list[str]:
        return [c.name for c in self.columns if c.is_primary_key]


@dataclass
class RowSample:
    table: str
    limit: int
    header: list[str]
    rows: list[tuple]


def quote_name(name: str) -> str:
    """name as an SQL identifier: in double quotes, each `"` in it doubled.
    The one way a table name goes into SQL that sqlbench runs itself."""
    return '"' + name.replace('"', '""') + '"'


def read_only_uri(db_file, immutable: bool = False) -> str:
    """The SQLite URI that opens db_file read-only. The path is percent-quoted,
    so `#`, `?` and `%` in it stay part of the file name. immutable tells SQLite
    that no process changes the file while it is open, so it takes no lock and
    reads no change counter per statement."""
    return f"file:{quote(str(Path(db_file)))}?mode=ro{'&immutable=1' if immutable else ''}"


def connect_ro(db_file) -> sqlite3.Connection:
    """A read-only connection to db_file, for introspect and sample_rows. The
    one check that db_file exists: stages report the IntrospectionError."""
    path = Path(db_file)
    if not path.exists():
        raise IntrospectionError(f"database file not found: {path}")
    try:
        return sqlite3.connect(read_only_uri(path), uri=True)
    except sqlite3.Error as e:
        raise IntrospectionError(f"cannot read database {db_file}: {e}") from e


def introspect(db_file, conn: sqlite3.Connection, warn) -> list[TableSchema]:
    """Read all user tables of db_file through conn, in catalog order, with
    columns, PKs, FKs, and the original CREATE TABLE text. Each foreign key
    that resolves to no parent column goes to warn."""
    tables = []
    try:
        master = conn.execute(
            "SELECT name, sql FROM sqlite_master "
            "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
    except sqlite3.Error as e:
        raise IntrospectionError(f"cannot read database {db_file}: {e}") from e
    try:
        for name, create_sql in master:
            cols = []
            info = conn.execute(f"PRAGMA table_info({quote_name(name)})")
            for _, cname, ctype, notnull, _, pk in info:
                cols.append(ColumnSchema(cname, ctype, pk > 0, bool(notnull)))
            fks = []
            for row in conn.execute(f"PRAGMA foreign_key_list({quote_name(name)})"):
                # (id, seq, ref_table, from_col, to_col, ...)
                ref_table, from_col, to_col = row[2], row[3], row[4]
                if to_col is None:
                    to_col = ""  # implicit reference to the parent PK
                fks.append((from_col, ref_table, to_col))
            tables.append(TableSchema(name, cols, fks, create_sql or ""))
    except sqlite3.Error as e:
        raise IntrospectionError(f"cannot introspect {db_file}: {e}") from e

    by_name = {t.name.lower(): t for t in tables}
    for t in tables:
        fixed = []
        for from_col, ref_table, to_col in t.foreign_keys:
            parent = by_name.get(ref_table.lower())
            if parent is None:
                warn(f"table {t.name}: foreign key {from_col} references "
                     f"missing table {ref_table}")
                fixed.append((from_col, ref_table, to_col))
                continue
            if not to_col:
                pk = parent.primary_key
                if len(pk) == 1:
                    to_col = pk[0]
                else:
                    warn(f"table {t.name}: foreign key {from_col} references "
                         f"{ref_table}, whose primary key is not one column")
            if to_col and to_col.lower() not in {c.name.lower() for c in parent.columns}:
                warn(f"table {t.name}: foreign key {from_col} references "
                     f"missing column {ref_table}.{to_col}")
            fixed.append((from_col, ref_table, to_col))
        t.foreign_keys = fixed
    return tables


def sample_rows(conn: sqlite3.Connection, table: str, x: int) -> RowSample:
    """First x rows of a table, read through conn in natural (rowid) order,
    typed values preserved."""
    if x < 1:
        raise ValueError("sample limit must be >= 1")
    try:
        cur = conn.execute(f"SELECT * FROM {quote_name(table)} LIMIT {int(x)}")
    except sqlite3.Error as e:
        raise IntrospectionError(f"cannot sample table {table!r}: {e}") from e
    header = [d[0] for d in cur.description]
    rows = [tuple(r) for r in cur.fetchall()]
    return RowSample(table=table, limit=x, header=header, rows=rows)
