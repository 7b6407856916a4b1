"""Schema-preserving database fuzzing for test-suite accuracy evaluation.

A test suite pairs the original database (variant 0) with k fuzzed variants
that keep tables, columns, types, primary-key uniqueness, and foreign-key
integrity, while regenerating row contents. The last fuzzed variant empties
every originally non-empty table to probe empty-input query semantics.

Suites are cached under <cache>/<db_id>/<seed>/k<k>-v<generator version>-<first
16 hex digits of the source file's sha256>. A suite is generated into a temporary
directory and renamed into place, so a reader never sees a half-written one,
and its manifest records a sha256 per variant that is checked on every reuse.
Variants are written with no journal and no fsync: a crash leaves at worst a
damaged file in a build directory that is never returned, or a variant whose
sha256 check fails on reuse and is regenerated.
A cold build writes its k variants through parallel.fork_map, from at most
one process per usable CPU. The variants do not depend on how many processes
write them: each draws from its own generator, seeded by (seed, variant
number), so a variant is a pure function of (source content, seed, k). A draw
is rng.random() or an index below n: n.bit_length() bits of rng.getrandbits,
drawn again while they reach n, a copy of CPython's rejection rule
(Random._randbelow). So variants depend on the Mersenne Twister stream and
that copy, not on random.choice. A k = 1 suite's one variant is the empty
one, so its build reads only which source tables have rows. Each writer
returns its variant's sha256, which goes into the manifest. A builder that
is killed leaves at most its build directory, never returned.
A variant is never written again once renamed into place, so eval opens it
immutable (execution.Connections): no lock and no change-counter read per
query. Editing one by hand during an eval is unsupported; the next reuse's
sha256 check catches the edit.
Eval keeps the suite's gold results beside the variants, in gold.marshal
(store.py).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import shutil
import sqlite3
import string
import uuid
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from warnings import warn as python_warn

from .parallel import fork_map
from .schema import TableSchema, connect_ro, introspect, quote_name

GENERATOR_VERSION = "1"
MAX_ROWS = 64


class SuiteError(Exception):
    pass


@dataclass
class TestSuite:
    __test__ = False  # keep pytest from collecting this dataclass

    db_id: str
    seed: int
    k: int
    variants: list[Path]  # variants[0] is the original database file
    source_sha256: str
    content_hash: str  # sha256 over the source and every variant file
    directory: Path  # the cache directory holding the variants


class _Unusable(Exception):
    """A cached suite that must not be reused; the message says why."""


def _topo_order(tables: list[TableSchema]) -> tuple[list[TableSchema], list[TableSchema]]:
    """Kahn topological sort over FK dependencies (parents first).

    Returns (ordered acyclic tables, tables stuck in FK cycles)."""
    by_name = {t.name.lower(): t for t in tables}
    deps = {
        t.name.lower(): {
            ref.lower()
            for _, ref, _ in t.foreign_keys
            if ref.lower() in by_name and ref.lower() != t.name.lower()
        }
        for t in tables
    }
    position = {name: i for i, name in enumerate(by_name)}
    ordered = []
    remaining = dict(deps)
    while remaining:
        ready = [name for name, d in remaining.items() if not (d & remaining.keys())]
        if not ready:
            break
        for name in sorted(ready, key=position.__getitem__):
            ordered.append(by_name[name])
            del remaining[name]
    cyclic = [by_name[name] for name in remaining]
    return ordered, cyclic


def _value_kind(declared_type: str) -> str:
    """What a column of declared_type is given when a fresh value is drawn:
    "int", "real" or "text"."""
    t = (declared_type or "").upper()
    if "INT" in t:
        return "int"
    if any(k in t for k in ("REAL", "FLOA", "DOUB", "DEC", "NUM")):
        return "real"
    return "text"


def _below(rng: random.Random, n: int) -> int:
    """rng._randbelow(n), so seq[_below(rng, len(seq))] is rng.choice(seq):
    n.bit_length() bits from getrandbits, drawn again while they reach n."""
    bits = n.bit_length()
    i = rng.getrandbits(bits)
    while i >= n:
        i = rng.getrandbits(bits)
    return i


def _fresh_value(rng: random.Random, kind: str):
    if kind == "int":
        return _below(rng, 100001)  # rng.randint(0, 100000)
    if kind == "real":
        return round(rng.random() * 10000, 3)  # rng.uniform(0, 10000)
    text = ""
    while len(text) < 6:  # six of rng.choice(string.ascii_lowercase)
        i = rng.getrandbits(5)
        if i < 26:
            text += string.ascii_lowercase[i]
    return text


def _mutate_value(rng: random.Random, value, kind: str):
    if value is None:
        return _fresh_value(rng, kind)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + (-1, 1)[_below(rng, 2)]
    if isinstance(value, str):
        choice = _below(rng, 3)
        if choice == 0:
            return ""
        if choice == 1 and value:
            return value.swapcase()
        return value + string.ascii_lowercase[_below(rng, 26)]
    return value


def _column_pools(conn: sqlite3.Connection, table: TableSchema) -> tuple[list[tuple], list[list]]:
    """The rows of table and, per column, its distinct values in first-seen
    order. Values equal under == (1, 1.0 and True) count once, as the first
    one seen."""
    rows = [tuple(r) for r in conn.execute(f"SELECT * FROM {quote_name(table.name)}")]
    return rows, [list(dict.fromkeys(r[j] for r in rows)) for j in range(len(table.columns))]


def _key_pools(table: TableSchema, rows: list[tuple], referenced: set[str]) -> dict[str, list]:
    """The values each column of table that a foreign key references (its
    lower-case name in referenced) offers to those foreign keys."""
    return {c.name.lower(): [v for v in dict.fromkeys(r[j] for r in rows) if v is not None]
            for j, c in enumerate(table.columns) if c.name.lower() in referenced}


def _generate_table_rows(
    rng: random.Random,
    table: TableSchema,
    orig_rows: list[tuple],
    pools: list[list],
    parent_keys: dict[str, dict[str, list]],
    empty: bool,
) -> list[tuple]:
    n_orig = len(orig_rows)
    if empty or n_orig == 0:
        return []
    lo = max(1, n_orig // 2)
    hi = min(2 * n_orig, MAX_ROWS)
    n_new = lo + _below(rng, max(lo, hi) - lo + 1)  # rng.randint(lo, max(lo, hi))
    getrandbits, random_ = rng.getrandbits, rng.random

    def draw(plan) -> tuple:
        row = []
        for values, n, bits, kind, required in plan:
            r = random_() if kind else 0.0  # an FK column (no kind) draws only its index
            if r >= 0.8 or not n:
                row.append(_fresh_value(rng, kind))
                continue
            i = getrandbits(bits)  # inline _below(rng, n): values[i] is rng.choice(values)
            while i >= n:
                i = getrandbits(bits)
            v = values[i]
            if r >= 0.6:
                v = _mutate_value(rng, v, kind)
            elif v is None and required:
                v = _fresh_value(rng, kind)
            row.append(v)
        return tuple(row)

    # one plan per table, resolved before any row: per column, its pool (a
    # column that is no FK) or its FK candidates, their length and bit length,
    # its value kind (None for an FK), and whether it needs a non-NULL value
    fk_by_col = {fc.lower(): (rt.lower(), rc.lower()) for fc, rt, rc in table.foreign_keys}
    plan = []
    for col, pool in zip(table.columns, pools):
        fk = fk_by_col.get(col.name.lower())
        values = pool if fk is None else parent_keys.get(fk[0], {}).get(fk[1], [])
        if fk is not None and not values:
            # the first row draws up to this column before the table is given up
            draw(plan)
            return []
        kind = _value_kind(col.declared_type) if fk is None else None
        plan.append((values, len(values), len(values).bit_length(), kind,
                     col.not_null or col.is_primary_key))

    pk_cols = [i for i, c in enumerate(table.columns) if c.is_primary_key]
    rows = []
    seen_pk = set()
    for _ in range(n_new):
        for attempt in range(200):
            row = draw(plan)
            if pk_cols:
                key = tuple(row[i] for i in pk_cols)
                if key in seen_pk:
                    continue
                seen_pk.add(key)
            rows.append(row)
            break
        else:
            # PK exhaustion under a small candidate space: stop adding rows
            break
    return rows


def _generate_variant(
    tables: list[TableSchema],
    orig_data: dict[str, tuple[list[tuple], list[list]]],
    rng: random.Random,
    out_file: Path,
    empty: bool,
) -> None:
    ordered, cyclic = _topo_order(tables)
    generated: dict[str, list[tuple]] = {}
    parent_keys: dict[str, dict[str, list]] = {}  # only tables a foreign key references
    referenced: dict[str, set[str]] = {}  # per table, the columns foreign keys reference
    for t in tables:
        for _, rt, rc in t.foreign_keys:
            referenced.setdefault(rt.lower(), set()).add(rc.lower())

    def register(table: TableSchema, rows: list[tuple]):
        name = table.name.lower()
        generated[name] = rows
        if name in referenced:
            parent_keys[name] = _key_pools(table, rows, referenced[name])

    for table in ordered:
        orig_rows, pools = orig_data[table.name.lower()]
        rows = _generate_table_rows(rng, table, orig_rows, pools, parent_keys, empty)
        register(table, rows)

    if cyclic:
        # two-pass fill: generate rows ignoring FKs, then rewrite FK cells
        for table in cyclic:
            orig_rows, pools = orig_data[table.name.lower()]
            plain = TableSchema(table.name, table.columns, [], table.create_sql)
            rows = _generate_table_rows(rng, plain, orig_rows, pools, {}, empty)
            register(table, rows)
        for table in cyclic:
            fk_by_col = {fc.lower(): (rt, rc) for fc, rt, rc in table.foreign_keys}
            cols = [c.name.lower() for c in table.columns]
            pk_cols = [i for i, c in enumerate(table.columns) if c.is_primary_key]
            new_rows = []
            seen_pk = set()
            for row in generated[table.name.lower()]:
                row = list(row)
                ok = True
                for j, cname in enumerate(cols):
                    if cname in fk_by_col:
                        rt, rc = fk_by_col[cname]
                        candidates = parent_keys.get(rt.lower(), {}).get(rc.lower(), [])
                        if not candidates:
                            ok = False
                            break
                        row[j] = candidates[_below(rng, len(candidates))]
                if not ok:
                    continue
                if pk_cols:
                    key = tuple(row[i] for i in pk_cols)
                    if key in seen_pk:
                        continue
                    seen_pk.add(key)
                new_rows.append(tuple(row))
            register(table, new_rows)
        # FK targets may themselves have changed; one verification pass
        for table in cyclic:
            for from_col, rt, rc in table.foreign_keys:
                j = [c.name.lower() for c in table.columns].index(from_col.lower())
                valid = set(parent_keys.get(rt.lower(), {}).get(rc.lower(), []))
                for row in generated[table.name.lower()]:
                    if row[j] is not None and row[j] not in valid:
                        raise SuiteError(
                            f"cannot satisfy cyclic foreign keys for table {table.name}"
                        )

    # no journal and no fsync: out_file lives in the private build directory
    # until _install renames it, and every reuse checks its sha256, so a crash
    # mid-write costs a rebuild, never a damaged suite
    conn = sqlite3.connect(out_file, isolation_level=None)
    try:
        conn.execute("PRAGMA journal_mode = OFF")
        conn.execute("PRAGMA synchronous = OFF")
        conn.execute("BEGIN")
        for table in tables:
            conn.execute(table.create_sql)
        for table in tables:
            rows = generated[table.name.lower()]
            if rows:
                marks = ",".join("?" * len(table.columns))
                conn.executemany(f"INSERT INTO {quote_name(table.name)} VALUES ({marks})", rows)
        conn.execute("COMMIT")
    finally:
        conn.close()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):  # memory flat in file size
            h.update(chunk)
    return h.hexdigest()


def _fresh_dir(parent: Path, prefix: str) -> Path:
    """A new empty directory in parent. Made by mkdir, so it gets the umask's
    permissions like any other directory (tempfile.mkdtemp would force 0700)."""
    path = parent / f"{prefix}{os.getpid()}-{uuid.uuid4().hex}"
    path.mkdir()
    return path


def _cached_hashes(suite_dir: Path, header: dict) -> list[str]:
    """The variant sha256s of the suite in suite_dir, after checking every file
    against them. Raises _Unusable when the suite must be regenerated."""
    try:
        manifest = json.loads((suite_dir / "manifest.json").read_text())
    except FileNotFoundError:
        raise _Unusable("has no manifest") from None
    except (json.JSONDecodeError, UnicodeDecodeError, OSError):
        raise _Unusable("has a corrupt manifest") from None
    names = [f"variant_{i}.db" for i in range(1, header["k"] + 1)]
    hashes = manifest.get("variant_sha256") if isinstance(manifest, dict) else None
    if (not isinstance(hashes, dict) or set(hashes) != set(names)
            or any(manifest.get(key) != value for key, value in header.items())):
        raise _Unusable("has a stale manifest")
    for name in names:
        try:
            ok = _sha256(suite_dir / name) == hashes[name]
        except OSError:
            ok = False
        if not ok:
            raise _Unusable(f"has a {name} that does not match its sha256")
    return [hashes[name] for name in names]


def _report_empty_tables(tables: list[TableSchema], orig_data: dict, empty_table) -> None:
    """Tell empty_table about each table that its foreign keys leave empty in
    every variant, beyond the dangling ones introspect reported: one that
    references its own table outside an FK cycle, and one that references a
    table empty in every variant. A table with no source rows is empty by
    design and not reported, but its children are."""
    by_name = {t.name.lower(): t for t in tables}
    ordered, cyclic = _topo_order(tables)
    empty = {name for name, (rows, _) in orig_data.items() if not rows}
    for t in tables:
        for _, ref_table, ref_col in t.foreign_keys:
            parent = by_name.get(ref_table.lower())
            if parent is None or ref_col.lower() not in {c.name.lower() for c in parent.columns}:
                empty.add(t.name.lower())
    for t in ordered:
        for from_col, ref_table, _ in t.foreign_keys:
            if ref_table.lower() == t.name.lower():
                empty_table(f"table {t.name}: foreign key {from_col} references its own table")
                empty.add(t.name.lower())
    # emptiness passes from parent to child; the acyclic tables come parents
    # first, and the loop repeats for the tables in or below an FK cycle
    changed = True
    while changed:
        changed = False
        for t in ordered + cyclic:
            if t.name.lower() in empty:
                continue
            for from_col, ref_table, _ in t.foreign_keys:
                if ref_table.lower() in empty:
                    empty_table(f"table {t.name}: foreign key {from_col} references "
                                f"{ref_table}, which is empty in every variant")
                    empty.add(t.name.lower())
                    changed = True
                    break


def _write_variant(tables: list[TableSchema], orig_data: dict, header: dict, out_dir: Path,
                   i: int) -> str:
    """Write variant i into out_dir, in place of any file a process that died
    left there, and return its sha256. A variant that fails in a forked
    process is written again by parallel.fork_map in the calling process,
    which raises its error there as map would. SQLite refusing the drawn
    rows, say a UNIQUE column they repeat, raises SuiteError."""
    rng = random.Random(f"{header['seed']}:{i}")  # each variant draws from its own generator
    out_file = out_dir / f"variant_{i}.db"
    out_file.unlink(missing_ok=True)
    try:
        _generate_variant(tables, orig_data, rng, out_file, i == header["k"])  # last one: empty
    except sqlite3.Error as e:
        raise SuiteError(f"suite {header['db_id']}: cannot write {out_file.name}: {e}") from e
    return _sha256(out_file)


def _generate_suite(db_file: Path, conn: sqlite3.Connection, header: dict, out_dir: Path,
                    warn) -> list[str]:
    """Write the k variants of db_file, read through conn, and the manifest
    into out_dir; return the variant sha256s. A foreign key that finds no
    parent keys in any variant leaves its table with no rows; each such table
    goes to warn."""

    def empty_table(message):
        warn(f"suite {header['db_id']}: {message}; the table is empty in every variant")

    tables = introspect(db_file, conn, empty_table)
    if header["k"] > 1:
        orig_data = {t.name.lower(): _column_pools(conn, t) for t in tables}
    else:  # the one variant is the empty one: it needs only which tables have rows
        orig_data = {t.name.lower(): (conn.execute(
            f"SELECT 1 FROM {quote_name(t.name)} LIMIT 1").fetchall(), []) for t in tables}
    _report_empty_tables(tables, orig_data, empty_table)

    # raises the lowest failing variant's error, as one process meets it first
    written = fork_map(lambda i: _write_variant(tables, orig_data, header, out_dir, i),
                       range(1, header["k"] + 1))
    hashes = {f"variant_{i}.db": sha for i, sha in enumerate(written, 1)}
    (out_dir / "manifest.json").write_text(json.dumps({**header, "variant_sha256": hashes}))
    return written


def _install(built: Path, suite_dir: Path, header: dict) -> None:
    """Rename the built suite directory to suite_dir. A valid suite another
    process placed there first is kept. An invalid one is moved aside and
    deleted, never rewritten where a reader may be using it; if it turns out
    valid once moved aside (another process installed it after our check), it
    is put back instead, so a valid suite is never deleted."""
    candidate = built
    asides = []
    try:
        for _ in range(3):
            try:
                os.replace(candidate, suite_dir)
                return
            except OSError as e:
                if e.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                    raise
            try:
                _cached_hashes(suite_dir, header)
                return
            except _Unusable:
                pass
            aside = _fresh_dir(suite_dir.parent, ".trash-")
            asides.append(aside)
            try:
                os.replace(suite_dir, aside)
            except FileNotFoundError:
                continue  # another process moved it first
            try:
                _cached_hashes(aside, header)
                candidate = aside
            except _Unusable:
                pass
        raise SuiteError(f"could not install the suite at {suite_dir}")
    finally:
        for aside in asides:  # an installed one no longer exists here
            shutil.rmtree(aside, ignore_errors=True)


def build_test_suite(db_file, k: int, seed: int, cache_dir, warn=python_warn,
                     db_id: str | None = None) -> TestSuite:
    """Create (or reuse) k fuzzed variants of db_file under cache_dir.

    Generation is a pure function of (original database content, seed, k). A
    cached suite is reused only when its manifest matches and every variant
    matches its recorded sha256; otherwise it is regenerated and warn is told.
    A missing or non-SQLite db_file raises IntrospectionError. warn defaults
    to warnings.warn, for scripts that call this directly.
    """
    if k < 1:
        raise ValueError("suite size k must be >= 1")
    db_file = Path(db_file)
    if db_id is None:
        db_id = db_file.stem
    try:
        source = _sha256(db_file)
    except OSError:  # connect_ro raises what every stage reports for such a file
        connect_ro(db_file).close()
        raise
    header = {"db_id": db_id, "seed": seed, "k": k,
              "generator_version": GENERATOR_VERSION, "source_sha256": source}
    suite_dir = (Path(cache_dir) / db_id / str(seed)
                 / f"k{k}-v{GENERATOR_VERSION}-{source[:16]}")
    hashes = None
    if suite_dir.exists():  # a reuse only hashes files: it opens no connection
        try:
            hashes = _cached_hashes(suite_dir, header)
        except _Unusable as e:
            warn(f"suite {db_id}/{seed}/{suite_dir.name} {e}; regenerating")
    if hashes is None:
        suite_dir.parent.mkdir(parents=True, exist_ok=True)
        # a dot-prefixed sibling: never a suite directory name, so a build
        # killed before the rename leaves nothing a later call returns
        built = _fresh_dir(suite_dir.parent, ".build-")
        try:
            with closing(connect_ro(db_file)) as conn:
                hashes = _generate_suite(db_file, conn, header, built, warn)
            _install(built, suite_dir, header)
        finally:
            shutil.rmtree(built, ignore_errors=True)
    variants = [db_file] + [suite_dir / f"variant_{i}.db" for i in range(1, k + 1)]
    content_hash = hashlib.sha256("\n".join([source, *hashes]).encode()).hexdigest()
    return TestSuite(db_id=db_id, seed=seed, k=k, variants=variants, source_sha256=source,
                     content_hash=content_hash, directory=suite_dir)
