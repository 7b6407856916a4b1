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
A cold build writes its variants from one process per usable CPU, at most
k: the caller writes one fixed share and forked children the others. It
stays in one process where there is one usable CPU, where the platform cannot
fork, or where another thread runs. No option sets this, and the variants do
not depend on it: each draws from its own generator, seeded by (seed, variant
number), so a variant is a pure function of (source content, seed, k). A
builder that is killed leaves at most its build directory, never returned.
run_shares is the program's one use of os.fork, for the suite build and for
eval's database groups (evaluate.evaluate_benchmark): a child is a plain fork
that sends back only the marshalled result of its share, and the caller runs
again any share whose child did not exit 0 or sent no result it can load.
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
import marshal
import os
import random
import shutil
import signal
import sqlite3
import string
import threading
import uuid
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from warnings import warn as python_warn

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


def _fresh_value(rng: random.Random, kind: str):
    if kind == "int":
        return rng.randint(0, 100000)
    if kind == "real":
        return round(rng.uniform(0, 10000), 3)
    choice = rng.choice
    return "".join([choice(string.ascii_lowercase) for _ in range(6)])


def _mutate_value(rng: random.Random, value, kind: str):
    if value is None:
        return _fresh_value(rng, kind)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + rng.choice((-1, 1))
    if isinstance(value, float):
        return value + rng.choice((-1.0, 1.0))
    if isinstance(value, str):
        choice = rng.randrange(3)
        if choice == 0:
            return ""
        if choice == 1 and value:
            return value.swapcase()
        return value + rng.choice(string.ascii_lowercase)
    return value


def _distinct_columns(rows: list[tuple], width: int) -> list[list]:
    """Per column, its distinct values in first-seen order. Values equal under
    == (1, 1.0 and True) count once, as the first one seen."""
    return [list(dict.fromkeys(r[j] for r in rows)) for j in range(width)]


def _column_pools(conn: sqlite3.Connection, table: TableSchema) -> tuple[list[tuple], list[list]]:
    rows = [tuple(r) for r in conn.execute(f"SELECT * FROM {quote_name(table.name)}")]
    return rows, _distinct_columns(rows, len(table.columns))


def _key_pools(table: TableSchema, rows: list[tuple]) -> dict[str, list]:
    """The values each column of table offers to foreign keys that reference it."""
    return {
        c.name.lower(): [v for v in values if v is not None]
        for c, values in zip(table.columns, _distinct_columns(rows, len(table.columns)))
    }


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
    n_new = rng.randint(lo, max(lo, hi))
    choice, random_ = rng.choice, rng.random

    def draw(plan) -> tuple:
        row = []
        for candidates, pool, kind, required in plan:
            if candidates is not None:
                row.append(choice(candidates))
                continue
            r = random_()
            if pool and r < 0.6:
                v = choice(pool)
            elif pool and r < 0.8:
                v = _mutate_value(rng, choice(pool), kind)
            else:
                v = _fresh_value(rng, kind)
            if v is None and required:
                v = _fresh_value(rng, kind)
            row.append(v)
        return tuple(row)

    # one plan per table, resolved before any row: per column, its FK
    # candidates (None for a column that is no FK), its pool, its value kind,
    # and whether it needs a non-NULL value
    fk_by_col = {fc.lower(): (rt.lower(), rc.lower()) for fc, rt, rc in table.foreign_keys}
    plan = []
    for col, pool in zip(table.columns, pools):
        fk = fk_by_col.get(col.name.lower())
        if fk is None:
            plan.append((None, pool, _value_kind(col.declared_type),
                         col.not_null or col.is_primary_key))
            continue
        candidates = parent_keys.get(fk[0], {}).get(fk[1], [])
        if not candidates:
            # the first row draws up to this column before the table is given up
            draw(plan)
            return []
        plan.append((candidates, None, None, False))

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
    referenced = {rt.lower() for t in tables for _, rt, _ in t.foreign_keys}

    def register(table: TableSchema, rows: list[tuple]):
        generated[table.name.lower()] = rows
        if table.name.lower() in referenced:
            parent_keys[table.name.lower()] = _key_pools(table, rows)

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
                        row[j] = rng.choice(candidates)
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


def _write_share(tables: list[TableSchema], orig_data: dict, header: dict, out_dir: Path,
                 share: range) -> tuple[int, Exception] | None:
    """Write the variants numbered in share into out_dir, in order, each in
    place of any file a process that died left there. Returns the number and
    exception of the first variant that fails, which ends the share, or None
    when every one is written."""
    seed, k = header["seed"], header["k"]
    for i in share:
        rng = random.Random(f"{seed}:{i}")  # each variant draws from its own generator
        out_file = out_dir / f"variant_{i}.db"
        try:
            out_file.unlink(missing_ok=True)
            _generate_variant(tables, orig_data, rng, out_file, i == k)  # last one: empty
        except Exception as e:  # raised by _write_variants
            return i, e
    return None


def _processes(k: int) -> int:
    """How many processes share k parts of work: one per usable CPU, at most
    k. One where this platform cannot fork, or where another thread runs: a
    thread holding a lock at the fork would leave it held in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, k)


def strided_shares(items):
    """items split into one fixed strided share per process (_processes):
    share j is items[j::n]. Never fewer than one share."""
    n = max(_processes(len(items)), 1)
    return [items[j::n] for j in range(n)]


def run_shares(shares: list, work) -> list:
    """work(share) for each of shares, in their order: the first share in the
    calling process, each other in a forked child. A child sends the
    marshal.dumps of its result through a pipe and leaves only by os._exit,
    so it never runs a caller's cleanup: with code 0 once its result is sent,
    else with 1, also when its result cannot be marshalled. The caller reads
    each child's pipe to its end, then waits for the child, and itself runs
    again every share whose child did not exit 0 or sent bytes that do not
    load, and every share it could not fork for. So a result is the one this
    process would get, and whatever work raises is raised here. An
    interrupted caller (any BaseException) SIGKILLs and reaps every child it
    has not waited for, then re-raises."""
    own, children = [0], []  # numbers of the shares run here; (pid, pipe, number)
    results = [None] * len(shares)
    try:
        for j in range(1, len(shares)):
            try:
                read_end, write_end = os.pipe()
            except OSError:  # no file descriptor to be had: this one runs the share
                own.append(j)
                continue
            try:
                pid = os.fork()
            except OSError:  # no process to be had: this one runs the share
                os.close(read_end)
                os.close(write_end)
                own.append(j)
                continue
            if pid == 0:
                try:
                    data = marshal.dumps(work(shares[j]))
                    with open(write_end, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            # closed here at once: a write end left open in this process, or
            # inherited by a later child, keeps its pipe from ever ending
            os.close(write_end)
            children.append((pid, open(read_end, "rb"), j))
        for j in own:
            results[j] = work(shares[j])
        while children:
            pid, pipe, j = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status == 0:
                try:
                    results[j] = marshal.loads(data)
                    continue
                except (EOFError, ValueError, TypeError):
                    pass
            results[j] = work(shares[j])  # it failed or died somewhere in its share
    except BaseException:
        # SIGKILL: a child may have inherited an ignored SIGTERM
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return results


def _write_variants(tables: list[TableSchema], orig_data: dict, header: dict,
                    out_dir: Path) -> None:
    """Write variants 1..k into out_dir, in fixed strided shares, one per
    process (run_shares). A share's result is the number and exception of its
    first failing variant, which no child can marshal, so the caller writes
    any failing share again itself. Whatever is raised here is therefore
    raised in the calling process: the exception of the lowest failing
    variant, the one a single process would raise first."""
    shares = strided_shares(range(1, header["k"] + 1))
    failures = [failure for failure in run_shares(
        shares, lambda share: _write_share(tables, orig_data, header, out_dir, share))
        if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _generate_suite(db_file: Path, conn: sqlite3.Connection, header: dict, out_dir: Path,
                    warn) -> list[str]:
    """Write the k variants of db_file, read through conn, and the manifest
    into out_dir; return the variant sha256s. A foreign key that finds no
    parent keys in any variant leaves its table with no rows; each such table
    goes to warn."""

    def empty_table(message):
        warn(f"suite {header['db_id']}: {message}; the table is empty in every variant")

    tables = introspect(db_file, conn, empty_table)
    orig_data = {t.name.lower(): _column_pools(conn, t) for t in tables}
    _report_empty_tables(tables, orig_data, empty_table)

    _write_variants(tables, orig_data, header, out_dir)
    names = [f"variant_{i}.db" for i in range(1, header["k"] + 1)]
    hashes = {name: _sha256(out_dir / name) for name in names}
    (out_dir / "manifest.json").write_text(json.dumps({**header, "variant_sha256": hashes}))
    return list(hashes.values())


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
    with closing(connect_ro(db_file)) as conn:
        source = _sha256(db_file)
        header = {"db_id": db_id, "seed": seed, "k": k,
                  "generator_version": GENERATOR_VERSION, "source_sha256": source}
        suite_dir = (Path(cache_dir) / db_id / str(seed)
                     / f"k{k}-v{GENERATOR_VERSION}-{source[:16]}")
        hashes = None
        if suite_dir.exists():
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
                hashes = _generate_suite(db_file, conn, header, built, warn)
                _install(built, suite_dir, header)
            finally:
                shutil.rmtree(built, ignore_errors=True)
    variants = [db_file] + [suite_dir / f"variant_{i}.db" for i in range(1, k + 1)]
    content_hash = hashlib.sha256("\n".join([source, *hashes]).encode()).hexdigest()
    return TestSuite(db_id=db_id, seed=seed, k=k, variants=variants, source_sha256=source,
                     content_hash=content_hash, directory=suite_dir)
