import errno
import hashlib
import json
import os
import random
import signal
import sqlite3
import string
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sqlbench import fuzz, parallel
from sqlbench.fuzz import (MAX_ROWS, TestSuite, _column_pools, _generate_table_rows, _key_pools,
                           build_test_suite)
from sqlbench.schema import ColumnSchema, TableSchema

from conftest import (CHILD_ENV, ONE_CPU, interrupt_when, live_thread, make_network1_db,
                      needs_fork, read_schema, run_python, running)
from pinned_suite import PINNED, make_pinned_db, pinned_suite_hashes


def all_rows(db_file, table):
    conn = sqlite3.connect(f"file:{db_file}?mode=ro", uri=True)
    try:
        return [tuple(r) for r in conn.execute(f'SELECT * FROM "{table}"')]
    finally:
        conn.close()


def check_integrity(db_file):
    """PK uniqueness and FK referential integrity on one variant."""
    schema = read_schema(db_file)
    tables = {t.name.lower(): t for t in schema}
    for t in schema:
        rows = all_rows(db_file, t.name)
        pk = t.primary_key
        if pk:
            idx = [t.column_names.index(c) for c in pk]
            keys = [tuple(r[i] for i in idx) for r in rows]
            assert len(keys) == len(set(keys)), f"duplicate PK in {t.name}"
        for from_col, ref_table, ref_col in t.foreign_keys:
            j = [c.lower() for c in t.column_names].index(from_col.lower())
            parent = tables[ref_table.lower()]
            pj = [c.lower() for c in parent.column_names].index(ref_col.lower())
            parent_vals = {r[pj] for r in all_rows(db_file, ref_table)}
            for r in rows:
                if r[j] is not None:
                    assert r[j] in parent_vals, \
                        f"dangling FK {t.name}.{from_col} -> {ref_table}.{ref_col}"


def make_item_db(path, n_rows, seed=0):
    """One table of n_rows rows: an integer key, a short text code, an
    integer and a real column."""
    rng = random.Random(seed)
    conn = sqlite3.connect(path)
    try:
        conn.execute("CREATE TABLE item (id INTEGER PRIMARY KEY, code TEXT NOT NULL, "
                     "qty INTEGER, price REAL)")
        conn.executemany("INSERT INTO item VALUES (?, ?, ?, ?)", [
            (i, "".join(rng.choice("abcdef") for _ in range(4)), rng.randrange(500),
             round(rng.uniform(1, 100), 2))
            for i in range(1, n_rows + 1)])
        conn.commit()
    finally:
        conn.close()
    return path


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# suite_files for a child interpreter: the sha256 of every file of a suite, by name
SUITE_FILES = (
    "def suite_files(suite):\n"
    "    import hashlib\n"
    "    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()\n"
    "            for p in sorted(suite.directory.iterdir())}\n")


def suite_files(suite):
    return {p.name: sha256(p) for p in sorted(suite.directory.iterdir())}


def reference_distinct(rows, width, skip_none=False):
    """The first-seen dedupe by list scan that the generator used to run."""
    pools = []
    for j in range(width):
        seen = []
        for r in rows:
            if (r[j] is not None or not skip_none) and r[j] not in seen:
                seen.append(r[j])
        pools.append(seen)
    return pools


def reference_fresh_value(rng, declared_type):
    t = (declared_type or "").upper()
    if "INT" in t:
        return rng.randint(0, 100000)
    if any(k in t for k in ("REAL", "FLOA", "DOUB", "DEC", "NUM")):
        return round(rng.uniform(0, 10000), 3)
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(6))


def reference_mutate_value(rng, value, declared_type):
    if value is None:
        return reference_fresh_value(rng, declared_type)
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


def reference_generate_table_rows(rng, table, orig_rows, pools, parent_keys, empty):
    """The generator as it was before it planned each table once: every draw
    a variant's bytes depend on, in its order."""
    n_orig = len(orig_rows)
    if empty or n_orig == 0:
        return []
    lo = max(1, n_orig // 2)
    hi = min(2 * n_orig, MAX_ROWS)
    n_new = rng.randint(lo, max(lo, hi))

    fk_by_col = {}
    for from_col, ref_table, ref_col in table.foreign_keys:
        fk_by_col[from_col.lower()] = (ref_table, ref_col)

    pk_cols = [i for i, c in enumerate(table.columns) if c.is_primary_key]
    rows = []
    seen_pk = set()
    for _ in range(n_new):
        for attempt in range(200):
            row = []
            feasible = True
            for j, col in enumerate(table.columns):
                fk = fk_by_col.get(col.name.lower())
                if fk is not None:
                    ref_table, ref_col = fk
                    candidates = parent_keys.get(ref_table.lower(), {}).get(ref_col.lower(), [])
                    if not candidates:
                        feasible = False
                        break
                    row.append(rng.choice(candidates))
                    continue
                pool = pools[j]
                r = rng.random()
                if pool and r < 0.6:
                    v = rng.choice(pool)
                elif pool and r < 0.8:
                    v = reference_mutate_value(rng, rng.choice(pool), col.declared_type)
                else:
                    v = reference_fresh_value(rng, col.declared_type)
                if v is None and (col.not_null or col.is_primary_key):
                    v = reference_fresh_value(rng, col.declared_type)
                row.append(v)
            if not feasible:
                break
            if pk_cols:
                key = tuple(row[i] for i in pk_cols)
                if key in seen_pk:
                    continue
                seen_pk.add(key)
            rows.append(tuple(row))
            break
        else:
            # PK exhaustion under a small candidate space: stop adding rows
            break
        if not feasible:
            break
    return rows


def typed(values):
    # repr tells 1, 1.0 and True apart, and 0.0 from -0.0, where == does not
    return [repr(v) for v in values]


MIXED = st.one_of(
    st.sampled_from([1, 1.0, True, 0, -0.0, 0.0, False, "", b"", None]),
    st.integers(-3, 3), st.floats(-2, 2, allow_nan=False).map(lambda x: round(x, 1)),
    st.text("aAb", max_size=2), st.binary(max_size=2),
)
TABLES = st.integers(1, 3).flatmap(
    lambda width: st.lists(st.tuples(*[MIXED] * width), max_size=25)
    .map(lambda rows: (width, rows)))


def table_of(width):
    cols = [ColumnSchema(f"c{j}", "", False, False) for j in range(width)]
    create = "CREATE TABLE t (" + ", ".join(c.name for c in cols) + ")"
    return TableSchema("t", cols, [], create)


class TestDedupe:
    @settings(max_examples=300, deadline=None)
    @given(TABLES)
    def test_key_pools_match_list_scan(self, table):
        width, rows = table
        got = _key_pools(table_of(width), rows)
        want = reference_distinct(rows, width, skip_none=True)
        assert [typed(v) for v in got.values()] == [typed(v) for v in want]
        assert list(got) == [f"c{j}" for j in range(width)]

    @settings(max_examples=150, deadline=None)
    @given(TABLES)
    def test_column_pools_match_list_scan(self, table):
        width, rows = table
        schema = table_of(width)
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute(schema.create_sql)
            conn.executemany(f"INSERT INTO t VALUES ({','.join('?' * width)})", rows)
            stored, pools = _column_pools(conn, schema)
        finally:
            conn.close()
        assert len(stored) == len(rows)
        assert [typed(p) for p in pools] == [typed(p) for p in reference_distinct(stored, width)]


CELL = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                 st.floats(-2, 2, allow_nan=False), st.text("aB", max_size=3),
                 st.binary(max_size=2))


@st.composite
def generator_inputs(draw):
    """A table for _generate_table_rows: columns of each declared type kind,
    NOT NULL or not, no, a single or a composite PK, pools that hold None, and
    FK columns anywhere whose parent keys are there, empty or missing."""
    width = draw(st.integers(1, 5))
    pk_size = draw(st.sampled_from([0, 1, width]))
    pk_cols = set(draw(st.permutations(range(width)))[:pk_size])
    columns, fks, parent_keys = [], [], {}
    for j in range(width):
        columns.append(ColumnSchema(f"c{j}", draw(st.sampled_from(["INT", "REAL", "TEXT", ""])),
                                    j in pk_cols, draw(st.booleans())))
        if draw(st.integers(0, 2)) == 0:
            # names as SQLite reports them; the parent keys are kept lower case
            fks.append((f"C{j}", f"P{j}", "ID"))
            parent = draw(st.sampled_from(["keys", "empty", "missing table", "missing column"]))
            if parent == "keys":
                parent_keys[f"p{j}"] = {"id": draw(st.lists(CELL.filter(
                    lambda v: v is not None), min_size=1, max_size=4))}
            elif parent != "missing table":
                parent_keys[f"p{j}"] = {"id" if parent == "empty" else "other": []}
    pools = [draw(st.lists(CELL, max_size=5)) for _ in range(width)]
    n_orig = draw(st.integers(0, MAX_ROWS + 6))
    return TableSchema("t", columns, fks, ""), [()] * n_orig, pools, parent_keys


class TestGenerator:
    @settings(max_examples=400, deadline=None)
    @given(generator_inputs(), st.sampled_from([False, False, False, True]),
           st.integers(0, 2 ** 32))
    # a PK whose only values are two parent keys: every row after the second
    # spends all its attempts
    @example((TableSchema("t", [ColumnSchema("c0", "INT", True, False)], [("c0", "p", "id")], ""),
              [()] * 10, [[]], {"p": {"id": [1, 2]}}), False, 0)
    def test_rows_and_draws_match_reference(self, inputs, empty, seed):
        table, orig_rows, pools, parent_keys = inputs
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = reference_generate_table_rows(want_rng, table, orig_rows, pools, parent_keys,
                                             empty)
        got = _generate_table_rows(got_rng, table, orig_rows, pools, parent_keys, empty)
        assert [typed(r) for r in got] == [typed(r) for r in want]
        assert got_rng.getstate() == want_rng.getstate()

    def test_suite_contents_pinned(self, tmp_path):
        # the reference generator's suite; only a GENERATOR_VERSION bump may re-pin
        logs = []
        assert pinned_suite_hashes(tmp_path, warn=logs.append) == PINNED
        assert logs == [
            "suite pinned: table orphan: foreign key ghost_id references missing table ghost; "
            "the table is empty in every variant",
            "suite pinned: table emp: foreign key boss references its own table; "
            "the table is empty in every variant",
            "suite pinned: table task: foreign key owner references emp, which is empty in "
            "every variant; the table is empty in every variant",
        ]

    def test_emptiness_passes_down_foreign_keys(self, tmp_path):
        db = tmp_path / "chain.sqlite"
        with closing(sqlite3.connect(db)) as conn:
            conn.executescript("""
                CREATE TABLE parent (id int primary key);
                CREATE TABLE child (id int primary key, p int REFERENCES parent(id));
                CREATE TABLE grandchild (id int primary key, c int REFERENCES child(id));
                CREATE TABLE bystander (id int primary key, c int REFERENCES child(id));
                INSERT INTO child VALUES (1, 1), (2, 2);
                INSERT INTO grandchild VALUES (1, 1), (2, 2);
            """)
        logs = []
        suite = build_test_suite(db, 3, seed=1, cache_dir=tmp_path / "cache", warn=logs.append)
        # parent has no source rows and bystander none either: neither is reported
        assert logs == [
            f"suite chain: table {t}: foreign key {c} references {p}, which is empty in every "
            "variant; the table is empty in every variant"
            for t, c, p in [("child", "p", "parent"), ("grandchild", "c", "child")]]
        for variant in suite.variants[1:]:
            assert all_rows(variant, "child") == all_rows(variant, "grandchild") == []


class TestSuiteCache:
    def test_schema_change_regenerates(self, tmp_path):
        db = tmp_path / "net.sqlite"
        make_network1_db(db)
        old = build_test_suite(db, 2, seed=1, cache_dir=tmp_path / "cache")
        conn = sqlite3.connect(db)
        conn.execute("ALTER TABLE Highschooler ADD COLUMN nickname text")
        conn.execute("CREATE TABLE Club (id int primary key, name text)")
        conn.commit()
        conn.close()
        new = build_test_suite(db, 2, seed=1, cache_dir=tmp_path / "cache")
        for variant in new.variants[1:]:
            tables = {t.name: t for t in read_schema(variant)}
            assert "Club" in tables
            assert "nickname" in tables["Highschooler"].column_names
        assert new.source_sha256 != old.source_sha256
        assert new.content_hash != old.content_hash

    @pytest.mark.parametrize("damage", ["truncate", "overwrite"])
    def test_damaged_variant_regenerates(self, network1_db, tmp_path, damage):
        suite = build_test_suite(network1_db, 3, seed=2, cache_dir=tmp_path)
        want = [v.read_bytes() for v in suite.variants[1:]]
        target = suite.variants[2]
        if damage == "truncate":
            target.write_bytes(want[1][: len(want[1]) // 2])
        else:  # a well-formed database with other rows
            target.write_bytes(want[0])
        logs = []
        again = build_test_suite(network1_db, 3, seed=2, cache_dir=tmp_path, warn=logs.append)
        assert [v.read_bytes() for v in again.variants[1:]] == want
        assert again.content_hash == suite.content_hash
        assert any("variant_2.db" in m and "regenerating" in m for m in logs)

    def test_killed_build_is_never_returned(self, network1_db, tmp_path):
        ref = build_test_suite(network1_db, 3, seed=4, cache_dir=tmp_path / "ref")
        suite_rel = ref.variants[1].parent.relative_to(tmp_path / "ref")
        cache = tmp_path / "cache"
        # the first process to write a variant, the builder itself or a
        # forked child, SIGKILLs the builder; every other one stops at its
        # next variant
        proc = run_python(
            "import os, signal, sys\n"
            "from sqlbench import fuzz\n"
            "real, builder = fuzz._generate_variant, os.getpid()\n"
            "db, cache, killed = sys.argv[1:]\n"
            "def dying(*args):\n"
            "    real(*args)\n"
            "    try:\n"
            "        open(killed, 'x').close()\n"
            "    except FileExistsError:\n"
            "        os._exit(3)\n"
            "    os.kill(builder, signal.SIGKILL)\n"
            "    os._exit(3)\n"
            "fuzz._generate_variant = dying\n"
            "fuzz.build_test_suite(db, 3, 4, cache)\n",
            network1_db, cache, tmp_path / "killed")
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert list(cache.rglob("variant_*.db")), "the killed build left no partial output"
        assert not (cache / suite_rel).exists()
        suite = build_test_suite(network1_db, 3, seed=4, cache_dir=cache)
        assert [v.parent for v in suite.variants[1:]] == [cache / suite_rel] * 3
        assert [v.read_bytes() for v in suite.variants[1:]] == \
            [v.read_bytes() for v in ref.variants[1:]]

    def test_concurrent_builds_both_return_intact_suites(self, tmp_path):
        db = make_item_db(tmp_path / "items.sqlite", 3000)
        ref = build_test_suite(db, 4, seed=3, cache_dir=tmp_path / "ref")
        want = [sha256(v) for v in ref.variants[1:]]
        go = tmp_path / "go"
        # each process hashes its variants as soon as its build returns, while
        # the other may still be building
        code = (
            "import hashlib, json, os, sys, time\n"
            "from sqlbench.fuzz import build_test_suite\n"
            "db, cache, go = sys.argv[1:]\n"
            "while not os.path.exists(go):\n"
            "    time.sleep(0.001)\n"
            "suite = build_test_suite(db, 4, 3, cache)\n"
            "print(json.dumps([hashlib.sha256(open(v, 'rb').read()).hexdigest()\n"
            "                  for v in suite.variants[1:]]))\n")
        procs = [subprocess.Popen([sys.executable, "-c", code, str(db), str(tmp_path / "cache"),
                                   str(go)], env=CHILD_ENV, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) for _ in range(2)]
        try:
            time.sleep(0.5)  # both interpreters start and wait on the go file
            go.touch()
            results = [p.communicate(timeout=120) for p in procs]
        finally:
            for p in procs:
                p.kill()
        for p, (out, err) in zip(procs, results):
            assert p.returncode == 0, err
            assert json.loads(out) == want
        assert not [p for p in (tmp_path / "cache").rglob(".*")]


    def test_hashing_needs_no_file_digest(self, network1_db, tmp_path, monkeypatch):
        # hashlib.file_digest is new in Python 3.11; the package supports 3.10
        big = tmp_path / "big.bin"
        big.write_bytes(os.urandom(3 * (1 << 20) + 17))  # spans several read chunks
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        assert fuzz._sha256(big) == hashlib.sha256(big.read_bytes()).hexdigest()
        suite = build_test_suite(network1_db, 2, seed=1, cache_dir=tmp_path / "cache")
        assert suite.source_sha256 == sha256(network1_db)

    def test_suite_dir_gets_umask_permissions(self, network1_db, tmp_path):
        old = os.umask(0o022)
        try:
            suite = build_test_suite(network1_db, 2, seed=1, cache_dir=tmp_path / "cache")
        finally:
            os.umask(old)
        assert suite.variants[1].parent.stat().st_mode & 0o777 == 0o755

    def test_valid_suite_moved_aside_is_put_back(self, network1_db, tmp_path, monkeypatch):
        # another process installs a valid suite after this build found the one
        # there invalid and before it moves that one aside
        suite = build_test_suite(network1_db, 2, seed=1, cache_dir=tmp_path)
        suite_dir = suite.variants[1].parent
        inodes = [v.stat().st_ino for v in suite.variants[1:]]
        header = json.loads((suite_dir / "manifest.json").read_text())
        del header["variant_sha256"]
        real, checked = fuzz._cached_hashes, []

        def stale_at_first(path, header):
            checked.append(path)
            if len(checked) == 1:
                raise fuzz._Unusable("is stale")
            return real(path, header)

        monkeypatch.setattr(fuzz, "_cached_hashes", stale_at_first)
        built = suite_dir.parent / ".build-here"  # this build's (empty) output
        built.mkdir()
        fuzz._install(built, suite_dir, header)
        assert [v.stat().st_ino for v in suite.variants[1:]] == inodes
        assert real(suite_dir, header) == [sha256(v) for v in suite.variants[1:]]
        # no trash left behind; the caller deletes its own build directory
        assert sorted(p.name for p in suite_dir.parent.iterdir()) == \
            sorted([suite_dir.name, built.name])


class TestBuildTestSuite:
    def test_variant0_is_original(self, network1_db, tmp_path):
        suite = build_test_suite(network1_db, 2, seed=1, cache_dir=tmp_path)
        assert suite.variants[0] == network1_db
        assert len(suite.variants) == 3

    def test_deterministic_bytes(self, network1_db, tmp_path):
        a = build_test_suite(network1_db, 2, seed=5, cache_dir=tmp_path / "a")
        b = build_test_suite(network1_db, 2, seed=5, cache_dir=tmp_path / "b")
        for va, vb in zip(a.variants[1:], b.variants[1:]):
            assert va.read_bytes() == vb.read_bytes()

    def test_different_seeds_differ(self, network1_db, tmp_path):
        a = build_test_suite(network1_db, 1, seed=1, cache_dir=tmp_path / "a")
        b = build_test_suite(network1_db, 1, seed=2, cache_dir=tmp_path / "b")
        # the last variant is the empty probe in both; compare a non-empty one
        a2 = build_test_suite(network1_db, 3, seed=1, cache_dir=tmp_path / "c")
        b2 = build_test_suite(network1_db, 3, seed=2, cache_dir=tmp_path / "d")
        assert a2.variants[1].read_bytes() != b2.variants[1].read_bytes()

    def test_schema_preserved(self, network1_db, tmp_path):
        suite = build_test_suite(network1_db, 3, seed=9, cache_dir=tmp_path)
        orig = read_schema(network1_db)
        for variant in suite.variants[1:]:
            got = read_schema(variant)
            assert [t.name for t in got] == [t.name for t in orig]
            for to, tg in zip(orig, got):
                assert to.columns == tg.columns
                assert to.foreign_keys == tg.foreign_keys

    def test_fk_integrity_on_variants(self, network1_db, tmp_path):
        suite = build_test_suite(network1_db, 4, seed=3, cache_dir=tmp_path)
        for variant in suite.variants[1:]:
            check_integrity(variant)

    def test_last_variant_empties_nonempty_tables(self, network1_db, tmp_path):
        suite = build_test_suite(network1_db, 3, seed=3, cache_dir=tmp_path)
        for table in ("Highschooler", "Friend", "Likes"):
            assert all_rows(suite.variants[-1], table) == []

    def test_nonlast_variants_keep_rows(self, network1_db, tmp_path):
        suite = build_test_suite(network1_db, 3, seed=3, cache_dir=tmp_path)
        assert all_rows(suite.variants[1], "Highschooler")

    def test_row_count_bounds(self, network1_db, tmp_path):
        suite = build_test_suite(network1_db, 5, seed=13, cache_dir=tmp_path)
        n_orig = len(all_rows(network1_db, "Highschooler"))
        for variant in suite.variants[1:-1]:
            n = len(all_rows(variant, "Highschooler"))
            assert max(1, n_orig // 2) <= n <= min(2 * n_orig, 64)

    def test_cache_reuse(self, network1_db, tmp_path):
        suite = build_test_suite(network1_db, 2, seed=1, cache_dir=tmp_path)
        stamp = suite.variants[1].stat().st_mtime_ns
        again = build_test_suite(network1_db, 2, seed=1, cache_dir=tmp_path)
        assert again.variants[1].stat().st_mtime_ns == stamp

    def test_corrupt_manifest_triggers_regeneration(self, network1_db, tmp_path):
        logs = []
        suite = build_test_suite(network1_db, 2, seed=1, cache_dir=tmp_path)
        manifest = suite.variants[1].parent / "manifest.json"
        manifest.write_text("{corrupt")
        build_test_suite(network1_db, 2, seed=1, cache_dir=tmp_path, warn=logs.append)
        assert any("regenerating" in m for m in logs)

    def test_k_zero_rejected(self, network1_db, tmp_path):
        with pytest.raises(ValueError):
            build_test_suite(network1_db, 0, seed=1, cache_dir=tmp_path)

    def test_circular_fk_two_pass(self, tmp_path):
        db = tmp_path / "cyc.sqlite"
        conn = sqlite3.connect(db)
        conn.executescript("""
            CREATE TABLE a(id int primary key, partner int,
                           FOREIGN KEY(partner) REFERENCES b(id));
            CREATE TABLE b(id int primary key, partner int,
                           FOREIGN KEY(partner) REFERENCES a(id));
            INSERT INTO a VALUES (1, 10), (2, 20);
            INSERT INTO b VALUES (10, 1), (20, 2);
        """)
        conn.close()
        suite = build_test_suite(db, 3, seed=4, cache_dir=tmp_path / "cache")
        for variant in suite.variants[1:]:
            check_integrity(variant)

    def test_empty_source_table_stays_empty(self, tmp_path):
        db = tmp_path / "sparse.sqlite"
        conn = sqlite3.connect(db)
        conn.executescript("""
            CREATE TABLE full_t(a int primary key);
            CREATE TABLE empty_t(b int);
            INSERT INTO full_t VALUES (1), (2);
        """)
        conn.close()
        suite = build_test_suite(db, 2, seed=8, cache_dir=tmp_path / "cache")
        assert all_rows(suite.variants[1], "empty_t") == []

    def test_pure_function_of_inputs(self, tmp_path):
        db1 = make_network1_db(tmp_path / "one.sqlite")
        db2 = make_network1_db(tmp_path / "two.sqlite")
        a = build_test_suite(db1, 2, seed=6, cache_dir=tmp_path / "a")
        b = build_test_suite(db2, 2, seed=6, cache_dir=tmp_path / "b")
        for va, vb in zip(a.variants[1:], b.variants[1:]):
            assert va.read_bytes() == vb.read_bytes()


class TestForkedBuild:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or ONE_CPU,
                        reason="needs sched_setaffinity and two usable CPUs")
    def test_same_bytes_as_one_process(self, tmp_path):
        db = make_pinned_db(tmp_path / "pinned.sqlite")
        # k=5 and k=32 give uneven shares; the last variant is the empty one
        code = (
            "import json, os, sys\n"
            "from sqlbench.fuzz import build_test_suite\n"
            + SUITE_FILES +
            "db, cache, pin = sys.argv[1:]\n"
            "if pin == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "print(json.dumps({k: suite_files(build_test_suite(db, k, 3, cache, warn=print))\n"
            "                  for k in (1, 2, 5, 32)}))\n")
        got = {}
        for cpus in ("one", "all"):
            proc = run_python(code, db, tmp_path / cpus, cpus)
            assert proc.returncode == 0, proc.stderr
            got[cpus] = proc.stdout
        assert got["all"] == got["one"]
        *_, files = got["one"].splitlines()  # after the warnings
        for k, names in json.loads(files).items():
            assert sorted(names) == sorted([f"variant_{i}.db" for i in range(1, int(k) + 1)]
                                           + ["manifest.json"])

    @needs_fork
    def test_child_that_dies_has_its_share_rewritten(self, network1_db, tmp_path, monkeypatch):
        ref = build_test_suite(network1_db, 4, seed=4, cache_dir=tmp_path / "ref")
        builder, real, written = os.getpid(), fuzz._generate_variant, []

        def dying(tables, orig_data, rng, out_file, empty):
            if os.getpid() != builder:  # a child leaves half a file and dies
                out_file.write_bytes(b"half a variant")
                os._exit(7)
            real(tables, orig_data, rng, out_file, empty)
            written.append(out_file.name)

        monkeypatch.setattr(fuzz, "_generate_variant", dying)
        cache = tmp_path / "cache"
        start = time.monotonic()
        suite = build_test_suite(network1_db, 4, seed=4, cache_dir=cache)
        assert time.monotonic() - start < 10
        assert sorted(written) == [f"variant_{i}.db" for i in range(1, 5)]  # by the caller
        assert suite_files(suite) == suite_files(ref)
        assert not list(cache.rglob(".build-*"))

    @needs_fork
    @pytest.mark.parametrize("failing, picklable",
                             [({2}, True), ({2, 3}, True), ({3, 4}, True), ({2}, False)],
                             ids=["failing0", "failing1", "failing2", "unpicklable"])
    def test_child_error_reaches_the_caller(self, network1_db, tmp_path, monkeypatch, failing,
                                            picklable):
        real = fuzz._generate_variant

        def failing_variants(tables, orig_data, rng, out_file, empty):
            if int(out_file.stem.removeprefix("variant_")) in failing:
                error = fuzz.SuiteError(f"{out_file.name} cannot be written")
                if not picklable:
                    error.hook = lambda: None
                raise error
            real(tables, orig_data, rng, out_file, empty)

        monkeypatch.setattr(fuzz, "_generate_variant", failing_variants)
        with live_thread():  # one process: the reference
            with pytest.raises(fuzz.SuiteError) as one:
                build_test_suite(network1_db, 4, seed=4, cache_dir=tmp_path / "one")
        with pytest.raises(fuzz.SuiteError) as forked:
            build_test_suite(network1_db, 4, seed=4, cache_dir=tmp_path / "forked")
        assert str(forked.value) == str(one.value) == f"variant_{min(failing)}.db cannot be written"
        assert not list(tmp_path.rglob("variant_*.db"))

    @needs_fork
    def test_failed_fork_writes_the_share_here(self, network1_db, tmp_path, monkeypatch):
        ref = build_test_suite(network1_db, 5, seed=4, cache_dir=tmp_path / "ref")
        real, pids = fuzz._generate_variant, []

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        def recorded(*args):
            pids.append(os.getpid())
            real(*args)

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(fuzz, "_generate_variant", recorded)
        suite = build_test_suite(network1_db, 5, seed=4, cache_dir=tmp_path / "cache")
        assert pids == [os.getpid()] * 5
        assert suite_files(suite) == suite_files(ref)

    @needs_fork
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_killed_builder_leaves_no_child(self, network1_db, tmp_path):
        marks = tmp_path / "marks"
        marks.mkdir()
        # each child marks itself and takes a while over each of its variants
        code = (
            "import os, sys, time\n"
            "from pathlib import Path\n"
            "from sqlbench import fuzz\n"
            "db, cache, marks = sys.argv[1:]\n"
            "real = fuzz._generate_variant\n"
            "def slow(*args):\n"
            "    Path(marks, str(os.getpid())).touch()\n"
            "    time.sleep(0.3)\n"
            "    real(*args)\n"
            "fuzz._generate_variant = slow\n"
            "fuzz.build_test_suite(db, 8, 4, cache)\n")
        builder = subprocess.Popen([sys.executable, "-c", code, str(network1_db),
                                    str(tmp_path / "cache"), str(marks)], env=CHILD_ENV,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        n_children = parallel._processes(8)  # the builder claims no variant
        children = set()
        try:
            deadline = time.monotonic() + 30
            while len(children) < n_children and time.monotonic() < deadline:
                time.sleep(0.01)
                children = {int(p.name) for p in marks.iterdir()}
            assert len(children) == n_children and builder.pid not in children
            assert any(running(pid) for pid in children)  # killed mid-build
        finally:
            builder.kill()
            builder.wait(10)
        deadline = time.monotonic() + 15
        while any(running(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in children)
        assert not list((tmp_path / "cache").rglob("manifest.json"))

    @needs_fork
    def test_interrupted_builder_kills_its_children(self, network1_db, tmp_path, monkeypatch):
        marks = tmp_path / "marks"
        marks.mkdir()
        n_children = parallel._processes(8)

        def hanging(*args):  # only children run it: each marks itself and hangs
            Path(marks, str(os.getpid())).touch()
            time.sleep(60)

        monkeypatch.setattr(fuzz, "_generate_variant", hanging)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt), interrupt_when(
                lambda: len(list(marks.iterdir())) == n_children
                or time.monotonic() > start + 20):
            build_test_suite(network1_db, 8, seed=4, cache_dir=tmp_path / "cache")
        assert time.monotonic() - start < 20
        children = [int(p.name) for p in marks.iterdir()]
        assert len(children) == n_children and os.getpid() not in children
        assert not any(running(pid) for pid in children)  # killed and reaped
        assert not list((tmp_path / "cache").rglob(".build-*"))

    def test_a_live_thread_means_one_process(self, network1_db, tmp_path):
        ref = build_test_suite(network1_db, 5, seed=4, cache_dir=tmp_path / "ref")
        # -W error: a fork with a thread running warns from Python 3.12
        code = (
            "import json, os, sys, threading\n"
            "from sqlbench import fuzz\n"
            + SUITE_FILES +
            "stop = threading.Event()\n"
            "thread = threading.Thread(target=stop.wait)\n"
            "thread.start()\n"
            "real, pids = fuzz._generate_variant, []\n"
            "def recorded(*args):\n"
            "    pids.append(os.getpid())\n"
            "    real(*args)\n"
            "fuzz._generate_variant = recorded\n"
            "suite = fuzz.build_test_suite(sys.argv[1], 5, 4, sys.argv[2])\n"
            "stop.set()\n"
            "thread.join()\n"
            "print(json.dumps({'pids': pids == [os.getpid()] * 5,\n"
            "                  'multiprocessing': 'multiprocessing' in sys.modules,\n"
            "                  'files': suite_files(suite)}))\n")
        proc = run_python(code, network1_db, tmp_path / "cache", flags=("-W", "error"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"pids": True, "multiprocessing": False,
                                           "files": suite_files(ref)}

    @needs_fork
    def test_pool_worker_builds_the_same_bytes(self, network1_db, tmp_path):
        ref = build_test_suite(network1_db, 5, seed=4, cache_dir=tmp_path / "ref")
        # a pool worker is a daemonic process, which multiprocessing lets start no
        # child of its own; the build forks with os.fork all the same
        code = (
            "import json, multiprocessing, sys\n"
            "from sqlbench.fuzz import build_test_suite\n"
            + SUITE_FILES +
            "with multiprocessing.get_context('spawn').Pool(1) as pool:\n"
            "    suite = pool.apply(build_test_suite, (sys.argv[1], 5, 4, sys.argv[2]))\n"
            "print(json.dumps(suite_files(suite)))\n")
        proc = run_python(code, network1_db, tmp_path / "cache")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == suite_files(ref)
