import hashlib
import json
import os
import random
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sqlbench
from sqlbench import fuzz
from sqlbench.fuzz import TestSuite, _column_pools, _key_pools, build_test_suite
from sqlbench.schema import ColumnSchema, TableSchema

from conftest import make_network1_db, read_schema

# child interpreters import sqlbench from this checkout
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(sqlbench.__file__).resolve().parent.parent)}


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


def run_python(code, *args, timeout=120):
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=timeout)


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
        # the build dies once the first variant is written and the second is due
        proc = run_python(
            "import os, sys\n"
            "from sqlbench import fuzz\n"
            "real, calls = fuzz._generate_variant, []\n"
            "def dying(*args):\n"
            "    if calls:\n"
            "        os._exit(3)\n"
            "    calls.append(real(*args))\n"
            "fuzz._generate_variant = dying\n"
            "fuzz.build_test_suite(sys.argv[1], 3, 4, sys.argv[2])\n",
            network1_db, cache)
        assert proc.returncode == 3, proc.stderr
        assert list(cache.rglob("variant_1.db")), "the killed build left no partial output"
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
