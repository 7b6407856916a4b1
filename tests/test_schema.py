import sqlite3
from contextlib import closing

import pytest

from sqlbench.cli import _schema_section
from sqlbench.execution import ExecResult
from sqlbench.fuzz import build_test_suite
from sqlbench.prompt import parse_style
from sqlbench.schema import IntrospectionError, connect_ro, sample_rows

from conftest import read_schema, run_sql


def all_rows(db_file, table):
    with closing(connect_ro(db_file)) as conn:
        return conn.execute(f'SELECT * FROM "{table}"').fetchall()


def sample(db_file, table, x):
    with closing(connect_ro(db_file)) as conn:
        return sample_rows(conn, table, x)


class TestIntrospect:
    def test_network1_tables_and_fks(self, network1_db):
        schema = read_schema(network1_db)
        assert [t.name for t in schema] == ["Highschooler", "Friend", "Likes"]
        tables = {t.name: t for t in schema}
        friend = tables["Friend"]
        assert set(friend.foreign_keys) == {
            ("student_id", "Highschooler", "ID"),
            ("friend_id", "Highschooler", "ID"),
        }
        assert friend.primary_key == ["student_id", "friend_id"]
        hs = tables["Highschooler"]
        assert [c.name for c in hs.columns] == ["ID", "name", "grade"]
        assert hs.columns[0].is_primary_key
        assert hs.columns[0].declared_type.lower() == "int"

    def test_empty_database(self, tmp_path):
        db = tmp_path / "empty.sqlite"
        sqlite3.connect(db).close()
        assert read_schema(db) == []

    def test_fk_to_missing_table_warns_but_returns_table(self, tmp_path):
        db = tmp_path / "bad.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE a(x int, FOREIGN KEY(x) REFERENCES ghost(id))")
        # no parent column named, and a parent key of two columns to stand for
        conn.execute("CREATE TABLE pair(x int, y int, PRIMARY KEY (x, y))")
        conn.execute("CREATE TABLE ref(x int, y int, FOREIGN KEY (x, y) REFERENCES pair)")
        conn.close()
        warnings = []
        schema = read_schema(db, warnings.append)
        assert [t.name for t in schema] == ["a", "pair", "ref"]
        assert warnings == [
            "table a: foreign key x references missing table ghost",
            "table ref: foreign key x references pair, whose primary key is not one column",
            "table ref: foreign key y references pair, whose primary key is not one column",
        ]

    def test_only_the_sqlite_underscore_prefix_is_internal(self, tmp_path, capsys):
        # LIKE's `_` matches any character: `sqlite_%` alone would drop
        # sqlitedata and SQLite.x; AUTOINCREMENT makes sqlite_sequence exist
        db = tmp_path / "prefix.sqlite"
        with closing(sqlite3.connect(db)) as conn:
            conn.executescript("""
                CREATE TABLE sqlitedata (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT);
                CREATE TABLE other (id INT PRIMARY KEY, d INT REFERENCES sqlitedata(id));
                CREATE TABLE "SQLite.x" (id INT PRIMARY KEY, w REAL);
                INSERT INTO sqlitedata (v) VALUES ('a'), ('b'), ('c');
                INSERT INTO other VALUES (1, 1), (2, 3);
                INSERT INTO "SQLite.x" VALUES (1, 0.5), (2, 1.5);
            """)
        names = ["sqlitedata", "other", "SQLite.x"]
        assert [t.name for t in read_schema(db)] == names
        section = _schema_section("prefix", db, parse_style("create+select:3"))
        assert capsys.readouterr().err == ""  # no warning
        assert all(t.create_sql in section.text for t in read_schema(db))
        assert "sqlite_sequence" not in section.text
        suite = build_test_suite(db, 3, 0, tmp_path / "cache", warn=pytest.fail)
        for variant in suite.variants[1:]:
            assert [t.name for t in read_schema(variant)] == names
        assert all(len(all_rows(variant, name)) > 0
                   for variant in suite.variants[1:-1] for name in names)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IntrospectionError, match="not found"):
            read_schema(tmp_path / "nope.sqlite")

    def test_create_sql_round_trips(self, network1_db, tmp_path):
        schema = read_schema(network1_db)
        clone = tmp_path / "clone.sqlite"
        conn = sqlite3.connect(clone)
        for t in schema:
            conn.execute(t.create_sql)
        conn.close()
        reread = read_schema(clone)
        for orig, new in zip(schema, reread):
            assert orig.name == new.name
            assert orig.columns == new.columns
            assert orig.foreign_keys == new.foreign_keys
            assert " ".join(orig.create_sql.split()) == " ".join(new.create_sql.split())


class TestConnectRo:
    def test_uri_characters_in_the_path(self, tmp_path):
        db = tmp_path / "run#1?x%20y" / "a b.sqlite"
        db.parent.mkdir()
        with closing(sqlite3.connect(db)) as conn:
            conn.execute("CREATE TABLE t(a int)")
        assert [t.name for t in read_schema(db)] == ["t"]
        with closing(connect_ro(db)) as conn:
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                conn.execute("CREATE TABLE u(b int)")
        result = run_sql(db, "SELECT count(*) FROM t")
        assert result == ExecResult(1, [(0,)])
        assert [p.name for p in tmp_path.iterdir()] == ["run#1?x%20y"]
        assert [p.name for p in db.parent.iterdir()] == ["a b.sqlite"]


class TestSampleRows:
    def test_first_three_highschoolers(self, network1_db):
        s = sample(network1_db, "Highschooler", 3)
        assert s.header == ["ID", "name", "grade"]
        assert s.rows == [(1510, "Jordan", 9), (1689, "Gabriel", 9), (1381, "Tiffany", 9)]

    def test_limit_exceeding_size(self, tmp_path):
        db = tmp_path / "one.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t(a int)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        conn.close()
        s = sample(db, "t", 10)
        assert s.rows == [(1,)]

    def test_empty_table_keeps_header(self, tmp_path):
        db = tmp_path / "empty_t.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t(a int, b text)")
        conn.close()
        s = sample(db, "t", 3)
        assert s.header == ["a", "b"]
        assert s.rows == []

    def test_unknown_table(self, network1_db):
        with pytest.raises(IntrospectionError):
            sample(network1_db, "NoSuchTable", 3)

    def test_zero_limit_rejected(self, network1_db):
        with pytest.raises(ValueError):
            sample(network1_db, "Highschooler", 0)

    def test_deterministic(self, network1_db):
        a = sample(network1_db, "Likes", 3)
        b = sample(network1_db, "Likes", 3)
        assert a.rows == b.rows

    def test_values_stay_typed(self, tmp_path):
        db = tmp_path / "typed.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t(i int, r real, s text, n int)")
        conn.execute("INSERT INTO t VALUES (1, 2.5, 'x', NULL)")
        conn.commit()
        conn.close()
        (row,) = sample(db, "t", 1).rows
        assert row == (1, 2.5, "x", None)
        assert isinstance(row[0], int) and isinstance(row[1], float)
