"""A fixture database whose suite contents are pinned across commits.

Stdlib only, so any interpreter can check that it builds the same suite:

    PYTHONPATH=src:tests python3 -m pinned_suite

prints one line per variant and exits 1 if a hash differs from PINNED.
The hashes cover each variant's typed rows, not its file bytes, so an SQLite
upgrade that lays pages out differently does not move them. Only a
GENERATOR_VERSION bump may re-pin them.
"""

import hashlib
import random
import sqlite3
import sys
import tempfile
from contextlib import closing
from pathlib import Path

from sqlbench.fuzz import build_test_suite

K, SEED = 4, 3

PINNED = [
    "585dfb6030866770e39adc15d0cd74915689ae8310f29f7ae2770ee2369eb21f",
    "202933f0027ae8085d31aeb8d6c5181b5b291619f4d1ecf53907fd713f522858",
    "069cfa9cc4efcaf937c463577489028492b966d37d31d218ab4115ed832c9353",
    "ada419ed920b4effa353e6ffe587501957d8202b940fc2a5016ab688ed4adf91",
]

SCHEMA = """
    CREATE TABLE region (id INTEGER PRIMARY KEY, name TEXT NOT NULL, area REAL);
    CREATE TABLE city (id INT PRIMARY KEY, region_id INT REFERENCES region,
                       pop INTEGER, code VARCHAR(8), note);
    CREATE TABLE shop (id INT PRIMARY KEY, city_id INT NOT NULL REFERENCES city(id),
                       label TEXT, rating DOUBLE, price DECIMAL(8,2));
    CREATE TABLE profile (region_id INT PRIMARY KEY REFERENCES region(id), motto TEXT);
    CREATE TABLE a (id INT PRIMARY KEY, b_id INT REFERENCES b(id), w REAL);
    CREATE TABLE b (id INT PRIMARY KEY, a_id INT REFERENCES a(id), tag TEXT);
    CREATE TABLE emp (id INT PRIMARY KEY, boss INT REFERENCES emp(id), name TEXT);
    CREATE TABLE task (id INT PRIMARY KEY, owner INT REFERENCES emp(id), due);
    CREATE TABLE orphan (id INT PRIMARY KEY, ghost_id INT REFERENCES ghost(id), v);
    CREATE TABLE pair (x INT NOT NULL, y TEXT, score REAL, extra, PRIMARY KEY (x, y));
    CREATE TABLE vacant (a INT, b TEXT);
"""


def make_pinned_db(path):
    """An FK chain (region <- city <- shop), an FK cycle (a <-> b), a
    self-referencing table and one that references it (emp <- task), a
    dangling FK (orphan), a composite PK (pair), a PK that is an FK to a small
    table (profile), an empty table (vacant), and INT, REAL, TEXT and untyped
    columns holding NULLs."""
    rng = random.Random(11)

    def maybe(value, p=0.25):
        return None if rng.random() < p else value

    def word():
        return "".join(rng.choice("abcxyz") for _ in range(rng.randint(0, 5)))

    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(SCHEMA)
        rows = {
            "region": [(i, word(), maybe(round(rng.uniform(1, 500), 2))) for i in range(1, 7)],
            "city": [(10 + i, maybe(rng.randint(1, 6)), maybe(rng.randint(100, 9000)),
                      maybe(word()), rng.choice([None, 7, 2.5, "n", b"\x01"]))
                     for i in range(12)],
            "shop": [(100 + i, 10 + rng.randrange(12), maybe(word()),
                      maybe(round(rng.uniform(0, 5), 1)), maybe(rng.randint(1, 99) / 4))
                     for i in range(20)],
            "profile": [(i, maybe(word())) for i in range(1, 7)],
            "a": [(i, 20 + i % 3, maybe(rng.random())) for i in range(1, 6)],
            "b": [(20 + i, 1 + i, maybe(word())) for i in range(5)],
            "emp": [(i, i // 2 or None, word()) for i in range(1, 9)],
            "task": [(i, 1 + i % 8, maybe(f"2022-0{i}-01")) for i in range(1, 6)],
            "orphan": [(i, i, maybe(i * 1.5)) for i in range(1, 5)],
            "pair": [(i % 3, maybe(word(), 0.1), maybe(rng.uniform(-1, 1)), maybe(i))
                     for i in range(10)],
        }
        for name, table_rows in rows.items():
            marks = ",".join("?" * len(table_rows[0]))
            conn.executemany(f"INSERT OR IGNORE INTO {name} VALUES ({marks})", table_rows)
        conn.commit()
    return path


def typed_rows_sha256(db_file) -> str:
    """sha256 over every table by name, its rows in rowid order, each as its
    repr (which tells 1 from 1.0 and '1')."""
    h = hashlib.sha256()
    with closing(sqlite3.connect(f"file:{db_file}?mode=ro", uri=True)) as conn:
        names = [n for (n,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")]
        for name in names:
            h.update(f"{name}\n".encode())
            for row in conn.execute(f'SELECT * FROM "{name}" ORDER BY rowid'):
                h.update(f"{tuple(row)!r}\n".encode())
    return h.hexdigest()


def pinned_suite_hashes(workdir: Path, warn=print) -> list[str]:
    """Build the fixture's suite under workdir; one content hash per variant."""
    db = make_pinned_db(workdir / "pinned.sqlite")
    suite = build_test_suite(db, K, SEED, workdir / "cache", warn=warn)
    return [typed_rows_sha256(v) for v in suite.variants[1:]]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = pinned_suite_hashes(Path(tmp), warn=lambda message: None)
    for i, h in enumerate(got, 1):
        print(f"variant_{i} {h} {'ok' if i <= len(PINNED) and PINNED[i - 1] == h else 'DIFFERS'}")
    sys.exit(got != PINNED)
