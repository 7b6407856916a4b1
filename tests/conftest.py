import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
from contextlib import closing, contextmanager
from pathlib import Path

import pytest

import sqlbench
from sqlbench.evaluate import evaluate
from sqlbench.execution import Connections
from sqlbench.prompt import render_schema
from sqlbench.schema import connect_ro, introspect, sample_rows
from sqlbench.store import GoldStore

GOLDEN_DIR = Path(__file__).parent / "golden"
TIMEOUT_MS = 30000  # the CLI's default --timeout-ms

# child interpreters import sqlbench from this checkout
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(sqlbench.__file__).resolve().parent.parent)}

# a suite build or an eval forks only where it finds a second usable CPU
ONE_CPU = not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
needs_fork = pytest.mark.skipif(ONE_CPU or not hasattr(os, "fork"),
                                reason="forks only with two usable CPUs")


def run_python(code, *args, timeout=120, flags=()):
    return subprocess.run([sys.executable, *flags, "-c", code, *map(str, args)], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=timeout)


@contextmanager
def live_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(10)


@contextmanager
def interrupt_when(ready, every=0.01):
    """Raise KeyboardInterrupt in this process, from a SIGALRM handler, at the
    first of the checks of ready(), made every `every` seconds, that holds.
    A forked child inherits the handler but not the timer, so only this
    process is interrupted, wherever it waits."""
    def check(signum, frame):
        if ready():
            raise KeyboardInterrupt
        signal.setitimer(signal.ITIMER_REAL, every)

    old = signal.signal(signal.SIGALRM, check)
    signal.setitimer(signal.ITIMER_REAL, every)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def running(pid) -> bool:
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


NETWORK1_CREATES = [
    """CREATE TABLE Highschooler(
        ID int primary key,
        name text,
        grade int)""",
    """CREATE TABLE Friend(
        student_id int,
        friend_id int,
        primary key (student_id,friend_id),
        foreign key(student_id) references Highschooler(ID),
        foreign key (friend_id) references Highschooler(ID)
)""",
    """CREATE TABLE Likes(
        student_id int,
        liked_id int,
        primary key (student_id, liked_id),
        foreign key (liked_id) references Highschooler(ID),
        foreign key (student_id) references Highschooler(ID)
)""",
]

NETWORK1_HIGHSCHOOLERS = [
    (1510, "Jordan", 9),
    (1689, "Gabriel", 9),
    (1381, "Tiffany", 9),
    (1709, "Cassandra", 9),
    (1782, "Andrew", 10),
    (1911, "Haley", 10),
    (1934, "Kyle", 12),
    (1661, "Logan", 12),
]
NETWORK1_FRIENDS = [(1510, 1381), (1510, 1689), (1689, 1709), (1782, 1709), (1911, 1247)]
NETWORK1_LIKES = [(1689, 1709), (1709, 1689), (1782, 1709)]


def make_network1_db(db_file: Path, include_bad_fk: bool = False):
    conn = sqlite3.connect(db_file)
    try:
        for stmt in NETWORK1_CREATES:
            conn.execute(stmt)
        conn.executemany("INSERT INTO Highschooler VALUES (?,?,?)", NETWORK1_HIGHSCHOOLERS)
        friends = NETWORK1_FRIENDS if include_bad_fk else NETWORK1_FRIENDS[:4]
        conn.executemany("INSERT INTO Friend VALUES (?,?)", friends)
        conn.executemany("INSERT INTO Likes VALUES (?,?)", NETWORK1_LIKES)
        conn.commit()
    finally:
        conn.close()
    return db_file


@pytest.fixture(scope="session", autouse=True)
def no_gold_store_temp_files(tmp_path_factory):
    """No gold store write, failed or not, leaves its temporary file behind."""
    yield
    assert not list(tmp_path_factory.getbasetemp().rglob("gold.marshal.*.new"))


@pytest.fixture(scope="session")
def network1_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("network1")
    return make_network1_db(root / "network_1.sqlite")


@pytest.fixture(scope="session")
def db_root(tmp_path_factory):
    """Spider-layout database root holding the network_1 fixture."""
    root = tmp_path_factory.mktemp("dbroot")
    (root / "network_1").mkdir()
    make_network1_db(root / "network_1" / "network_1.sqlite")
    return root


GEO_TABLES = {
    "border_info": (
        'CREATE TABLE "border_info" ("state_name" text, "border" text)',
        [("alabama", "tennessee"), ("alabama", "georgia"), ("alabama", "florida"),
         ("iowa", "missouri"), ("missouri", "iowa")],
    ),
    "city": (
        'CREATE TABLE "city" ("city_name" text, "population" int DEFAULT NULL, '
        '"country_name" varchar(3) NOT NULL DEFAULT \'\', "state_name" text)',
        [("birmingham", 284413, "usa", "alabama"), ("mobile", 200452, "usa", "alabama"),
         ("montgomery", 177857, "usa", "alabama"), ("austin", 345496, "usa", "texas"),
         ("kalamazoo", 79722, "usa", "michigan"), ("phoenix", 789704, "usa", "arizona"),
         ("tucson", 330537, "usa", "arizona")],
    ),
    "highlow": (
        'CREATE TABLE "highlow" ("state_name" text, "highest_elevation" text, '
        '"lowest_point" text, "highest_point" text, "lowest_elevation" text)',
        [("alabama", "734", "gulf of mexico", "cheaha mountain", "0"),
         ("alaska", "6194", "pacific ocean", "mount mckinley", "0"),
         ("arizona", "3851", "colorado river", "humphreys peak", "21")],
    ),
    "lake": (
        'CREATE TABLE "lake" ("lake_name" text, "area" double DEFAULT NULL, '
        '"country_name" varchar(3) NOT NULL DEFAULT \'\', "state_name" text)',
        [("iliamna", 2675.0, "usa", "alaska"), ("becharof", 1186.0, "usa", "alaska"),
         ("teshekpuk", 816.0, "usa", "alaska")],
    ),
    "mountain": (
        'CREATE TABLE "mountain" ("mountain_name" text, "mountain_altitude" int DEFAULT NULL, '
        '"country_name" varchar(3) NOT NULL DEFAULT \'\', "state_name" text)',
        [("mckinley", 6194, "usa", "alaska"), ("st. elias", 5489, "usa", "alaska"),
         ("foraker", 5304, "usa", "alaska")],
    ),
    "river": (
        'CREATE TABLE "river" ("river_name" text, "length" int DEFAULT NULL, '
        '"country_name" varchar(3) NOT NULL DEFAULT \'\', "traverse" text)',
        [("mississippi", 3778, "usa", "minnesota"), ("mississippi", 3778, "usa", "wisconsin"),
         ("mississippi", 3778, "usa", "iowa"), ("colorado", 2333, "usa", "colorado")],
    ),
    "state": (
        'CREATE TABLE "state" ("state_name" text, "population" int DEFAULT NULL, '
        '"area" double DEFAULT NULL, "country_name" varchar(3) NOT NULL DEFAULT \'\', '
        '"capital" text, "density" double DEFAULT NULL)',
        [("alabama", 3894000, 51700.0, "usa", "montgomery", 75.319149),
         ("alaska", 401800, 591000.0, "usa", "juneau", 0.679865),
         ("arizona", 2718000, 114000.0, "usa", "phoenix", 23.842105),
         ("new mexico", 1303000, 121600.0, "usa", "santa fe", 10.715461),
         ("texas", 14229000, 266807.0, "usa", "austin", 53.330678)],
    ),
}

GEO_SUPPORT_PAIRS = [
    ("what is the population of austin",
     'SELECT CITYalias0.POPULATION FROM CITY AS CITYalias0 WHERE CITYalias0.CITY_NAME = "austin" ;'),
    ("which state is kalamazoo in",
     'SELECT CITYalias0.STATE_NAME FROM CITY AS CITYalias0 WHERE CITYalias0.CITY_NAME = "kalamazoo" ;'),
    ("name all the rivers in colorado",
     'SELECT RIVERalias0.RIVER_NAME FROM RIVER AS RIVERalias0 WHERE RIVERalias0.TRAVERSE = "colorado" ;'),
    ("how many people live in new mexico",
     'SELECT STATEalias0.POPULATION FROM STATE AS STATEalias0 WHERE STATEalias0.STATE_NAME = "new mexico" ;'),
    ("what states border missouri",
     'SELECT BORDER_INFOalias0.BORDER FROM BORDER_INFO AS BORDER_INFOalias0 WHERE BORDER_INFOalias0.STATE_NAME = "missouri" ;'),
]


def make_geo_db(db_file: Path):
    conn = sqlite3.connect(db_file)
    try:
        for create_sql, rows in GEO_TABLES.values():
            conn.execute(create_sql)
        for name, (_, rows) in GEO_TABLES.items():
            marks = ",".join("?" * len(rows[0]))
            conn.executemany(f'INSERT INTO "{name}" VALUES ({marks})', rows)
        conn.commit()
    finally:
        conn.close()
    return db_file


@pytest.fixture(scope="session")
def geo_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("geography")
    return make_geo_db(root / "geography.sqlite")


# 20-item fixture benchmark over network_1; every gold executes successfully.
FIXTURE_QUESTIONS = [
    ("What is Kyle's id?", "SELECT ID FROM Highschooler WHERE name = 'Kyle'"),
    ("What are the names of all high schoolers?", "SELECT name FROM Highschooler"),
    ("How many high schoolers are there?", "SELECT count(*) FROM Highschooler"),
    ("What is the grade of Jordan?", "SELECT grade FROM Highschooler WHERE name = 'Jordan'"),
    ("List names of 9th graders.", "SELECT name FROM Highschooler WHERE grade = 9"),
    ("How many students are in each grade?",
     "SELECT grade, count(*) FROM Highschooler GROUP BY grade"),
    ("Names in descending alphabetical order.",
     "SELECT name FROM Highschooler ORDER BY name DESC"),
    ("What is the highest id?", "SELECT max(ID) FROM Highschooler"),
    ("What is the average grade?", "SELECT avg(grade) FROM Highschooler"),
    ("Who are Jordan's friends?",
     "SELECT T2.name FROM Friend AS T1 JOIN Highschooler AS T2 ON T1.friend_id = T2.ID "
     "WHERE T1.student_id = 1510"),
    ("How many friendships are recorded?", "SELECT count(*) FROM Friend"),
    ("Which students like someone?", "SELECT DISTINCT student_id FROM Likes"),
    ("How many likes does student 1709 receive?",
     "SELECT count(*) FROM Likes WHERE liked_id = 1709"),
    ("Names of students with grade above 9.",
     "SELECT name FROM Highschooler WHERE grade > 9"),
    ("Ids of students ordered by grade then name.",
     "SELECT ID FROM Highschooler ORDER BY grade, name"),
    ("Distinct grades present.", "SELECT DISTINCT grade FROM Highschooler"),
    ("Name of the student with the lowest id.",
     "SELECT name FROM Highschooler ORDER BY ID LIMIT 1"),
    ("Pairs of ids in the friend table.", "SELECT student_id, friend_id FROM Friend"),
    ("Students who are liked by somebody.",
     "SELECT DISTINCT T2.name FROM Likes AS T1 JOIN Highschooler AS T2 "
     "ON T1.liked_id = T2.ID"),
    ("Count of students per grade with more than one student.",
     "SELECT grade FROM Highschooler GROUP BY grade HAVING count(*) > 1"),
]


@pytest.fixture(scope="session")
def fixture_benchmark_path(tmp_path_factory, db_root):
    items = [
        {"db_id": "network_1", "question": q, "query": sql}
        for q, sql in FIXTURE_QUESTIONS
    ]
    path = tmp_path_factory.mktemp("bench") / "fixture_dev.json"
    path.write_text(json.dumps(items, indent=2))
    return path


def load_golden(name: str) -> str:
    return (GOLDEN_DIR / f"network1_{name}.txt").read_text()


def read_schema(db_file, warn=lambda message: None):
    """The tables of db_file, read through a connection of its own. Schema
    warnings go to warn."""
    with closing(connect_ro(db_file)) as conn:
        return introspect(db_file, conn, warn)


def read_samples(db_file, x):
    """The first x rows of every table of db_file, in catalog order."""
    with closing(connect_ro(db_file)) as conn:
        return [sample_rows(conn, t.name, x)
                for t in introspect(db_file, conn, lambda message: None)]


def read_section(db_file, style):
    """The schema section of style's prompts for db_file."""
    samples = read_samples(db_file, style.x) if style.x is not None else None
    return render_schema(style, read_schema(db_file), samples)


def evaluate_one(example, prediction, suite):
    """evaluate on connections and a gold store opened for this one call; its
    notes are dropped."""
    with closing(Connections(immutable=suite.variants[1:])) as connections, \
            closing(GoldStore(suite)) as store:
        return evaluate(example, prediction, suite, TIMEOUT_MS, lambda message: None,
                        connections, store)
