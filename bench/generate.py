"""Deterministic workload generator for the sqlbench benchmark.

Writes, under --out, everything one workload needs and nothing else:

    db/<db_id>/<db_id>.sqlite   Spider-layout databases
    dev.json, train.json        benchmark and few-shot training split
    replay/<spec>.jsonl         one file of raw completions per prompt spec
    labels.json                 per spec and example, the label planted by construction
    *.yaml                      stage settings passed through the documented --config flag
    workload.json               how run.py drives the pipeline, sizes, content hash

The same (workload, seed) always yields byte-identical files. The shapes of
the databases (tables, columns, row counts), which template and completion
kind each example gets, and the percentile ranges of literals are fixed per
workload; the seed draws names, values, literals and rewrite and mutant
choices, so runs on different seeds cost about the same.

Usage: python3 bench/generate.py --workload sweep-small --seed 1 --out DIR
Generates twice and exits non-zero if the two content hashes differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import sqlite3
import string
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

NOUNS = [
    "singer", "album", "concert", "stadium", "student", "course", "teacher",
    "school", "player", "team", "league", "airport", "flight", "airline",
    "city", "museum", "visitor", "exhibit", "book", "author", "publisher",
    "store", "product", "customer", "employee", "department", "project",
    "ship", "port", "cargo", "doctor", "patient", "ward", "farm", "crop",
    "market", "station", "train", "river", "bridge", "mountain", "climber",
    "festival", "artist", "gallery", "painting", "library", "member", "club",
    "coach", "race", "pilot", "circuit", "hotel", "guest", "room", "bank",
    "branch", "loan", "camera", "lens", "phone", "vendor", "warehouse",
    "truck", "route", "planet", "mission", "engineer", "device", "sensor",
    "recipe", "chef", "restaurant", "menu", "dish", "garden", "plant",
]
CATEGORIES = ["north", "south", "east", "west", "central"]
FILLERS = [("code", "TEXT"), ("level", "INTEGER"), ("weight", "REAL"),
           ("rating", "INTEGER"), ("region", "TEXT"), ("budget", "REAL"),
           ("capacity", "INTEGER"), ("status", "TEXT"), ("area", "REAL"),
           ("rank_no", "INTEGER"), ("color", "TEXT"), ("duration", "REAL")]


@dataclass
class Table:
    name: str
    rows: int
    parent: str | None = None      # FK <parent>_id -> parent(id)
    back_ref: str | None = None    # FK <back_ref>_id -> back_ref(id), closes a cycle
    fillers: tuple = ()


@dataclass
class Template:
    name: str
    question: str
    gold: str
    rewrites: tuple
    mutants: tuple
    ordered: bool = False


# {T} parent table, {C} child table with FK {fk} -> {T}(id).
TEMPLATES = {t.name: t for t in [
    Template("filter", "What are the names of {T} entries with score above {v}?",
             "SELECT name FROM {T} WHERE score > {v}",
             ("SELECT name FROM {T} WHERE {v} < score",
              "SELECT t1.name FROM {T} AS t1 WHERE t1.score > {v}"),
             ("SELECT name FROM {T} WHERE score >= {v}",
              "SELECT name FROM {T} WHERE score < {v}",
              "SELECT category FROM {T} WHERE score > {v}")),
    Template("count_cat", "How many {T} entries are in category {c}?",
             "SELECT count(*) FROM {T} WHERE category = '{c}'",
             ("SELECT count(*) FROM {T} WHERE '{c}' = category",
              "SELECT count(id) FROM {T} WHERE category = '{c}'"),
             ("SELECT count(*) FROM {T} WHERE category != '{c}'",
              "SELECT count(DISTINCT score) FROM {T} WHERE category = '{c}'")),
    Template("and_filter",
             "List the name and score of {T} entries in category {c} with score above {v}.",
             "SELECT name, score FROM {T} WHERE category = '{c}' AND score > {v}",
             ("SELECT name, score FROM {T} WHERE score > {v} AND category = '{c}'",),
             ("SELECT name, score FROM {T} WHERE category = '{c}' OR score > {v}",
              "SELECT name, price FROM {T} WHERE category = '{c}' AND score > {v}",
              "SELECT name, score FROM {T} WHERE category = '{c}' AND score >= {v}")),
    Template("group_count", "How many {T} entries are there in each category?",
             "SELECT category, count(*) FROM {T} GROUP BY category",
             ("SELECT t1.category, count(*) FROM {T} AS t1 GROUP BY t1.category",),
             ("SELECT category, count(DISTINCT score) FROM {T} GROUP BY category",
              "SELECT category, max(score) FROM {T} GROUP BY category")),
    Template("join_distinct",
             "Which {T} entries have a {C} with score above {q}? Give their names.",
             "SELECT DISTINCT T1.name FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk} "
             "WHERE T2.score > {q}",
             ("SELECT DISTINCT T1.name FROM {C} AS T2 JOIN {T} AS T1 ON T2.{fk} = T1.id "
              "WHERE {q} < T2.score",),
             ("SELECT DISTINCT T1.name FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk} "
              "WHERE T2.score < {q}",
              "SELECT T1.name FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk} "
              "WHERE T2.score > {q}",
              "SELECT DISTINCT T1.category FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk} "
              "WHERE T2.score > {q}")),
    Template("top_n", "What are the names and scores of the {n} highest-scoring {T} entries?",
             "SELECT name, score FROM {T} ORDER BY score DESC, id LIMIT {n}",
             ("SELECT t1.name, t1.score FROM {T} AS t1 ORDER BY t1.score DESC, t1.id ASC "
              "LIMIT {n}",),
             ("SELECT name, score FROM {T} ORDER BY score ASC, id LIMIT {n}",
              "SELECT name, score FROM {T} ORDER BY score DESC, id LIMIT {n1}"),
             ordered=True),
    Template("avg_cat", "What is the average price of {T} entries in category {c}?",
             "SELECT avg(price) FROM {T} WHERE category = '{c}'",
             ("SELECT avg(t1.price) FROM {T} AS t1 WHERE t1.category = '{c}'",),
             ("SELECT sum(price) FROM {T} WHERE category = '{c}'",
              "SELECT max(price) FROM {T} WHERE category = '{c}'")),
    Template("not_in", "What are the names of {T} entries with no {C}?",
             "SELECT name FROM {T} WHERE id NOT IN (SELECT {fk} FROM {C})",
             ("SELECT t1.name FROM {T} AS t1 WHERE t1.id NOT IN (SELECT t2.{fk} FROM {C} AS t2)",),
             ("SELECT name FROM {T} WHERE id IN (SELECT {fk} FROM {C})",
              "SELECT category FROM {T} WHERE id NOT IN (SELECT {fk} FROM {C})")),
    Template("range_sum",
             "For each {T} with score between {lo} and {hi}, what is the total score of its {C} entries?",
             "SELECT T1.name, sum(T2.score) FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk} "
             "WHERE T1.score BETWEEN {lo} AND {hi} GROUP BY T1.id",
             ("SELECT T1.name, sum(T2.score) FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk} "
              "WHERE T1.score >= {lo} AND T1.score <= {hi} GROUP BY T1.id",),
             ("SELECT T1.name, sum(T2.score) FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk} "
              "WHERE T1.score > {lo} AND T1.score < {hi} GROUP BY T1.id",
              "SELECT T1.name, count(T2.score) FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk} "
              "WHERE T1.score BETWEEN {lo} AND {hi} GROUP BY T1.id")),
    Template("or_filter", "List the names of {C} entries with score below {q} or category {c}.",
             "SELECT name FROM {C} WHERE score < {q} OR category = '{c}'",
             ("SELECT name FROM {C} WHERE category = '{c}' OR score < {q}",),
             ("SELECT name FROM {C} WHERE score < {q} AND category = '{c}'",
              "SELECT category FROM {C} WHERE score < {q} OR category = '{c}'")),
    Template("join_list", "List every {C} name together with the name of its {T}.",
             "SELECT T2.name, T1.name FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk}",
             ("SELECT T2.name, T1.name FROM {C} AS T2 JOIN {T} AS T1 ON T2.{fk} = T1.id",),
             ("SELECT T1.name, T2.name FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk}",
              "SELECT T2.name, T1.category FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk}")),
]}

# Completion kinds and the label each plants. Mutants get "ex": false only
# when the reference executor shows they differ on the original database.
INVALID_KINDS = ("no_table", "no_column", "syntax", "ambiguous")
EXPECT = {"oracle": {"ts": True}, "invalid": {"valid": False},
          "forbidden": {"valid": False}, "empty": {"valid": False},
          "runaway": {"valid": False}}


@dataclass
class Workload:
    tables: list            # per database: (rows, parent index or None, filler columns)
    cycle_dbs: tuple        # databases whose first two tables form an FK cycle
    templates: tuple
    examples: int
    train: int
    specs: tuple            # (name, prompt style, shots)
    mix: dict               # completion kind -> count per spec
    suite_k: int
    large: bool = False     # literals select most rows
    prompt_config: dict | None = None
    eval_config: dict | None = None


def _chain(rows):
    return [(n, None if j == 0 else j - 1, 1) for j, n in enumerate(rows)]


def _wide(i):
    """12..20 tables of 6..12 columns in a binary FK tree, fixed per database
    index. Sized so every schema renders as create+select:3 to about 2000
    estimated tokens (about 28 per table and 12 per column): one token budget
    then trims shots on every database without dropping a prompt."""
    n_tables = 12 + (i * 7) % 9
    fillers = round((1966 - 28.4 * n_tables) / 11.7) - (6 * n_tables - 1)
    return [(20 + (j * 3) % 15, None if j == 0 else (j - 1) // 2,
             fillers // n_tables + (j < fillers % n_tables)) for j in range(n_tables)]


# Why each workload exists: BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "sweep-small": Workload(
        tables=[_chain(r) for r in ([40, 80, 60], [60, 120, 90, 70], [25, 50, 40],
                                    [100, 200, 150, 120], [150, 300, 200], [30, 90, 60, 50],
                                    [80, 160, 120], [200, 300, 250, 150])],
        cycle_dbs=(5,),
        templates=tuple(TEMPLATES),
        examples=200, train=200,
        specs=(("create", "create", 0), ("create_select3", "create+select:3", 0),
               ("create_select3_4shot", "create+select:3", 4)),
        mix={"oracle": 120, "mutant": 50, "invalid": 15, "forbidden": 3, "empty": 11,
             "runaway": 1},
        suite_k=32,
        eval_config={"timeout_ms": 200},
    ),
    "suite-large": Workload(
        tables=[_chain([1000, 2000, 600]), _chain([800, 1600]), _chain([700, 1400, 500])],
        cycle_dbs=(0,),
        templates=("filter", "join_list", "join_distinct", "or_filter", "range_sum",
                   "top_n", "not_in", "count_cat"),
        examples=150, train=80,
        specs=(("create_select3_2shot", "create+select:3", 2),),
        mix={"oracle": 105, "mutant": 30, "invalid": 10, "empty": 5},
        suite_k=4, large=True,
    ),
    "prompt-wide": Workload(
        tables=[_wide(i) for i in range(30)],
        cycle_dbs=(),
        templates=tuple(TEMPLATES),
        examples=500, train=400,
        specs=(("create_select3_8shot", "create+select:3", 8),),
        mix={"oracle": 350, "mutant": 100, "invalid": 40, "empty": 10},
        suite_k=1,
        prompt_config={"context_tokens": 2350},
    ),
}


def _word(rng, n):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _value(rng, sql_type):
    if sql_type == "INTEGER":
        return rng.randrange(10000)
    if sql_type == "REAL":
        return round(rng.uniform(0, 100), 2)
    return _word(rng, 5)


def make_database(path: Path, tables: list[Table], rng: random.Random) -> None:
    stmts = []
    for t in tables:
        cols = ["id INTEGER PRIMARY KEY", "name TEXT NOT NULL", "category TEXT",
                "score INTEGER", "price REAL"]
        cols += [f"{f} {ty}" for f, ty in t.fillers]
        for ref in (t.parent, t.back_ref):
            if ref:
                cols.append(f"{ref}_id INTEGER REFERENCES {ref}(id)")
        stmts.append(f"CREATE TABLE {t.name} (\n    " + ",\n    ".join(cols) + "\n)")
    by_name = {t.name: t for t in tables}
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    try:
        for stmt in stmts:
            conn.execute(stmt)
        for t in tables:
            rows = []
            for i in range(1, t.rows + 1):
                row = [i, _word(rng, 6), rng.choice(CATEGORIES), rng.randrange(1000),
                       round(rng.uniform(1, 500), 2)]
                row += [_value(rng, ty) for _, ty in t.fillers]
                row += [rng.randint(1, by_name[ref].rows)
                        for ref in (t.parent, t.back_ref) if ref]
                rows.append(row)
            marks = ",".join("?" * len(rows[0]))
            conn.executemany(f"INSERT INTO {t.name} VALUES ({marks})", rows)
        conn.commit()
    finally:
        conn.close()


def _percentile(values, lo, hi, rng):
    values = sorted(values)
    return values[int(rng.uniform(lo, hi) * (len(values) - 1))]


def _literals(conn, parent: str, child: str, large: bool, rng: random.Random) -> dict:
    # narrow percentile ranges keep result sizes, and so costs, alike across seeds
    lo, hi = (0.12, 0.18) if large else (0.4, 0.6)
    p_scores = [r[0] for r in conn.execute(f"SELECT score FROM {parent}")]
    c_scores = [r[0] for r in conn.execute(f"SELECT score FROM {child}")]
    n = rng.randint(600, 700) if large else rng.randint(3, 10)
    return {"T": parent, "C": child, "fk": f"{parent}_id",
            "v": _percentile(p_scores, lo, hi, rng),
            "q": _percentile(c_scores, lo, hi, rng),
            "c": rng.choice(CATEGORIES), "n": n, "n1": n + 1,
            "lo": _percentile(p_scores, 0.2, 0.3, rng),
            "hi": _percentile(p_scores, 0.95, 1.0, rng) if large
            else _percentile(p_scores, 0.7, 0.8, rng)}


def reference_rows(conn, sql: str, ordered: bool):
    rows = [tuple(r) for r in conn.execute(sql).fetchall()]
    return rows if ordered else Counter(rows)


def _raw(sql: str, rng: random.Random) -> str:
    """Turn SQL into a raw completion: the prompt already ends in SELECT, and
    models run on past the query, so add one of the stop strings and noise."""
    body = sql[len("SELECT"):]
    if rng.random() < 0.3:
        body = body.replace(" FROM ", "\nFROM ", 1)
    return body + rng.choice([";", " ;\n\n-- next question", "\n\nSELECT 1", ""])


def _runaway(tables: list[Table]) -> str:
    big = max(tables, key=lambda t: t.rows)
    aliases, product = [], 1
    while product < 10**12:
        aliases.append(f"{big.name} AS x{len(aliases)}")
        product *= big.rows
    return "SELECT count(*) FROM " + ", ".join(aliases)


def _completion(kind, tpl, lits, tables, conn, rng) -> tuple[str, dict]:
    """Return (raw completion, planted label) for one example."""
    def fmt(sql):
        return sql.format(**lits)

    if kind == "oracle":
        return _raw(fmt(rng.choice((tpl.gold,) + tpl.rewrites)), rng), {"kind": kind, **EXPECT[kind]}
    if kind == "mutant":
        sql = fmt(rng.choice(tpl.mutants))
        differs = (reference_rows(conn, sql, tpl.ordered)
                   != reference_rows(conn, fmt(tpl.gold), tpl.ordered))
        label = {"kind": kind, "ex": False} if differs else {"kind": kind}
        return _raw(sql, rng), label
    if kind == "invalid":
        sub = rng.choice(INVALID_KINDS)
        sql = {
            "no_table": f"SELECT name FROM {lits['T']}_list",
            "no_column": f"SELECT title FROM {lits['T']} WHERE score > {lits['v']}",
            "syntax": f"SELECT name FROM {lits['T']} WHERE score >",
            "ambiguous": fmt("SELECT id FROM {T} AS T1 JOIN {C} AS T2 ON T1.id = T2.{fk}"),
        }[sub]
        return _raw(sql, rng), {"kind": f"invalid.{sub}", **EXPECT[kind]}
    if kind == "forbidden":
        return _raw(f"SELECT * FROM pragma_table_info('{lits['T']}')", rng), \
            {"kind": kind, **EXPECT[kind]}
    if kind == "empty":
        return rng.choice(["", " ;", "\n\nSELECT name FROM x"]), {"kind": kind, **EXPECT[kind]}
    if kind == "runaway":
        return _raw(_runaway(tables), rng), {"kind": kind, **EXPECT[kind]}
    raise ValueError(kind)


def _schemas(w: Workload, rng: random.Random) -> dict[str, list[Table]]:
    dbs = {}
    for i, shape in enumerate(w.tables):
        names = rng.sample(NOUNS, len(shape))
        tables = []
        for j, (rows, parent, n_fillers) in enumerate(shape):
            fillers = tuple(FILLERS[(i + j + f) % len(FILLERS)] for f in range(n_fillers))
            tables.append(Table(names[j], rows, None if parent is None else names[parent],
                                fillers=fillers))
        if i in w.cycle_dbs:
            tables[0].back_ref = tables[1].name
        dbs[f"{names[0]}_{i}"] = tables
    return dbs


def _spread(mix: dict, shift: int) -> list:
    """The completion kinds of mix, each spaced evenly over the examples and
    rotated by shift, so the mix per template and database does not depend
    on the seed."""
    n = sum(mix.values())
    kinds = [kind for _, kind in sorted(((j + 0.5) * n / c, kind)
                                        for kind, c in mix.items() for j in range(c))]
    return kinds[shift % n:] + kinds[:shift % n]


def _edges(tables):
    return [(t.parent, t.name) for t in tables if t.parent]


def _examples(w, dbs, conns, n, rng, offset):
    """n templated examples: database, template and FK edge round-robin,
    literals seeded."""
    db_ids = list(dbs)
    out = []
    for k in range(n):
        db_id = db_ids[k % len(db_ids)]
        rounds, turn = divmod(k // len(db_ids) + offset, len(w.templates))
        tpl = TEMPLATES[w.templates[turn]]
        edges = _edges(dbs[db_id])
        parent, child = edges[rounds % len(edges)]
        lits = _literals(conns[db_id], parent, child, w.large, rng)
        out.append((db_id, tpl, lits))
    return out


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload under out and return its description."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    dbs = _schemas(w, rng)
    for db_id, tables in dbs.items():
        make_database(out / "db" / db_id / f"{db_id}.sqlite", tables, rng)
    conns = {db_id: sqlite3.connect(f"file:{out / 'db' / db_id / db_id}.sqlite?mode=ro",
                                    uri=True) for db_id in dbs}
    try:
        dev = _examples(w, dbs, conns, w.examples, rng, 0)
        train = _examples(w, dbs, conns, w.train, rng, 1)
        for name, items in (("dev", dev), ("train", train)):
            payload = [{"db_id": db_id, "question": tpl.question.format(**lits),
                        "query": tpl.gold.format(**lits)} for db_id, tpl, lits in items]
            (out / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")

        labels = {}
        (out / "replay").mkdir()
        for s, (spec, _, _) in enumerate(w.specs):
            srng = random.Random(f"{workload}:{seed}:{spec}")
            kinds = _spread(w.mix, 37 * s)
            lines, labels[spec] = [], {}
            for i, ((db_id, tpl, lits), kind) in enumerate(zip(dev, kinds)):
                raw, label = _completion(kind, tpl, lits, dbs[db_id], conns[db_id], srng)
                example_id = f"e{i:04d}"  # load_benchmark's positional ids
                lines.append(json.dumps({"example_id": example_id, "raw_completion": raw}))
                labels[spec][example_id] = label
            (out / "replay" / f"{spec}.jsonl").write_text("\n".join(lines) + "\n")
        (out / "labels.json").write_text(json.dumps(labels, indent=1, sort_keys=True) + "\n")
    finally:
        for conn in conns.values():
            conn.close()

    configs = {}
    for stage, cfg in (("prompt", w.prompt_config), ("eval", w.eval_config)):
        if cfg:
            text = "".join(f"{k}: {v}\n" for k, v in sorted(cfg.items()))
            (out / f"{stage}.yaml").write_text(text)
            configs[stage] = f"{stage}.yaml"

    manifest = {
        "workload": workload, "seed": seed,
        "benchmark": "dev.json", "train": "train.json", "db_root": "db",
        "databases": sorted(dbs), "suite_k": w.suite_k, "configs": configs,
        "specs": [{"name": s, "prompt": p, "shots": n, "replay": f"replay/{s}.jsonl"}
                  for s, p, n in w.specs],
        "labels": "labels.json",
        "sizes": {
            "databases": len(dbs),
            "tables": sum(len(t) for t in dbs.values()),
            "columns": sum(5 + len(t.fillers) + bool(t.parent) + bool(t.back_ref)
                           for ts in dbs.values() for t in ts),
            "source_rows": sum(t.rows for ts in dbs.values() for t in ts),
            "examples": w.examples, "train_examples": w.train,
        },
        "content_hash": content_hash(out),
    }
    (out / "workload.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def content_hash(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "workload.json":
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    manifest = generate(args.workload, args.seed, args.out)
    repeat = args.out.with_name(args.out.name + ".repeat")
    try:
        again = generate(args.workload, args.seed, repeat)["content_hash"]
    finally:
        shutil.rmtree(repeat, ignore_errors=True)
    if again != manifest["content_hash"]:
        print(f"error: generator is not deterministic: {manifest['content_hash']} "
              f"then {again}", file=sys.stderr)
        return 1
    print(json.dumps({"content_hash": manifest["content_hash"], "sizes": manifest["sizes"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
