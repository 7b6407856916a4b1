"""Self-tests of the benchmark's own code: generator determinism, the labels it
plants by construction, the tracer and its self-time arithmetic, and the
correctness gate. Run with: python -m pytest bench/tests -q"""

import json
import random
import sqlite3
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import generate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, instrument, self_times  # noqa: E402
from speed import REFERENCE_S, Speedometer  # noqa: E402
from sqlbench.backend import finalize_sql  # noqa: E402


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen") / "sweep"
    return out, generate.generate("sweep-small", 3, out)


def test_same_seed_gives_identical_bytes(sweep, tmp_path):
    out, manifest = sweep
    again = generate.generate("sweep-small", 3, tmp_path / "again")
    assert again == manifest
    assert generate.content_hash(tmp_path / "again") == manifest["content_hash"]
    for p in sorted(out.rglob("*")):
        if p.is_file():
            assert p.read_bytes() == (tmp_path / "again" / p.relative_to(out)).read_bytes(), p
    other = generate.generate("sweep-small", 4, tmp_path / "other")
    assert other["content_hash"] != manifest["content_hash"]


def test_shapes_do_not_depend_on_seed(sweep, tmp_path):
    _, manifest = sweep
    other = generate.generate("sweep-small", 4, tmp_path / "other")
    assert other["sizes"] == manifest["sizes"]


def _gold_by_id(out):
    items = json.loads((out / "dev.json").read_text())
    return {f"e{i:04d}": item for i, item in enumerate(items)}


def test_planted_labels_hold_on_the_original_database(sweep):
    out, manifest = sweep
    labels = json.loads((out / "labels.json").read_text())
    gold = _gold_by_id(out)
    mix = generate.WORKLOADS["sweep-small"].mix
    for spec in manifest["specs"]:
        replay = {json.loads(line)["example_id"]: json.loads(line)["raw_completion"]
                  for line in (out / spec["replay"]).read_text().splitlines()}
        kinds = Counter(label["kind"].split(".")[0] for label in labels[spec["name"]].values())
        assert kinds == Counter(mix)
        for example_id, label in labels[spec["name"]].items():
            item = gold[example_id]
            db = out / "db" / item["db_id"] / f"{item['db_id']}.sqlite"
            sql = finalize_sql(replay[example_id])
            kind = label["kind"]
            if kind == "empty":
                assert sql == "" and label["valid"] is False
                continue
            if kind == "runaway":
                assert label["valid"] is False and sql.count(" AS x") >= 4
                continue
            if kind == "forbidden":
                assert "pragma_table_info" in sql and label["valid"] is False
                continue
            conn = sqlite3.connect(db)
            try:
                if kind.startswith("invalid"):
                    assert label["valid"] is False
                    with pytest.raises(sqlite3.Error):
                        conn.execute(sql).fetchall()
                    continue
                ordered = "ORDER BY" in item["query"]
                same = (generate.reference_rows(conn, sql, ordered)
                        == generate.reference_rows(conn, item["query"], ordered))
            finally:
                conn.close()
            if kind == "oracle":
                assert same and label["ts"] is True, (example_id, sql)
            else:
                assert kind == "mutant"
                assert same == ("ex" not in label), (example_id, sql)


def test_runaway_query_is_decisively_long():
    tables = generate._schemas(generate.WORKLOADS["sweep-small"], random.Random(0))
    for ts in tables.values():
        sql = generate._runaway(ts)
        biggest = max(t.rows for t in ts)
        assert biggest ** sql.count(" AS x") >= 10**12


def test_self_time_subtracts_children_once():
    # root [0,10] holds a [1,4] and b [5,7]; a holds c [2,3]; d [6,8] overlaps b
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 4.0, 0, None, None],
        ["c", 2.0, 3.0, 1, None, None],
        ["b", 5.0, 7.0, 0, None, None],
        ["d", 6.0, 8.0, 0, None, None],
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 3, 3 - 1, 1, 2, 2])


def test_self_time_clips_children_to_parent():
    spans = [["p", 0.0, 2.0, -1, None, None], ["c", 1.0, 3.0, 0, None, None]]
    assert self_times(spans) == pytest.approx([1.0, 2.0])


@pytest.fixture
def fake_package(monkeypatch):
    lower = types.ModuleType("fakepkg.lower")
    exec("def leaf(x):\n    return x + 1\n", lower.__dict__)
    upper = types.ModuleType("fakepkg.upper")
    upper.leaf = lower.leaf  # imported by name, as sqlbench modules do
    exec("def top(x):\n    return leaf(x) * 2\n", upper.__dict__)
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.lower", lower), ("fakepkg.upper", upper)):
        monkeypatch.setitem(sys.modules, name, mod)
    return lower, upper


def test_instrument_nests_spans_and_restores(fake_package):
    lower, upper = fake_package
    original_leaf = lower.leaf
    tracer = Tracer()
    seen = []
    hooks = {"lower.leaf": (lambda args, kwargs: f"x={args[0]}",
                            lambda args, kwargs, result, span: seen.append(result))}
    with instrument(tracer, "fakepkg", {"upper": ("top",), "lower": ("leaf", "gone")},
                    hooks) as missing:
        with tracer.span("root"):
            assert upper.top(1) == 4
    assert missing == ["lower.gone"]
    assert [(s[0], s[3], s[5]) for s in tracer.spans] == [
        ("root", -1, None), ("upper.top", 0, None), ("lower.leaf", 1, "x=1")]
    assert seen == [2]
    assert lower.leaf is original_leaf and upper.leaf is original_leaf


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(generate.WORKLOADS)


def _pass(outcomes, rows):
    return {"runs": [{"spec": "s", "ok": True, "prompts": 2, "outcomes": outcomes}],
            "report": rows}


def test_gate_counts_label_mismatches_and_report_order():
    labels = {"s": {"e0000": {"kind": "oracle", "ts": True},
                    "e0001": {"kind": "empty", "valid": False}}}
    good = [{"example_id": "e0000", "valid": True, "invalid_reason": None, "ex": True,
             "ts": True, "timing_ms": 1.0},
            {"example_id": "e0001", "valid": False, "invalid_reason": "empty prediction",
             "ex": False, "ts": False, "timing_ms": 2.0}]
    row = {"label": "s", "va_pct": 50.0, "ex_pct": 50.0, "ts_pct": 50.0, "n_evaluated": 2}
    attempted, failed, problems, digest = run.check_pass(_pass(good, [row]), labels, 2)
    assert (attempted, failed, problems) == (2, 0, [])

    retimed = [dict(o, timing_ms=9.0) for o in good]
    assert run.check_pass(_pass(retimed, [row]), labels, 2)[3] == digest

    wrong = [dict(good[0], ts=False), good[1]]
    assert run.check_pass(_pass(wrong, [row]), labels, 2)[1] == 1
    broken = [dict(good[0], ex=False), good[1]]  # TS without EX
    assert run.check_pass(_pass(broken, [row]), labels, 2)[1] == 1
    assert run.check_pass(_pass(good[:1], [row]), labels, 2)[1] == 1  # no outcome
    bad_row = dict(row, ts_pct=60.0)
    assert run.check_pass(_pass(good, [bad_row]), labels, 2)[1] == 2


def test_speed_factor_is_reference_over_median_slice(tmp_path):
    speed = Speedometer(tmp_path)
    speed.sample(2)
    assert len(speed.samples) == 2 and min(speed.samples) > 0
    speed.samples = [1.0, 2 * REFERENCE_S, 9.0, REFERENCE_S / 2, REFERENCE_S]
    assert speed.factor(0) == pytest.approx(0.5)  # median slice 2 * REFERENCE_S
    assert speed.factor(3) == pytest.approx(REFERENCE_S / (0.75 * REFERENCE_S))
