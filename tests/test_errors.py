import json
import re
import sqlite3
from itertools import combinations

import pytest

from sqlbench.dataset import IngestionError
from sqlbench.errors import (
    AnnotationRecord,
    ErrorCategory,
    annotation_skeleton,
    breakdown,
    classify_invalid,
    detect_extra_columns,
    load_annotations,
    sample_for_annotation,
)
from sqlbench.evaluate import EvalOutcome
from sqlbench.execution import ExecResult, compare_results, has_top_level_order_by

from conftest import run_sql


def outcome(eid, valid=True, reason=None, ex=False, ts=False):
    return EvalOutcome(eid, valid, reason, ex, ts, 1.0)


class TestClassifyInvalid:
    def test_ambiguous(self):
        assert classify_invalid("ambiguous column name: name") is \
            ErrorCategory.INVALID_AMBIGUOUS_COLUMN

    def test_no_such_column(self):
        assert classify_invalid("no such column: Year_of_Work") is \
            ErrorCategory.INVALID_NO_SUCH_COLUMN

    def test_fallback(self):
        assert classify_invalid('near "FORM": syntax error') is ErrorCategory.INVALID_OTHER

    def test_case_insensitive(self):
        assert classify_invalid("No Such Column: x") is ErrorCategory.INVALID_NO_SUCH_COLUMN

    @pytest.mark.parametrize("msg", ["", "timeout", "no such table: t", "weird"])
    def test_total(self, msg):
        assert classify_invalid(msg) in (
            ErrorCategory.INVALID_AMBIGUOUS_COLUMN,
            ErrorCategory.INVALID_NO_SUCH_COLUMN,
            ErrorCategory.INVALID_OTHER,
        )


@pytest.fixture(scope="module")
def conductor_db(tmp_path_factory):
    db = tmp_path_factory.mktemp("orch") / "orchestra.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript("""
        CREATE TABLE conductor(Conductor_ID int primary key, Name text, Year_of_Work int);
        INSERT INTO conductor VALUES
            (1, 'Antal Brown', 20), (2, 'Gerard Schwarz', 15),
            (3, 'Robert Waters', 15), (4, 'Michael Morgan', 10);
    """)
    conn.close()
    return db


class TestDetectExtraColumns:
    def test_conductor_example(self, conductor_db):
        gold = run_sql(conductor_db, "SELECT Name FROM conductor ORDER BY Year_of_Work DESC")
        pred = run_sql(conductor_db,
                       "SELECT Name, Year_of_Work FROM conductor "
                       "ORDER BY Year_of_Work DESC")
        assert not compare_results(gold, pred, True)
        assert detect_extra_columns(gold, pred, True, print)

    def test_equal_arity_never_fires(self, conductor_db):
        gold = run_sql(conductor_db, "SELECT Name FROM conductor")
        pred = run_sql(conductor_db, "SELECT Year_of_Work FROM conductor")
        assert not detect_extra_columns(gold, pred, False, print)

    def test_wider_but_no_matching_projection(self, conductor_db):
        gold = run_sql(conductor_db, "SELECT Name FROM conductor WHERE Year_of_Work > 12")
        pred = run_sql(conductor_db, "SELECT Conductor_ID, Year_of_Work FROM conductor")
        assert not detect_extra_columns(gold, pred, False, print)

    def test_agrees_with_projection_brute_force(self, conductor_db):
        queries = [
            "SELECT Name FROM conductor",
            "SELECT Name, Year_of_Work FROM conductor",
            "SELECT Conductor_ID, Name, Year_of_Work FROM conductor",
            "SELECT Year_of_Work, Name FROM conductor",
            "SELECT Name FROM conductor ORDER BY Year_of_Work DESC",
        ]
        results = [run_sql(conductor_db, q) for q in queries]
        for gold, gold_sql in zip(results, queries):
            ordered = has_top_level_order_by(gold_sql)
            for pred in results:
                got = detect_extra_columns(gold, pred, ordered, print)
                g, p = gold.width, pred.width
                want = p > g and any(
                    compare_results(
                        gold, ExecResult(g, [tuple(r[i] for i in pos) for r in pred.rows]),
                        ordered,
                    )
                    for pos in combinations(range(p), g)
                )
                assert got == want

    def test_arity_cap_warns(self):
        gold, pred = ExecResult(7, []), ExecResult(9, [])
        warnings = []
        assert not detect_extra_columns(gold, pred, False, warnings.append)
        assert warnings


class TestSampleForAnnotation:
    def population(self):
        outs = [outcome(f"e{i:04d}", valid=True, ex=True, ts=False) for i in range(5)]
        outs += [outcome("good", ts=True, ex=True)]
        outs += [outcome("bad", valid=False, reason="x")]
        return outs

    def test_capped_with_warning(self):
        warnings = []
        ids = sample_for_annotation(self.population(), 100, seed=1, warn=warnings.append)
        assert len(ids) == 5
        assert warnings

    def test_deterministic(self):
        a = sample_for_annotation(self.population(), 3, seed=9, warn=print)
        b = sample_for_annotation(self.population(), 3, seed=9, warn=print)
        assert a == b

    def test_empty_population(self):
        assert sample_for_annotation([outcome("ok", ts=True, ex=True)], 10, seed=0,
                                     warn=print) == []

    def test_excludes_invalid_and_correct(self):
        ids = sample_for_annotation(self.population(), 100, seed=0, warn=print)
        assert "good" not in ids and "bad" not in ids

    def test_skeleton_round_trip(self, tmp_path):
        text = annotation_skeleton(["e0001", "e0002"])
        path = tmp_path / "ann.jsonl"
        path.write_text(text)
        assert load_annotations(path, set()) == []  # empty categories are drafts
        path.write_text(
            '{"example_id": "e0001", "category": "Shortcuts", "note": "used literal"}\n'
        )
        (rec,) = load_annotations(path, {"e0001"})
        assert rec.category is ErrorCategory.SHORTCUTS


class TestBreakdown:
    def test_all_correct(self):
        outs = [outcome(f"e{i}", ex=True, ts=True) for i in range(100)]
        rows = breakdown(outs, [])
        by_cat = {r["category"]: r for r in rows}
        assert by_cat["Test-Suite Correct"]["pct"] == 100.0
        assert all(r["pct"] == 0 for c, r in by_cat.items() if c != "Test-Suite Correct")

    def test_invalid_percentages(self):
        outs = [outcome(f"i{i}", valid=False, reason="no such column: x") for i in range(2)]
        outs += [outcome("s0", valid=False, reason="syntax error")]
        outs += [outcome(f"c{i}", ex=True, ts=True) for i in range(7)]
        rows = breakdown(outs, [])
        by_cat = {r["category"]: r for r in rows}
        assert by_cat["No such column"]["pct"] == 20.0
        assert by_cat["Other Invalid"]["pct"] == 10.0

    def test_percentages_sum_to_100(self):
        outs = [outcome("a", ex=True, ts=True), outcome("b", valid=False, reason="x"),
                outcome("c", ex=True, ts=False), outcome("d", ts=False)]
        anns = [AnnotationRecord("c", ErrorCategory.ARGMAX)]
        rows = breakdown(outs, anns, n_gold_broken=1)
        assert sum(r["pct"] for r in rows) == pytest.approx(100.0, abs=0.1)

    def test_e_percent_over_annotated_errors(self):
        outs = [outcome(f"e{i}", ex=True, ts=False) for i in range(4)]
        anns = [
            AnnotationRecord("e0", ErrorCategory.SHORTCUTS),
            AnnotationRecord("e1", ErrorCategory.SHORTCUTS),
            AnnotationRecord("e2", ErrorCategory.SELECT_CONVENTION),
            AnnotationRecord("e3", ErrorCategory.ARGMAX),
        ]
        rows = breakdown(outs, anns)
        by_cat = {r["category"]: r for r in rows}
        assert by_cat["Shortcuts"]["e_pct"] == pytest.approx(50.0)
        assert sum(r["e_pct"] or 0 for r in rows) == pytest.approx(100.0, abs=0.1)

    def test_conflicting_annotations_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"example_id": "e0", "category": "Shortcuts"}\n'
                        '{"example_id": "e0", "category": ""}\n'
                        '{"example_id": "e0", "category": "Argmax"}\n')
        message = f"{path}:3: conflicting annotations for example 'e0'"
        with pytest.raises(IngestionError, match=re.escape(message)):
            load_annotations(path, {"e0"})

    def test_unknown_example_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"example_id": "ghost", "category": ""}\n'
                        '{"example_id": "ghost", "category": "Argmax"}\n')
        message = f"{path}:2: annotation references unknown example ghost"
        with pytest.raises(IngestionError, match=re.escape(message)):
            load_annotations(path, {"e0"})

    @pytest.mark.parametrize("category", [c for c in ErrorCategory if not c.manual],
                             ids=lambda c: c.value)
    def test_category_the_program_decides_rejected(self, tmp_path, category):
        # a valid-but-wrong example labelled TestSuiteCorrect would count as
        # TS-correct in the breakdown and drop out of E%
        path = tmp_path / "ann.jsonl"
        path.write_text('{"example_id": "e0", "category": "Argmax"}\n'
                        + json.dumps({"example_id": "e1", "category": category.value}) + "\n")
        message = f"{path}:2: {category.value!r} is not a category of manual annotation"
        with pytest.raises(IngestionError, match=re.escape(message)):
            load_annotations(path, {"e0", "e1"})

    def test_unannotated_errors_fall_into_other(self):
        outs = [outcome("e0", ex=True, ts=False)]
        rows = breakdown(outs, [])
        by_cat = {r["category"]: r for r in rows}
        assert by_cat["Other Semantic Incorrect"]["count"] == 1
