"""Triage of failed predictions: automatic invalid-SQL subcategories, the
extra-columns heuristic, annotation sampling, and the category breakdown."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .dataset import read_jsonl
from .execution import ExecResult, compare_results
from .evaluate import EvalOutcome

MAX_PROJECTION_ARITY = 6


class ErrorCategory(Enum):
    TEST_SUITE_CORRECT = "TestSuiteCorrect"
    SHORTCUTS = "Shortcuts"
    GROUP_BY_CONVENTION = "GroupByConvention"
    OTHER_SEMANTIC_INCORRECT = "OtherSemanticIncorrect"
    SELECT_EXTRA_COLUMNS = "SelectExtraColumns"
    SELECT_CONVENTION = "SelectConvention"
    ARGMAX = "Argmax"
    OTHER_AMBIGUOUS_CORRECT = "OtherAmbiguousCorrect"
    INVALID_AMBIGUOUS_COLUMN = "InvalidAmbiguousColumn"
    INVALID_NO_SUCH_COLUMN = "InvalidNoSuchColumn"
    INVALID_OTHER = "InvalidOther"


MANUAL_CATEGORIES = {
    ErrorCategory.SHORTCUTS,
    ErrorCategory.GROUP_BY_CONVENTION,
    ErrorCategory.OTHER_SEMANTIC_INCORRECT,
    ErrorCategory.SELECT_EXTRA_COLUMNS,
    ErrorCategory.SELECT_CONVENTION,
    ErrorCategory.ARGMAX,
    ErrorCategory.OTHER_AMBIGUOUS_CORRECT,
}


@dataclass
class AnnotationRecord:
    example_id: str
    category: ErrorCategory
    note: str = ""


def classify_invalid(error_message: str) -> ErrorCategory:
    """Map an engine error message onto its invalid-SQL subcategory."""
    msg = error_message.lower()
    if "ambiguous column name" in msg:
        return ErrorCategory.INVALID_AMBIGUOUS_COLUMN
    if "no such column" in msg:
        return ErrorCategory.INVALID_NO_SUCH_COLUMN
    return ErrorCategory.INVALID_OTHER


def detect_extra_columns(gold: ExecResult, pred: ExecResult, warn) -> bool:
    """True when the prediction is wider than gold and some order-preserving
    projection of its columns reproduces the gold denotation. A search skipped
    for a gold wider than MAX_PROJECTION_ARITY goes to warn."""
    g, p = len(gold.columns), len(pred.columns)
    if p <= g:
        return False
    if g > MAX_PROJECTION_ARITY:
        warn(f"extra-column search skipped: gold arity {g} exceeds {MAX_PROJECTION_ARITY}")
        return False
    for positions in combinations(range(p), g):
        projected = ExecResult(
            columns=[pred.columns[i] for i in positions],
            rows=[tuple(row[i] for i in positions) for row in pred.rows],
            order_sensitive=pred.order_sensitive,
        )
        if compare_results(gold, projected):
            return True
    return False


def sample_for_annotation(outcomes: list[EvalOutcome], n: int, seed: int, warn) -> list[str]:
    """Deterministic uniform sample (without replacement) of valid-but-wrong
    predictions for manual annotation. A request for more than there are goes
    to warn."""
    population = [o.example_id for o in outcomes if o.valid and not o.ts]
    if n >= len(population):
        if n > len(population):
            warn(f"requested {n} annotations but only {len(population)} candidates exist")
        return list(population)
    rng = random.Random(seed)
    return rng.sample(population, n)


def annotation_skeleton(example_ids: list[str]) -> str:
    lines = [
        json.dumps({"example_id": eid, "category": "", "note": ""})
        for eid in example_ids
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _annotation(rec: dict) -> AnnotationRecord | None:
    if not rec.get("category"):  # an empty category is a draft
        return None
    return AnnotationRecord(rec["example_id"], ErrorCategory(rec["category"]),
                            rec.get("note", ""))


def load_annotations(path) -> list[AnnotationRecord]:
    """The labelled records of an annotation file. An unknown category raises
    IngestionError naming its line."""
    records = read_jsonl(path, {"example_id": str}, _annotation)
    return [rec for rec in records if rec is not None]


# Display order mirrors the published error-analysis table.
BREAKDOWN_ROWS = [
    ("Test-Suite Correct", ErrorCategory.TEST_SUITE_CORRECT),
    ("Shortcuts", ErrorCategory.SHORTCUTS),
    ("GROUP BY Convention", ErrorCategory.GROUP_BY_CONVENTION),
    ("Other Semantic Incorrect", ErrorCategory.OTHER_SEMANTIC_INCORRECT),
    ("SELECT Extra Columns", ErrorCategory.SELECT_EXTRA_COLUMNS),
    ("SELECT Convention", ErrorCategory.SELECT_CONVENTION),
    ("Argmax", ErrorCategory.ARGMAX),
    ("Other Ambiguous Correct", ErrorCategory.OTHER_AMBIGUOUS_CORRECT),
    ("Ambiguous column name", ErrorCategory.INVALID_AMBIGUOUS_COLUMN),
    ("No such column", ErrorCategory.INVALID_NO_SUCH_COLUMN),
    ("Other Invalid", ErrorCategory.INVALID_OTHER),
]


def breakdown(outcomes: list[EvalOutcome], annotations: list[AnnotationRecord],
              n_gold_broken: int = 0) -> dict:
    """Category table with two percentage columns: share of all predictions
    (%) and share of annotated errors (E%). Unannotated valid-but-wrong
    predictions count as Other Semantic Incorrect."""
    by_example = {}
    for a in annotations:
        if a.example_id in by_example:
            dupes = sorted({a.example_id} | {
                b.example_id for b in annotations
                if sum(c.example_id == b.example_id for c in annotations) > 1
            })
            raise ValueError(f"conflicting annotations for examples: {dupes}")
        by_example[a.example_id] = a

    known_ids = {o.example_id for o in outcomes}
    for a in annotations:
        if a.example_id not in known_ids:
            raise ValueError(f"annotation references unknown example {a.example_id}")

    counts = {cat: 0 for _, cat in BREAKDOWN_ROWS}
    error_counts = {cat: 0 for _, cat in BREAKDOWN_ROWS}
    n_annotated = 0
    for o in outcomes:
        if o.ts:
            counts[ErrorCategory.TEST_SUITE_CORRECT] += 1
        elif not o.valid:
            counts[classify_invalid(o.invalid_reason or "")] += 1
        else:
            ann = by_example.get(o.example_id)
            cat = ann.category if ann else ErrorCategory.OTHER_SEMANTIC_INCORRECT
            counts[cat] += 1
            if ann:
                n_annotated += 1
                error_counts[cat] += 1

    total = len(outcomes) + n_gold_broken
    rows = []
    for label, cat in BREAKDOWN_ROWS:
        pct = 100.0 * counts[cat] / total if total else 0.0
        epct = (100.0 * error_counts[cat] / n_annotated
                if n_annotated and cat in MANUAL_CATEGORIES else None)
        rows.append({"category": label, "count": counts[cat], "pct": pct, "e_pct": epct})
    if n_gold_broken:
        rows.append({
            "category": "Gold Broken",
            "count": n_gold_broken,
            "pct": 100.0 * n_gold_broken / total,
            "e_pct": None,
        })
    return {"total": total, "annotated": n_annotated, "rows": rows}
