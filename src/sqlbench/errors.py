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
    """Each category once, in the row order of the published error-analysis
    table: its value in an annotation file, its table label, and whether it
    comes from manual annotation."""
    TEST_SUITE_CORRECT = ("TestSuiteCorrect", "Test-Suite Correct", False)
    SHORTCUTS = ("Shortcuts", "Shortcuts", True)
    GROUP_BY_CONVENTION = ("GroupByConvention", "GROUP BY Convention", True)
    OTHER_SEMANTIC_INCORRECT = ("OtherSemanticIncorrect", "Other Semantic Incorrect", True)
    SELECT_EXTRA_COLUMNS = ("SelectExtraColumns", "SELECT Extra Columns", True)
    SELECT_CONVENTION = ("SelectConvention", "SELECT Convention", True)
    ARGMAX = ("Argmax", "Argmax", True)
    OTHER_AMBIGUOUS_CORRECT = ("OtherAmbiguousCorrect", "Other Ambiguous Correct", True)
    INVALID_AMBIGUOUS_COLUMN = ("InvalidAmbiguousColumn", "Ambiguous column name", False)
    INVALID_NO_SUCH_COLUMN = ("InvalidNoSuchColumn", "No such column", False)
    INVALID_OTHER = ("InvalidOther", "Other Invalid", False)

    def __new__(cls, value: str, label: str, manual: bool):
        member = object.__new__(cls)
        member._value_ = value
        member.label = label
        member.manual = manual
        return member


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


def detect_extra_columns(gold: ExecResult, pred: ExecResult, ordered: bool, warn) -> bool:
    """True when the prediction is wider than gold and some order-preserving
    projection of its columns reproduces the gold denotation, compared as
    compare_results does under ordered. A search skipped for a gold wider
    than MAX_PROJECTION_ARITY goes to warn."""
    g, p = gold.width, pred.width
    if p <= g:
        return False
    if g > MAX_PROJECTION_ARITY:
        warn(f"extra-column search skipped: gold arity {g} exceeds {MAX_PROJECTION_ARITY}")
        return False
    for positions in combinations(range(p), g):
        projected = ExecResult(g, [tuple(row[i] for i in positions) for row in pred.rows])
        if compare_results(gold, projected, ordered):
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
    return "".join(json.dumps({"example_id": eid, "category": "", "note": ""}) + "\n"
                   for eid in example_ids)


def load_annotations(path, known_ids) -> list[AnnotationRecord]:
    """The labelled records of an annotation file; an empty category is a
    draft and is left out. An unknown category, one that is not manual (the
    program itself decides those), an example not in known_ids, or a second
    label for one example raises IngestionError naming its line."""
    labelled = set()

    def annotation(rec: dict) -> AnnotationRecord | None:
        example_id = rec["example_id"]
        if not rec.get("category"):
            return None
        if example_id not in known_ids:
            raise ValueError(f"annotation references unknown example {example_id}")
        if example_id in labelled:
            raise ValueError(f"conflicting annotations for example {example_id!r}")
        category = ErrorCategory(rec["category"])
        if not category.manual:
            raise ValueError(f"{category.value!r} is not a category of manual annotation")
        labelled.add(example_id)
        return AnnotationRecord(example_id, category, rec.get("note", ""))

    records = read_jsonl(path, {"example_id": str}, annotation)
    return [rec for rec in records if rec is not None]


def breakdown(outcomes: list[EvalOutcome], annotations: list[AnnotationRecord],
              n_gold_broken: int = 0) -> list[dict]:
    """The rows of the category table, with two percentage columns: share
    of all predictions (%) and share of annotated errors (E%). Unannotated
    valid-but-wrong predictions count as Other Semantic Incorrect. annotations
    are as load_annotations returns them: one per example, each in outcomes."""
    by_example = {a.example_id: a for a in annotations}
    counts = dict.fromkeys(ErrorCategory, 0)
    error_counts = dict.fromkeys(ErrorCategory, 0)
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
    for cat in ErrorCategory:
        pct = 100.0 * counts[cat] / total if total else 0.0
        epct = 100.0 * error_counts[cat] / n_annotated if n_annotated and cat.manual else None
        rows.append({"category": cat.label, "count": counts[cat], "pct": pct, "e_pct": epct})
    if n_gold_broken:
        rows.append({"category": "Gold Broken", "count": n_gold_broken,
                     "pct": 100.0 * n_gold_broken / total, "e_pct": None})
    return rows
