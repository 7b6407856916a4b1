"""Rendering of the six prompt styles, token budgeting, and support fitting."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .dataset import SupportSet
from .schema import DatabaseSchema, RowSample


class PromptContractError(Exception):
    pass


class BudgetError(Exception):
    pass


class StyleKind(Enum):
    QUESTION = "question"
    API_DOCS = "apidocs"
    SELECT_X = "select"
    CREATE_TABLE = "create"
    CREATE_TABLE_SELECT_X = "create+select"


@dataclass(frozen=True)
class PromptStyle:
    kind: StyleKind
    x: int | None = None  # rows sampled per table

    def __post_init__(self):
        needs_x = self.kind in (StyleKind.SELECT_X, StyleKind.CREATE_TABLE_SELECT_X)
        if needs_x != (self.x is not None):
            raise ValueError(f"row count x must be set iff style samples rows ({self.kind})")

    @property
    def label(self) -> str:
        if self.x is not None:
            return f"{self.kind.value}:{self.x}"
        return self.kind.value


def parse_style(text: str) -> PromptStyle:
    """Parse a CLI style spec: question | apidocs | select:<X> | create | create+select:<X>."""
    text = text.strip().lower()
    if text == "question":
        return PromptStyle(StyleKind.QUESTION)
    if text == "apidocs":
        return PromptStyle(StyleKind.API_DOCS)
    if text == "create":
        return PromptStyle(StyleKind.CREATE_TABLE)
    if m := re.fullmatch(r"select:(\d+)", text):
        return PromptStyle(StyleKind.SELECT_X, x=int(m.group(1)))
    if m := re.fullmatch(r"create\+select:(\d+)", text):
        return PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=int(m.group(1)))
    raise ValueError(f"unknown prompt style {text!r}")


@dataclass(frozen=True)
class PromptBudget:
    context_tokens: int
    completion_reserve: int = 200

    def __post_init__(self):
        if self.completion_reserve >= self.context_tokens:
            raise ValueError("completion reserve must be smaller than the context window")


@dataclass
class RenderedPrompt:
    text: str
    est_tokens: int
    fits_budget: bool


INSTRUCTION_PLAIN = "-- Using valid SQLite, answer the following questions."
INSTRUCTION_TABLES = (
    "-- Using valid SQLite, answer the following questions for the tables provided above."
)


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_row_block(sample: RowSample) -> str:
    """Align a sample block the way the reference prompts print data frames:
    cells right-justified, single-space separated; a numeric column whose
    header is wider than every value gets one extra leading space."""
    cells = [[_cell_text(v) for v in row] for row in sample.rows]
    widths = []
    for j, name in enumerate(sample.header):
        col_vals = [row[j] for row in sample.rows]
        numeric = any(v is not None for v in col_vals) and all(
            v is None or (isinstance(v, (int, float)) and not isinstance(v, bool))
            for v in col_vals
        )
        vw = max((len(r[j]) for r in cells), default=0)
        if numeric and len(name) > vw:
            widths.append(len(name) + 1)
        else:
            widths.append(max(vw, len(name)))
    lines = [" ".join(name.rjust(w) for name, w in zip(sample.header, widths))]
    for row in cells:
        lines.append(" ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _select_section(sample: RowSample, with_table_header: bool) -> str:
    lines = [
        "/*",
        f"{sample.limit} example rows from table {sample.table}:"
        if with_table_header
        else f"{sample.limit} example rows:",
        f"SELECT * FROM {sample.table} LIMIT {sample.limit};",
    ]
    if with_table_header:
        lines.append(f"Table: {sample.table}")
    lines.append(format_row_block(sample))
    lines.append("*/")
    return "\n".join(lines)


def _tail(question: str) -> str:
    return f"-- {question}\nSELECT"


def _support_block(support: SupportSet, question: str) -> str:
    pairs = []
    for rec in support.examples:
        sql = rec.gold_sql.strip().rstrip(";").rstrip()
        pairs.append(f"-- {rec.question}\n{sql} ;")
    pairs.append(_tail(question))
    return "\n".join(["\n\n".join(pairs)])


def render_prompt(
    style: PromptStyle,
    schema: DatabaseSchema | None,
    samples: list[RowSample] | None,
    question: str,
    support: SupportSet | None = None,
    budget: PromptBudget | None = None,
) -> RenderedPrompt:
    """Produce the final prompt text for one style. Ends in the literal token
    SELECT; the model completion is the query body. Given a support set, even
    an empty one, the prompt takes the few-shot layout."""
    kind = style.kind
    if style.x is not None and samples is None:
        raise PromptContractError(f"style {style.label} requires row samples")
    if kind is not StyleKind.QUESTION and schema is None:
        raise PromptContractError(f"style {style.label} requires a database schema")

    if kind is StyleKind.QUESTION:
        schema_part = None
    elif kind is StyleKind.API_DOCS:
        lines = ["### SQLite SQL tables, with their properties:", "#"]
        for t in schema.tables:
            lines.append(f"# {t.name}({', '.join(t.column_names)})")
        lines.append("#")
        schema_part = "\n".join(lines)
    elif kind is StyleKind.SELECT_X:
        by_table = {s.table.lower(): s for s in samples}
        sections = [_select_section(by_table[t.name.lower()], True) for t in schema.tables]
        schema_part = "\n\n".join(sections)
    elif kind is StyleKind.CREATE_TABLE:
        schema_part = "\n\n".join(t.create_sql for t in schema.tables)
    else:  # CREATE_TABLE_SELECT_X
        by_table = {s.table.lower(): s for s in samples}
        sections = [
            t.create_sql + "\n" + _select_section(by_table[t.name.lower()], False)
            for t in schema.tables
        ]
        schema_part = "\n\n".join(sections)

    if support is not None:
        if kind is StyleKind.QUESTION:
            head = INSTRUCTION_PLAIN
        else:
            head = schema_part + "\n\n" + INSTRUCTION_TABLES
        if support.examples:
            text = head + "\n" + _support_block(support, question)
        else:
            text = head + "\n\n" + _tail(question)
    elif kind is StyleKind.QUESTION:
        text = INSTRUCTION_PLAIN + "\n\n" + _tail(question)
    elif kind is StyleKind.API_DOCS:
        text = schema_part + f"\n### {question}\nSELECT"
    else:
        text = schema_part + "\n\n\n" + INSTRUCTION_TABLES + "\n\n" + _tail(question)

    est = estimate_tokens(text)
    fits = True
    if budget is not None:
        fits = est + budget.completion_reserve <= budget.context_tokens
    return RenderedPrompt(text=text, est_tokens=est, fits_budget=fits)


_TOKEN_RUN = re.compile(r"\w+|[^\w\s]")


def estimate_tokens(text: str, inflation: float = 1.3) -> int:
    """Deterministic upper-bound token estimate: non-whitespace runs split on
    punctuation boundaries, inflated and rounded up."""
    count = len(_TOKEN_RUN.findall(text))
    return math.ceil(count * inflation)


def fit_support(
    budget: PromptBudget,
    style: PromptStyle,
    schema,
    samples,
    question: str,
    support: SupportSet,
) -> tuple[RenderedPrompt, int]:
    """Render with the largest support prefix that fits the budget, dropping
    from the least-frequent-template end. Raises BudgetError when even the
    zero-shot prompt is too large."""
    for keep in range(len(support.examples), -1, -1):
        trimmed = SupportSet(n=support.n, seed=support.seed, examples=support.examples[:keep])
        rendered = render_prompt(style, schema, samples, question, trimmed, budget)
        if rendered.fits_budget:
            return rendered, keep
    raise BudgetError(
        f"prompt exceeds budget ({budget.context_tokens} tokens) even with no support examples"
    )
