"""Rendering of the six prompt styles, token budgeting, and support fitting."""

from __future__ import annotations

import math
import re
import sqlite3
from contextlib import closing
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .dataset import SupportSet
from .schema import RowSample, TableSchema, quote_name


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
        if needs_x and self.x < 1:
            raise ValueError(f"prompt style {self.label} samples no rows; x must be >= 1")

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
    completion_reserve: int

    def __post_init__(self):
        if self.completion_reserve >= self.context_tokens:
            raise ValueError(f"completion_reserve {self.completion_reserve} must be smaller "
                             f"than context_tokens {self.context_tokens}")

    def admits(self, est_tokens: int) -> bool:
        """A prompt of est_tokens leaves the completion reserve free."""
        return est_tokens + self.completion_reserve <= self.context_tokens


@dataclass
class RenderedPrompt:
    text: str
    est_tokens: int


INSTRUCTION_PLAIN = "-- Using valid SQLite, answer the following questions."
INSTRUCTION_TABLES = (
    "-- Using valid SQLite, answer the following questions for the tables provided above."
)

# A token estimate is ceil(TOKEN_INFLATION x the number of token runs): word
# runs and single punctuation marks, never whitespace.
TOKEN_INFLATION = 1.3
_TOKEN_RUN = re.compile(r"\w+|[^\w\s]")


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


_PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@lru_cache(maxsize=4096)
def _parses_bare(name: str) -> bool:
    """Whether SQLite runs `SELECT * FROM <name>` with name bare, asked of
    SQLite itself on an empty in-memory table of that name. A keyword such
    as `order` fails, one SQLite takes as a name, such as `key`, runs."""
    with closing(sqlite3.connect(":memory:")) as conn:
        try:
            conn.execute(f"CREATE TABLE {quote_name(name)} (x)")
            conn.execute(f"SELECT * FROM {name} LIMIT 1")
        except sqlite3.Error:
            return False
    return True


def _select_section(sample: RowSample, with_table_header: bool) -> str:
    # a plain name that runs bare stays bare, so that prompts move only for
    # the other names
    name = sample.table
    if not (_PLAIN_NAME.fullmatch(name) and _parses_bare(name)):
        name = quote_name(name)
    lines = [
        "/*",
        f"{sample.limit} example rows from table {sample.table}:"
        if with_table_header
        else f"{sample.limit} example rows:",
        f"SELECT * FROM {name} LIMIT {sample.limit};",
    ]
    if with_table_header:
        lines.append(f"Table: {sample.table}")
    lines.append(format_row_block(sample))
    lines.append("*/")
    return "\n".join(lines)


def _count(text: str) -> int:
    return len(_TOKEN_RUN.findall(text))


_PLAIN_TOKENS = _count(INSTRUCTION_PLAIN)
_TABLES_TOKENS = _count(INSTRUCTION_TABLES)


def _inflate(count: int) -> int:
    return math.ceil(count * TOKEN_INFLATION)


def estimate_tokens(text: str) -> int:
    """Deterministic upper-bound token estimate: non-whitespace runs split on
    punctuation boundaries, inflated and rounded up."""
    return _inflate(_count(text))


@dataclass(frozen=True)
class SchemaSection:
    """The schema part of one database's prompts in one style, rendered and
    counted once; render_prompt and fit_support build every prompt on it."""
    style: PromptStyle
    text: str  # empty for the question style, which shows no schema
    tokens: int  # token runs, before inflation


def render_schema(
    style: PromptStyle, tables: list[TableSchema] | None, samples: list[RowSample] | None
) -> SchemaSection:
    """The schema part of style's prompts for one database, with its token runs."""
    kind = style.kind
    if style.x is not None and samples is None:
        raise PromptContractError(f"style {style.label} requires row samples")
    if kind is not StyleKind.QUESTION and tables is None:
        raise PromptContractError(f"style {style.label} requires a database schema")

    if kind is StyleKind.QUESTION:
        text = ""
    elif kind is StyleKind.API_DOCS:
        lines = ["### SQLite SQL tables, with their properties:", "#"]
        for t in tables:
            lines.append(f"# {t.name}({', '.join(t.column_names)})")
        lines.append("#")
        text = "\n".join(lines)
    elif kind is StyleKind.SELECT_X:
        by_table = {s.table.lower(): s for s in samples}
        sections = [_select_section(by_table[t.name.lower()], True) for t in tables]
        text = "\n\n".join(sections)
    elif kind is StyleKind.CREATE_TABLE:
        text = "\n\n".join(t.create_sql for t in tables)
    else:  # CREATE_TABLE_SELECT_X
        by_table = {s.table.lower(): s for s in samples}
        sections = [
            t.create_sql + "\n" + _select_section(by_table[t.name.lower()], False)
            for t in tables
        ]
        text = "\n\n".join(sections)
    return SchemaSection(style, text, _count(text))


@lru_cache(maxsize=4096)
def _pair(question: str, gold_sql: str) -> tuple[str, int]:
    """One support pair's text and token runs, counted once per process."""
    sql = gold_sql.strip().rstrip(";").rstrip()
    text = f"-- {question}\n{sql} ;"
    return text, _count(text)


def _pairs(support: SupportSet | None) -> list[tuple[str, int]] | None:
    if support is None:
        return None
    return [_pair(rec.question, rec.gold_sql) for rec in support.examples]


def _pieces(section: SchemaSection, question: str, pairs: list[tuple[str, int]] | None):
    """The prompt as strings to concatenate, and its token runs. pairs is
    None for the zero-shot layout. Each piece meets the next at whitespace,
    which no token run holds, so the prompt's runs are the pieces' runs."""
    kind = section.style.kind
    if kind is StyleKind.API_DOCS and pairs is None:
        tail = f"### {question}\nSELECT"
        return [section.text, "\n", tail], section.tokens + _count(tail)
    tail = f"-- {question}\nSELECT"
    if kind is StyleKind.QUESTION:
        out = [INSTRUCTION_PLAIN]
        tokens = _PLAIN_TOKENS
    else:
        out = [section.text, "\n\n\n" if pairs is None else "\n\n", INSTRUCTION_TABLES]
        tokens = section.tokens + _TABLES_TOKENS
    sep = "\n" if pairs else "\n\n"
    for text, n in pairs or ():
        out += (sep, text)
        tokens += n
        sep = "\n\n"
    out += (sep, tail)
    return out, tokens + _count(tail)


def render_prompt(section: SchemaSection, question: str,
                  support: SupportSet | None = None) -> RenderedPrompt:
    """Produce the final prompt text in the section's style. Ends in the
    literal token SELECT; the model completion is the query body. Given a
    support set, even an empty one, the prompt takes the few-shot layout."""
    pieces, tokens = _pieces(section, question, _pairs(support))
    return RenderedPrompt(text="".join(pieces), est_tokens=_inflate(tokens))


def fit_support(budget: PromptBudget, section: SchemaSection, question: str,
                support: SupportSet | None) -> tuple[RenderedPrompt, int]:
    """Render with the largest support prefix that fits the budget, dropping
    from the least-frequent-template end; support None is the zero-shot
    prompt. Raises BudgetError when even the prompt with no support examples
    is too large. Prefixes are measured by their counted pieces; only the
    chosen one is rendered."""
    pairs = _pairs(support)
    _, tokens = _pieces(section, question, pairs)
    keep = len(pairs or ())
    while not budget.admits(_inflate(tokens)):
        if keep == 0:
            raise BudgetError(
                f"prompt exceeds budget ({budget.context_tokens} tokens) "
                "even with no support examples"
            )
        keep -= 1
        tokens -= pairs[keep][1]
    if support is not None:
        support = SupportSet(n=support.n, seed=support.seed, examples=support.examples[:keep])
    return render_prompt(section, question, support), keep
