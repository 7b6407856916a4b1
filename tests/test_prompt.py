import json
import math
import re
import sqlite3
from contextlib import closing
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import sqlbench.cli
from sqlbench.cli import main
from sqlbench.dataset import ExampleRecord, SupportSet, db_path
import sqlbench.prompt
from sqlbench.prompt import (
    INSTRUCTION_PLAIN,
    INSTRUCTION_TABLES,
    BudgetError,
    PromptBudget,
    PromptStyle,
    SchemaSection,
    StyleKind,
    estimate_tokens,
    fit_support,
    format_row_block,
    parse_style,
    render_prompt,
    render_schema,
)
from sqlbench.schema import RowSample, connect_ro, quote_name, read_only_uri, sample_rows

from conftest import (GEO_SUPPORT_PAIRS, load_golden, make_network1_db, read_samples,
                      read_schema, read_section)

QUESTION = "What is Kyle's id?"


@pytest.fixture(scope="module")
def network1(network1_db):
    return read_schema(network1_db), read_samples(network1_db, 3)


GOLDEN_STYLES = [
    ("question", PromptStyle(StyleKind.QUESTION)),
    ("apidocs", PromptStyle(StyleKind.API_DOCS)),
    ("select3", PromptStyle(StyleKind.SELECT_X, x=3)),
    ("create_table", PromptStyle(StyleKind.CREATE_TABLE)),
    ("create_table_select3", PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3)),
]


class TestGoldenRendering:
    @pytest.mark.parametrize("name,style", GOLDEN_STYLES, ids=[n for n, _ in GOLDEN_STYLES])
    def test_byte_exact(self, network1, name, style):
        schema, samples = network1
        got = render_prompt(render_schema(style, schema, samples), QUESTION).text
        assert got == load_golden(name)

    @pytest.mark.parametrize("name,style", GOLDEN_STYLES, ids=[n for n, _ in GOLDEN_STYLES])
    def test_ends_with_select(self, network1, name, style):
        schema, samples = network1
        text = render_prompt(render_schema(style, schema, samples), QUESTION).text
        assert text.endswith("SELECT")
        assert not text.endswith("\n")

    def test_pure_function(self, network1):
        schema, samples = network1
        style = PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3)
        a = render_prompt(render_schema(style, schema, samples), QUESTION)
        b = render_prompt(render_schema(style, schema, samples), QUESTION)
        assert a == b


class TestSelectLine:
    def test_keyword_table_names_are_quoted_only_where_sqlite_needs_it(self, tmp_path):
        db = tmp_path / "keywords.sqlite"
        names = ["order", "group", "select", "key", "action"]
        with closing(sqlite3.connect(db)) as conn:
            for name in names:
                conn.execute(f'CREATE TABLE "{name}" (id INTEGER)')
                conn.execute(f'INSERT INTO "{name}" VALUES (1)')
            conn.commit()
        text = read_section(db, PromptStyle(StyleKind.SELECT_X, x=3)).text
        lines = [line for line in text.splitlines() if line.startswith("SELECT * FROM")]
        # key and action parse bare, so their prompts keep the bare name
        assert lines == [f'SELECT * FROM "{name}" LIMIT 3;' for name in names[:3]] + [
            f"SELECT * FROM {name} LIMIT 3;" for name in names[3:]]
        with closing(sqlite3.connect(db)) as conn:
            assert [conn.execute(line).fetchall() for line in lines] == [[(1,)]] * len(names)


# The reference for a bare or a quoted name in the sample query: SQLite asked
# on a table of that name in a database of its own.
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


KEYWORD_NAMES = ["order", "group", "select", "from", "where", "table", "index", "values",
                 "default", "key", "action", "temp", "main", "rowid", "replace", "filter",
                 "window"]
_TABLE_NAMES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True),
    st.sampled_from(KEYWORD_NAMES + ["a b", "1st", "é", 'we"ird', "x-y", "[t]", "`t`"]),
    st.text(min_size=1, max_size=6),
).filter(lambda name: "\x00" not in name and not name.lower().startswith("sqlite_"))


def _database_of(path, names):
    """A database at path holding one table per name, in order, table i
    holding the one row (i,)."""
    with closing(sqlite3.connect(path)) as conn:
        for i, name in enumerate(names):
            conn.execute(f"CREATE TABLE {quote_name(name)} (id INTEGER)")
            conn.execute(f"INSERT INTO {quote_name(name)} VALUES ({i})")
        conn.commit()
    return path


class TestBareOrQuoted:
    @staticmethod
    def check(db, names):
        """Each sample query names its table bare exactly where the reference
        runs it bare, and the prompt prints the query, which runs."""
        with closing(connect_ro(db)) as conn:
            ran = [sample_rows(conn, name, 3).sql_name for name in names]
        assert ran == [name if _PLAIN_NAME.fullmatch(name) and _parses_bare(name)
                       else quote_name(name) for name in names]
        text = read_section(db, PromptStyle(StyleKind.SELECT_X, x=3)).text
        lines = [f"SELECT * FROM {name} LIMIT 3;" for name in ran]
        assert all(line in text for line in lines)
        with closing(sqlite3.connect(db)) as conn:
            assert [conn.execute(line).fetchall() for line in lines] == [
                [(i,)] for i in range(len(names))]

    def test_keyword_names(self, tmp_path):
        self.check(_database_of(tmp_path / "keywords.sqlite", KEYWORD_NAMES), KEYWORD_NAMES)

    @settings(max_examples=100, deadline=None)
    @given(names=st.lists(_TABLE_NAMES, min_size=1, max_size=5, unique_by=str.lower))
    def test_generated_names(self, tmp_path_factory, names):
        db = tmp_path_factory.mktemp("names") / "names.sqlite"
        self.check(_database_of(db, names), names)

    def test_prompt_run_opens_one_connection_per_database(self, tmp_path, monkeypatch):
        root = tmp_path / "dbroot"
        for db_id in ("network_1", "keywords"):
            (root / db_id).mkdir(parents=True)
        make_network1_db(db_path(root, "network_1"))
        _database_of(db_path(root, "keywords"), KEYWORD_NAMES)
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps([{"db_id": db_id, "question": "q", "query": "SELECT 1"}
                                     for db_id in ("network_1", "keywords") * 2]))
        opened = []
        connect = sqlite3.connect

        def logged(database, *args, **kwargs):
            opened.append(database)
            return connect(database, *args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", logged)
        assert main(["prompt", "--benchmark", str(bench), "--db-root", str(root),
                     "--prompt", "create+select:3", "--out", str(tmp_path / "p.jsonl")]) == 0
        assert sorted(opened) == sorted(
            read_only_uri(db_path(root, db_id)) for db_id in ("network_1", "keywords"))


def reference_row_block(sample: RowSample) -> str:
    """format_row_block as it was written row by row, kept as the reference."""
    def cell_text(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    cells = [[cell_text(v) for v in row] for row in sample.rows]
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


# the cells of one column: numbers, text, or any mix, each with NULLs
_NUMBERS = st.one_of(st.none(), st.integers(-10**6, 10**6), st.floats())
_TEXT_CELLS = st.one_of(st.none(), st.text(max_size=8), st.binary(max_size=4))
_COLUMN_CELLS = st.sampled_from([_NUMBERS, _TEXT_CELLS, st.one_of(_NUMBERS, _TEXT_CELLS)])


class TestRowBlock:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_rows=st.integers(0, 4),
           header=st.lists(st.text(max_size=12), min_size=1, max_size=4))
    def test_same_block_as_the_reference(self, data, n_rows, header):
        columns = [data.draw(st.lists(data.draw(_COLUMN_CELLS), min_size=n_rows,
                                      max_size=n_rows)) for _ in header]
        sample = RowSample("t", 3, header, list(zip(*columns)))
        assert format_row_block(sample) == reference_row_block(sample)

    def test_numeric_column_wider_header_gets_extra_space(self):
        block = format_row_block(RowSample("Friend", 3, ["student_id", "friend_id"],
                                           [(1510, 1381), (1510, 1689), (1689, 1709)]))
        assert block.split("\n")[0] == " student_id  friend_id"
        assert block.split("\n")[1] == "       1510       1381"

    def test_text_column_no_extra_space(self):
        block = format_row_block(RowSample("c", 3, ["country_name"], [("usa",)]))
        assert block == "country_name\n         usa"

    def test_null_rendered_as_empty_cell(self):
        block = format_row_block(RowSample("t", 2, ["a", "b"], [(1, None), (2, "x")]))
        lines = block.split("\n")
        assert lines[1].endswith(" ")  # empty cell padded to column width

    def test_float_uses_repr(self):
        block = format_row_block(RowSample("t", 1, ["area"], [(2675.0,)]))
        assert "2675.0" in block

    def test_empty_table_header_only(self):
        block = format_row_block(RowSample("t", 3, ["a", "bb"], []))
        assert block == "a bb"


class TestFewShot:
    def test_fig_layout_structure(self, geo_db):
        support = SupportSet(n=5, seed=0, examples=[
            ExampleRecord(f"s{i}", "geography", q, sql, template_id=str(i))
            for i, (q, sql) in enumerate(GEO_SUPPORT_PAIRS)
        ])
        section = read_section(geo_db, PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3))
        text = render_prompt(section, "what is the biggest city in arizona", support).text
        lines = text.split("\n")
        instr = ("-- Using valid SQLite, answer the following questions "
                 "for the tables provided above.")
        assert instr in lines
        i = lines.index(instr)
        # schema block ends right before the instruction, separated by one blank line
        assert lines[i - 1] == "" and lines[i - 2] == "*/"
        # five question/SQL pairs, each SQL terminated " ;", separated by blanks
        pair_lines = lines[i + 1:]
        questions = [l for l in pair_lines if l.startswith("-- ")]
        assert len(questions) == 6  # five support pairs plus the target question
        sql_lines = [l for l in pair_lines if l.startswith("SELECT ")]
        assert len(sql_lines) == 5
        assert all(l.endswith(" ;") for l in sql_lines)
        assert lines[i + 1] == "-- what is the population of austin"
        assert text.endswith("-- what is the biggest city in arizona\nSELECT")

    def test_support_sql_gets_space_semicolon(self, network1):
        schema, samples = network1
        support = SupportSet(n=1, seed=0, examples=[
            ExampleRecord("s0", "network_1", "How many students?",
                          "SELECT count(*) FROM Highschooler;", template_id="t"),
        ])
        section = render_schema(PromptStyle(StyleKind.CREATE_TABLE), schema, None)
        text = render_prompt(section, QUESTION, support).text
        assert "-- How many students?\nSELECT count(*) FROM Highschooler ;" in text

    def test_support_set_selects_few_shot_layout(self, network1):
        schema, _ = network1
        section = render_schema(PromptStyle(StyleKind.CREATE_TABLE), schema, None)
        zero_shot = render_prompt(section, QUESTION).text
        assert zero_shot == load_golden("create_table")
        empty = render_prompt(section, QUESTION, SupportSet(n=0, seed=0, examples=[])).text
        tables = "\n\n".join(t.create_sql for t in schema)
        assert empty == f"{tables}\n\n{INSTRUCTION_TABLES}\n\n-- {QUESTION}\nSELECT"


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_single_word(self):
        assert estimate_tokens("SELECT") == math.ceil(1.3) == 2

    def test_punctuation_splits(self):
        # SELECT + * + FROM + t = 4 runs
        assert estimate_tokens("SELECT * FROM t") == math.ceil(4 * 1.3)

    # every blank \s knows, lone surrogates, and long runs of blanks at either end
    _BLANKS = st.text(st.sampled_from([c for c in map(chr, range(0x3001)) if c.isspace()]),
                      max_size=200)

    @given(lead=_BLANKS, trail=_BLANKS, pieces=st.lists(st.one_of(
        _BLANKS, st.text(max_size=10),
        st.sampled_from(["\ud800", "\udfff", "_", "\u0663", "\xe9", "*", "\x00"])), max_size=20))
    def test_counts_the_runs_a_search_from_every_position_finds(self, lead, trail, pieces):
        text = lead + "".join(pieces) + trail
        assert sqlbench.prompt._count(text) == len(re.findall(r"\w+|[^\w\s]", text))

    def test_monotone_in_text_growth(self, network1):
        schema, samples = network1
        small = render_prompt(render_schema(PromptStyle(StyleKind.QUESTION), None, None),
                              QUESTION)
        big = render_prompt(render_schema(PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3),
                                          schema, samples), QUESTION)
        assert big.est_tokens > small.est_tokens

    def test_upper_bound_heuristic_on_full_prompt(self, network1):
        # sanity envelope: estimate lands between the whitespace word count
        # and 3x of it for a realistic schema prompt
        schema, samples = network1
        section = render_schema(PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3),
                                schema, samples)
        text = render_prompt(section, QUESTION).text
        words = len(text.split())
        assert words <= estimate_tokens(text) <= 3 * words


@pytest.fixture(scope="module")
def geo(geo_db):
    style = PromptStyle(StyleKind.CREATE_TABLE_SELECT_X, x=3)
    support = SupportSet(n=5, seed=0, examples=[
        ExampleRecord(f"s{i}", "geography", q, sql, template_id=str(i))
        for i, (q, sql) in enumerate(GEO_SUPPORT_PAIRS)
    ])
    return read_section(geo_db, style), support


class TestFitSupport:

    def test_all_fit_under_large_budget(self, geo):
        section, support = geo
        _, n = fit_support(PromptBudget(100000, 200), section, "target q", support)
        assert n == 5

    def test_degenerate_budget_gives_zero_shot(self, geo):
        section, support = geo
        base = render_prompt(section, "target q", SupportSet(n=5, seed=0, examples=[]))
        budget = PromptBudget(base.est_tokens + 201, 200)
        rendered, n = fit_support(budget, section, "target q", support)
        assert n == 0
        assert rendered.text.endswith("SELECT")

    def test_budget_error_when_schema_alone_overflows(self, geo):
        section, support = geo
        with pytest.raises(BudgetError):
            fit_support(PromptBudget(300, 200), section, "target q", support)

    def test_no_support_fits_the_zero_shot_prompt(self, geo):
        section, _ = geo
        zero_shot = render_prompt(section, "target q")
        fitted = fit_support(PromptBudget(zero_shot.est_tokens + 200, 200), section,
                             "target q", None)
        assert fitted == (zero_shot, 0)
        with pytest.raises(BudgetError):
            fit_support(PromptBudget(zero_shot.est_tokens + 199, 200), section, "target q", None)

    def test_monotone_in_budget(self, geo):
        section, support = geo
        counts = []
        for ctx in (2048, 4096, 8192):
            try:
                _, n = fit_support(PromptBudget(ctx, 200), section, "target q", support)
            except BudgetError:
                n = -1
            counts.append(n)
        assert counts == sorted(counts)

    def test_drops_from_low_ranked_end(self, geo):
        section, support = geo
        full, _ = fit_support(PromptBudget(100000, 200), section, "q", support)
        # shrink budget until exactly fewer fit, then the kept prefix must be rank-ordered
        budget = PromptBudget(full.est_tokens + 200 - 10, 200)
        rendered, n = fit_support(budget, section, "q", support)
        assert n < 5
        for q, _ in GEO_SUPPORT_PAIRS[:n]:
            assert f"-- {q}" in rendered.text
        for q, _ in GEO_SUPPORT_PAIRS[n:]:
            assert f"-- {q}" not in rendered.text


def _reference_text(style, schema_text, question, support):
    """The prompt built as one string, the brute-force way: nothing of it is
    counted or reused."""
    kind = style.kind
    tail = f"-- {question}\nSELECT"
    if support is not None:
        if kind is StyleKind.QUESTION:
            head = INSTRUCTION_PLAIN
        else:
            head = schema_text + "\n\n" + INSTRUCTION_TABLES
        if not support.examples:
            return head + "\n\n" + tail
        pairs = [f"-- {rec.question}\n{rec.gold_sql.strip().rstrip(';').rstrip()} ;"
                 for rec in support.examples]
        return head + "\n" + "\n\n".join(pairs + [tail])
    if kind is StyleKind.QUESTION:
        return INSTRUCTION_PLAIN + "\n\n" + tail
    if kind is StyleKind.API_DOCS:
        return schema_text + f"\n### {question}\nSELECT"
    return schema_text + "\n\n\n" + INSTRUCTION_TABLES + "\n\n" + tail


def _reference_render(style, schema_text, question, support):
    text = _reference_text(style, schema_text, question, support)
    return text, estimate_tokens(text)


def _reference_fit(budget, style, schema_text, question, support):
    """Render every prefix of the support, longest first, and estimate each
    whole text, until one fits; with no support, the zero-shot prompt only."""
    if support is None:
        layouts = [(None, 0)]
    else:
        layouts = [(SupportSet(n=support.n, seed=support.seed, examples=support.examples[:keep]),
                    keep) for keep in range(len(support.examples), -1, -1)]
    for layout, keep in layouts:
        text, est = _reference_render(style, schema_text, question, layout)
        if est + budget.completion_reserve <= budget.context_tokens:
            return (text, est), keep
    raise BudgetError


# Runs of whitespace, comment markers, punctuation and non-ASCII words, in
# questions and in support SQL.
_FRAGMENTS = st.sampled_from([
    "how", "many", "--", "-- x", " ", "   ", "\t \n", "\n\n", "?", "'s", ";", ",", "*/", "/*",
    "é", "naïve", "数据库", "Ωmega", "x\u00a0y", "\u2003", "ﬁ", "٣", "_", "a1", "",
])
_TEXT = st.lists(st.one_of(_FRAGMENTS, st.text(max_size=6)), max_size=8).map("".join)
_SQL = st.tuples(
    st.sampled_from(["SELECT count(*) FROM Highschooler", "SELECT name FROM t WHERE a = 'x;'",
                     "select  a ,b from t", ""]),
    st.sampled_from(["", ";", " ;", ";  ", "\n", " ;\n ;", "  \t"]),
).map("".join)
_SUPPORT = st.one_of(
    st.none(),
    st.lists(st.tuples(_TEXT, _SQL), max_size=6).map(lambda pairs: SupportSet(
        n=len(pairs), seed=0,
        examples=[ExampleRecord(f"s{i}", "db", q, sql) for i, (q, sql) in enumerate(pairs)])),
)
_STYLE = st.one_of(
    st.sampled_from(["question", "apidocs", "create"]),
    st.builds("{}:{}".format, st.sampled_from(["select", "create+select"]), st.integers(1, 3)),
).map(parse_style)


@pytest.fixture(scope="module")
def databases(network1_db, geo_db):
    """(schema, samples by x) of each fixture database."""
    return [(read_schema(db), {x: read_samples(db, x) for x in (1, 2, 3)})
            for db in (network1_db, geo_db)]


class TestFittingMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), style=_STYLE, db=st.integers(0, 1), question=_TEXT,
           support=_SUPPORT, reserve=st.integers(1, 60), offset=st.integers(-2, 2))
    def test_render_and_fit(self, databases, data, style, db, question, support,
                            reserve, offset):
        schema, samples_by_x = databases[db]
        section = render_schema(style, schema, samples_by_x.get(style.x))
        # a budget at one prefix's edge: offset 0 fits it exactly, -1 just misses it
        layouts = [None] if support is None else [
            SupportSet(n=support.n, seed=0, examples=support.examples[:k])
            for k in range(len(support.examples) + 1)]
        edge = data.draw(st.sampled_from(layouts), label="edge")
        est = _reference_render(style, section.text, question, edge)[1]
        budget = PromptBudget(max(est + reserve + offset, reserve + 1), reserve)

        got = render_prompt(section, question, support)
        assert (got.text, got.est_tokens) == \
            _reference_render(style, section.text, question, support)
        assert got.est_tokens == estimate_tokens(got.text)

        try:
            want_fit = _reference_fit(budget, style, section.text, question, support)
        except BudgetError:
            with pytest.raises(BudgetError):
                fit_support(budget, section, question, support)
            return
        got, keep = fit_support(budget, section, question, support)
        assert ((got.text, got.est_tokens), keep) == want_fit
        assert got.est_tokens == estimate_tokens(got.text)

    def test_fit_renders_once_from_a_section(self, geo, monkeypatch):
        section, support = geo
        calls = []

        def counted(name):
            original = getattr(sqlbench.prompt, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("render_prompt", "render_schema"):
            monkeypatch.setattr(sqlbench.prompt, name, counted(name))
        full, _ = fit_support(PromptBudget(100000, 200), section, "q", support)
        budget = PromptBudget(full.est_tokens + 200 - 10, 200)
        _, keep = fit_support(budget, section, "q", support)
        assert keep < len(support.examples)
        assert calls == ["render_prompt", "render_prompt"]


class TestParseStyle:
    @pytest.mark.parametrize("spec,kind,x", [
        ("question", StyleKind.QUESTION, None),
        ("apidocs", StyleKind.API_DOCS, None),
        ("select:5", StyleKind.SELECT_X, 5),
        ("create", StyleKind.CREATE_TABLE, None),
        ("create+select:3", StyleKind.CREATE_TABLE_SELECT_X, 3),
    ])
    def test_specs(self, spec, kind, x):
        style = parse_style(spec)
        assert style.kind is kind and style.x == x

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_style("banana")

    def test_style_invariants(self):
        with pytest.raises(ValueError):
            PromptStyle(StyleKind.SELECT_X)  # x required
        with pytest.raises(ValueError):
            PromptStyle(StyleKind.QUESTION, x=3)  # x forbidden


# Text JSON must escape: quotes, backslashes, control characters, non-ASCII,
# astral characters and lone surrogates, alone and next to plain text.
_ESCAPED = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "数", "\u2028",
                     "\U0001F600", "\ud800", "\udfff", "\ud83d", "\ude00"]),
    st.text(st.characters(exclude_categories=()), max_size=4),
)
_JSON_TEXT = st.lists(st.one_of(_ESCAPED, _FRAGMENTS), max_size=8).map("".join)
_JSON_SUPPORT = st.one_of(
    st.none(),
    st.lists(st.tuples(_JSON_TEXT, _JSON_TEXT), max_size=4).map(lambda pairs: SupportSet(
        n=len(pairs), seed=0,
        examples=[ExampleRecord(f"s{i}", "db", q, sql) for i, (q, sql) in enumerate(pairs)])),
)


_PROMPT_LINES = given(
    data=st.data(), style=_STYLE, texts=st.lists(_JSON_TEXT, min_size=1, max_size=2),
    support=_JSON_SUPPORT,
    examples=st.lists(st.tuples(_JSON_TEXT, _JSON_TEXT, _JSON_TEXT), min_size=1, max_size=4))


def _check_prompt_lines(data, style, texts, support, examples):
    """Every line the prompt stage writes is the json.dumps of its record,
    under budgets that keep any number of support pairs, down to none."""
    sections = [SchemaSection(style, text, sqlbench.prompt._count(text)) for text in texts]
    prompts, records, kept = [], [], []
    for i, (example_id, db_id, question) in enumerate(examples):
        section = sections[i % len(sections)]
        n_pairs = 0 if support is None else len(support.examples)
        keep = data.draw(st.integers(0, n_pairs), label="keep")
        prefix = None if support is None else SupportSet(
            n=support.n, seed=0, examples=support.examples[:keep])
        budget = PromptBudget(render_prompt(section, question, prefix).est_tokens + 1, 1)
        rendered, n_used = fit_support(budget, section, question, support)
        kept.append((keep, n_used))
        prompts.append((ExampleRecord(example_id, db_id, question, "SELECT 1"), rendered))
        records.append({"example_id": example_id, "db_id": db_id, "prompt": rendered.text,
                        "est_tokens": rendered.est_tokens, "shots_used": n_used})
    assert (list(sqlbench.cli._prompt_lines(prompts)), kept) == (
        [json.dumps(rec) + "\n" for rec in records], [(keep, keep) for keep, _ in kept])


class TestPromptLines:
    def test_lines_are_json_dumps_of_each_record(self):
        settings(max_examples=200, deadline=None)(_PROMPT_LINES(_check_prompt_lines))()

    def test_an_escape_that_keeps_non_ascii_is_caught(self, monkeypatch):
        monkeypatch.setattr(sqlbench.cli, "_escape",
                            lambda text: json.dumps(text, ensure_ascii=False)[1:-1])
        # the first failure is enough: no shrinking, and nothing saved
        mutant = settings(max_examples=200, deadline=None, database=None,
                          phases=[Phase.generate])(_PROMPT_LINES(_check_prompt_lines))
        with pytest.raises(AssertionError):
            mutant()
