import json

import pytest
from hypothesis import given, strategies as st

from sqlbench.dataset import (
    ExampleRecord,
    IngestionError,
    TemplateError,
    canonical_template,
    db_path,
    load_benchmark,
    select_support,
    template_groups,
)


def write_bench(tmp_path, items, name="dev.json"):
    path = tmp_path / name
    path.write_text(json.dumps(items))
    return path


class TestLoadBenchmark:
    def test_two_items_in_file_order(self, tmp_path, db_root):
        path = write_bench(tmp_path, [
            {"db_id": "network_1", "question": "q1", "query": "SELECT 1"},
            {"db_id": "network_1", "question": "q2", "query": "SELECT 2"},
        ])
        bench = load_benchmark(path)
        assert [e.question for e in bench] == ["q1", "q2"]
        assert bench[0].example_id == "e0000"
        assert bench[1].example_id == "e0001"

    def test_empty_list(self, tmp_path, db_root):
        bench = load_benchmark(write_bench(tmp_path, []))
        assert bench == []

    def test_missing_query_field_names_index(self, tmp_path, db_root):
        path = write_bench(tmp_path, [{"db_id": "d", "question": "q"}])
        with pytest.raises(IngestionError, match="index 0"):
            load_benchmark(path)

    def test_missing_db_file_is_left_to_the_stages(self, tmp_path, db_root):
        path = write_bench(tmp_path, [
            {"db_id": "no_such_db", "question": "q", "query": "SELECT 1"},
        ])
        bench = load_benchmark(path)
        assert [e.db_id for e in bench] == ["no_such_db"]
        assert db_path(db_root, "no_such_db") == db_root / "no_such_db" / "no_such_db.sqlite"

    def test_unparseable_file(self, tmp_path, db_root):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(IngestionError):
            load_benchmark(path)


class TestCanonicalTemplate:
    def test_string_literal_anonymized(self):
        sql = 'SELECT City FROM airports WHERE AirportName = "Alton"'
        assert canonical_template(sql) == \
            "SELECT CITY FROM AIRPORTS WHERE AIRPORTNAME = <str>"

    def test_numeric_literals_share_template(self):
        a = canonical_template("SELECT name FROM t WHERE x = 8")
        b = canonical_template("SELECT name FROM t WHERE x = 6")
        assert a == b

    def test_no_literals_identity_modulo_case_and_space(self):
        assert canonical_template("select  a\nfrom t") == "SELECT A FROM T"

    def test_idempotent(self):
        sql = "SELECT a FROM t WHERE b = 'x' AND c = 3.5"
        once = canonical_template(sql)
        assert canonical_template(once) == once

    def test_single_quote_escaping(self):
        t = canonical_template("SELECT a FROM t WHERE b = 'it''s'")
        assert t == "SELECT A FROM T WHERE B = <str>"

    def test_comments_dropped(self):
        sql = "SELECT a /* pick ( */ FROM t -- note\nWHERE b = 1 /* open"
        assert canonical_template(sql) == "SELECT A FROM T WHERE B = <num>"
        assert canonical_template("SELECT a--1") == "SELECT A"

    def test_quoted_identifiers_lex(self):
        assert canonical_template("SELECT [a b] FROM `a`") == "SELECT [A B] FROM `A`"

    def test_unlexable_raises(self):
        with pytest.raises(TemplateError):
            canonical_template("SELECT a FROM t WHERE b = 'unterminated")

    @given(st.text(alphabet="abcz_ ()*,=<>0123456789.'\"", max_size=60))
    def test_idempotence_property(self, sql):
        try:
            once = canonical_template(sql)
        except TemplateError:
            return
        assert canonical_template(once) == once


def synthetic_train(freqs=(5, 3, 1)):
    """Templates distinguished by structure; members differ only in literals."""
    shapes = [
        "SELECT name FROM t WHERE x = {}",
        "SELECT count(*) FROM t WHERE y = {}",
        "SELECT a, b FROM t ORDER BY a LIMIT {}",
    ]
    examples = []
    i = 0
    for shape, freq in zip(shapes, freqs):
        for j in range(freq):
            examples.append(ExampleRecord(
                example_id=f"e{i:04d}", db_id="d", question=f"q{i}",
                gold_sql=shape.format(j + 1),
            ))
            i += 1
    return examples


class TestSelectSupport:
    def test_zero_shot(self):
        s = select_support(synthetic_train(), 0, seed=7, warn=print)
        assert s.examples == []

    def test_top_two_templates(self):
        train = synthetic_train((5, 3, 1))
        s = select_support(train, 2, seed=7, warn=print)
        groups = template_groups(train, print)
        ranked = sorted(groups, key=lambda t: (-len(groups[t]), t))
        assert [e.template_id for e in s.examples] == ranked[:2]

    def test_deterministic(self):
        a = select_support(synthetic_train(), 3, seed=42, warn=print)
        b = select_support(synthetic_train(), 3, seed=42, warn=print)
        assert a == b

    def test_n_exceeding_templates_covers_all_once(self):
        s = select_support(synthetic_train(), 10, seed=1, warn=print)
        assert len(s.examples) == 3
        assert len({e.template_id for e in s.examples}) == 3

    def test_adding_template_does_not_perturb_existing_draws(self):
        small = select_support(synthetic_train((5, 3)), 2, seed=3, warn=print)
        big = select_support(synthetic_train((5, 3, 1)), 2, seed=3, warn=print)
        assert [e.gold_sql for e in small.examples] == [e.gold_sql for e in big.examples]

    def test_members_drawn_from_own_template(self):
        train = synthetic_train((4, 4, 4))
        s = select_support(train, 3, seed=11, warn=print)
        for rec in s.examples:
            assert canonical_template(rec.gold_sql) == rec.template_id

    def test_export_json_shape(self):
        s = select_support(synthetic_train(), 2, seed=5, warn=print)
        payload = json.loads(s.to_json())
        assert payload["n"] == 2 and payload["seed"] == 5
        assert len(payload["examples"]) == 2
        assert {"question", "gold_sql", "template"} <= payload["examples"][0].keys()
