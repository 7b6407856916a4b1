"""Benchmark loading, SQL template derivation, and few-shot support selection."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .execution import sql_tokens


class IngestionError(Exception):
    pass


class TemplateError(Exception):
    pass


@dataclass(frozen=True)
class ExampleRecord:
    example_id: str
    db_id: str
    question: str
    gold_sql: str
    template_id: str | None = None


@dataclass
class SupportSet:
    n: int
    seed: int
    examples: list[ExampleRecord]

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "seed": self.seed,
            "examples": [
                {"question": e.question, "gold_sql": e.gold_sql, "template": e.template_id}
                for e in self.examples
            ],
        }
        return json.dumps(payload, indent=2)


def db_path(db_root, db_id: str) -> Path:
    """Spider layout: <db_root>/<db_id>/<db_id>.sqlite."""
    return Path(db_root) / db_id / f"{db_id}.sqlite"


def load_benchmark(path) -> list[ExampleRecord]:
    """Load a Spider-format JSON list of {db_id, question, query} items.

    Example order is preserved; example ids are zero-padded positional ids.
    Database files are not opened here (see db_path); a stage that cannot
    open one says so.
    """
    path = Path(path)
    try:
        with open(path) as f:
            items = json.load(f)
    except (OSError, ValueError) as e:  # ValueError: not JSON, or not text
        raise IngestionError(f"cannot parse benchmark file {path}: {e}") from e
    if not isinstance(items, list):
        raise IngestionError(f"benchmark file {path} is not a JSON list")

    examples = []
    for i, item in enumerate(items):
        where = f"{path}: item at index {i}"
        check_fields(where, item, {"db_id": str, "question": str, "query": str})
        check_fields(where, item, {"template_id": str}, optional=True)
        if not item["query"].strip():
            raise IngestionError(f"{path}: item at index {i} has an empty gold query")
        examples.append(ExampleRecord(
            example_id=f"e{i:04d}",
            db_id=item["db_id"],
            question=item["question"],
            gold_sql=item["query"],
            template_id=item.get("template_id"),
        ))
    return examples


def check_fields(where: str, rec, fields: dict[str, type], optional: bool = False) -> None:
    """Raise IngestionError, naming where and the field, unless rec is a JSON
    object holding each key of fields with a value of exactly that key's type
    (so true is no int). With optional, a key may be absent or null."""
    if not isinstance(rec, dict):
        raise IngestionError(f"{where}: not a JSON object")
    for key, kind in fields.items():
        if optional and rec.get(key) is None:
            continue
        if key not in rec:
            raise IngestionError(f"{where}: missing field {key!r}")
        if type(rec[key]) is not kind:
            raise IngestionError(f"{where}: field {key!r} is not a {kind.__name__}")


def read_jsonl(path, fields: dict[str, type], make=None):
    """Read a JSON-lines input file: one JSON object per non-blank line, each
    holding every key of fields with a value of that key's type. Yields the
    records in file order, each passed through make when it is given; the
    file is read as it is consumed.

    A file that cannot be opened, a line that is not such an object, or a
    ValueError from make raises one IngestionError that names path:line.
    """
    try:
        f = open(path, "rb")
    except OSError as e:
        raise IngestionError(f"cannot read {path}: {e.strerror}") from e
    with f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except ValueError as e:  # not JSON, or not UTF-8
                raise IngestionError(f"{where}: not JSON") from e
            check_fields(where, rec, fields)
            if make is not None:
                try:
                    rec = make(rec)
                except ValueError as e:
                    raise IngestionError(f"{where}: {e}") from e
            yield rec


def canonical_template(sql: str) -> str:
    """Anonymize literals so queries sharing structure map to one string.

    String literals become <str>, numeric literals <num>; comments are
    dropped and everything else is uppercased and whitespace-collapsed.
    Idempotent.
    """
    tokens = []
    for kind, text in sql_tokens(sql):
        if kind == "other":
            raise TemplateError(f"cannot lex SQL near {text!r}")
        tokens.append("<str>" if kind == "str" else "<num>" if kind == "num" else text.upper())
    out = " ".join(tokens)
    # re-join placeholder brackets split by the lexer
    return out.replace("< STR >", "<str>").replace("< NUM >", "<num>")


def template_groups(examples: list[ExampleRecord], warn) -> dict[str, list[ExampleRecord]]:
    """Group examples by template id, deriving one from the gold SQL when absent.

    Unlexable golds are excluded from grouping, each with a warning to warn.
    """
    groups: dict[str, list[ExampleRecord]] = {}
    for rec in examples:
        tid = rec.template_id
        if tid is None:
            try:
                tid = canonical_template(rec.gold_sql)
            except TemplateError as e:
                warn(f"{rec.example_id}: excluded from templates ({e})")
                continue
        groups.setdefault(tid, []).append(rec)
    return groups


def select_support(train: list[ExampleRecord], n: int, seed: int, warn) -> SupportSet:
    """Pick one example from each of the n most frequent train templates, or
    from every template when there are fewer.

    Frequency ties break by ascending template string. The draw for each
    template is seeded by (seed, template string) so extending the pool never
    perturbs draws for templates already present. Unlexable golds go to warn.
    """
    if n == 0:
        return SupportSet(n=0, seed=seed, examples=[])
    groups = template_groups(train, warn)
    if not groups:
        raise ValueError("training split has no template groups")
    ranked = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    chosen = []
    for template, members in ranked[:n]:
        rng = random.Random(f"{seed}:{template}")
        pick = members[rng.randrange(len(members))]
        if pick.template_id is None:
            pick = ExampleRecord(pick.example_id, pick.db_id, pick.question,
                                 pick.gold_sql, template_id=template)
        chosen.append(pick)
    return SupportSet(n=len(chosen), seed=seed, examples=chosen)
