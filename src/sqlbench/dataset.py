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
class Benchmark:
    examples: list[ExampleRecord]
    db_root: Path

    def db_path(self, db_id: str) -> Path:
        """Spider layout: <db_root>/<db_id>/<db_id>.sqlite."""
        return Path(self.db_root) / db_id / f"{db_id}.sqlite"


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


def load_benchmark(path, db_root) -> Benchmark:
    """Load a Spider-format JSON list of {db_id, question, query} items.

    Example order is preserved; example ids are zero-padded positional ids.
    Database files are not opened here; a stage that cannot open one says so.
    """
    path = Path(path)
    try:
        with open(path) as f:
            items = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise IngestionError(f"cannot parse benchmark file {path}: {e}") from e
    if not isinstance(items, list):
        raise IngestionError(f"benchmark file {path} is not a JSON list")

    examples = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise IngestionError(f"item at index {i} is not an object")
        for key in ("db_id", "question", "query"):
            if key not in item:
                raise IngestionError(f"item at index {i} is missing field {key!r}")
        if not str(item["query"]).strip():
            raise IngestionError(f"item at index {i} has an empty gold query")
        examples.append(ExampleRecord(
            example_id=f"e{i:04d}",
            db_id=item["db_id"],
            question=item["question"],
            gold_sql=item["query"],
            template_id=item.get("template_id"),
        ))
    return Benchmark(examples=examples, db_root=Path(db_root))


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


def template_groups(bench: Benchmark, warn) -> dict[str, list[ExampleRecord]]:
    """Group examples by template id, deriving one from the gold SQL when absent.

    Unlexable golds are excluded from grouping, each with a warning to warn.
    """
    groups: dict[str, list[ExampleRecord]] = {}
    for rec in bench.examples:
        tid = rec.template_id
        if tid is None:
            try:
                tid = canonical_template(rec.gold_sql)
            except TemplateError as e:
                warn(f"{rec.example_id}: excluded from templates ({e})")
                continue
        groups.setdefault(tid, []).append(rec)
    return groups


def select_support(train: Benchmark, n: int, seed: int, warn) -> SupportSet:
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
