"""Aggregation of outcome files into metric tables and learning-curve series."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .evaluate import EvalOutcome


def _pct(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    raw = Decimal(100 * numerator) / Decimal(denominator)
    return float(raw.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass
class MetricsRow:
    label: str
    va_pct: float
    ex_pct: float
    ts_pct: float
    n_evaluated: int
    n_gold_broken: int


def metrics_row(label: str, outcomes: list[EvalOutcome],
                n_gold_broken: int = 0) -> MetricsRow:
    if not outcomes:
        raise ValueError(f"run {label!r} has no outcomes")
    n = len(outcomes)
    return MetricsRow(label, _pct(sum(o.valid for o in outcomes), n),
                      _pct(sum(o.ex for o in outcomes), n), _pct(sum(o.ts for o in outcomes), n),
                      n, n_gold_broken)


def metrics_table(runs: list[tuple[str, list[EvalOutcome], int]]) -> list[MetricsRow]:
    """One row per run of (label, outcomes, gold-broken count). Runs may share
    a label; each keeps its own count."""
    return [metrics_row(label, outcomes, n_broken) for label, outcomes, n_broken in runs]


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    """A markdown table, each column padded to its widest cell."""
    widths = [max([len(h), *(len(row[i]) for row in rows)]) for i, h in enumerate(headers)]

    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    return "\n".join([line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|",
                      *map(line, rows)])


def _csv_table(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([headers, *rows])
    return buf.getvalue()


def _metrics_cells(rows: list[MetricsRow]) -> list[list[str]]:
    return [[r.label, f"{r.va_pct:.1f}", f"{r.ex_pct:.1f}", f"{r.ts_pct:.1f}",
             str(r.n_evaluated), str(r.n_gold_broken)] for r in rows]


def render_markdown(rows: list[MetricsRow]) -> str:
    return _markdown_table(["Prompt", "VA", "EX", "TS", "N", "Gold-broken"],
                           _metrics_cells(rows))


def render_csv(rows: list[MetricsRow]) -> str:
    return _csv_table(["label", "va_pct", "ex_pct", "ts_pct", "n_evaluated", "n_gold_broken"],
                      _metrics_cells(rows))


def render_json(rows: list[MetricsRow]) -> str:
    return json.dumps([r.__dict__ for r in rows], indent=2)


def learning_curve(runs_by_shots: dict[int, list[EvalOutcome]],
                   reference: float | None = None) -> dict:
    """Series of (shots, ts_pct) sorted by shot count, ready for plotting."""
    if len(runs_by_shots) < 2:
        raise ValueError("learning curve needs at least two distinct shot counts")
    series = []
    for n in sorted(runs_by_shots):
        outcomes = runs_by_shots[n]
        if not outcomes:
            raise ValueError(f"shot count {n} has no outcomes")
        series.append((n, _pct(sum(o.ts for o in outcomes), len(outcomes))))
    return {"series": series, "reference": reference}


def curve_csv(curve: dict) -> str:
    rows = [[n, f"{ts:.1f}"] for n, ts in curve["series"]]
    if curve.get("reference") is not None:
        rows.append(["reference", f"{curve['reference']:.1f}"])
    return _csv_table(["shots", "ts_pct"], rows)


def render_breakdown_markdown(rows: list[dict]) -> str:
    return _markdown_table(["Annotation", "%", "E%"], [
        [row["category"], f"{row['pct']:.1f}",
         f"{row['e_pct']:.0f}" if row["e_pct"] is not None else "--"]
        for row in rows])
