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
    return MetricsRow(
        label=label,
        va_pct=_pct(sum(o.valid for o in outcomes), n),
        ex_pct=_pct(sum(o.ex for o in outcomes), n),
        ts_pct=_pct(sum(o.ts for o in outcomes), n),
        n_evaluated=n,
        n_gold_broken=n_gold_broken,
    )


def metrics_table(runs: list[tuple[str, list[EvalOutcome], int]]) -> list[MetricsRow]:
    """One row per run of (label, outcomes, gold-broken count). Runs may share
    a label; each keeps its own count."""
    return [metrics_row(label, outcomes, n_broken) for label, outcomes, n_broken in runs]


def render_markdown(rows: list[MetricsRow]) -> str:
    headers = ["Prompt", "VA", "EX", "TS", "N", "Gold-broken"]
    table = [[r.label, f"{r.va_pct:.1f}", f"{r.ex_pct:.1f}", f"{r.ts_pct:.1f}",
              str(r.n_evaluated), str(r.n_gold_broken)] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table)) if table else len(h)
              for i, h in enumerate(headers)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(row) for row in table)
    return "\n".join(out)


def render_csv(rows: list[MetricsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label", "va_pct", "ex_pct", "ts_pct", "n_evaluated", "n_gold_broken"])
    for r in rows:
        writer.writerow([r.label, f"{r.va_pct:.1f}", f"{r.ex_pct:.1f}", f"{r.ts_pct:.1f}",
                         r.n_evaluated, r.n_gold_broken])
    return buf.getvalue()


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
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["shots", "ts_pct"])
    for n, ts in curve["series"]:
        writer.writerow([n, f"{ts:.1f}"])
    if curve.get("reference") is not None:
        writer.writerow(["reference", f"{curve['reference']:.1f}"])
    return buf.getvalue()


def render_breakdown_markdown(result: dict) -> str:
    headers = ["Annotation", "%", "E%"]
    table = []
    for row in result["rows"]:
        epct = f"{row['e_pct']:.0f}" if row["e_pct"] is not None else "--"
        table.append([row["category"], f"{row['pct']:.1f}", epct])
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(r) for r in table)
    return "\n".join(out)
