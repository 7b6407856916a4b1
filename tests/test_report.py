import csv
import io
import json

import pytest

from sqlbench.errors import breakdown
from sqlbench.evaluate import EvalOutcome
from sqlbench.report import (
    curve_csv,
    learning_curve,
    metrics_row,
    metrics_table,
    render_breakdown_markdown,
    render_csv,
    render_json,
    render_markdown,
)


def outcome(eid, valid=True, ex=False, ts=False):
    return EvalOutcome(eid, valid, None if valid else "x", ex, ts, 1.0)


def mixed_outcomes():
    return [
        outcome("e0", ex=True, ts=True),
        outcome("e1", ex=True, ts=False),
        outcome("e2", ex=False, ts=False),
        outcome("e3", valid=False),
    ]


class TestMetricsRow:
    def test_mixed_percentages(self):
        row = metrics_row("run", mixed_outcomes())
        assert (row.va_pct, row.ex_pct, row.ts_pct) == (75.0, 50.0, 25.0)
        assert row.n_evaluated == 4

    def test_oracle_run(self):
        outs = [outcome(f"e{i}", ex=True, ts=True) for i in range(20)]
        row = metrics_row("oracle", outs)
        assert (row.va_pct, row.ex_pct, row.ts_pct) == (100.0, 100.0, 100.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty-run"):
            metrics_row("empty-run", [])

    def test_round_half_up_to_one_decimal(self):
        # 1/8 = 12.5% exactly; 1/6 = 16.666...% -> 16.7; 1/16 = 6.25% -> 6.3
        outs = lambda hit, n: [outcome(f"e{i}", ts=i < hit, ex=i < hit)
                               for i in range(n)]
        assert metrics_row("a", outs(1, 8)).ts_pct == 12.5
        assert metrics_row("b", outs(1, 6)).ts_pct == 16.7
        assert metrics_row("c", outs(1, 16)).ts_pct == 6.3

    def test_gold_broken_carried(self):
        row = metrics_row("run", mixed_outcomes(), n_gold_broken=2)
        assert row.n_gold_broken == 2


class TestRenderers:
    def rows(self):
        return metrics_table([
            ("question", mixed_outcomes()),
            ("create_table", [outcome(f"e{i}", ex=True, ts=True) for i in range(4)]),
        ])

    def test_markdown_shape(self):
        md = render_markdown(self.rows())
        lines = md.splitlines()
        assert len(lines) == 4  # header, rule, two runs
        for col in ("VA", "EX", "TS"):
            assert col in lines[0]
        assert "75.0" in lines[2] and "25.0" in lines[2]
        assert lines[3].count("100.0") == 3

    def test_csv_round_trips(self):
        rows = list(csv.DictReader(io.StringIO(render_csv(self.rows()))))
        assert rows[0]["va_pct"] == "75.0"
        assert rows[1]["label"] == "create_table"

    def test_json_parses(self):
        data = json.loads(render_json(self.rows()))
        assert data[0]["ts_pct"] == 25.0

    def test_rerender_is_byte_identical(self):
        assert render_markdown(self.rows()) == render_markdown(self.rows())
        assert render_csv(self.rows()) == render_csv(self.rows())


class TestLearningCurve:
    def by_shots(self):
        def run(hit, n=10):
            return [outcome(f"e{i}", ex=i < hit, ts=i < hit) for i in range(n)]
        return {4: run(7), 0: run(3), 1: run(5)}

    def test_series_sorted_by_shots(self):
        curve = learning_curve(self.by_shots())
        assert curve["series"] == [(0, 30.0), (1, 50.0), (4, 70.0)]

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            learning_curve({0: mixed_outcomes()})

    def test_reference_appears_in_csv(self):
        curve = learning_curve(self.by_shots(), reference=85.7)
        text = curve_csv(curve)
        assert "reference,85.7" in text
        assert text.splitlines()[1] == "0,30.0"

    def test_no_reference_row_when_absent(self):
        text = curve_csv(learning_curve(self.by_shots()))
        assert "reference" not in text


class TestBreakdownRendering:
    def test_markdown_has_pct_and_e_pct(self):
        outs = [outcome("a", ex=True, ts=True), outcome("b", valid=False)]
        md = render_breakdown_markdown(breakdown(outs, []))
        lines = md.splitlines()
        assert "Annotation" in lines[0] and "E%" in lines[0]
        assert any("Test-Suite Correct" in line and "50.0" in line for line in lines)
        assert any("--" in line for line in lines)  # E% undefined for non-error rows
