"""Smoke tests for the experiment harnesses (small parameters).

The full-size runs live in ``benchmarks/``; these tests only verify that
each harness produces a well-formed table with the qualitative properties
the corresponding benchmark asserts at full scale.
"""

import pytest

from repro.experiments import (
    analyzer_efficiency,
    dos_pbft,
    figure3_pbft_slowdown,
    table2_precision,
    table4_accuracy,
    table5_apache_overhead,
    table6_mysql_overhead,
)
from repro.experiments.common import TableResult, format_table, geometric_mean
from repro.core.exploration import ResultStore
from repro.experiments.table1_bugs import _compiled_target_bugs
from repro.targets.mini_bind import MiniBindTarget


class TestCommon:
    def test_table_result_and_formatting(self):
        table = TableResult(name="T", description="demo", columns=["a", "b"])
        table.add_row(a=1, b=0.5)
        table.add_row(a="x", b=True)
        table.add_note("a note")
        text = format_table(table)
        assert "T — demo" in text and "a note" in text
        assert table.column("a") == [1, "x"]
        assert table.to_dict()["rows"][0]["a"] == 1

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) is None


class TestExplorationWiring:
    """The exploration mode of the Table 1 harness."""

    def test_table1_exploration_mode_finds_bind_bugs_and_resumes(self, tmp_path):
        store_path = str(tmp_path / "table1-mini_bind.jsonl")
        with ResultStore(store_path) as store:
            bugs = _compiled_target_bugs(MiniBindTarget(), exploration=True, store=store)
        functions = {bug.function for bug in bugs}
        assert {"malloc", "xmlNewTextWriterDoc"} <= functions
        assert all(bug.kind.is_high_impact for bug in bugs)
        completed = len(ResultStore(store_path))
        assert completed > 0

        # Re-running against the same store resumes: same candidates, and
        # the store does not grow (zero scenarios re-ran).
        with ResultStore(store_path) as store:
            again = _compiled_target_bugs(MiniBindTarget(), exploration=True, store=store)
        assert {(b.function, b.kind, b.location) for b in again} == {
            (b.function, b.kind, b.location) for b in bugs
        }
        assert len(ResultStore(store_path)) == completed


class TestHarnesses:
    def test_table2_small(self):
        result = table2_precision.run(runs=12)
        assert [row["trigger scenario"] for row in result.rows][2] == "Close after mutex unlock"
        assert result.rows[2]["precision"] == 1.0

    def test_table4(self):
        result = table4_accuracy.run()
        accuracies = result.column("accuracy")
        assert all(0.0 <= value <= 1.0 for value in accuracies)
        bind_open = next(
            row for row in result.rows if row["system"] == "mini_bind" and row["function"] == "open"
        )
        assert bind_open["FP"] == 1

    def test_table5_small(self):
        result = table5_apache_overhead.run(requests=20, repeats=1, max_triggers=2)
        assert len(result.rows) == 3
        assert all(row["static HTML (s)"] > 0 for row in result.rows)

    def test_table6_small(self):
        result = table6_mysql_overhead.run(transactions=20, repeats=1, max_triggers=2)
        assert len(result.rows) == 3
        assert all(row["read-only (txns/s)"] > 0 for row in result.rows)

    def test_figure3_small(self):
        result = figure3_pbft_slowdown.run(requests=8, trials=1, probabilities=(0.0, 0.9))
        slowdowns = result.column("slowdown factor")
        assert slowdowns[0] == pytest.approx(1.0, abs=0.2)
        assert slowdowns[1] > 1.2

    def test_dos_small(self):
        result = dos_pbft.run(requests=8, trials=1, burst=50)
        assert len(result.rows) == 3
        silenced = result.rows[1]["relative to baseline"]
        rotating = result.rows[2]["relative to baseline"]
        assert silenced > rotating

    def test_analyzer_efficiency(self):
        result = analyzer_efficiency.run(repeats=1)
        assert any(row["call sites analyzed"] > 0 for row in result.rows)
        assert all(row["analysis time (ms)"] >= 0 for row in result.rows)
