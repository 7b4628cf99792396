"""Tests for multi-seed table aggregation."""

import pytest

from repro.analysis.sweep import aggregate_tables
from repro.campaign import CampaignError
from repro.campaign.runner import run_sweep


def table(values):
    return (["name", "n", "msgs"], [["a", 10, values[0]], ["b", 20, values[1]]])


class TestAggregate:
    def test_identical_tables_stay_plain(self):
        headers, rows = aggregate_tables([table([5, 7]), table([5, 7])])
        assert rows == [["a", 10, 5], ["b", 20, 7]]

    def test_varying_numeric_cells_get_ranges(self):
        headers, rows = aggregate_tables([table([4, 7]), table([6, 7])])
        assert rows[0][2] == "5 [4, 6]"
        assert rows[1][2] == 7

    def test_identity_mismatch_rejected(self):
        other = (["name", "n", "msgs"], [["zzz", 10, 5], ["b", 20, 7]])
        with pytest.raises(ValueError, match="identity"):
            aggregate_tables([table([5, 7]), other])

    def test_header_mismatch_rejected(self):
        other = (["x"], [[1], [2]])
        with pytest.raises(ValueError, match="header"):
            aggregate_tables([table([5, 7]), other])

    def test_row_count_mismatch_rejected(self):
        other = (["name", "n", "msgs"], [["a", 10, 5]])
        with pytest.raises(ValueError, match="row-count"):
            aggregate_tables([table([5, 7]), other])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_tables([])

    def test_booleans_are_identity_not_numbers(self):
        left = (["k", "ok"], [["x", True]])
        right = (["k", "ok"], [["x", True]])
        headers, rows = aggregate_tables([left, right])
        assert rows == [["x", True]]


class TestSweep:
    def test_sweeps_real_experiment(self):
        from repro.analysis.experiments import exp_strongly_connected

        headers, rows = run_sweep(exp_strongly_connected, range(3), {"ns": (16, 32)}).table
        # Message counts are schedule-independent here: exactly 2(n-1).
        assert rows[0][1] == 30
        assert rows[1][1] == 62

    def test_sweep_shows_randomized_spread(self):
        from repro.analysis.experiments import exp_generic_scaling

        headers, rows = run_sweep(
            exp_generic_scaling, range(3), {"ns": (32,), "families": ("sparse-random",)}
        ).table
        # Different seeds -> different graphs -> a spread cell somewhere.
        assert any(isinstance(cell, str) and "[" in str(cell) for cell in rows[0])

    def test_requires_seeds(self):
        with pytest.raises(CampaignError, match="at least one cell"):
            run_sweep("strongly-connected", [], {"ns": (16,)})


class TestCliProfile:
    def test_profile_command(self, capsys):
        from repro.cli import main

        assert main(["profile", "--n", "48", "--variant", "adhoc"]) == 0
        out = capsys.readouterr().out
        assert "phase histogram" in out
        assert "traffic mix" in out
