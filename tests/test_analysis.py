"""Unit tests for fitting, tables, and the experiment runners."""

import math

import pytest

from repro.analysis.experiments import (
    GRAPH_FAMILIES,
    build_family,
    exp_adhoc_probes,
    exp_baseline_comparison,
    exp_bit_complexity,
    exp_dynamic_additions,
    exp_generic_scaling,
    exp_message_lemmas,
    exp_near_linear_scaling,
    exp_sequential_unionfind,
    exp_strongly_connected,
    exp_tree_lower_bound,
    exp_unionfind_reduction,
)
from repro.analysis.fitting import COST_MODELS, best_model, fit_model, ratio_series
from repro.analysis.tables import format_number, render_table
from repro.graphs.components import is_weakly_connected


class TestFitting:
    NS = [32, 64, 128, 256, 512, 1024]

    def test_perfect_linear_series(self):
        ys = [3.0 * n for n in self.NS]
        fit = fit_model(self.NS, ys, COST_MODELS["n"])
        assert fit.constant == pytest.approx(3.0)
        assert fit.max_relative_residual < 1e-9

    def test_best_model_identifies_nlogn(self):
        ys = [2.0 * n * math.log2(n) for n in self.NS]
        fit = best_model(self.NS, ys, candidates=("n", "n log n", "n^2"))
        assert fit.model.name == "n log n"

    def test_best_model_identifies_quadratic(self):
        ys = [0.5 * n * n for n in self.NS]
        fit = best_model(self.NS, ys, candidates=("n", "n log n", "n^2"))
        assert fit.model.name == "n^2"

    def test_ratio_series(self):
        series = ratio_series([10, 20], [30.0, 60.0], "n")
        assert series == [(10, 3.0), (20, 3.0)]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_model([], [], COST_MODELS["n"])
        with pytest.raises(ValueError):
            fit_model([1, 2], [1.0], COST_MODELS["n"])

    def test_fit_str(self):
        fit = fit_model([4, 8], [4.0, 8.0], COST_MODELS["n"])
        assert "c=1.000" in str(fit)


class TestTables:
    def test_render_basic(self):
        out = render_table(["a", "bb"], [[1, 2.5], [3000, "x"]])
        lines = out.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert "3,000" in out
        assert "2.5" in out

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_format_number(self):
        assert format_number(True) == "yes"
        assert format_number(False) == "no"
        assert format_number(0.0) == "0"
        assert format_number(1234567) == "1,234,567"
        assert format_number(0.125) == "0.125"
        assert format_number("text") == "text"
        assert format_number(12345.6) == "12,346"


class TestGraphFamilies:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_families_build_connected_graphs(self, family):
        graph = build_family(family, 40, seed=1)
        assert graph.n >= 7
        assert is_weakly_connected(graph)


class TestExperimentRunners:
    """Each runner must produce a well-formed table on tiny parameters.
    The shape criteria are the ``EXPERIMENT_TABLE`` rows' (checked in
    ``tests/test_report.py``); here we pin the schema and basic sanity."""

    def test_generic_scaling(self):
        headers, rows = exp_generic_scaling(ns=(16, 32), families=("star",))
        assert headers[0] == "family"
        assert len(rows) == 2
        assert all(row[3] > 0 for row in rows)

    def test_near_linear(self):
        headers, rows = exp_near_linear_scaling(
            ns=(16, 32), variants=("adhoc",), families=("sparse-random",)
        )
        assert len(rows) == 2
        assert all(row[4] < 20 for row in rows)  # msgs/(n alpha) sane

    def test_bits(self):
        headers, rows = exp_bit_complexity(ns=(16, 32), families=("sparse-random",))
        assert all(row[4] < 24 for row in rows)

    def test_lemmas_table(self):
        headers, rows = exp_message_lemmas(ns=(16,), variants=("generic",))
        assert len(rows) == 7
        assert all(row[-1] for row in rows)  # all bounds hold

    def test_tree_lower_bound_table(self):
        headers, rows = exp_tree_lower_bound(heights=(2, 3))
        assert all(row[-1] for row in rows)  # floor holds

    def test_reduction_table(self):
        headers, rows = exp_unionfind_reduction(ns=(8,))
        assert len(rows) == 3

    def test_dynamic_table(self):
        headers, rows = exp_dynamic_additions(n_initial=24, n_new=6, links_new=6)
        values = {row[0]: row[1] for row in rows}
        assert values["per node join"] < 60

    def test_baseline_comparison_table(self):
        headers, rows = exp_baseline_comparison(n=32)
        names = [row[0] for row in rows]
        assert "flooding" in names
        assert any("ad-hoc" in name for name in names)
        flooding = next(row for row in rows if row[0] == "flooding")
        adhoc = next(row for row in rows if "ad-hoc" in row[0])
        assert flooding[2] > adhoc[2]  # flooding costs more messages

    def test_probe_table(self):
        headers, rows = exp_adhoc_probes(n=32, probes=20)
        values = {row[0]: row[1] for row in rows}
        assert values["per probe"] <= 10

    def test_strongly_connected_table(self):
        headers, rows = exp_strongly_connected(ns=(16, 32))
        assert all(abs(row[2] - 2.0) < 0.2 for row in rows)  # ~2 msgs/node

    def test_sequential_unionfind_table(self):
        headers, rows = exp_sequential_unionfind(ns=(64,))
        assert {row[0] for row in rows} == {"rank/random", "naive/chain"}
        assert {row[2] for row in rows} == {"compress", "halve", "none"}


class TestCrossover:
    def test_a_wins_everywhere(self):
        from repro.analysis.fitting import crossover

        assert crossover([1, 2, 3], [1, 1, 1], [2, 2, 2]) == ("a_wins", pytest.approx(float("nan"), nan_ok=True))

    def test_b_wins_everywhere(self):
        from repro.analysis.fitting import crossover

        kind, _ = crossover([1, 2], [5, 5], [1, 1])
        assert kind == "b_wins"

    def test_interpolated_crossing(self):
        from repro.analysis.fitting import crossover

        kind, x = crossover([0, 10], [0, 10], [5, 5])
        assert kind == "crossover"
        assert x == pytest.approx(5.0)

    def test_exact_touch(self):
        from repro.analysis.fitting import crossover

        kind, x = crossover([1, 2, 3], [0, 2, 4], [4, 2, 0])
        assert kind == "crossover"
        assert x == pytest.approx(2.0)

    def test_validation(self):
        from repro.analysis.fitting import crossover

        with pytest.raises(ValueError):
            crossover([1], [1], [1])
        with pytest.raises(ValueError):
            crossover([1, 2], [1], [1, 2])
