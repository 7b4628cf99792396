"""Tests for the report generator, the experiment table it reads, and its
CLI command."""

import inspect

import pytest

from repro.analysis.experiments import EXPERIMENT_TABLE, exp_chaos
from repro.analysis.report import REPORT_SECTIONS, build_report
from repro.cli import main
from repro.parallel.jobs import resolve_experiment


def _signature(runner):
    if runner is exp_chaos:  # the registry's lazy wrapper of the harness runner
        from repro.faults import harness

        runner = harness.exp_chaos
    return inspect.signature(runner)


class TestExperimentTable:
    """Full sizes never run in tier-1: their kwargs are bound, not run."""

    @pytest.mark.parametrize(
        "row", EXPERIMENT_TABLE, ids=lambda row: row.exp_id or row.name
    )
    def test_kwargs_bind_to_the_runner(self, row):
        signature = _signature(row.runner)
        # a sweep or campaign job adds the seed; a row without a name has none
        seed = {"seed": 0} if row.name else {}
        assert bool(row.name) == ("seed" in signature.parameters)
        for kwargs in (row.full, row.quick):
            signature.bind(**kwargs, **seed)

    def test_registry_names_resolve_to_their_rows_runner(self):
        named = [row for row in EXPERIMENT_TABLE if row.name]
        assert len({row.name for row in named}) == len(named)
        for row in named:
            assert resolve_experiment(row.name) is row.runner

    def test_every_exp_id_has_a_title(self):
        ids = [row.exp_id for row in EXPERIMENT_TABLE if row.exp_id]
        assert len(set(ids)) == len(ids)
        assert all(title for _id, title in REPORT_SECTIONS)


class TestBuildReport:
    def test_single_quick_section(self):
        text = build_report(quick=True, only=["EXP-13"])
        assert "# Experiment report" in text
        assert "## EXP-13" in text
        assert "messages/n" in text
        assert "## EXP-3" not in text

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown section"):
            build_report(only=["EXP-99"])

    def test_sections_cover_all_cli_experiments(self):
        from repro.cli import EXPERIMENTS

        # EXP-16 lives only in the scale bench; everything else is here.
        names = {name for name, _ in REPORT_SECTIONS}
        assert names == set(EXPERIMENTS)


class TestCliReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--quick", "EXP-13"]) == 0
        assert "## EXP-13" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--quick", "EXP-13", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "## EXP-13" in out.read_text()

    def test_report_unknown_section(self, capsys):
        assert main(["report", "EXP-99"]) == 2
        assert "unknown" in capsys.readouterr().err
