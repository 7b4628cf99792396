"""Tests for the report generator, the experiment table it reads, and its
CLI command."""

import inspect
import pathlib
import re

import pytest

from repro.analysis.experiments import EXPERIMENT_TABLE, exp_chaos
from repro.analysis.registry import load_record
from repro.analysis.report import REPORT_SECTIONS, build_report
from repro.cli import main
from repro.parallel.jobs import resolve_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
CHECKED = [row for row in EXPERIMENT_TABLE if row.criterion]


def _signature(runner):
    if runner is exp_chaos:  # the registry's lazy wrapper of the harness runner
        from repro.faults import harness

        runner = harness.exp_chaos
    return inspect.signature(runner)


class TestExperimentTable:
    """Full sizes never run in tier-1: their kwargs are bound, not run, and
    each criterion is checked against the committed full-size record."""

    @pytest.mark.parametrize(
        "row", EXPERIMENT_TABLE, ids=lambda row: row.exp_id or row.name
    )
    def test_kwargs_bind_to_the_runner(self, row):
        signature = _signature(row.runner)
        # a sweep or campaign job adds the seed; a row without a name has none
        seed = {"seed": 0} if row.name else {}
        assert bool(row.name) == ("seed" in signature.parameters)
        for kwargs in (row.full, row.quick):
            signature.bind(**{**seed, **kwargs})

    @pytest.mark.parametrize("row", CHECKED, ids=lambda row: row.exp_id)
    def test_criterion_holds(self, row):
        row.criterion(*row.runner(**row.quick))
        record = load_record(RESULTS, row.record)
        row.criterion(record.headers, record.rows)
        assert record.metadata["notes"] == row.notes

    def test_only_the_service_and_chaos_rows_lack_a_criterion(self):
        unchecked = [row.exp_id or row.name for row in EXPERIMENT_TABLE if not row.criterion]
        assert unchecked == ["EXP-19", "chaos"]

    def test_experiments_md_tables_match_their_results(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        blocks = re.findall(
            r"<!-- table: (\S+) -->\n```\n(.*?)\n```\n<!-- /table -->", text, re.S
        )
        assert len(blocks) == 2
        for stem, block in blocks:
            rendered = (RESULTS / f"{stem}.txt").read_text().split("\n\n")[0]
            assert block == rendered, stem

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

        # Every row with an EXP id is a report section and a CLI experiment.
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
