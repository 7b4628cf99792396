"""Tests for campaign aggregation (repro.campaign.report).

The headline property: the rendered report depends only on the *set* of
folded cells -- any completion order, any interruption pattern, any fold
points produce bitwise-identical tables, and those tables are
``aggregate_tables`` over the cells in id order.
"""

import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import aggregate_tables
from repro.campaign import CampaignStore, fold_done_cells, report_tables
from repro.campaign.store import CampaignError
from repro.parallel.executor import ParallelExecutor
from repro.parallel.jobs import Job, sweep_jobs

TOY = "tests.test_parallel:exp_toy"

#: One float per cell whose naive sum depends on the order it is taken
#: in: 1e16 swallows a 1.0 added after it but not two added before it
#: (the mean renders 0.325 in this order, 0.5 reversed, 0.45 exactly).
ORDER_SENSITIVE = [1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3, 1.0]


def make_store(tmp_path, jobs, name="campaign.db"):
    return CampaignStore.create(tmp_path / name, jobs)


def complete_cells(store, results):
    """Drive claimed cells to done with the given executor results."""
    for result in results:
        store.claim("w", 1)
        store.complete(
            result.job.key(),
            {
                "headers": result.headers,
                "rows": result.rows,
                "messages": result.messages,
            },
            wall=result.wall,
        )


def run_jobs(jobs):
    with ParallelExecutor(workers=1) as executor:
        return executor.run(jobs)


class TestFold:
    def test_report_matches_aggregate_tables_exactly(self, tmp_path):
        jobs = sweep_jobs(TOY, range(5), {"scale": 3})
        results = run_jobs(jobs)
        store = make_store(tmp_path, jobs)
        complete_cells(store, results)
        assert fold_done_cells(store) == 5
        ((descriptor, n_cells, table),) = report_tables(store)
        expected = aggregate_tables([r.table for r in results])
        assert table == expected
        assert n_cells == 5
        assert descriptor == {"experiment": TOY, "kwargs": {"scale": 3}}

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.permutations(range(len(ORDER_SENSITIVE))),
        fold_after=st.sets(st.integers(0, len(ORDER_SENSITIVE))),
    )
    def test_fold_order_does_not_change_the_report(self, order, fold_after):
        """Any completion order, with a fold after any prefix of it,
        renders the tables ``aggregate_tables`` gives in seed order --
        although the column's naive float sum depends on the order."""
        jobs = [Job.create(TOY, {"scale": 1}, seed=s) for s in range(len(order))]
        tables = [
            (["case", "x"], [["toy", value], ["const", 2.5]])
            for value in ORDER_SENSITIVE
        ]
        assert aggregate_tables(tables) != aggregate_tables(tables[::-1])
        with tempfile.TemporaryDirectory() as tmp:
            store = make_store(Path(tmp), jobs)
            for done, seed in enumerate(order):
                if done in fold_after:
                    fold_done_cells(store)
                store.claim("w", 1)
                headers, rows = tables[seed]
                store.complete(
                    jobs[seed].key(),
                    {"headers": headers, "rows": rows, "messages": None},
                )
            fold_done_cells(store)
            ((_, n_cells, table),) = report_tables(store)
            store.close()
        assert n_cells == len(order)
        assert table == aggregate_tables(tables)

    def test_fold_is_incremental_and_never_double_folds(self, tmp_path):
        jobs = sweep_jobs(TOY, range(4), {"scale": 2})
        results = run_jobs(jobs)
        store = make_store(tmp_path, jobs)
        complete_cells(store, results[:2])
        assert fold_done_cells(store) == 2
        assert fold_done_cells(store) == 0  # nothing new
        complete_cells(store, results[2:])
        assert fold_done_cells(store) == 2
        ((_, n_cells, table),) = report_tables(store)
        assert n_cells == 4
        assert table == aggregate_tables([r.table for r in results])

    def test_groups_split_by_kwargs(self, tmp_path):
        jobs = sweep_jobs(TOY, range(2), {"scale": 2}) + sweep_jobs(
            TOY, range(2), {"scale": 5}
        )
        results = run_jobs(jobs)
        store = make_store(tmp_path, jobs)
        complete_cells(store, results)
        fold_done_cells(store)
        groups = report_tables(store)
        assert len(groups) == 2
        assert {g[0]["kwargs"]["scale"] for g in groups} == {2, 5}
        assert all(n == 2 for _d, n, _t in groups)

    def test_identity_mismatch_rejected(self, tmp_path):
        jobs = [Job.create(TOY, {"scale": 2}, seed=s) for s in range(2)]
        store = make_store(tmp_path, jobs)
        store.claim("w", 2)
        store.complete(
            jobs[0].key(),
            {"headers": ["case", "n"], "rows": [["toy", 1]], "messages": None},
        )
        store.complete(
            jobs[1].key(),
            {"headers": ["case", "n"], "rows": [["OTHER", 2]], "messages": None},
        )
        with pytest.raises(CampaignError, match="identity"):
            fold_done_cells(store)

    def test_header_mismatch_rejected(self, tmp_path):
        jobs = [Job.create(TOY, {"scale": 2}, seed=s) for s in range(2)]
        store = make_store(tmp_path, jobs)
        store.claim("w", 2)
        store.complete(
            jobs[0].key(), {"headers": ["a"], "rows": [[1]], "messages": None}
        )
        store.complete(
            jobs[1].key(), {"headers": ["b"], "rows": [[1]], "messages": None}
        )
        with pytest.raises(CampaignError, match="headers"):
            fold_done_cells(store)

    def test_schema_v1_store_refused(self, tmp_path):
        """Version 1 kept the report in accumulator tables this code no
        longer reads or writes; such a store is refused, not guessed at."""
        path = tmp_path / "v1.db"
        make_store(tmp_path, [Job.create(TOY, {}, seed=0)], "v1.db").close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(CampaignError, match="schema version 1"):
            CampaignStore.open(path)

    def test_non_numeric_cell_in_numeric_column_rejected(self, tmp_path):
        jobs = [Job.create(TOY, {"scale": 2}, seed=s) for s in range(2)]
        store = make_store(tmp_path, jobs)
        store.claim("w", 2)
        for job, value in zip(jobs, (1.5, None)):
            store.complete(
                job.key(), {"headers": ["x"], "rows": [[value]], "messages": None}
            )
        with pytest.raises(CampaignError, match="do not aggregate"):
            fold_done_cells(store)
        assert report_tables(store) == []  # nothing was marked
