"""Tests for the campaign worker loop (repro.campaign.runner)."""

import pytest

from repro.analysis.experiments import QUICK_SWEEP_KWARGS, SWEEPABLE_EXPERIMENTS
from repro.analysis.sweep import aggregate_tables
from repro.analysis.tables import render_table
from repro.campaign import CampaignRunner, CampaignStore
from repro.campaign.runner import ProgressReporter, run_sweep
from repro.parallel.jobs import Job, sweep_jobs

TOY = "tests.test_parallel:exp_toy"
FLAKY = "tests.test_parallel:exp_flaky"
FLAKY_ONCE = "tests.test_parallel:exp_flaky_once"


def make_store(tmp_path, jobs, **kwargs):
    kwargs.setdefault("backoff", 0.0)
    return CampaignStore.create(tmp_path / "campaign.db", jobs, **kwargs)


class TestDrain:
    def test_drains_serial(self, tmp_path):
        jobs = sweep_jobs(TOY, range(5), {"scale": 2})
        store = make_store(tmp_path, jobs)
        report = CampaignRunner(store, handle_signals=False).run()
        assert report.computed == 5
        assert report.stored == 5
        assert report.redundant == 0
        assert report.drained
        assert store.counts()["done"] == 5
        assert store.compute_stats() == {"computed": 5, "redundant": 0}

    def test_drains_with_pool_workers(self, tmp_path):
        jobs = sweep_jobs(TOY, range(8), {"scale": 3})
        store = make_store(tmp_path, jobs)
        report = CampaignRunner(store, workers=2, handle_signals=False).run()
        assert report.stored == 8
        assert report.drained
        for job in jobs:
            cell = store.cell(job.key())
            assert cell.result["rows"] == [["toy", 3, (job.seed + 1) * 3]]

    def test_max_cells_interrupts_gracefully(self, tmp_path):
        jobs = sweep_jobs(TOY, range(6), {"scale": 2})
        store = make_store(tmp_path, jobs)
        first = CampaignRunner(
            store, chunk=2, max_cells=4, handle_signals=False
        ).run()
        assert first.computed == 4
        assert not first.drained
        assert store.counts()["claimed"] == 0  # leases released on exit
        # a second runner finishes the job with zero recomputes
        second = CampaignRunner(store, handle_signals=False).run()
        assert second.computed == 2
        assert second.drained
        assert store.compute_stats() == {"computed": 6, "redundant": 0}

    def test_zero_chunk_is_rejected_not_waited_on(self, tmp_path):
        store = make_store(tmp_path, sweep_jobs(TOY, range(2), {"scale": 2}))
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            CampaignRunner(store, chunk=0, handle_signals=False)

    @pytest.mark.parametrize("max_cells", [0, -5])
    def test_max_cells_below_one_is_rejected(self, tmp_path, max_cells):
        """It used to compute nothing and still report success."""
        store = make_store(tmp_path, sweep_jobs(TOY, range(2), {"scale": 2}))
        with pytest.raises(ValueError, match="max_cells must be >= 1"):
            CampaignRunner(store, max_cells=max_cells, handle_signals=False)

    def test_request_stop_checkpoints(self, tmp_path):
        jobs = sweep_jobs(TOY, range(4), {"scale": 2})
        store = make_store(tmp_path, jobs)
        runner = CampaignRunner(store, chunk=2, handle_signals=False)
        runner.request_stop()
        report = runner.run()
        assert report.interrupted
        assert report.computed == 0
        assert store.counts()["pending"] == 4


class TestFailureHandling:
    def test_deterministic_failure_goes_permanent(self, tmp_path):
        # exp_flaky raises the same error every time for seed 1.
        jobs = sweep_jobs(FLAKY, range(3))
        store = make_store(tmp_path, jobs)
        report = CampaignRunner(store, handle_signals=False).run()
        counts = store.counts()
        assert counts["done"] == 2
        assert counts["failed"] == 1
        assert report.failed_permanent == 1
        assert report.retried >= 1  # the first occurrence retried
        assert not report.drained
        failed = store.cell(jobs[1].key())
        assert failed.attempts == 2  # first try + reproduce-check, no more
        assert "boom" in failed.error

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        jobs = sweep_jobs(FLAKY_ONCE, range(3), {"flag_dir": str(tmp_path / "f")})
        store = make_store(tmp_path, jobs)
        report = CampaignRunner(store, handle_signals=False).run()
        assert report.drained
        assert store.counts()["done"] == 3
        for job in jobs:
            cell = store.cell(job.key())
            assert cell.attempts == 1  # one *failed* attempt, then done
            assert cell.compute_count == 2

    def test_attempt_cap_is_enforced(self, tmp_path):
        jobs = [Job.create(FLAKY, {}, seed=1)]
        store = make_store(tmp_path, jobs, max_attempts=2)
        CampaignRunner(store, handle_signals=False).run()
        cell = store.cell(jobs[0].key())
        assert cell.status == "failed"
        assert cell.attempts == 2

    def test_timeout_is_transient(self, tmp_path):
        sleepy = "tests.test_parallel:exp_sleepy"
        jobs = [Job.create(sleepy, {"duration": 30.0}, seed=0)]
        store = make_store(tmp_path, jobs, max_attempts=2)
        report = CampaignRunner(
            store, workers=2, timeout=0.3, handle_signals=False
        ).run()
        cell = store.cell(jobs[0].key())
        assert cell.status == "failed"  # capped after 2 transient attempts
        assert cell.attempts == 2
        assert report.failed_permanent == 1

    def test_cell_that_always_kills_its_worker_fails_alone(self, tmp_path):
        """The killed worker's pool break is transient: the cell retries
        to the cap and goes failed; the runner and the other cells live."""
        jobs = sweep_jobs("tests.test_parallel:exp_always_killer", range(4))
        store = make_store(tmp_path, jobs, max_attempts=2)
        report = CampaignRunner(store, workers=2, handle_signals=False).run()
        cell = store.cell(jobs[0].key())
        assert cell.status == "failed"
        assert cell.attempts == 2
        assert cell.error.startswith("BrokenProcessPool: ")
        assert store.counts() == {"pending": 0, "claimed": 0, "done": 3, "failed": 1}
        assert report.failed_permanent == 1


class TestWaiting:
    def test_waits_out_anothers_lease_then_takes_over(self, tmp_path):
        """A second worker must not spin or exit while a dead worker's
        lease is live: it waits, takes over, and finishes the campaign."""
        jobs = sweep_jobs(TOY, range(3), {"scale": 2})
        store = make_store(tmp_path, jobs, lease=0.4)
        # "dead" worker claims one cell and never comes back
        other = CampaignStore.open(tmp_path / "campaign.db")
        other.claim("dead-worker", 1)

        slept = []
        runner = CampaignRunner(
            store,
            handle_signals=False,
            sleep=lambda s: slept.append(s) or __import__("time").sleep(s),
            max_wait=0.1,
        )
        report = runner.run()
        assert report.drained
        assert report.computed == 3
        assert slept  # it actually waited for the lease to expire
        assert report.waited_s > 0
        assert store.compute_stats() == {"computed": 3, "redundant": 0}
        other.close()


class TestSignals:
    def test_signal_handlers_only_on_main_thread(self, tmp_path):
        import threading

        jobs = sweep_jobs(TOY, range(2), {"scale": 2})
        store_path = tmp_path / "campaign.db"
        make_store(tmp_path, jobs).close()
        failures = []

        def work():
            # SQLite connections are thread-bound: open inside the thread.
            store = CampaignStore.open(store_path)
            try:
                report = CampaignRunner(store, handle_signals=True).run()
                if not report.drained:
                    failures.append("did not drain")
            except Exception as exc:  # signal.signal off-main raises
                failures.append(repr(exc))
            finally:
                store.close()

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=60)
        assert failures == []


class TestRunSweep:
    @pytest.mark.parametrize("name", sorted(SWEEPABLE_EXPERIMENTS))
    def test_store_round_trip_keeps_every_sweepable_table(self, name):
        """A sweep's tables go through the store's JSON and back: the
        rendered aggregate must be the one the tables themselves give."""
        kwargs = QUICK_SWEEP_KWARGS.get(name, {})
        direct = aggregate_tables(
            [SWEEPABLE_EXPERIMENTS[name](**kwargs, seed=seed) for seed in (0, 1)]
        )
        run = run_sweep(name, [0, 1], kwargs)
        assert [result.status for result in run.results] == ["done", "done"]
        assert render_table(*run.table) == render_table(*direct)

    def test_one_pool_round_and_one_progress_stream(self, tmp_path):
        """Cached jobs report first, then the round; numbering runs 1..n
        across retries, with one begin and one end."""
        import io

        kwargs = {"flag_dir": str(tmp_path / "f")}
        cache = tmp_path / "cache"
        run_sweep(FLAKY_ONCE, [0], kwargs, cache_dir=cache, max_attempts=2)
        stream = io.StringIO()
        run_sweep(
            FLAKY_ONCE, [0, 1], kwargs, cache_dir=cache, max_attempts=2,
            progress=ProgressReporter(stream=stream),
        )
        lines = stream.getvalue().splitlines()
        assert lines[0] == "queued 2 job(s)"
        assert [line.split()[:2] for line in lines[1:-1]] == [
            ["[1/2]", "cached"], ["[2/2]", "failed"], ["[2/2]", "done"],
        ]
        assert lines[-1].startswith("sweep finished in ")
        assert lines[-1].endswith("(cache: 1 hits, 1 misses, 1 stores)")
