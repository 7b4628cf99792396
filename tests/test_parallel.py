"""Tests for the campaign's process pool (repro.parallel) and one-shot sweeps.

The acceptance-grade properties live here: worker-count invariance of the
aggregated tables (checked with ``compare_records`` at zero tolerance)
and full cache service of a repeated sweep.  The cache and the retries
are a sweep's campaign store (:func:`repro.campaign.runner.run_sweep`).
"""

import io
import multiprocessing
import os
import pathlib
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import pytest

from repro.analysis.registry import ExperimentRecord, compare_records
from repro.campaign import CampaignError, CampaignRunner, CampaignStore
from repro.campaign.runner import ProgressReporter, run_sweep
from repro.parallel.executor import JobFailure, ParallelExecutor
from repro.parallel.jobs import Job, experiment_name, resolve_experiment, sweep_jobs

# ----------------------------------------------------------------------
# module-level toy experiments (importable by name from worker processes)
# ----------------------------------------------------------------------


def exp_toy(scale=1, seed=0):
    return ["case", "n", "messages"], [["toy", scale, (seed + 1) * scale]]


def exp_flaky(seed=0):
    if seed == 1:
        raise RuntimeError("boom")
    return ["case", "messages"], [["ok", seed * 10]]


def exp_sleepy(duration=3.0, seed=0):
    time.sleep(duration)
    return ["case", "messages"], [["slept", seed]]


def exp_counted(counter_dir="", seed=0):
    """Drops one marker file per execution, so tests can count runs."""
    path = pathlib.Path(counter_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"seed{seed}-{os.getpid()}-{time.monotonic_ns()}").touch()
    return ["case", "messages"], [["counted", seed * 10]]


def exp_killer(marker="", seed=0):
    """SIGKILLs its own worker process -- but only once per marker file,
    so a later execution of the same job completes normally."""
    path = pathlib.Path(marker)
    if not path.exists():
        path.touch()
        os.kill(os.getpid(), 9)
    return ["case", "messages"], [["survived", seed]]


def exp_always_killer(poisoned=0, seed=0):
    """Kills whatever process runs seed ``poisoned``, every time (exit
    code 13); every other seed returns a table."""
    if seed == poisoned:
        os._exit(13)
    return ["case", "messages"], [["spared", seed]]


def exp_flaky_once(flag_dir="", seed=0):
    """Fails the first execution of each seed, succeeds after."""
    path = pathlib.Path(flag_dir)
    path.mkdir(parents=True, exist_ok=True)
    flag = path / f"seed{seed}"
    if not flag.exists():
        flag.touch()
        raise RuntimeError(f"transient glitch for seed {seed}")
    return ["case", "messages"], [["recovered", seed * 10]]


TOY = f"{__name__}:exp_toy"
FLAKY = f"{__name__}:exp_flaky"
SLEEPY = f"{__name__}:exp_sleepy"
COUNTED = f"{__name__}:exp_counted"
KILLER = f"{__name__}:exp_killer"
ALWAYS_KILLER = f"{__name__}:exp_always_killer"
FLAKY_ONCE = f"{__name__}:exp_flaky_once"


class TestJobSpec:
    def test_kwargs_order_does_not_change_identity(self):
        a = Job.create(TOY, {"scale": 2, "seed": 0})
        b = Job.create(TOY, {"seed": 0, "scale": 2})
        assert a == b
        assert a.key() == b.key()

    def test_key_distinguishes_seed_and_kwargs(self):
        base = Job.create(TOY, {"scale": 2}, seed=0)
        assert base.key() != Job.create(TOY, {"scale": 2}, seed=1).key()
        assert base.key() != Job.create(TOY, {"scale": 3}, seed=0).key()
        assert base.key() != Job.create("strongly-connected", {"scale": 2}, seed=0).key()

    def test_spec_survives_json_roundtrip(self):
        import json

        job = Job.create(TOY, {"ns": (16, 32)}, seed=3)
        assert json.loads(json.dumps(job.spec())) == job.spec()

    def test_registry_callable_resolves_to_short_name(self):
        from repro.analysis.experiments import exp_strongly_connected

        assert experiment_name(exp_strongly_connected) == "strongly-connected"
        assert resolve_experiment("strongly-connected") is exp_strongly_connected

    def test_module_path_roundtrip(self):
        assert experiment_name(exp_toy) == TOY
        assert resolve_experiment(TOY) is exp_toy

    def test_lambda_rejected(self):
        with pytest.raises(ValueError, match="not importable"):
            experiment_name(lambda seed: None)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            experiment_name("no-such-exp")
        with pytest.raises(ValueError, match="unknown experiment"):
            resolve_experiment("no-such-exp")

    def test_sweep_jobs_in_seed_order(self):
        jobs = sweep_jobs(TOY, [5, 1, 3], {"scale": 2})
        assert [job.seed for job in jobs] == [5, 1, 3]
        assert all(job.experiment == TOY for job in jobs)


class TestParseSeeds:
    def test_a_repeated_seed_is_rejected(self):
        from repro.cli import UsageError, parse_seeds

        assert parse_seeds("4,1,7") == [4, 1, 7]
        with pytest.raises(UsageError, match="duplicate seed 0"):
            parse_seeds("0,3,0")


def statuses(run):
    return [result.status for result in run.results]


class TestCache:
    """A sweep's cache is its campaign store in ``cache_dir``."""

    def test_roundtrip(self, tmp_path):
        first = run_sweep(TOY, [1], {"scale": 2}, cache_dir=tmp_path)
        assert statuses(first) == ["done"]
        again = run_sweep(TOY, [1], {"scale": 2}, cache_dir=tmp_path)
        assert statuses(again) == ["cached"]
        assert again.attempts == [0]
        assert again.results[0].rows == first.results[0].rows == [["toy", 2, 4]]

    def test_spec_mismatch_is_a_miss(self, tmp_path):
        run_sweep(TOY, [1], {"scale": 2}, cache_dir=tmp_path)
        other = run_sweep(TOY, [1], {"scale": 3}, cache_dir=tmp_path)
        assert statuses(other) == ["done"]
        assert len(list(tmp_path.glob("*.db"))) == 2  # one store per kwargs

    def test_corrupt_file_is_a_miss(self, tmp_path):
        (tmp_path / f"{Job.create(TOY, {}).key()}.db").write_text("{not json")
        run = run_sweep(TOY, [0], cache_dir=tmp_path)
        assert statuses(run) == ["done"]
        assert statuses(run_sweep(TOY, [0], cache_dir=tmp_path)) == ["cached"]

    def test_failure_is_never_cached(self, tmp_path):
        kwargs = {"flag_dir": str(tmp_path / "flags")}
        cache = tmp_path / "cache"
        assert statuses(run_sweep(FLAKY_ONCE, [0], kwargs, cache_dir=cache)) == ["failed"]
        run = run_sweep(FLAKY_ONCE, [0], kwargs, cache_dir=cache)
        assert statuses(run) == ["done"]
        assert run.attempts == [1]


class TestSerialExecution:
    def test_results_align_with_jobs(self):
        jobs = sweep_jobs(TOY, [3, 0, 2], {"scale": 5})
        with ParallelExecutor(workers=1) as executor:
            results = executor.run(jobs)
        assert [r.job.seed for r in results] == [3, 0, 2]
        assert [r.table[1][0][2] for r in results] == [20, 5, 15]
        assert all(r.status == "done" for r in results)

    def test_crash_isolation(self):
        with ParallelExecutor(workers=1) as executor:
            results = executor.run(sweep_jobs(FLAKY, range(4)))
        statuses = [r.status for r in results]
        assert statuses == ["done", "failed", "done", "done"]
        assert "boom" in results[1].error
        with pytest.raises(JobFailure):
            results[1].table

    def test_messages_extracted_for_progress(self):
        with ParallelExecutor(workers=1) as executor:
            (result,) = executor.run([Job.create(TOY, {"scale": 4}, seed=1)])
        assert result.messages == 8

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    @pytest.mark.parametrize("timeout", [0, -1.5])
    def test_invalid_timeout(self, timeout):
        # A timeout <= 0 would end every pooled job ``timeout`` unrun.
        with pytest.raises(ValueError, match="timeout must be > 0"):
            ParallelExecutor(workers=2, timeout=timeout)


class TestParallelExecution:
    def test_worker_count_invariance_and_cache_service(self, tmp_path):
        """Acceptance: identical tables for 1/2/4 workers at zero
        tolerance, and a repeat sweep served entirely from cache."""
        kwargs = {"ns": (16, 32)}
        records = {}
        for workers in (1, 2, 4):
            run = run_sweep(
                "strongly-connected", range(4), kwargs,
                cache_dir=tmp_path / f"w{workers}", workers=workers,
            )
            records[workers] = ExperimentRecord("sweep", *run.table)
            assert run.attempts == [1] * 4
            assert statuses(run) == ["done"] * 4
        assert compare_records(records[1], records[2], rel_tolerance=0) == []
        assert compare_records(records[1], records[4], rel_tolerance=0) == []

        # Second run of the same sweep: zero executions, all cache hits,
        # identical output -- even at a different worker count.
        run = run_sweep(
            "strongly-connected", range(4), kwargs, cache_dir=tmp_path / "w2", workers=4
        )
        assert run.attempts == [0] * 4
        assert statuses(run) == ["cached"] * 4
        rerun = ExperimentRecord("sweep", *run.table)
        assert compare_records(records[2], rerun, rel_tolerance=0) == []

    def test_parallel_crash_isolation(self):
        with ParallelExecutor(workers=2) as executor:
            results = executor.run(sweep_jobs(FLAKY, range(4)))
        assert [r.status for r in results] == ["done", "failed", "done", "done"]

    def test_per_job_timeout(self):
        jobs = [
            Job.create(SLEEPY, {"duration": 30.0}, seed=0),
            Job.create(TOY, {"scale": 2}, seed=1),
        ]
        start = time.perf_counter()
        with ParallelExecutor(workers=2, timeout=0.3) as executor:
            results = executor.run(jobs)
        assert time.perf_counter() - start < 10
        assert results[0].status == "timeout"
        assert results[1].status == "done"

    def test_partial_cache_reuse(self, tmp_path):
        """A wider sweep reuses the overlapping prefix of a narrower one."""
        run_sweep(TOY, range(2), cache_dir=tmp_path)
        run = run_sweep(TOY, range(4), cache_dir=tmp_path)
        assert run.attempts == [0, 0, 1, 1]
        assert statuses(run) == ["cached", "cached", "done", "done"]


class TestRetries:
    """One retry policy, the campaign store's: ``max_attempts`` executions
    per job with ``backoff`` between them, and the same error twice fails
    the job at once."""

    def test_no_retries_by_default(self, tmp_path):
        run = run_sweep(FLAKY_ONCE, range(3), {"flag_dir": str(tmp_path)})
        assert statuses(run) == ["failed"] * 3
        assert run.attempts == [1] * 3

    def test_retry_recovers_transient_failures(self, tmp_path):
        run = run_sweep(
            FLAKY_ONCE, range(3), {"flag_dir": str(tmp_path)}, max_attempts=2
        )
        assert statuses(run) == ["done"] * 3
        # every attempt counts as an execution
        assert run.attempts == [2, 2, 2]

    def test_retry_recovers_in_parallel_mode(self, tmp_path):
        run = run_sweep(
            FLAKY_ONCE, range(4), {"flag_dir": str(tmp_path)},
            workers=2, max_attempts=2,
        )
        assert statuses(run) == ["done"] * 4
        assert run.attempts == [2] * 4

    def test_only_failed_jobs_are_retried(self, tmp_path):
        (tmp_path / "seed0").touch()  # seed 0 succeeds at once, seed 1 once fails
        run = run_sweep(
            FLAKY_ONCE, range(2), {"flag_dir": str(tmp_path)}, max_attempts=2
        )
        assert statuses(run) == ["done", "done"]
        assert run.attempts == [1, 2]

    def test_retry_gives_up_after_budget(self):
        # The same error twice proves it reproduces: no third attempt.
        run = run_sweep(FLAKY, [1], max_attempts=3)
        assert statuses(run) == ["failed"]
        assert run.attempts == [2]
        assert "boom" in run.results[0].error

    def test_retried_success_is_cached(self, tmp_path):
        kwargs = {"flag_dir": str(tmp_path / "flags")}
        cache = tmp_path / "cache"
        run = run_sweep(FLAKY_ONCE, range(2), kwargs, cache_dir=cache, max_attempts=2)
        assert statuses(run) == ["done", "done"]
        # A repeat sweep is served fully from cache, no re-execution.
        again = run_sweep(FLAKY_ONCE, range(2), kwargs, cache_dir=cache, max_attempts=2)
        assert statuses(again) == ["cached", "cached"]
        assert again.attempts == [0, 0]

    def test_attempts_recorded_in_metadata(self, tmp_path):
        kwargs = {"flag_dir": str(tmp_path / "flags")}
        run = run_sweep(
            FLAKY_ONCE, [0], kwargs, cache_dir=tmp_path / "cache", max_attempts=2
        )
        assert run.attempts == [2]
        (path,) = (tmp_path / "cache").glob("*.db")
        store = CampaignStore.open(path)
        cell = store.cell(Job.create(FLAKY_ONCE, kwargs, 0).key())
        assert (cell.status, cell.attempts, cell.compute_count) == ("done", 1, 2)
        store.close()

    def test_invalid_retry_params(self):
        with pytest.raises(CampaignError):
            run_sweep(TOY, [0], max_attempts=0)
        with pytest.raises(CampaignError):
            run_sweep(TOY, [0], backoff=-0.5)


class TestBrokenPoolRecovery:
    def test_completed_prefix_of_broken_batch_not_recomputed(self, tmp_path):
        """A job that finished before a worker died keeps its result: the
        pool reads pending results before it declares itself broken, so
        only the jobs without one run again."""
        counter = tmp_path / "counts"
        # Two workers: job0 and job1 start first.  job1 sleeps, so job0's
        # worker is the one that picks up job2 -- after sending job0's
        # result -- and dies; job1 dies with the pool and runs again.
        jobs = [
            Job.create(COUNTED, {"counter_dir": str(counter)}, seed=0),
            Job.create(SLEEPY, {"duration": 0.5}, seed=1),
            Job.create(KILLER, {"marker": str(tmp_path / "marker")}, seed=2),
        ]
        with ParallelExecutor(workers=2) as executor:
            results = executor.run(jobs)
        assert [r.status for r in results] == ["done", "done", "done"]
        # job0's result survived the worker death: executed exactly once.
        assert len(list(counter.iterdir())) == 1
        # job2 ran again in a fresh child after killing its worker.
        assert results[2].rows == [["survived", 2]]

    def test_batch_after_break_recovers_or_reuses(self, tmp_path):
        """Jobs queued behind the poisoned one still produce correct
        results (finished futures are reused, dead ones run again)."""
        jobs = [Job.create(KILLER, {"marker": str(tmp_path / "marker")}, seed=0)]
        jobs += sweep_jobs(TOY, range(1, 6), {"scale": 3})
        with ParallelExecutor(workers=2) as executor:
            results = executor.run(jobs)
        assert [r.status for r in results] == ["done"] * 6
        assert [r.table[1][0][2] for r in results[1:]] == [6, 9, 12, 15, 18]

    def test_timeout_salvages_finished_batch_mates(self, tmp_path):
        """A timeout only charges the job that did not finish."""
        counter = tmp_path / "counts"
        jobs = [
            Job.create(COUNTED, {"counter_dir": str(counter)}, seed=0),
            Job.create(TOY, {"scale": 2}, seed=1),
            Job.create(SLEEPY, {"duration": 30.0}, seed=2),
        ]
        start = time.perf_counter()
        with ParallelExecutor(workers=2, timeout=0.4) as executor:
            results = executor.run(jobs)
        assert time.perf_counter() - start < 10
        assert [r.status for r in results] == ["done", "done", "timeout"]
        assert len(list(counter.iterdir())) == 1

    def test_job_that_always_kills_its_worker_fails_alone(self):
        """A job that kills every process it runs in used to be re-run
        inside the parent, which it then killed too.  Now it breaks only
        its own one-worker child and ends failed; the sweep goes on."""
        with ParallelExecutor(workers=2) as executor:
            results = executor.run(sweep_jobs(ALWAYS_KILLER, range(4)))
        assert [r.status for r in results] == ["failed", "done", "done", "done"]
        assert results[0].error.startswith("BrokenProcessPool: ")
        assert [r.rows for r in results[1:]] == [[["spared", s]] for s in (1, 2, 3)]

    def test_break_while_jobs_are_still_being_queued(self, monkeypatch):
        """A worker can die before every job is submitted, and the next
        ``submit`` raises: the jobs not yet queued run again like any
        other job the break left without a result."""
        submit = ProcessPoolExecutor.submit
        calls = []

        def breaking_submit(pool, fn, *args, **kwargs):
            calls.append(pool._max_workers)
            if len(calls) == 2:
                raise BrokenProcessPool("a child process terminated abruptly")
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking_submit)
        with ParallelExecutor(workers=2) as executor:
            results = executor.run(sweep_jobs(TOY, range(4), {"scale": 2}))
        assert [r.status for r in results] == ["done"] * 4
        assert [r.rows for r in results] == [[["toy", 2, (s + 1) * 2]] for s in range(4)]
        assert calls == [2, 2, 1, 1, 1]  # jobs 1-3 each ran in a pool of its own

    def test_job_the_broken_pool_never_settles_runs_again(self, monkeypatch):
        """CPython (3.11 at least) can drop a job submitted while the manager
        thread fails the pending ones: its future is never settled.  Job 1's
        future is such a one here; once the pool is broken and its manager
        gone, the job runs again on its own instead of hanging the sweep."""
        submit = ProcessPoolExecutor.submit
        lost = Future()
        calls = []

        def losing_submit(pool, fn, *args, **kwargs):
            calls.append(pool._max_workers)
            return lost if len(calls) == 2 else submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", losing_submit)
        # Fail instead of hanging if the lost future were waited on forever.
        guard = threading.Timer(60, lost.set_exception, [AssertionError("waited forever")])
        guard.daemon = True
        guard.start()
        try:
            with ParallelExecutor(workers=2) as executor:
                results = executor.run(sweep_jobs(ALWAYS_KILLER, range(2)))
        finally:
            guard.cancel()
        assert [r.status for r in results] == ["failed", "done"]
        assert results[1].rows == [["spared", 1]]
        assert calls == [2, 2, 1, 1]  # both jobs ran again, each in a pool of its own


def worker_pids(counter_dir, seeds=None):
    """The pids named by ``exp_counted``'s markers: who ran the jobs (of
    ``seeds``, or all)."""
    pids = set()
    for path in counter_dir.iterdir():
        seed, pid, _ns = path.name.split("-")
        if seeds is None or int(seed[len("seed"):]) in seeds:
            pids.add(int(pid))
    return pids


class TestPoolLifetime:
    """One pool per executor: forked at the first round, reused by every
    later one, forked anew only after a break or a timeout kill, and
    joined before ``CampaignRunner.run`` returns."""

    def test_campaign_rounds_share_one_pool(self, tmp_path):
        counter = tmp_path / "counts"
        jobs = sweep_jobs(COUNTED, range(8), {"counter_dir": str(counter)})
        store = CampaignStore.create(tmp_path / "campaign.db", jobs)
        report = CampaignRunner(store, workers=2, chunk=2, handle_signals=False).run()
        store.close()
        assert report.drained and report.computed == 8
        assert len(list(counter.iterdir())) == 8
        # Four claim rounds, two workers: a pool per round would fork at
        # least one new pid per round.
        assert len(worker_pids(counter)) <= 2

    @pytest.mark.parametrize("failure", ["worker-death", "timeout", "idle-death"])
    def test_round_after_a_failure_runs_in_a_fresh_pool(self, tmp_path, failure):
        counter = tmp_path / "counts"
        kwargs = {"counter_dir": str(counter)}
        first = sweep_jobs(COUNTED, [0], kwargs)
        if failure == "worker-death":
            first.append(Job.create(KILLER, {"marker": str(tmp_path / "marker")}, seed=1))
        elif failure == "timeout":
            first.append(Job.create(SLEEPY, {"duration": 30.0}, seed=1))
        with ParallelExecutor(workers=2, timeout=0.4 if failure == "timeout" else None) as ex:
            statuses = [r.status for r in ex.run(first)]
            before = worker_pids(counter)
            if failure == "idle-death":
                # A worker dies between rounds: the next round finds the
                # kept pool broken once its manager thread has noticed.
                os.kill(next(iter(before)), signal.SIGKILL)
                deadline = time.monotonic() + 10
                while not ex._pool._broken and time.monotonic() < deadline:
                    time.sleep(0.01)
            results = ex.run(sweep_jobs(COUNTED, range(2, 6), kwargs))
        expected = {"worker-death": ["done", "done"], "timeout": ["done", "timeout"]}
        assert statuses == expected.get(failure, ["done"])
        assert [r.status for r in results] == ["done"] * 4
        after = worker_pids(counter, range(2, 6))
        # one new two-worker pool, not one isolated pool per job
        assert after.isdisjoint(before) and 1 <= len(after) <= 2

    @pytest.mark.parametrize("ending", ["drained", "max_cells", "stopped"])
    def test_no_worker_outlives_the_run(self, tmp_path, monkeypatch, ending):
        # Hold every pool, so that only an explicit join ends its workers,
        # not the garbage collector's asynchronous shutdown of a dropped one.
        pools, fork = [], ParallelExecutor._fork
        monkeypatch.setattr(
            ParallelExecutor, "_fork", lambda ex, n: pools.append(fork(ex, n)) or pools[-1]
        )
        jobs = sweep_jobs(TOY, range(8), {"scale": 2})
        store = CampaignStore.create(tmp_path / "campaign.db", jobs)
        runner = CampaignRunner(
            store, workers=2, chunk=2, handle_signals=False,
            max_cells=4 if ending == "max_cells" else None,
        )
        if ending == "stopped":
            runner.progress = SimpleNamespace(report=lambda _result: runner.request_stop())
        before = set(multiprocessing.active_children())
        report = runner.run()
        store.close()
        assert len(pools) == 1
        assert set(multiprocessing.active_children()) <= before
        computed = {"drained": 8, "max_cells": 4, "stopped": 2}[ending]
        assert report.computed == computed
        assert report.drained == (ending == "drained")


class TestCacheDegradation:
    def test_unwritable_cache_directory_disables_cache(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the cache directory should go")
        stream = io.StringIO()
        run = run_sweep(
            TOY, range(3), cache_dir=blocker, progress=ProgressReporter(stream=stream)
        )
        assert statuses(run) == ["done"] * 3
        assert capsys.readouterr().err.count("cache disabled") == 1
        assert "cache:" not in stream.getvalue()  # no cache, no cache summary
        assert blocker.read_text().startswith("a file")

    def test_sweep_survives_unwritable_cache(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        run = run_sweep(TOY, range(3), {"scale": 2}, cache_dir=blocker)
        assert statuses(run) == ["done"] * 3
        assert run.table[1] == [["toy", 2, "4 [2, 6]"]]


class TestProgress:
    def test_stream_lines(self):
        stream = io.StringIO()
        run_sweep(FLAKY, range(2), progress=ProgressReporter(stream=stream))
        out = stream.getvalue()
        assert "queued 2 job(s)" in out
        assert "done" in out
        assert "failed" in out and "boom" in out
        assert "sweep finished" in out

    def test_disabled_reporter_is_silent(self, capsys):
        # No reporter, no lines: a sweep without one prints nothing.
        run = run_sweep(TOY, range(2))
        assert statuses(run) == ["done", "done"]
        assert capsys.readouterr() == ("", "")
