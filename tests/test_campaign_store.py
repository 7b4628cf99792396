"""Unit tests for the campaign cell store (repro.campaign.store).

Everything here runs on a fake clock -- lease expiry, retry backoff and
takeover are all tested without sleeping.
"""

import pytest

from repro.campaign import (
    CampaignCodeDrift,
    CampaignError,
    CampaignStore,
)
from repro.campaign.store import CLAIMED, DONE, FAILED, PENDING
from repro.parallel.jobs import Job

TOY = "tests.test_parallel:exp_toy"


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_jobs(n=4, scale=2):
    return [Job.create(TOY, {"scale": scale}, seed=seed) for seed in range(n)]


def make_store(tmp_path, n=4, **kwargs):
    clock = kwargs.pop("clock", FakeClock())
    store = CampaignStore.create(
        tmp_path / "campaign.db", make_jobs(n), clock=clock, **kwargs
    )
    return store, clock


def payload(seed):
    return {"headers": ["case", "messages"], "rows": [["toy", seed]], "messages": seed}


class TestLifecycle:
    def test_create_and_reopen(self, tmp_path):
        store, _ = make_store(tmp_path, n=3, max_attempts=4, backoff=2.0, lease=30.0)
        store.close()
        reopened = CampaignStore.open(tmp_path / "campaign.db")
        assert reopened.total_cells() == 3
        assert reopened.max_attempts == 4
        assert reopened.backoff == 2.0
        assert reopened.lease == 30.0
        assert reopened.counts() == {
            "pending": 3, "claimed": 0, "done": 0, "failed": 0,
        }

    def test_create_refuses_existing_path(self, tmp_path):
        make_store(tmp_path)
        with pytest.raises(CampaignError, match="already exists"):
            CampaignStore.create(tmp_path / "campaign.db", make_jobs())

    def test_create_refuses_empty_and_duplicate_grids(self, tmp_path):
        with pytest.raises(CampaignError, match="at least one"):
            CampaignStore.create(tmp_path / "a.db", [])
        job = Job.create(TOY, {"scale": 2}, seed=0)
        with pytest.raises(CampaignError, match="duplicate"):
            CampaignStore.create(tmp_path / "b.db", [job, job])

    def test_create_refuses_a_lease_that_lets_two_workers_share_a_cell(self, tmp_path):
        for lease in (0.0, -1.0):
            with pytest.raises(CampaignError, match="lease must be > 0"):
                make_store(tmp_path, lease=lease)
        with pytest.raises(CampaignError, match="backoff must be >= 0"):
            make_store(tmp_path, backoff=-0.5)
        assert not (tmp_path / "campaign.db").exists()

    def test_admit_keeps_done_cells_and_starts_the_rest_over(self, tmp_path):
        """A sweep's store: done cells are its cache, anything else (a
        failure, a killed sweep's lease) starts over under the new policy."""
        store, _ = make_store(tmp_path, n=4)
        jobs = make_jobs(4)
        store.complete(jobs[0].key(), payload(0))
        store.claim("w", 3)
        store.fail(jobs[1].key(), "RuntimeError: x")  # pending again, attempts=1
        store.fail(jobs[2].key(), "RuntimeError: x", transient=True)
        store.admit(make_jobs(6)[1:], max_attempts=2, backoff=0.0)
        assert store.counts() == {"pending": 5, "claimed": 0, "done": 1, "failed": 0}
        assert store.total_cells() == 6
        assert all(
            (cell.attempts, cell.lease_owner) == (0, None)
            for cell in store.cells(PENDING)
        )
        assert (store.max_attempts, store.backoff) == (2, 0.0)
        assert store.cell(jobs[0].key()).result == payload(0)

    def test_open_missing_path_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="campaign init"):
            CampaignStore.open(tmp_path / "nope.db")

    def test_open_non_campaign_file_raises(self, tmp_path):
        bogus = tmp_path / "bogus.db"
        bogus.write_text("not sqlite at all")
        with pytest.raises(CampaignError):
            CampaignStore.open(bogus)

    def test_cell_identity_is_job_key(self, tmp_path):
        store, _ = make_store(tmp_path, n=2)
        jobs = make_jobs(2)
        for job in jobs:
            cell = store.cell(job.key())
            assert cell.job() == job

    def test_code_drift_detected(self, tmp_path, monkeypatch):
        store, _ = make_store(tmp_path)
        assert store.check_code() is True
        monkeypatch.setattr(
            "repro.campaign.store.protocol_code_digest", lambda: "deadbeef"
        )
        with pytest.raises(CampaignCodeDrift, match="allow-code-drift"):
            store.check_code()
        assert store.check_code(allow_drift=True) is False


class TestClaims:
    def test_claim_is_id_ordered_and_bounded(self, tmp_path):
        store, _ = make_store(tmp_path, n=5)
        cells = store.claim("w1", 3)
        assert [cell.seed for cell in cells] == [0, 1, 2]
        assert all(cell.status == CLAIMED for cell in cells)
        assert all(cell.lease_owner == "w1" for cell in cells)
        assert store.counts()["claimed"] == 3

    def test_two_owners_partition_the_cells(self, tmp_path):
        store, _ = make_store(tmp_path, n=4)
        first = store.claim("w1", 2)
        second = store.claim("w2", 4)
        keys1 = {cell.key for cell in first}
        keys2 = {cell.key for cell in second}
        assert not keys1 & keys2
        assert len(keys1 | keys2) == 4

    def test_live_lease_is_not_reclaimable(self, tmp_path):
        store, clock = make_store(tmp_path, n=1, lease=60.0)
        assert store.claim("w1", 1)
        clock.advance(30)
        assert store.claim("w2", 1) == []

    def test_expired_lease_is_taken_over(self, tmp_path):
        store, clock = make_store(tmp_path, n=1, lease=60.0)
        (cell,) = store.claim("w1", 1)
        clock.advance(61)
        (taken,) = store.claim("w2", 1)
        assert taken.key == cell.key
        assert taken.lease_owner == "w2"

    def test_heartbeat_extends_the_lease(self, tmp_path):
        store, clock = make_store(tmp_path, n=1, lease=60.0)
        store.claim("w1", 1)
        clock.advance(50)
        assert store.heartbeat("w1") == 1
        clock.advance(50)  # 100s after claim, but only 50 after renewal
        assert store.claim("w2", 1) == []

    def test_release_returns_cells_to_pending(self, tmp_path):
        store, _ = make_store(tmp_path, n=3)
        store.claim("w1", 2)
        assert store.release("w1") == 2
        assert store.counts() == {
            "pending": 3, "claimed": 0, "done": 0, "failed": 0,
        }
        # and they are immediately claimable by someone else
        assert len(store.claim("w2", 3)) == 3

    def test_release_only_touches_own_cells(self, tmp_path):
        store, _ = make_store(tmp_path, n=2)
        store.claim("w1", 1)
        store.claim("w2", 1)
        assert store.release("w1") == 1
        assert store.counts()["claimed"] == 1


class TestCompletion:
    def test_complete_stores_result(self, tmp_path):
        store, _ = make_store(tmp_path, n=1)
        (cell,) = store.claim("w1", 1)
        assert store.complete(cell.key, payload(0), wall=0.5) is True
        after = store.cell(cell.key)
        assert after.status == DONE
        assert after.result == payload(0)
        assert after.wall == 0.5
        assert after.compute_count == 1
        assert after.lease_owner is None
        assert store.unfinished() == 0

    def test_complete_is_idempotent_first_writer_wins(self, tmp_path):
        store, _ = make_store(tmp_path, n=1)
        (cell,) = store.claim("w1", 1)
        assert store.complete(cell.key, payload(0)) is True
        assert store.complete(cell.key, payload(99)) is False
        after = store.cell(cell.key)
        assert after.result == payload(0)  # first writer's result kept
        assert after.compute_count == 2
        assert after.redundant == 1
        assert store.compute_stats() == {"computed": 2, "redundant": 1}

    def test_complete_unknown_key_raises(self, tmp_path):
        store, _ = make_store(tmp_path, n=1)
        with pytest.raises(CampaignError, match="no cell"):
            store.complete("f" * 24, payload(0))


class TestFailureClassification:
    def test_transient_failure_retries_with_backoff(self, tmp_path):
        store, clock = make_store(tmp_path, n=1, backoff=10.0)
        (cell,) = store.claim("w1", 1)
        assert store.fail(cell.key, "timeout after 5s", transient=True) == PENDING
        after = store.cell(cell.key)
        assert after.attempts == 1
        assert after.next_attempt_at == clock.now + 10.0
        # not claimable until the backoff horizon passes
        assert store.claim("w1", 1) == []
        clock.advance(11)
        assert len(store.claim("w1", 1)) == 1

    def test_backoff_doubles_per_attempt(self, tmp_path):
        store, clock = make_store(tmp_path, n=1, backoff=10.0, max_attempts=9)
        (cell,) = store.claim("w1", 1)
        expected = [10.0, 20.0, 40.0]
        for attempt, backoff in enumerate(expected, start=1):
            store.fail(cell.key, f"timeout {attempt}", transient=True)
            assert store.cell(cell.key).next_attempt_at == clock.now + backoff
            clock.advance(backoff + 1)
            assert len(store.claim("w1", 1)) == 1

    def test_same_error_digest_twice_is_permanent(self, tmp_path):
        store, clock = make_store(tmp_path, n=1, backoff=0.0)
        (cell,) = store.claim("w1", 1)
        assert store.fail(cell.key, "ValueError: bad graph") == PENDING
        store.claim("w1", 1)
        assert store.fail(cell.key, "ValueError: bad graph") == FAILED
        after = store.cell(cell.key)
        assert after.status == FAILED
        assert after.attempts == 2
        assert store.unfinished() == 0

    def test_different_errors_keep_retrying_to_the_cap(self, tmp_path):
        store, _ = make_store(tmp_path, n=1, backoff=0.0, max_attempts=3)
        (cell,) = store.claim("w1", 1)
        assert store.fail(cell.key, "error one") == PENDING
        store.claim("w1", 1)
        assert store.fail(cell.key, "error two") == PENDING
        store.claim("w1", 1)
        assert store.fail(cell.key, "error three") == FAILED
        assert store.cell(cell.key).attempts == 3

    def test_transient_failures_also_respect_the_cap(self, tmp_path):
        store, _ = make_store(tmp_path, n=1, backoff=0.0, max_attempts=2)
        (cell,) = store.claim("w1", 1)
        assert store.fail(cell.key, "timeout", transient=True) == PENDING
        store.claim("w1", 1)
        assert store.fail(cell.key, "timeout", transient=True) == FAILED

    def test_failure_after_done_is_dropped_but_audited(self, tmp_path):
        """A redundant recomputation that *fails* must not undo the
        stored result."""
        store, _ = make_store(tmp_path, n=1)
        (cell,) = store.claim("w1", 1)
        store.complete(cell.key, payload(0))
        assert store.fail(cell.key, "late loser crashed") == DONE
        after = store.cell(cell.key)
        assert after.status == DONE
        assert after.result == payload(0)
        assert after.redundant == 1


class TestQueries:
    def test_next_wakeup_tracks_backoff_and_leases(self, tmp_path):
        store, clock = make_store(tmp_path, n=2, backoff=10.0, lease=60.0)
        assert store.next_wakeup() == 0  # pending cells: claimable now
        cells = store.claim("w1", 2)
        assert store.next_wakeup() == clock.now + 60.0  # lease expiries
        store.fail(cells[0].key, "timeout", transient=True)
        assert store.next_wakeup() == clock.now + 10.0  # backoff is sooner
        store.complete(cells[1].key, payload(1))
        clock.advance(11)
        store.claim("w1", 1)
        store.complete(cells[0].key, payload(0))
        assert store.next_wakeup() is None  # all terminal

    def test_counts_and_compute_stats(self, tmp_path):
        store, _ = make_store(tmp_path, n=3, backoff=0.0)
        cells = store.claim("w1", 3)
        store.complete(cells[0].key, payload(0))
        store.fail(cells[1].key, "boom")
        assert store.counts() == {
            "pending": 1, "claimed": 1, "done": 1, "failed": 0,
        }
        assert store.unfinished() == 2
        assert store.compute_stats() == {"computed": 2, "redundant": 0}
