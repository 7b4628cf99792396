"""Concurrency tests for campaign claims: racing workers, lease takeover.

SQLite connections are thread-bound, so every worker thread opens its own
:class:`CampaignStore` on the shared database file -- exactly what two
racing ``campaign run`` processes do, minus the fork overhead.
"""

import threading
import time

from repro.campaign import CampaignRunner, CampaignStore
from repro.parallel.jobs import sweep_jobs

TOY = "tests.test_parallel:exp_toy"


def payload(seed):
    return {"headers": ["case", "messages"], "rows": [["toy", seed]], "messages": None}


class TestClaimContention:
    def test_racing_claimers_partition_without_loss(self, tmp_path):
        """N threads hammering claim() must hand every cell to exactly one
        claimant: no cell double-claimed, none lost."""
        path = tmp_path / "campaign.db"
        jobs = sweep_jobs(TOY, range(40), {"scale": 2})
        CampaignStore.create(path, jobs).close()

        claimed_by = {f"w{i}": [] for i in range(4)}
        errors = []

        def worker(owner):
            try:
                store = CampaignStore.open(path)
                try:
                    while True:
                        cells = store.claim(owner, 3)
                        if not cells:
                            return
                        claimed_by[owner].extend(cell.key for cell in cells)
                        for cell in cells:
                            store.complete(cell.key, payload(cell.seed))
                finally:
                    store.close()
            except Exception as exc:
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(owner,)) for owner in claimed_by
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []

        all_claims = [key for keys in claimed_by.values() for key in keys]
        assert len(all_claims) == 40, "a cell was double-claimed or lost"
        assert len(set(all_claims)) == 40
        audit = CampaignStore.open(path)
        assert audit.counts()["done"] == 40
        assert audit.compute_stats() == {"computed": 40, "redundant": 0}
        audit.close()

    def test_two_runners_drain_concurrently_without_recompute(self, tmp_path):
        """Two full CampaignRunner loops on the same DB: every cell done
        exactly once, reports sum to the campaign size."""
        path = tmp_path / "campaign.db"
        jobs = sweep_jobs(TOY, range(30), {"scale": 5})
        CampaignStore.create(path, jobs).close()

        reports = {}
        errors = []

        def run(name):
            try:
                store = CampaignStore.open(path)
                try:
                    reports[name] = CampaignRunner(
                        store,
                        chunk=4,
                        worker_id=name,
                        handle_signals=False,
                        max_wait=0.05,
                    ).run()
                finally:
                    store.close()
            except Exception as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=run, args=(f"w{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        assert sum(r.stored for r in reports.values()) == 30
        assert all(r.redundant == 0 for r in reports.values())

        audit = CampaignStore.open(path)
        assert audit.counts()["done"] == 30
        assert audit.compute_stats() == {"computed": 30, "redundant": 0}
        audit.close()


class TestLeaseTakeover:
    def test_takeover_mid_run_is_idempotent(self, tmp_path):
        """A wedged worker's lease expires; a survivor recomputes the
        cell; the wedged worker's late completion is absorbed as a
        redundant upsert, first writer wins."""
        path = tmp_path / "campaign.db"
        jobs = sweep_jobs(TOY, range(2), {"scale": 2})
        CampaignStore.create(path, jobs, lease=0.15).close()

        wedged = CampaignStore.open(path)
        (cell,) = wedged.claim("wedged", 1)

        time.sleep(0.2)  # lease expires

        survivor = CampaignStore.open(path)
        report = CampaignRunner(
            survivor, worker_id="survivor", handle_signals=False, max_wait=0.05
        ).run()
        assert report.drained
        assert report.stored == 2  # including the taken-over cell

        # The wedged worker finally finishes its long-lost computation.
        assert wedged.complete(cell.key, payload(99)) is False
        after = survivor.cell(cell.key)
        assert after.status == "done"
        assert after.result != payload(99)  # survivor's result kept
        assert survivor.compute_stats() == {"computed": 3, "redundant": 1}
        wedged.close()
        survivor.close()
