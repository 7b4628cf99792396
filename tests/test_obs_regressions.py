"""Regression tests for the trace/accounting bugfix batch.

Each test class pins one fix and fails against the pre-fix behaviour:

1. trace fingerprints ignored message payloads (envelope-only tuples);
2. bit accounting charged header-only messages when ``id_bits = 0``;
3. sweep store keys ignored protocol/simulator code changes, and then
   every change outside ``core/`` and ``sim/``;
4. ``StepLimitExceeded`` escaped the chaos harness's taxonomy as
   ``detected`` (it is the definition of ``stalled``).
"""

import shutil
from pathlib import Path

from repro.analysis.experiments import build_family
from repro.core.generic import run_generic
from repro.core.runner import build_simulation, id_bits_for
from repro.faults.harness import run_chaos_trial
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.parallel.jobs import (
    CACHE_SCHEMA_VERSION,
    Job,
    _digest_of_roots,
    protocol_code_digest,
)
from repro.sim.network import Simulator, StepLimitExceeded
from repro.sim.trace import HEADER_BITS, TraceEvent, bits_for_ids, payload_digest


class TestFingerprintSeesPayloads:
    def test_as_tuple_distinguishes_payloads(self):
        from repro.core.messages import QueryReply

        envelope = dict(step=4, kind="deliver", src="a", dst="b", msg_type="query-reply")
        one = TraceEvent(**envelope, detail=QueryReply(frozenset({1}), False))
        other = TraceEvent(**envelope, detail=QueryReply(frozenset({2}), False))
        assert one.as_tuple() != other.as_tuple()

    def test_wakeups_have_no_digest(self):
        event = TraceEvent(1, "wake", None, "a", None)
        assert event.as_tuple()[-1] is None

    def test_digest_is_order_insensitive(self):
        from repro.core.messages import QueryReply

        assert payload_digest(
            QueryReply(frozenset({3, 1, 2}), True)
        ) == payload_digest(QueryReply(frozenset({2, 3, 1}), True))

    def test_simulator_records_delivered_payloads(self):
        graph = build_family("sparse-random", 12, 0)
        sim, _nodes = build_simulation(graph, "generic", seed=0, keep_trace=True)
        sim.run()
        delivers = [event for event in sim.trace if event.kind == "deliver"]
        assert delivers
        assert all(event.detail is not None for event in delivers)
        # ... and the digest actually lands in the fingerprint tuples.
        assert all(
            event.as_tuple()[-1] == payload_digest(event.detail)
            for event in delivers
        )


class TestBitAccountingAtTinyN:
    def test_zero_id_bits_is_clamped(self):
        # Pre-fix: id_bits=0 collapsed every message to its header charge.
        assert bits_for_ids(3, 0) == HEADER_BITS + 3
        assert bits_for_ids(0, 0, extra_ints=2) == HEADER_BITS + 2

    def test_id_bits_for_floors_at_one(self):
        assert id_bits_for(1) == 1
        assert id_bits_for(2) == 1
        assert id_bits_for(3) == 2

    def test_n1_system_runs_clean(self):
        result = run_generic(KnowledgeGraph([0]))
        assert result.stats.total_bits >= 0

    def test_n2_messages_charge_more_than_headers(self):
        result = run_generic(KnowledgeGraph([0, 1], [(0, 1)]))
        stats = result.stats
        assert stats.total_messages > 0
        # With the clamp, id-carrying traffic exceeds the pure header sum.
        assert stats.total_bits > HEADER_BITS * stats.total_messages


class TestCacheKeysTrackCode:
    def test_spec_carries_code_digest_and_schema(self):
        spec = Job.create("generic-scaling", {}, seed=0).spec()
        assert spec["version"] == CACHE_SCHEMA_VERSION >= 2
        assert spec["code"] == protocol_code_digest()

    def test_touching_source_changes_keys(self, tmp_path, monkeypatch):
        root = tmp_path / "core"
        root.mkdir()
        source = root / "algo.py"
        source.write_text("STATE = 1\n")
        from repro.parallel import jobs

        monkeypatch.setattr(jobs, "_default_code_roots", lambda: (root,))
        _digest_of_roots.cache_clear()
        job = Job.create("generic-scaling", {}, seed=0)
        key_before = job.key()
        source.write_text("STATE = 2\n")
        _digest_of_roots.cache_clear()
        assert job.key() != key_before

    def test_code_change_invalidates_cached_record(self, tmp_path, monkeypatch):
        from repro.campaign.runner import run_sweep
        from repro.parallel import jobs

        root = tmp_path / "core"
        root.mkdir()
        source = root / "algo.py"
        source.write_text("STATE = 1\n")
        monkeypatch.setattr(jobs, "_default_code_roots", lambda: (root,))
        _digest_of_roots.cache_clear()
        toy, cache = "tests.test_parallel:exp_toy", tmp_path / "cache"
        run_sweep(toy, [0], cache_dir=cache)
        assert run_sweep(toy, [0], cache_dir=cache).attempts == [0]
        source.write_text("STATE = 2\n")
        _digest_of_roots.cache_clear()
        # same params, new code => a new store, and a miss
        assert run_sweep(toy, [0], cache_dir=cache).attempts == [1]
        assert len(list(cache.glob("*.db"))) == 2

    def test_c_source_is_part_of_the_digest(self, tmp_path):
        # The C loop is the engine every eligible discovery runs on, so
        # editing it must change every job key, like editing a .py file.
        root = tmp_path / "core"
        root.mkdir()
        (root / "node.py").write_text("STATE = 1\n")
        source = root / "_loop.c"
        source.write_text("int state = 1;\n")
        _digest_of_roots.cache_clear()
        before = _digest_of_roots((str(root),))
        source.write_text("int state = 2;\n")
        _digest_of_roots.cache_clear()
        assert _digest_of_roots((str(root),)) != before

    def test_modules_outside_core_and_sim_change_keys(self, tmp_path, monkeypatch):
        # Every sweepable runner lives in analysis/ and builds its graphs
        # with graphs/, and the baselines sit beside them: an edit to any
        # of them, or a module moved between subpackages, must miss the
        # cache like an edit to core/ does.
        from repro.parallel import jobs

        package = Path(jobs.__file__).resolve().parent.parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(jobs, "__file__", str(copy / "parallel" / "jobs.py"))
        job = Job.create("generic-scaling", {}, seed=0)
        keys = []
        for edited in (
            None,
            "baselines/flooding.py",
            "analysis/experiments.py",
            "graphs/generators.py",
        ):
            if edited is not None:
                source = copy / edited
                source.write_text(source.read_text() + "\n# edited\n")
            _digest_of_roots.cache_clear()
            keys.append(job.key())
        (copy / "graphs" / "flooding.py").write_bytes(
            (copy / "baselines" / "flooding.py").read_bytes()
        )
        (copy / "baselines" / "flooding.py").unlink()
        _digest_of_roots.cache_clear()
        keys.append(job.key())
        assert len(set(keys)) == len(keys)

    def test_digest_cleanup(self):
        # The monkeypatched tests above poisoned the memo; restore it so
        # later tests (and other files) see the real source digest.
        _digest_of_roots.cache_clear()


class TestStepLimitClassifiedAsStalled:
    def test_step_limit_is_stalled_not_detected(self, monkeypatch):
        original = Simulator.step
        budget = {"left": 40}

        def exhausted(self):
            if budget["left"] <= 0:
                raise StepLimitExceeded("no quiescence within 40 steps")
            budget["left"] -= 1
            return original(self)

        monkeypatch.setattr(Simulator, "step", exhausted)
        trial = run_chaos_trial("baseline", "generic", n=16, seed=0)
        assert trial.outcome == "stalled"
        assert "no quiescence" in trial.detail

    def test_step_limit_does_not_poison_a_sweep(self, monkeypatch):
        from repro.faults.harness import exp_chaos

        original = Simulator.step
        budget = {"left": 40}

        def exhausted(self):
            if budget["left"] <= 0:
                raise StepLimitExceeded("budget gone")
            budget["left"] -= 1
            return original(self)

        monkeypatch.setattr(Simulator, "step", exhausted)
        headers, rows = exp_chaos(("baseline",), ("generic",), n=16, seed=0)
        assert len(rows) == 1  # the shard completed despite the exhaustion
        quiesced = rows[0][headers.index("quiesced")]
        assert quiesced == 0
