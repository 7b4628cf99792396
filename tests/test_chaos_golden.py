"""Golden chaos trials: the monitored loop must reproduce them bit for bit.

The files under ``tests/golden/chaos/`` were frozen from the harness that
single-stepped the simulator and re-ran the full safety check at every
checkpoint, before the loop was rewritten to drive ``run_for`` and skip
checkpoints whose protocol-change stamp had not moved.  They pin what
that rewrite must not move: every :class:`ChaosTrial` field, the
execution trace, the message counters by type, the scheduler's RNG state
and what the scheduler still holds when the trial ends.

Regenerate -- only when the simulated behaviour is meant to change --
with ``PYTHONPATH=src python tests/test_chaos_golden.py``.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.faults import harness

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "chaos"

N = 24
SCENARIOS = ("baseline", "loss-20", "crash-2", "recover-2", "delay-burst")
VARIANTS = ("generic", "adhoc")
SEEDS = (1, 2, 3)
EVERY = (1, 64)

#: file stem -> (scenario, variant, reliable)
FILES = {
    f"{scenario}-{variant}": (scenario, variant, True)
    for scenario in SCENARIOS
    for variant in VARIANTS
}
FILES["loss-20-generic-raw"] = ("loss-20", "generic", False)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run_case(scenario, variant, reliable, seed, every, monkeypatch):
    """One trial with its simulator captured and tracing on."""
    captured = {}
    build = harness.build_simulation

    def traced_build(*args, **kwargs):
        sim, nodes = build(*args, keep_trace=True, **kwargs)
        captured["sim"] = sim
        return sim, nodes

    monkeypatch.setattr(harness, "build_simulation", traced_build)
    trial = harness.run_chaos_trial(
        scenario, variant, n=N, seed=seed, reliable=reliable, monitor_every=every
    )
    return trial, captured["sim"]


def freeze(trial, sim):
    """The simulated content of a trial as JSON-native data."""
    frozen = dataclasses.asdict(trial)
    frozen["plan"] = repr(trial.plan)
    frozen["trace"] = _digest(sim.trace.fingerprint())
    frozen["trace_events"] = len(sim.trace)
    frozen["messages_by_type"] = sim.stats.messages_by_type
    frozen["bits_by_type"] = sim.stats.bits_by_type
    frozen["scheduler_rng"] = _digest(sim.scheduler._rng.getstate())
    frozen["pending"] = len(sim.scheduler)
    frozen["cancelled_timers"] = sim._cancelled_timers
    frozen["in_flight"] = sim.in_flight()
    return json.loads(json.dumps(frozen, sort_keys=True))


def _cases():
    for stem in sorted(FILES):
        for seed in SEEDS:
            for every in EVERY:
                yield stem, seed, every


@pytest.mark.parametrize("stem,seed,every", list(_cases()))
def test_trial_matches_golden(stem, seed, every, monkeypatch):
    scenario, variant, reliable = FILES[stem]
    expected = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())[
        f"seed{seed}-every{every}"
    ]
    actual = freeze(*run_case(scenario, variant, reliable, seed, every, monkeypatch))
    for key in expected:  # field by field: a readable failure
        assert actual[key] == expected[key], f"{stem} seed {seed}: {key} differs"
    assert actual.keys() == expected.keys()


def test_goldens_exercise_the_interesting_paths():
    """Guard against goldens that silently stopped covering retransmission,
    recovery, deferral, crash drops or a non-ok outcome."""
    frozen = {
        stem: json.loads((GOLDEN_DIR / f"{stem}.json").read_text()) for stem in FILES
    }

    def trials(stem):
        return frozen[stem].values()

    assert all(t["retransmissions"] > 0 for t in trials("loss-20-generic"))
    assert all(t["n_recovered"] == 2 for t in trials("recover-2-adhoc"))
    assert all(t["fault_counts"].get("defer", 0) > 0 for t in trials("delay-burst-generic"))
    assert all(t["fault_counts"].get("wake-suppressed", 0) > 0 for t in trials("crash-2-generic"))
    assert any(t["outcome"] != "ok" for t in trials("loss-20-generic-raw"))
    # the monitor cadence must not change what is simulated
    for stem in FILES:
        for seed in SEEDS:
            assert frozen[stem][f"seed{seed}-every1"] == frozen[stem][f"seed{seed}-every64"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    patcher = pytest.MonkeyPatch()
    for stem, (scenario, variant, reliable) in sorted(FILES.items()):
        cases = {}
        for seed in SEEDS:
            for every in EVERY:
                with patcher.context() as patch:
                    cases[f"seed{seed}-every{every}"] = freeze(
                        *run_case(scenario, variant, reliable, seed, every, patch)
                    )
        path = GOLDEN_DIR / f"{stem}.json"
        path.write_text(json.dumps(cases, sort_keys=True, indent=0) + "\n")
        print(f"wrote {path}")
