"""Golden service reports: the driver's loop must reproduce them bit for bit.

The files under ``tests/golden/service/`` were frozen from the
single-stepping driver (one ``sim.step()`` and one poll of every
outstanding probe per loop turn) before it was rewritten to run to the
next event horizon.  They pin everything the rewrite must not move: the
service clock, the step count, every probe's injection/completion
instants, the Theorem-8 curve, burst reconvergence and the *full*
metrics timeline (so a sample taken one step early or late fails here).

Regenerate -- only when the simulated behaviour is meant to change --
with ``PYTHONPATH=src python tests/test_service_golden.py``.
"""

import json
import pathlib

import pytest

from repro.core.adhoc import AdhocNetwork
from repro.faults.plan import FaultPlan
from repro.graphs.generators import random_weakly_connected
from repro.service import ServiceDriver, build_workload

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "service"

#: name -> (workload kind, seed, lossy reliable run?)
CASES = {
    f"{kind}-seed{seed}": (kind, seed, False)
    for kind in ("poisson", "constant", "bursty")
    for seed in (1, 2, 3)
}
CASES["poisson-seed1-loss10-reliable"] = ("poisson", 1, True)


def run_case(name):
    kind, seed, lossy = CASES[name]
    graph = random_weakly_connected(48, 72, seed=seed)
    workload = build_workload(kind, graph, rate=80.0, duration=2500, seed=seed)
    network = AdhocNetwork(graph, seed=seed, reliable=lossy)
    faults = FaultPlan(loss=0.1) if lossy else None
    return ServiceDriver(network, workload, faults=faults, fault_seed=seed).run()


def freeze(report):
    """The simulated content of a report as JSON-native data."""
    frozen = {
        "clock": report.clock,
        "steps_executed": report.steps_executed,
        "warmup_steps": report.warmup_steps,
        "budget_exhausted": report.budget_exhausted,
        "injected": report.injected,
        "deferrals": report.deferrals,
        "dropped_probes": report.dropped_probes,
        "service_messages": report.service_messages,
        "service_bits": report.service_bits,
        "probes": [
            [p.at, repr(p.target), p.completed_at, p.immediate] for p in report.probes
        ],
        "curve": report.curve,
        "bursts": [[b.start, b.end, b.reconverged_at] for b in report.bursts],
        "fault_counts": report.fault_counts,
        "transport_totals": report.transport_totals,
        "samples": [[s.step, s.values] for s in report.metrics.samples],
    }
    return json.loads(json.dumps(frozen, sort_keys=True))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    actual = freeze(run_case(name))
    for key in expected:  # field by field: a readable failure
        assert actual[key] == expected[key], f"{name}: {key} differs"
    assert actual.keys() == expected.keys()


def test_goldens_exercise_the_interesting_paths():
    """Guard against goldens that silently stopped covering deferrals,
    bursts, non-immediate probes or the lossy transport."""
    frozen = {name: json.loads((GOLDEN_DIR / f"{name}.json").read_text()) for name in CASES}
    assert any(f["deferrals"] for f in frozen.values())
    assert all(f["bursts"] for name, f in frozen.items() if name.startswith("bursty"))
    assert all(any(not p[3] for p in f["probes"]) for f in frozen.values())
    lossy = frozen["poisson-seed1-loss10-reliable"]
    assert lossy["fault_counts"].get("loss", 0) > 0
    assert lossy["transport_totals"]["retransmissions"] > 0


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        path = GOLDEN_DIR / f"{case}.json"
        path.write_text(json.dumps(freeze(run_case(case)), sort_keys=True) + "\n")
        print(f"wrote {path}")
