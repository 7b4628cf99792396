"""Shared helpers for the test suite, and its hypothesis profiles.

``tier1`` (the default) draws the same examples on every run, so a
failure reproduces by running the suite again; ``ci-long`` draws fresh
ones each run, for CI legs that keep exploring (``HYPOTHESIS_PROFILE``).
Neither changes any test's ``max_examples``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core import arrayloop, arraystate
from repro.core.adhoc import run_adhoc
from repro.core.arraystate import ArrayCore
from repro.core.bounded import run_bounded
from repro.core.generic import run_generic
from repro.core.messages import MERGE, WIRE_TABLE
from repro.sim.network import StepLimitExceeded
from repro.verification.invariants import verify_discovery
from repro.verification.lemmas import check_all_lemmas

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("ci-long", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

RUNNERS = {
    "generic": run_generic,
    "bounded": run_bounded,
    "adhoc": run_adhoc,
}


def run_and_verify(variant, graph, **kwargs):
    """Run a variant to quiescence, check every invariant and lemma, and
    return the result.  The workhorse of the integration tests."""
    result = RUNNERS[variant](graph, **kwargs)
    verify_discovery(result, graph)
    failed = [
        str(check)
        for check in check_all_lemmas(result.stats, graph.n, graph.n_edges, variant)
        if not check.holds
    ]
    assert not failed, f"lemma violations on {variant}: {failed}"
    return result


def array_engaged():
    """``(sim._last_run_path, sim._last_decline)`` after a run the array
    core's gate accepts: the array core iff this process has a C loop
    (a compiler-less box, or ``REPRO_PURE_PYTHON=1``, runs the object
    loop and says so)."""
    if arrayloop.load() is not None:
        return ("array", None)
    return ("legacy", "no-c-loop")


def gate_says(reason):
    """The ``sim._last_decline`` of a system built to fail the gate's
    ``reason`` check: a process without a C loop says ``no-c-loop``
    before it gets to the checks that convert the state (``id-order`` on)."""
    order = arraystate.DECLINE_REASONS
    if arrayloop.load() is None and order.index(reason) > order.index("no-c-loop"):
        return "no-c-loop"
    return reason


#: per field kind, a message field's wire value (``idx`` interns ids)
_ENCODE = {
    "id": lambda value, idx: idx[value],
    "int": lambda value, idx: value,
    "flag": lambda value, idx: value,
    "verdict": lambda value, idx: value == MERGE,
    "id-set": lambda value, idx: frozenset(idx[x] for x in value),
}


def to_wire(message, idx):
    """The wire tuple of a stock message, the inverse of
    ``arraystate._to_message``."""
    tag = next(t for t, (cls, _f) in enumerate(WIRE_TABLE) if cls is type(message))
    fields = WIRE_TABLE[tag][1]
    return (tag, *[_ENCODE[kind](getattr(message, name), idx) for name, kind in fields])


def plant_wire(core, src, dst, message):
    """Send ``message`` from ``src`` to ``dst`` on the run suspended on
    ``core``, as the C loop's ``emit`` sends: onto the channel (a new one
    if need be), its delivery onto the pool and the send counted, as
    ``Simulator.transmit`` does on the object loop."""
    arrayloop.load().plant(core, core.idx[src], core.idx[dst], to_wire(message, core.idx))


def cut_and_recall(cut, between=lambda core, pool: None):
    """An ``ArrayCore.run_loop`` that stops the C run after ``cut`` steps,
    calls ``between(core, pool)`` on the core as that exit left it, and
    calls the C loop again on the same core to finish: the second call
    resumes the suspended run, with whatever ``between`` planted."""
    run_loop = ArrayCore.run_loop

    def recall(core, pool, mode, rng, limit, quiescent, limit_msg):
        start = core.steps
        try:
            run_loop(core, pool, mode, rng, cut, quiescent, limit_msg)
        except StepLimitExceeded:
            pass
        core.steps = core.steps_out
        between(core, pool)
        try:
            run_loop(core, pool, mode, rng, limit, quiescent, limit_msg)
        finally:
            core.steps = start
        return core.steps_out - start

    return recall


@pytest.fixture(params=sorted(RUNNERS))
def variant(request):
    """Parametrize a test over all three algorithm variants."""
    return request.param
