"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import arrayloop, arraystate
from repro.core.adhoc import run_adhoc
from repro.core.bounded import run_bounded
from repro.core.generic import run_generic
from repro.verification.invariants import verify_discovery
from repro.verification.lemmas import check_all_lemmas

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


@pytest.fixture(params=sorted(RUNNERS))
def variant(request):
    """Parametrize a test over all three algorithm variants."""
    return request.param
