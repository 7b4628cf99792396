"""Metrics: counters/gauges/histograms sampled into per-run time series.

The instruments are deliberately tiny (this is a simulator, not a metrics
vendor): a :class:`Counter` is a monotone int, a :class:`Gauge` reads a
callable at sample time, a :class:`Histogram` is a discrete value->count
map.  What makes them useful is the :class:`MetricsTimeline`: subscribed
to a :class:`~repro.obs.events.Recorder`, it snapshots every registered
instrument on a **virtual-time cadence** (every ``cadence`` executed
steps), producing the per-run evolution the final aggregates hide --
how the message mix shifts phase by phase, when the in-flight backlog
peaks, how the per-state node census drains toward quiescence.

All sampled values are JSON-representable (histogram keys are stringified)
so samples ride along in the JSONL timeline of :mod:`repro.obs.timeline`
and round-trip losslessly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.events import Recorder, RunEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSample",
    "MetricsTimeline",
    "attach_metrics",
    "DEFAULT_CADENCE",
]

#: Steps between samples when the caller does not choose one.  Small enough
#: to see phase structure on n=32 runs, large enough that a timeline stays
#: a few hundred rows even on long chaotic executions.
DEFAULT_CADENCE = 64


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def read(self) -> int:
        return self.value


class Gauge:
    """A point-in-time reading, either set explicitly or pulled from a
    callable at sample time (the usual mode: ``lambda: sim.in_flight()``)."""

    __slots__ = ("_fn", "_value")

    def __init__(self, fn: Optional[Callable[[], Any]] = None) -> None:
        self._fn = fn
        self._value: Any = 0

    def set(self, value: Any) -> None:
        self._value = value

    def read(self) -> Any:
        return self._fn() if self._fn is not None else self._value


class Histogram:
    """A discrete value -> count map (phases, states, message types).

    Either observe values one by one or pull a whole distribution from a
    callable at sample time; keys are stringified when read so samples are
    JSON-stable.  An ``int`` or ``str`` key is rendered once per histogram:
    every sample that holds it shares the one string.  Other keys are
    rendered at every read, since equal ones can print differently
    (``True`` and ``1``, ``0.0`` and ``-0.0``).
    """

    __slots__ = ("_fn", "_counts", "_names")

    def __init__(self, fn: Optional[Callable[[], Dict[Any, int]]] = None) -> None:
        self._fn = fn
        self._counts: Dict[Any, int] = {}
        self._names: Dict[Any, str] = {}

    def observe(self, value: Any, count: int = 1) -> None:
        self._counts[value] = self._counts.get(value, 0) + count

    def read(self) -> Dict[str, int]:
        counts = self._fn() if self._fn is not None else self._counts
        names = self._names
        named = []
        for key, count in counts.items():
            kind = type(key)
            if kind is int or kind is str:
                name = names.get(key)
                if name is None:
                    name = names[key] = str(key)
            else:
                name = str(key)
            named.append((name, count))
        named.sort(key=itemgetter(0))
        return dict(named)

    # -- order statistics ----------------------------------------------
    def total(self) -> int:
        """Number of observations across all buckets."""
        counts = self._fn() if self._fn is not None else self._counts
        return sum(counts.values())

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile of the observed distribution.

        Keys must be numeric (the histogram is treated as an exact
        discrete distribution: the result is the smallest observed value
        whose cumulative count covers ``q`` percent of observations --
        the "nearest-rank" definition, which keeps results exact for
        integer-valued series like latencies in steps).  Returns ``None``
        on an empty histogram; raises :class:`TypeError` on non-numeric
        keys, since a percentile of e.g. a state census is meaningless.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        counts = self._fn() if self._fn is not None else self._counts
        if not counts:
            return None
        for key in counts:
            if isinstance(key, bool) or not isinstance(key, (int, float)):
                raise TypeError(
                    f"percentile needs numeric histogram keys, got {key!r}"
                )
        total = sum(counts.values())
        # Nearest-rank: the value at position ceil(q/100 * total), 1-based.
        rank = max(1, -(-q * total // 100))
        cumulative = 0
        for value in sorted(counts):
            cumulative += counts[value]
            if cumulative >= rank:
                return float(value)
        return float(max(counts))  # pragma: no cover - rank <= total always

    def quantiles(
        self, qs: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[str, Optional[float]]:
        """The standard SLO quantiles as ``{"p50": ..., ...}``.

        Convenience over :meth:`percentile`; the default set is what the
        service latency tables report.
        """
        return {f"p{q:g}": self.percentile(q) for q in qs}


class MetricsRegistry:
    """Named instruments, snapshot together by :meth:`sample`."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _register(self, name: str, instrument: Any) -> Any:
        if name in self._instruments:
            raise ValueError(f"duplicate metric {name!r}")
        self._instruments[name] = instrument
        # Kept in name order here, once, so that sample() -- called at
        # every cadence tick of every run -- never sorts.
        self._instruments = dict(sorted(self._instruments.items()))
        return instrument

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter())

    def gauge(self, name: str, fn: Optional[Callable[[], Any]] = None) -> Gauge:
        return self._register(name, Gauge(fn))

    def histogram(
        self, name: str, fn: Optional[Callable[[], Dict[Any, int]]] = None
    ) -> Histogram:
        return self._register(name, Histogram(fn))

    def names(self) -> List[str]:
        return list(self._instruments)

    def sample(self) -> Dict[str, Any]:
        """One flat snapshot of every instrument, name -> value."""
        return {name: inst.read() for name, inst in self._instruments.items()}


@dataclass(frozen=True)
class MetricsSample:
    """The registry's values at one virtual time."""

    step: int
    values: Dict[str, Any] = field(default_factory=dict)


class MetricsTimeline:
    """Virtual-time sampler: registry snapshots every ``cadence`` steps.

    Subscribe it to a recorder (:func:`attach_metrics` does the wiring) and
    each incoming event's step drives the sampling clock -- the pure
    event-driven design means zero cost when observability is off and no
    hooks inside the simulator loop.  Call :meth:`finish` after the run for
    the final (quiescent) sample.
    """

    def __init__(self, registry: MetricsRegistry, *, cadence: int = DEFAULT_CADENCE) -> None:
        if cadence < 1:
            raise ValueError(f"cadence must be >= 1 step, got {cadence}")
        self.registry = registry
        self.cadence = cadence
        self.samples: List[MetricsSample] = []
        self._next_due = 0

    def on_event(self, event: RunEvent) -> None:
        self.tick(event.step)

    @property
    def next_due(self) -> int:
        """The first step at which :meth:`tick` will take a sample."""
        return self._next_due

    def tick(self, step: int) -> None:
        """Advance the sampling clock to ``step``; sample if one is due.

        The event-bus path goes through :meth:`on_event`; drivers that own
        their virtual clock (the steady-state service loop) call ``tick``
        directly, and use :attr:`next_due` to run straight to the next
        sample instead of ticking after every step.
        """
        if step >= self._next_due:
            self._take(step)

    def _take(self, step: int) -> None:
        self.samples.append(MetricsSample(step, self.registry.sample()))
        self._next_due = step + self.cadence

    def finish(self, step: int) -> None:
        """Force a final sample at ``step`` (idempotent per step)."""
        if not self.samples or self.samples[-1].step != step:
            self._take(step)

    # -- series access --------------------------------------------------
    def series(self, name: str) -> List[Tuple[int, Any]]:
        """One metric as ``[(step, value), ...]`` over the whole run."""
        return [(s.step, s.values.get(name)) for s in self.samples]

    def last(self) -> Optional[MetricsSample]:
        return self.samples[-1] if self.samples else None


def _census(nodes: Dict[Hashable, Any]) -> Dict[str, int]:
    """Per-state node counts; transport wrappers report their inner node."""
    counts: Dict[str, int] = {}
    for node in nodes.values():
        target = getattr(node, "inner", node)
        if not getattr(target, "awake", False):
            state = "asleep"
        else:
            state = str(getattr(target, "status", None) or "awake")
        counts[state] = counts.get(state, 0) + 1
    return counts


def _phases(nodes: Dict[Hashable, Any]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for node in nodes.values():
        target = getattr(node, "inner", node)
        phase = getattr(target, "phase", None)
        if phase is not None:
            counts[phase] = counts.get(phase, 0) + 1
    return counts


def _live_count(sim: Any) -> int:
    """Awake nodes that have not crashed (per the fault plan, if any)."""
    crashed = frozenset()
    faults = getattr(sim, "faults", None)
    if faults is not None and hasattr(faults, "crashed_nodes"):
        crashed = faults.crashed_nodes(sim.steps)
    return sum(
        1
        for node_id, node in sim.nodes.items()
        if node_id not in crashed and getattr(getattr(node, "inner", node), "awake", False)
    )


def attach_metrics(
    sim: Any, recorder: Recorder, *, cadence: int = DEFAULT_CADENCE
) -> MetricsTimeline:
    """Wire the standard simulator metrics into a sampled timeline.

    The instruments every run gets: cumulative ``messages-by-type``, the
    ``in-flight`` backlog, the ``live-nodes`` count, the per-state node
    ``census``, and the ``phase-histogram`` -- the quantities the Section 5
    lemmas and the chaos taxonomy reason about, now as time series.

    The instruments read ``sim`` through a weak proxy: the simulator owns
    the recorder and the recorder the timeline, so a strong reference back
    would make the run a reference cycle.  Sampling a timeline whose
    simulator is gone raises :class:`ReferenceError`.
    """
    sim = weakref.proxy(sim)
    registry = MetricsRegistry()
    registry.gauge("steps", lambda: sim.steps)
    registry.gauge("in-flight", lambda: sim.in_flight())
    registry.gauge("live-nodes", lambda: _live_count(sim))
    registry.gauge("messages-total", lambda: sim.stats.total_messages)
    registry.gauge("bits-total", lambda: sim.stats.total_bits)
    registry.histogram("messages-by-type", lambda: dict(sim.stats.messages_by_type))
    registry.histogram("census", lambda: _census(sim.nodes))
    registry.histogram("phase-histogram", lambda: _phases(sim.nodes))
    timeline = MetricsTimeline(registry, cadence=cadence)
    recorder.subscribe(timeline.on_event)
    return timeline
