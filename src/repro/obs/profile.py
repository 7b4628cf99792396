"""Opt-in wall-time profiling of the simulator's hot paths.

The asynchronous simulator spends its life in two places: the step
dispatch (scheduler pop + token routing) and the node handlers the steps
invoke.  :class:`Profiler` wraps both with ``perf_counter_ns`` buckets so
a slow run is attributable -- is it the scheduler, one protocol's
``on_message``, or the reliable transport's timer storm?

Instrumentation is per-simulator-instance (bound-method shadowing on the
instance, never on the class), so profiling one run cannot slow any other.
The report is a plain ``(headers, rows)`` table that renders through
:func:`repro.analysis.tables.render_table` -- same as every experiment.
:func:`peak_rss_kb` is the memory side: the process's own peak resident
set, which the benchmarks read after a run.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Profiler", "peak_rss_kb"]


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    ``VmHWM`` from ``/proc/self/status``, which ``exec`` resets, so a
    process started by a large parent reports its own peak; Linux carries
    ``ru_maxrss`` across fork + exec, so a child's ``ru_maxrss`` is at
    least its parent's RSS at the fork.  Where there is no ``/proc``,
    ``ru_maxrss`` all the same (bytes on macOS, KiB elsewhere).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak

Table = Tuple[List[str], List[List[Any]]]


class _Bucket:
    __slots__ = ("calls", "total_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0


class Profiler:
    """Accumulates ``perf_counter_ns`` buckets over one (or more) runs.

    Usage::

        profiler = Profiler()
        profiler.instrument(sim)   # after nodes are added
        sim.run()
        headers, rows = profiler.report()
    """

    def __init__(self) -> None:
        self.buckets: Dict[str, _Bucket] = {}

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """Time every call of ``fn`` into bucket ``name``."""
        bucket = self.buckets.setdefault(name, _Bucket())
        clock = time.perf_counter_ns

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                bucket.total_ns += clock() - start
                bucket.calls += 1

        return timed

    def instrument(self, sim: Any) -> None:
        """Attach buckets to ``sim``'s dispatch and every node handler.

        Buckets: ``step`` (whole dispatch), ``dispatch.wake`` /
        ``dispatch.deliver`` / ``dispatch.timer`` (token routing including
        the handler), and ``<NodeClass>.on_message`` / ``.on_wake`` /
        ``.on_timer`` per node class (transport wrappers and their inner
        protocol nodes are both instrumented, so recovery overhead
        separates from protocol work).
        """
        sim.step = self.wrap("step", sim.step)
        sim._execute_wake = self.wrap("dispatch.wake", sim._execute_wake)
        sim._execute_deliver = self.wrap("dispatch.deliver", sim._execute_deliver)
        sim._execute_timer = self.wrap("dispatch.timer", sim._execute_timer)
        for node in sim.nodes.values():
            self._instrument_node(node)
            inner = getattr(node, "inner", None)
            if inner is not None:
                self._instrument_node(inner)

    def _instrument_node(self, node: Any) -> None:
        cls = type(node).__name__
        for handler in ("on_message", "on_wake", "on_timer"):
            fn = getattr(node, handler, None)
            if fn is not None:
                setattr(node, handler, self.wrap(f"{cls}.{handler}", fn))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> Table:
        """Buckets with at least one call, hottest first."""
        total_ns = self.buckets["step"].total_ns if "step" in self.buckets else sum(
            b.total_ns for b in self.buckets.values()
        )
        rows: List[List[Any]] = []
        for name, bucket in sorted(
            self.buckets.items(), key=lambda kv: -kv[1].total_ns
        ):
            if bucket.calls == 0:
                continue
            rows.append(
                [
                    name,
                    bucket.calls,
                    round(bucket.total_ns / 1e6, 3),
                    round(bucket.total_ns / bucket.calls / 1e3, 3),
                    f"{bucket.total_ns / total_ns:.1%}" if total_ns else "-",
                ]
            )
        return ["bucket", "calls", "total-ms", "mean-us", "share-of-step"], rows

    def summary(self) -> str:
        headers, rows = self.report()
        width = max((len(str(row[0])) for row in rows), default=6)
        lines = [f"{'bucket':<{width}}  calls  total-ms  mean-us"]
        for name, calls, total_ms, mean_us, _share in rows:
            lines.append(f"{name:<{width}}  {calls:>5}  {total_ms:>8}  {mean_us:>7}")
        return "\n".join(lines)
