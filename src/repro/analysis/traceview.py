"""Human-readable rendering of execution traces.

Small protocol executions are easiest to understand as an event log or an
ASCII sequence diagram.  Both renderers work on the simulator's
:class:`~repro.sim.trace.ExecutionTrace` (``keep_trace=True``):

>>> sim, nodes = build_simulation(graph, "generic", keep_trace=True)  # doctest: +SKIP
>>> sim.run()                                                       # doctest: +SKIP
>>> print(format_trace(sim.trace))                                  # doctest: +SKIP

The sequence diagram draws one lane per node and one row per delivery::

    a         b         c
    |         |         |
    o wake    |         |
    |-search->|         |
    |         |-search------------>|
    ...

Intended for debugging and documentation of executions with at most a few
dozen nodes; the event log scales to anything.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.sim.trace import ExecutionTrace, TraceEvent

NodeId = Hashable

__all__ = ["format_trace", "sequence_diagram", "trace_summary"]


def format_trace(trace: ExecutionTrace, *, limit: Optional[int] = None) -> str:
    """One line per event: ``step  kind  src -> dst  [msg-type]``."""
    lines: List[str] = []
    events = trace.events if limit is None else trace.events[:limit]
    for event in events:
        if event.kind == "deliver":
            lines.append(
                f"{event.step:>6}  {event.src!r} --{event.msg_type}--> {event.dst!r}"
            )
        elif event.kind == "wake":
            lines.append(f"{event.step:>6}  wake {event.dst!r}")
        else:
            lines.append(f"{event.step:>6}  {event.kind} {event.dst!r}")
    if limit is not None and len(trace.events) > limit:
        lines.append(f"... ({len(trace.events) - limit} more events)")
    return "\n".join(lines)


def trace_summary(trace: ExecutionTrace) -> Dict[str, int]:
    """Counts per event kind and per delivered message type."""
    summary: Dict[str, int] = {}
    for event in trace.events:
        key = event.kind if event.kind != "deliver" else f"deliver:{event.msg_type}"
        summary[key] = summary.get(key, 0) + 1
    return summary


def sequence_diagram(
    trace: ExecutionTrace,
    nodes: Sequence[NodeId],
    *,
    lane_width: int = 10,
    limit: Optional[int] = 200,
) -> str:
    """An ASCII sequence diagram with one lane per node.

    ``nodes`` fixes the lane order (pass ``graph.nodes``).  Events touching
    nodes not in ``nodes`` raise ``KeyError`` -- pass the complete list.
    """
    if not nodes:
        return ""
    lane_of = {node: i for i, node in enumerate(nodes)}
    if len(lane_of) != len(nodes):
        raise ValueError("duplicate node in lane order")
    width = max(lane_width, 4)
    total = len(nodes) * width

    def blank_row() -> List[str]:
        row = [" "] * total
        for i in range(len(nodes)):
            row[i * width] = "|"
        return row

    lines: List[str] = []
    header = "".join(str(node)[: width - 1].ljust(width) for node in nodes)
    lines.append(header.rstrip())

    events = trace.events if limit is None else trace.events[:limit]
    for event in events:
        row = blank_row()
        if event.kind in ("wake", "wake-noop"):
            lane = lane_of[event.dst]
            row[lane * width] = "o"
            text = "".join(row).rstrip() + "  wake"
            lines.append(text)
            continue
        if event.kind != "deliver":
            continue
        src_lane = lane_of[event.src]
        dst_lane = lane_of[event.dst]
        left, right = sorted((src_lane * width, dst_lane * width))
        for pos in range(left + 1, right):
            row[pos] = "-"
        label = str(event.msg_type or "?")
        span = right - left - 1
        if span > len(label) + 1:
            start = left + 1 + (span - len(label)) // 2
            for offset, ch in enumerate(label):
                row[start + offset] = ch
            suffix = ""
        else:
            suffix = f"  {label}"
        if src_lane < dst_lane:
            row[right - 1] = ">"
        else:
            row[left + 1] = "<"
        lines.append("".join(row).rstrip() + suffix)
    if limit is not None and len(trace.events) > limit:
        lines.append(f"... ({len(trace.events) - limit} more events)")
    return "\n".join(lines)
