"""Message and bit accounting plus optional execution traces.

The paper's complexity measures are (a) total messages and (b) total bits
sent until the steady state is reached; Section 5 additionally bounds each
*message type* separately (Lemmas 5.5-5.10).  :class:`MessageStats` keeps
per-type counters so those lemmas can be checked exactly after every run.

Bit accounting follows the model's convention: a node id costs
``Theta(log n)`` bits.  Every protocol message declares its payload as a
number of ids plus a constant-size header via ``bit_size(id_bits)``; the
simulator charges that at send time with ``id_bits = ceil(log2 n)``.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

__all__ = [
    "MessageStats",
    "TraceEvent",
    "ExecutionTrace",
    "bits_for_ids",
    "payload_digest",
]

#: Constant header charge per message (type tag + framing), in bits.  The
#: asymptotic analysis only needs it to be Theta(1).
HEADER_BITS = 8


def bits_for_ids(n_ids: int, id_bits: int, *, extra_ints: int = 0) -> int:
    """Standard message cost: ``n_ids`` node ids, ``extra_ints`` counters
    (each an O(log n)-bit integer), plus the constant header.

    ``id_bits`` is clamped to at least 1: an id always occupies a bit on
    the wire, even in the degenerate ``n = 1`` system where
    ``ceil(log2 n) = 0`` -- without the clamp every message would be
    charged header-only bits and the bit-complexity tables would silently
    undercount at tiny ``n`` (the :func:`repro.core.runner.id_bits_for`
    helper applies the same floor at graph-build time).
    """
    return HEADER_BITS + (n_ids + extra_ints) * max(1, id_bits)


def _canonical(value: Any) -> str:
    """Deterministic rendering for digests: unordered collections are
    sorted, dataclasses render field-by-field, so the result is stable
    across processes and hash-randomization seeds (plain ``repr`` of a
    frozenset is not).  Any :class:`collections.abc.Set` renders as a
    set, so a census view digests exactly as the frozenset it equals."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, collections.abc.Set):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(f"{_canonical(k)}:{_canonical(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return repr(value)


def payload_digest(message: Any) -> str:
    """Stable short digest of a message's type and full payload.

    This is what distinguishes two deliveries that agree on every envelope
    field (step, channel, ``msg_type``) but carry different content --
    exactly the difference :meth:`ExecutionTrace.fingerprint` must see for
    determinism tests to mean anything.
    """
    rendered = f"{getattr(message, 'msg_type', None)}|{_canonical(message)}"
    return hashlib.sha256(rendered.encode()).hexdigest()[:16]


@dataclass
class MessageStats:
    """Per-type message and bit counters for one execution."""

    messages_by_type: Dict[str, int] = field(default_factory=dict)
    bits_by_type: Dict[str, int] = field(default_factory=dict)

    def record(self, msg_type: str, bits: int) -> None:
        """Charge one message of ``msg_type`` costing ``bits`` bits."""
        self.messages_by_type[msg_type] = self.messages_by_type.get(msg_type, 0) + 1
        self.bits_by_type[msg_type] = self.bits_by_type.get(msg_type, 0) + bits

    def record_indexed(self, msg_types, counts, bits, order) -> None:
        """Fold flat per-tag arrays from the array core into this object.

        The array-backed protocol core (:mod:`repro.core.arraystate`)
        accounts into lists indexed by wire tag -- two ``list[int]`` bumps
        per send instead of two dict hits.  ``order`` lists the tags in
        first-send order, so the folded dicts grow their keys in exactly
        the sequence per-message :meth:`record` would have produced (the
        differential suite compares the dicts, and dict order is part of
        ``repr`` equality for human eyes even if not for ``==``).
        """
        mbt = self.messages_by_type
        bbt = self.bits_by_type
        for tag in order:
            name = msg_types[tag]
            mbt[name] = mbt.get(name, 0) + counts[tag]
            bbt[name] = bbt.get(name, 0) + bits[tag]

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_type.values())

    @property
    def total_bits(self) -> int:
        return sum(self.bits_by_type.values())

    def messages(self, *msg_types: str) -> int:
        """Total messages across the given types (0 for absent types)."""
        return sum(self.messages_by_type.get(t, 0) for t in msg_types)

    def bits(self, *msg_types: str) -> int:
        """Total bits across the given types."""
        return sum(self.bits_by_type.get(t, 0) for t in msg_types)

    def merged_with(self, other: "MessageStats") -> "MessageStats":
        """Return a new stats object summing self and other."""
        merged = MessageStats(
            dict(self.messages_by_type), dict(self.bits_by_type)
        )
        for msg_type, count in other.messages_by_type.items():
            merged.messages_by_type[msg_type] = (
                merged.messages_by_type.get(msg_type, 0) + count
            )
        for msg_type, bits in other.bits_by_type.items():
            merged.bits_by_type[msg_type] = merged.bits_by_type.get(msg_type, 0) + bits
        return merged

    def snapshot(self) -> "MessageStats":
        """Return an independent copy (for before/after deltas)."""
        return MessageStats(dict(self.messages_by_type), dict(self.bits_by_type))

    def delta_since(self, earlier: "MessageStats") -> "MessageStats":
        """Return the counts accumulated since ``earlier`` was snapshot."""
        delta = MessageStats()
        for msg_type, count in self.messages_by_type.items():
            diff = count - earlier.messages_by_type.get(msg_type, 0)
            if diff:
                delta.messages_by_type[msg_type] = diff
        for msg_type, bits in self.bits_by_type.items():
            diff = bits - earlier.bits_by_type.get(msg_type, 0)
            if diff:
                delta.bits_by_type[msg_type] = diff
        return delta

    def __repr__(self) -> str:
        return (
            f"MessageStats(messages={self.total_messages}, "
            f"bits={self.total_bits}, types={sorted(self.messages_by_type)})"
        )


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One delivered message or wake-up in an execution trace.

    ``detail`` carries the delivered message object (``None`` for
    wake-ups); it participates in :meth:`as_tuple` as a stable content
    digest, so fingerprints distinguish executions that differ only in
    message payloads -- the regression behind this: envelope-only tuples
    let payload-corrupting bugs pass determinism tests vacuously.
    """

    step: int
    kind: str  # "deliver" or "wake"
    src: Optional[Hashable]
    dst: Hashable
    msg_type: Optional[str]
    detail: Any = None

    def as_tuple(self) -> Tuple:
        digest = None if self.detail is None else payload_digest(self.detail)
        return (self.step, self.kind, self.src, self.dst, self.msg_type, digest)


class ExecutionTrace:
    """An append-only log of scheduler decisions.

    Used by determinism tests (same seed => identical trace) and by the
    lower-bound experiments to inspect adversarial executions.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def fingerprint(self) -> Tuple[Tuple, ...]:
        """A hashable summary for exact-equality comparison."""
        return tuple(event.as_tuple() for event in self.events)
