"""Protocol messages of the Generic algorithm and its variants.

One class per message type of Section 4:

==============  =====================================================
``query``        leader -> cluster member: "send me up to k of your
                 unreported ids" (Figure 3)
``query-reply``  the ids plus the *doneFlag* saying the member's
                 ``local`` set is now empty (Figures 3, 5)
``search``       leader -> unexplored node, then routed along ``next``
                 pointers to the current leader (Figures 3, 4, 5)
``release``      the reply to a search, routed back along the
                 ``previous`` queues, performing path compression;
                 carries the verdict ``merge`` or ``abort`` (Figures 4-6)
``merge-accept`` conqueror -> conquered: proceed with the merge
``merge-fail``   the would-be conqueror is no longer a waiting leader
``info``         conquered -> conqueror: all gathered state (Figure 6)
``conquer``      conqueror -> unaware member: "I am your leader now"
                 (Figure 5; the Bounded variant's termination broadcast)
``more-done``    unaware member -> conqueror: am I exhausted? (Figure 5)
``probe``        Ad-hoc only (Section 4.5.2): request the current id
                 snapshot from the leader, routed like a search
``probe-reply``  Ad-hoc only: the snapshot, path-compressing like a
                 release
==============  =====================================================

Bit accounting follows the model: each id costs ``id_bits = ceil(log2 n)``
bits, integers (phases, counters) likewise, flags cost one bit, and every
message pays a constant header.  These are the quantities bounded by
Lemmas 5.9-5.10 and Theorem 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, FrozenSet, Hashable

from repro.sim.trace import HEADER_BITS, bits_for_ids  # noqa: F401 (re-export)

NodeId = Hashable

__all__ = [
    "Query",
    "QueryReply",
    "Search",
    "Release",
    "MergeAccept",
    "MergeFail",
    "Info",
    "Conquer",
    "MoreDone",
    "Probe",
    "ProbeReply",
    "MERGE",
    "ABORT",
    "MSG_TYPES",
    "WIRE_TABLE",
    "fixed_bit_bases",
]

#: Release verdicts (the ``answer`` field of Figures 4-6).
MERGE = "merge"
ABORT = "abort"


@dataclass(frozen=True, slots=True)
class Query:
    """Leader asks a cluster member for up to ``k`` unreported ids.

    ``k = |more| + |done| + 1`` at the sending leader -- just enough ids to
    guarantee progress (either a new id appears or the member is exhausted),
    which is the balance behind the algorithm's bit complexity (Section 4.1).
    """

    k: int
    msg_type = "query"

    def bit_size(self, id_bits: int) -> int:
        # bits_for_ids(0, id_bits, extra_ints=1), inlined (hot path).
        return HEADER_BITS + (id_bits if id_bits > 1 else 1)


@dataclass(frozen=True, slots=True)
class QueryReply:
    """Up to ``k`` ids from the member's ``local`` set.

    ``done_flag`` is the pseudocode's *doneFlag*: ``local`` is now empty, so
    the leader may move the member from ``more`` to ``done``.
    """

    ids: FrozenSet[NodeId]
    done_flag: bool
    msg_type = "query-reply"

    def bit_size(self, id_bits: int) -> int:
        # bits_for_ids(len(ids), id_bits) + 1 flag bit, inlined.
        return HEADER_BITS + len(self.ids) * (id_bits if id_bits > 1 else 1) + 1


@dataclass(frozen=True, slots=True)
class Search:
    """``<v.id, v.phase, u.id, new>`` of Figure 3.

    ``initiator`` is the searching leader ``v``; ``target`` is the
    unexplored node ``u`` whose current leader is sought; ``new`` is set en
    route when the target learns the initiator's id for the first time
    (Section 4.2's back-edge bookkeeping).  ``phase`` 0 is reserved for the
    Section 6 new-link notification searches, which must lose every
    ``(phase, id)`` comparison by construction.
    """

    initiator: NodeId
    phase: int
    target: NodeId
    new: bool
    msg_type = "search"

    def bit_size(self, id_bits: int) -> int:
        # bits_for_ids(2, id_bits, extra_ints=1) + 1 flag bit, inlined.
        return HEADER_BITS + 3 * (id_bits if id_bits > 1 else 1) + 1


@dataclass(frozen=True, slots=True)
class Release:
    """``<l, answer, v>`` of Figures 4-6: the reply to ``initiator``'s
    search, issued by leader ``leader``, with verdict ``answer``.

    Routed back along the ``previous`` queues; every intermediate node sets
    ``next := leader`` (path compression, the Union-Find correspondence of
    Lemma 5.6).

    ``phase`` is the issuing leader's phase, used to guard the compression:
    a stale release routed through a node *after* a newer leader's conquer
    has set its pointer must not overwrite it, or property 3 breaks (the
    node would point at a dead leader).  Figure 5 compresses
    unconditionally; carrying the phase is the minimal completion that
    makes the conquer-side phase comparison ("from a phase higher than its
    current leader", Section 4.4) arbitrate both message kinds
    (reproduction finding F3).
    """

    leader: NodeId
    answer: str
    initiator: NodeId
    phase: int
    msg_type = "release"

    def __post_init__(self) -> None:
        if self.answer not in (MERGE, ABORT):
            raise ValueError(f"release answer must be merge/abort, got {self.answer!r}")

    def bit_size(self, id_bits: int) -> int:
        # bits_for_ids(2, id_bits, extra_ints=1) + 1 flag bit, inlined.
        return HEADER_BITS + 3 * (id_bits if id_bits > 1 else 1) + 1


@dataclass(frozen=True, slots=True)
class MergeAccept:
    """Conqueror (wait-state leader) accepts the merge request."""

    msg_type = "merge-accept"

    def bit_size(self, id_bits: int) -> int:
        return HEADER_BITS  # bits_for_ids(0, id_bits): header only


@dataclass(frozen=True, slots=True)
class MergeFail:
    """The search initiator is no longer a waiting leader; merge refused."""

    msg_type = "merge-fail"

    def bit_size(self, id_bits: int) -> int:
        return HEADER_BITS  # bits_for_ids(0, id_bits): header only


@dataclass(frozen=True, slots=True)
class Info:
    """``<phase, more, done, unaware, unexplored>`` of Figure 6.

    The conquered leader's entire gathered state.  The variants (Section
    4.5) never maintain ``unaware``, so it is empty there.  Info size drives
    Lemma 5.10's ``4 n log^2 n`` bit bound.
    """

    phase: int
    more: FrozenSet[NodeId]
    done: FrozenSet[NodeId]
    unaware: FrozenSet[NodeId]
    unexplored: FrozenSet[NodeId]
    msg_type = "info"

    def bit_size(self, id_bits: int) -> int:
        n_ids = len(self.more) + len(self.done) + len(self.unaware) + len(self.unexplored)
        # bits_for_ids(n_ids, id_bits, extra_ints=1), inlined.
        return HEADER_BITS + (n_ids + 1) * (id_bits if id_bits > 1 else 1)


@dataclass(frozen=True, slots=True)
class Conquer:
    """``<v.id, v.phase>``: announce the new leader to an unaware node."""

    leader: NodeId
    phase: int
    msg_type = "conquer"

    def bit_size(self, id_bits: int) -> int:
        # bits_for_ids(1, id_bits, extra_ints=1), inlined.
        return HEADER_BITS + 2 * (id_bits if id_bits > 1 else 1)


@dataclass(frozen=True, slots=True)
class MoreDone:
    """The conquer acknowledgement: one bit saying whether the sender's
    ``local`` set still holds unreported ids (Figure 5's more/done reply)."""

    has_more: bool
    msg_type = "more-done"

    def bit_size(self, id_bits: int) -> int:
        return HEADER_BITS + 1  # bits_for_ids(0, id_bits) + 1 flag bit


@dataclass(frozen=True, slots=True)
class Probe:
    """Ad-hoc snapshot request (Section 4.5.2), routed like a search."""

    initiator: NodeId
    msg_type = "probe"

    def bit_size(self, id_bits: int) -> int:
        # bits_for_ids(1, id_bits), inlined.
        return HEADER_BITS + (id_bits if id_bits > 1 else 1)


@dataclass(frozen=True, slots=True)
class ProbeReply:
    """Ad-hoc snapshot reply: the leader id and every id it has gathered.

    ``ids`` is the leader's :attr:`~repro.core.node.DiscoveryNode.knowledge`
    as sent: a :class:`~repro.core.node.CensusView` (a frozen prefix of the
    leader's census log, O(1) to send), or a ``frozenset`` once the reply
    has been through the array core's codec.  Both compare, hash and
    pickle as the same frozen set.  Path-compresses ``next`` pointers on
    the way back, like a release.
    """

    leader: NodeId
    ids: AbstractSet[NodeId]
    initiator: NodeId
    msg_type = "probe-reply"

    def bit_size(self, id_bits: int) -> int:
        # bits_for_ids(2 + len(ids), id_bits), inlined.
        return HEADER_BITS + (2 + len(self.ids)) * (id_bits if id_bits > 1 else 1)


# ----------------------------------------------------------------------
# The wire table
# ----------------------------------------------------------------------
# One row per message type, in wire-tag order: the class and its fields in
# order, each with the *kind* that says how the array core encodes it and
# what it costs in bits.  This is the only statement of tag numbers, field
# order and fixed bit sizes; the rest is derived -- ``MSG_TYPES`` and
# ``fixed_bit_bases`` below, the array core's wire tuples ``(tag, field,
# ...)`` and their codec (``arraystate._to_wire`` / ``_to_message``), the C
# loop's ``T_*`` / ``N_*`` / ``F_*`` names (``arrayloop.defines``) and the
# Messages table of ``docs/STATE_MACHINE.md`` (a test compares them).  Each
# class's own ``bit_size`` stays as the reference the table is tested
# against.
#
#   kind      holds                bits                 on the wire
#   id        a node id            id_bits              its dense int
#   int       a phase or counter   id_bits              as is
#   flag      a boolean            1                    as is
#   verdict   MERGE or ABORT       1                    True for MERGE
#   id-set    a frozenset of ids   id_bits per member   frozenset of ints
WIRE_TABLE = (
    (Query, (("k", "int"),)),
    (QueryReply, (("ids", "id-set"), ("done_flag", "flag"))),
    (Search, (("initiator", "id"), ("phase", "int"), ("target", "id"),
              ("new", "flag"))),
    (Release, (("leader", "id"), ("answer", "verdict"), ("initiator", "id"),
               ("phase", "int"))),
    (MergeAccept, ()),
    (MergeFail, ()),
    (Info, (("phase", "int"), ("more", "id-set"), ("done", "id-set"),
            ("unaware", "id-set"), ("unexplored", "id-set"))),
    (Conquer, (("leader", "id"), ("phase", "int"))),
    (MoreDone, (("has_more", "flag"),)),
    (Probe, (("initiator", "id"),)),
    (ProbeReply, (("leader", "id"), ("ids", "id-set"), ("initiator", "id"))),
)

#: ``msg_type`` string per wire tag, in tag order.
MSG_TYPES = tuple(cls.msg_type for cls, _fields in WIRE_TABLE)


#: per tag: how many fields cost ``id_bits`` each, how many cost one bit
_FIXED_COSTS = tuple(
    (
        sum(kind in ("id", "int") for _name, kind in fields),
        sum(kind in ("flag", "verdict") for _name, kind in fields),
    )
    for _cls, fields in WIRE_TABLE
)


def fixed_bit_bases(id_bits: int) -> "tuple[int, ...]":
    """Per-tag fixed bit cost: the header, ``max(1, id_bits)`` per id and
    int field, one bit per flag and verdict.  An id-set field additionally
    pays ``max(1, id_bits)`` per member -- the array core's ``xtra`` ids.
    """
    b = id_bits if id_bits > 1 else 1
    return tuple(HEADER_BITS + units * b + bits for units, bits in _FIXED_COSTS)
