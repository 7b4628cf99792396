"""Array-backed protocol core: the Figure-2 state machine on dense ints.

At n >= 10^5 the cost of the object loop (``Simulator.run_for`` over
:class:`~repro.core.node.DiscoveryNode`, DESIGN.md SS15) is dict-of-sets
cluster state, frozen-dataclass message construction, token objects and
attribute-heavy handler dispatch.  This module removes all four by running
the *same* state machine over columnar state:

* **Id interning** (:class:`IdSpace`): node ids become dense ints
  ``0..n-1`` in simulator insertion order.  Two total orders are
  precomputed -- the *repr order* the object path uses for its
  deterministic-choice heaps and broadcasts, and the *natural order* the
  ``(phase, id)`` conquest comparisons use.  Ids whose reprs collide or
  that are not strictly totally ordered make the system ineligible (the
  object path keeps running them).
* **Columnar node state**: every Figure-2 field becomes a flat list or
  bytearray indexed by node int.  The ``more``/``unexplored`` choice heaps
  hold repr-rank ints instead of ``(repr_string, id)`` tuples -- one int
  compare per sift instead of a string compare.
* **Flyweight messages**: plain tuples ``(tag, ...)`` with the dense wire
  tags of :mod:`repro.core.messages`; the payload-free handshakes are
  preallocated module singletons, so the hot path allocates at most one
  small tuple per send and zero for handshakes.
* **Lazy channel arena**: the protocol's traffic is almost all one-shot
  (one ``conquer`` out, one ``more/done`` back), so a channel's whole life
  is about two messages and only a few percent ever hold two at once.
  ``chanq[cid]`` is therefore ``None`` while idle, the pending wire tuple
  itself while exactly one message is in flight, and a deque only once a
  second message queues behind the first (or when the channel was adopted
  from a live simulator); once a deque, always a deque.
* **Int-only scheduler pool**: a pending delivery is its interned channel
  id (a non-negative int) and a *wake token* is ``-1 - node_int`` -- the
  whole pool is ints, so the pop loop dispatches on a sign check instead
  of ``type(token)``.

Engagement and deopt
--------------------
:func:`maybe_run_array` is the one array-or-object gate, offered every
:meth:`Simulator.run`.  It requires: ``fast=True`` on an exact
:class:`Simulator` with nothing that needs per-message hooks (no fault
interceptor, recorder, send observer, non-FIFO channel discipline,
non-stock scheduler or instance-wrapped method); a pending pool large
enough to amortize conversion (``4 * len(pool) >= n`` -- dynamic ad-hoc
touch-ups with a handful of pending events stay on the object loop); and
state the columns can hold: every node exactly a :class:`DiscoveryNode`
(no transport wrappers, no recovery state, no patched handlers),
strictly ordered ids, only wake and deliver tokens, only stock message
types.  The first check that fails leaves its :data:`DECLINE_REASONS`
name on ``sim._last_decline`` and returns ``None``; *nothing is mutated
until every check has passed*.

On every exit -- quiescence, :class:`StepLimitExceeded`, or a handler
exception -- the columnar state is materialized back onto the live node
objects, channel deques and scheduler pool, so the simulator is always in
a legal object-path state when anyone else can look at it: every arena
slot becomes a deque *before* the mid-run channels are registered on
``sim._channels``, so every value there is a deque, base channels keep
their identity and ``sim._in_flight`` is exact.  Traces are
emitted live with original ids (and dataclass payloads for digests), and
stats fold through :meth:`MessageStats.record_indexed` preserving the
first-send key order the per-message path would have produced.  The
differential suites (``tests/test_arraystate.py`` and the
engine-equivalence module beside it) pin all of this bit-for-bit.

:func:`run_graph` is the million-node driver: it builds the columns
straight from a :class:`KnowledgeGraph` -- no ``DiscoveryNode`` objects at
all (10^6 of them cost ~4 GB before the first message) -- runs the same
loop, and verifies the problem's properties in O(n + E).
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from random import Random as _Random
from sys import maxsize
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.messages import (
    ABORT,
    MERGE,
    MSG_TYPES,
    Conquer,
    Info,
    MergeAccept,
    MergeFail,
    MoreDone,
    Probe,
    ProbeReply,
    Query,
    QueryReply,
    Release,
    Search,
    T_CONQUER,
    T_INFO,
    T_MERGE_ACCEPT,
    T_MERGE_FAIL,
    T_MORE_DONE,
    T_PROBE,
    T_PROBE_REPLY,
    T_QUERY,
    T_QUERY_REPLY,
    T_RELEASE,
    T_SEARCH,
    WIRE_MERGE_ACCEPT,
    WIRE_MERGE_FAIL,
    WIRE_MORE_DONE_FALSE,
    WIRE_MORE_DONE_TRUE,
    fixed_bit_bases,
)
from repro.core import arrayloop as _arrayloop
from repro.core.node import (
    DiscoveryNode,
    LEADER_STATES,
    ProtocolError,
    STATUS_CODES,
    STATUS_NAMES,
    VARIANTS,
    behavior_is_pristine,
)
from repro.sim.events import DeliverToken, WakeToken
from repro.sim.network import (
    _WRAPPABLE,
    SimulationError,
    Simulator,
    StepLimitExceeded,
)
from repro.sim.scheduler import _FIFO, _LIFO, _RANDOM, stock_pool
from repro.sim.trace import MessageStats, TraceEvent

__all__ = [
    "IdSpace",
    "ArrayCore",
    "ScaleResult",
    "DECLINE_REASONS",
    "maybe_run_array",
    "run_graph",
    "rank_sorted",
    "k_smallest",
]

# Dense status codes (indexes into STATUS_NAMES; the tuple order in
# core.node is frozen precisely so these stay valid).
(
    _ASLEEP,
    _EXPLORE,
    _WAIT,
    _CONQUERED,
    _CONQUEROR,
    _PASSIVE,
    _INACTIVE,
    _TERMINATED,
) = range(8)

#: status code -> is this a leader state (paper definition; byte lookup).
IS_LEADER = bytes(
    1 if STATUS_NAMES[code] in LEADER_STATES else 0 for code in range(8)
)

_GENERIC, _BOUNDED, _ADHOC = 0, 1, 2
_VARIANT_CODES = {name: code for code, name in enumerate(VARIANTS)}

#: exact message class -> wire tag (exact type on purpose: a message
#: subclass may change bit_size or semantics, so it deopts).
_TAG_OF = {
    Query: T_QUERY,
    QueryReply: T_QUERY_REPLY,
    Search: T_SEARCH,
    Release: T_RELEASE,
    MergeAccept: T_MERGE_ACCEPT,
    MergeFail: T_MERGE_FAIL,
    Info: T_INFO,
    Conquer: T_CONQUER,
    MoreDone: T_MORE_DONE,
    Probe: T_PROBE,
    ProbeReply: T_PROBE_REPLY,
}

#: DiscoveryNode behaviour attributes that, when shadowed by an *instance*
#: attribute (profilers and tests patch nodes that way), force the object
#: path so the wrappers see every call.
_NODE_WRAPPABLE = frozenset(
    {
        "on_message",
        "on_wake",
        "send",
        "_dispatch",
        "_pump",
        "_explore",
        "initiate_probe",
    }
)

#: Fresh-node signature (see ``_build_from_sim``): two C-level itemgetter
#: grabs plus a tuple compare and ``any()`` replace ~20 interpreted dict
#: lookups per node on the dominant just-built workload.  The scalar
#: compare is by equality where the long-hand check used truthiness; the
#: only effect of that stricter gate is routing exotic hand-mutated
#: states (``awake=None`` and friends) to the general conversion below,
#: which normalizes them identically.
_FRESH_SCALARS = itemgetter(
    "status",
    "awake",
    "phase",
    "_awaiting_release",
    "_awaiting_query_from",
    "_awaiting_info",
    "_expect_stale_release",
    "_probe_outstanding",
    "_restarted",
    "_rejoining",
    "_processing",
)
_FRESH_STATE = ("asleep", False, 1, False, None, False, False, False, False, False, False)
_FRESH_CONTAINERS = itemgetter(
    "done",
    "unaware",
    "unexplored",
    "previous",
    "probe_previous",
    "_inbox",
    "_deferred",
)

#: Do not convert tiny workloads: a post-quiescence touch-up (one probe,
#: one add_link notification) is a handful of steps, while conversion and
#: materialization are O(n + channels).  The object loop handles those;
#: initial discovery runs (pool ~ n wake tokens) always engage.
_MIN_POOL_FACTOR = 4

#: Why :func:`maybe_run_array` left a run to the object loop, in the order
#: the gate checks (the first failing check names the run).
DECLINE_REASONS = (
    "fast-off",  # Simulator(fast=False): the caller asked for the reference
    "simulator-subclass",  # may override anything the core replaces
    "faults",  # an interceptor must see every transport decision
    "recorder",  # obs events are emitted per message
    "send-observer",  # fires per transmit
    "channel-discipline",  # non-FIFO channels draw from the channel RNG
    "scheduler",  # not exactly a stock scheduler: owns its selection state
    "wrapped-simulator",  # an instance attribute shadows a _WRAPPABLE method
    "small-pool",  # conversion would cost more than the run (or n == 0)
    "patched-node-class",  # DiscoveryNode behaviour replaced on the class
    "node-type",  # a node that is not exactly a DiscoveryNode
    "wrapped-node",  # an instance attribute shadows a node handler
    "node-state",  # recovery/reentrancy state, undrained inbox, odd fields
    "id-order",  # ids without unique reprs and a strict total order
    "unknown-id",  # state or a payload names an id outside the system
    "message-type",  # an in-flight message that is not a stock dataclass
    "token-type",  # the pool holds a timer or lifecycle token
)


class _Ineligible(Exception):
    """Internal: this state cannot take the array path.  ``reason`` is the
    :data:`DECLINE_REASONS` name, the message says what was found."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


#: step-limit ceiling handed to the C loop; ``stop`` can be
#: ``steps + maxsize`` which overflows a C long, and no run gets
#: anywhere near 2^62 steps.
_C_STOP_CAP = 1 << 62


# ----------------------------------------------------------------------
# Density-rule helpers (DESIGN.md SS15)
# ----------------------------------------------------------------------
def rank_sorted(members, repr_rank, by_repr_rank) -> List[int]:
    """Members of an int-id set in deterministic repr order.

    The object path computes ``sorted(s, key=repr)``.  Here the repr order
    is precomputed, so the density rule picks between two equivalents:
    dense sets (>= 1/8 of the universe) enumerate the global rank order
    against a bytearray membership mark -- O(n) with tiny constants, no
    comparison sort -- while sparse sets sort by rank, O(m log m) int
    compares.  Both return exactly ``sorted(members, key=repr_of_id)``.
    """
    n = len(by_repr_rank)
    if len(members) * 8 >= n:
        mark = bytearray(n)
        for w in members:
            mark[w] = 1
        return [w for w in by_repr_rank if mark[w]]
    return sorted(members, key=repr_rank.__getitem__)


def k_smallest(members, k: int, repr_rank) -> List[int]:
    """First ``k`` members in repr order (Figure 5 query answering).

    Equivalent to ``sorted(members, key=rank)[:k]``; for small ``k``
    relative to the set, ``heapq.nsmallest`` does it in O(m log k)
    (nsmallest is documented to return its result sorted).
    """
    if k * 8 < len(members):
        return heapq.nsmallest(k, members, key=repr_rank.__getitem__)
    return sorted(members, key=repr_rank.__getitem__)[:k]


# ----------------------------------------------------------------------
# Id interning
# ----------------------------------------------------------------------
class IdSpace:
    """Dense-int interning of node ids plus the two total orders the
    protocol observes.

    ``repr_rank[i]`` ranks node int ``i`` by ``repr(id)`` -- the order of
    the object path's deterministic-choice heaps, broadcast loops and
    ``sorted(..., key=repr)`` calls.  ``nat_rank[i]`` ranks by the ids'
    natural ``<`` -- the tiebreak of the ``(phase, id)`` conquest rule.
    Both must be *strict* total orders for rank comparisons to agree with
    object comparisons; any violation (duplicate reprs, unorderable or
    equal-comparing ids) raises and the caller falls back to the object
    path.
    """

    __slots__ = ("ids", "index", "repr_rank", "by_repr_rank", "nat_rank", "n")

    def __init__(self, ids) -> None:
        ids = list(ids)
        n = len(ids)
        reprs = [repr(x) for x in ids]
        if len(set(reprs)) != n:
            raise _Ineligible("id-order", "node id reprs are not unique")
        by_repr = sorted(range(n), key=reprs.__getitem__)
        repr_rank = [0] * n
        for rank, i in enumerate(by_repr):
            repr_rank[i] = rank
        try:
            by_nat = sorted(range(n), key=ids.__getitem__)
        except TypeError as exc:
            raise _Ineligible(
                "id-order", f"node ids are not mutually orderable: {exc}"
            )
        for a, b in zip(by_nat, by_nat[1:]):
            # Strictness: stable sort gives equal-comparing distinct ids
            # adjacent ranks, which would invent an order the object
            # path's tuple comparison does not have.
            if not ids[a] < ids[b]:
                raise _Ineligible(
                    "id-order", "node ids are not strictly totally ordered"
                )
        nat_rank = [0] * n
        for rank, i in enumerate(by_nat):
            nat_rank[i] = rank
        self.ids = ids
        self.index = {x: i for i, x in enumerate(ids)}
        self.repr_rank = repr_rank
        self.by_repr_rank = by_repr
        self.nat_rank = nat_rank
        self.n = n


# ----------------------------------------------------------------------
# Wire <-> object message conversion
# ----------------------------------------------------------------------
def _to_wire(message, idx) -> tuple:
    """Convert a stock message object to its int-id wire tuple.

    Raises :class:`_Ineligible` for unknown (or subclassed) message types
    and for payload ids outside the interned space.
    """
    tag = _TAG_OF.get(type(message))
    if tag is None:
        raise _Ineligible(
            "message-type", f"uninternable message type {type(message).__name__}"
        )
    try:
        if tag == T_SEARCH:
            return (
                tag,
                idx[message.initiator],
                message.phase,
                idx[message.target],
                message.new,
            )
        if tag == T_RELEASE:
            return (
                tag,
                idx[message.leader],
                message.answer == MERGE,
                idx[message.initiator],
                message.phase,
            )
        if tag == T_QUERY:
            return (tag, message.k)
        if tag == T_QUERY_REPLY:
            return (tag, frozenset(idx[x] for x in message.ids), message.done_flag)
        if tag == T_INFO:
            return (
                tag,
                message.phase,
                frozenset(idx[x] for x in message.more),
                frozenset(idx[x] for x in message.done),
                frozenset(idx[x] for x in message.unaware),
                frozenset(idx[x] for x in message.unexplored),
            )
        if tag == T_CONQUER:
            return (tag, idx[message.leader], message.phase)
        if tag == T_MORE_DONE:
            return WIRE_MORE_DONE_TRUE if message.has_more else WIRE_MORE_DONE_FALSE
        if tag == T_MERGE_ACCEPT:
            return WIRE_MERGE_ACCEPT
        if tag == T_MERGE_FAIL:
            return WIRE_MERGE_FAIL
        if tag == T_PROBE:
            return (tag, idx[message.initiator])
        return (
            tag,
            idx[message.leader],
            frozenset(idx[x] for x in message.ids),
            idx[message.initiator],
        )
    except KeyError as exc:
        raise _Ineligible(
            "unknown-id", f"message payload references unknown id {exc}"
        )


def _to_message(msg: tuple, ids):
    """Materialize a wire tuple back into the equivalent stock dataclass."""
    tag = msg[0]
    if tag == T_SEARCH:
        return Search(ids[msg[1]], msg[2], ids[msg[3]], msg[4])
    if tag == T_RELEASE:
        return Release(ids[msg[1]], MERGE if msg[2] else ABORT, ids[msg[3]], msg[4])
    if tag == T_QUERY:
        return Query(msg[1])
    if tag == T_QUERY_REPLY:
        return QueryReply(frozenset(ids[x] for x in msg[1]), msg[2])
    if tag == T_INFO:
        return Info(
            msg[1],
            frozenset(ids[x] for x in msg[2]),
            frozenset(ids[x] for x in msg[3]),
            frozenset(ids[x] for x in msg[4]),
            frozenset(ids[x] for x in msg[5]),
        )
    if tag == T_CONQUER:
        return Conquer(ids[msg[1]], msg[2])
    if tag == T_MORE_DONE:
        return MoreDone(msg[1])
    if tag == T_MERGE_ACCEPT:
        return MergeAccept()
    if tag == T_MERGE_FAIL:
        return MergeFail()
    if tag == T_PROBE:
        return Probe(ids[msg[1]])
    return ProbeReply(ids[msg[1]], frozenset(ids[x] for x in msg[2]), ids[msg[3]])


# ----------------------------------------------------------------------
# The columnar core
# ----------------------------------------------------------------------
class ArrayCore:
    """Columnar Figure-2 state for ``n`` nodes plus interned channels.

    Built either from a live simulator (:func:`maybe_run_array`) or
    straight from a graph (:func:`run_graph`).  ``fill=True`` initializes
    every node to the fresh ``DiscoveryNode.__init__`` state (asleep,
    ``more = {self}``) except ``local``, the one column whose fresh value
    is the builder's input; ``fill=False`` leaves placeholder columns for
    a builder that assigns every slot.
    """

    __slots__ = (
        "space",
        "ids",
        "idx",
        "rrank",
        "by_rrank",
        "nrank",
        "n",
        "id_bits",
        # -- Figure 2 columns ------------------------------------------
        "status",
        "awake",
        "nxt",
        "phase",
        "local",
        "done",
        "more",
        "unaware",
        "unexp",
        "mheap",
        "uheap",
        "previous",
        # -- event-driven bookkeeping ----------------------------------
        "inbox",
        "deferred",
        "aw_rel",
        "aw_query",
        "aw_info",
        "expect_stale",
        # -- ad-hoc probe machinery ------------------------------------
        "probe_prev",
        "presults",
        "probe_out",
        # -- per-node configuration ------------------------------------
        "variant",
        "csize",
        "greedy",
        # -- interned channels -----------------------------------------
        "chanq",
        "chan_src",
        "chan_dst",
        "out",
        "base_channels",
        # -- canonical int objects (C loop) ----------------------------
        "iobj",
        # -- accounting ------------------------------------------------
        "counts",
        "bits",
        "xtra",
        "order",
        "steps",
        "steps_out",
    )

    def __init__(self, space: IdSpace, id_bits: int, *, fill: bool) -> None:
        n = space.n
        self.space = space
        self.ids = space.ids
        self.idx = space.index
        self.rrank = space.repr_rank
        self.by_rrank = space.by_repr_rank
        self.nrank = space.nat_rank
        self.n = n
        self.id_bits = id_bits
        rrank = space.repr_rank
        if fill:
            self.status = bytearray(n)  # all _ASLEEP
            self.awake = bytearray(n)
            self.nxt = list(range(n))
            self.phase = [1] * n
            self.local = [None] * n
            self.done = [set() for _ in range(n)]
            self.more = [{i} for i in range(n)]
            self.unaware = [set() for _ in range(n)]
            self.unexp = [set() for _ in range(n)]
            self.mheap = [[rrank[i]] for i in range(n)]
            self.uheap = [[] for _ in range(n)]
        else:
            self.status = bytearray(n)
            self.awake = bytearray(n)
            self.nxt = [0] * n
            self.phase = [1] * n
            self.local = [None] * n
            self.done = [None] * n
            self.more = [None] * n
            self.unaware = [None] * n
            self.unexp = [None] * n
            self.mheap = [None] * n
            self.uheap = [None] * n
        # Lazy per-node containers: ``None`` until first use keeps the
        # common case (never routed a search, never probed) allocation-free.
        self.previous = [None] * n
        self.inbox = [None] * n
        self.deferred = [None] * n
        self.aw_rel = bytearray(n)
        self.aw_query = [-1] * n
        self.aw_info = bytearray(n)
        self.expect_stale = bytearray(n)
        self.probe_prev = [None] * n
        self.presults = [None] * n
        self.probe_out = bytearray(n)
        self.variant = bytearray(n)
        self.csize = [None] * n
        self.greedy = bytearray(n)
        #: one slot per channel: ``None`` (idle), the pending wire tuple
        #: itself (exactly one message), or a deque (two or more pending
        #: at once, or adopted from a live simulator).  A slot that became
        #: a deque stays one.
        self.chanq = []
        self.chan_src = []
        self.chan_dst = []
        self.out = [None] * n
        #: channel count at build time; channels past this index were
        #: created mid-run and must be registered on the simulator's
        #: ``_channels`` dict at materialization (the graph driver has no
        #: simulator, so they just live here).
        self.base_channels = 0
        #: ``iobj[i] is i`` as a Python object -- the canonical int table
        #: the C loop borrows for set membership and message fields, so it
        #: never allocates node-int objects on the hot path.
        self.iobj = list(range(n))
        self.counts = [0] * len(MSG_TYPES)
        self.bits = [0] * len(MSG_TYPES)
        #: extra id payload count per tag; ``bits`` is derived from
        #: ``counts``/``xtra`` when the loop exits, so the per-send path
        #: only ever bumps integers.
        self.xtra = [0] * len(MSG_TYPES)
        self.order = []
        self.steps = 0
        self.steps_out = 0

    # ------------------------------------------------------------------
    # The engine
    # ------------------------------------------------------------------
    def run_loop(self, pool, mode, rng, limit, trace_events, quiescent, limit_msg):
        """Run the state machine until the pool drains (or ``limit``).

        ``pool`` holds only ints: channel ids ``>= 0`` (deliveries) and
        ``-1 - node_int`` (wake-ups); ``rng`` is the scheduler's
        ``random.Random`` in random mode.  ``quiescent``/``limit_msg`` are
        callables so the simulator-backed and graph-backed drivers can
        plug their own formulas.  Returns executed step count; updates
        ``self.steps_out`` on every exit for the materializer.
        """
        # -- bind columns as locals (the whole point of the module) ------
        ids = self.ids
        rrank = self.rrank
        by_rrank = self.by_rrank
        nrank = self.nrank
        status = self.status
        awake = self.awake
        nxt = self.nxt
        phase = self.phase
        local = self.local
        done = self.done
        more = self.more
        unaware = self.unaware
        unexp = self.unexp
        mheap = self.mheap
        uheap = self.uheap
        previous = self.previous
        inbox = self.inbox
        deferred = self.deferred
        aw_rel = self.aw_rel
        aw_query = self.aw_query
        aw_info = self.aw_info
        expect_stale = self.expect_stale
        probe_prev = self.probe_prev
        presults = self.presults
        probe_out = self.probe_out
        variant = self.variant
        csize = self.csize
        greedy = self.greedy
        chanq = self.chanq
        chan_src = self.chan_src
        chan_dst = self.chan_dst
        out = self.out
        new_deque = deque
        counts = self.counts
        bits = self.bits
        xtra = self.xtra
        order = self.order
        bases = fixed_bit_bases(self.id_bits)
        idc = self.id_bits if self.id_bits > 1 else 1
        heappush = heapq.heappush
        heappop = heapq.heappop
        pool_append = pool.append
        is_leader = IS_LEADER
        status_names = STATUS_NAMES

        # -- transport ---------------------------------------------------
        def emit(src, dst, tag, msg):
            if dst == src:
                # Parity with SimNode.send's guard (protocol-impossible).
                raise SimulationError(
                    f"node {ids[src]!r} tried to message itself with "
                    f"{MSG_TYPES[tag]!r}; self-interactions must be simulated "
                    "internally (Section 4.1)"
                )
            d = out[src]
            if d is None:
                d = out[src] = {}
            cid = d.get(dst)
            if cid is None:
                # Mid-run channels are bare arena slots, turned into
                # deques and synced onto ``sim._channels`` at
                # materialization -- nothing can observe the dict mid-run
                # on this path.
                cid = len(chanq)
                chanq.append(None)
                chan_src.append(src)
                chan_dst.append(dst)
                d[dst] = cid
            c = counts[tag]
            if not c:
                order.append(tag)
            counts[tag] = c + 1
            slot = chanq[cid]
            if slot is None:
                chanq[cid] = msg
            elif type(slot) is tuple:
                chanq[cid] = new_deque((slot, msg))
            else:
                slot.append(msg)
            pool_append(cid)

        def emitx(src, dst, tag, msg, extra_ids):
            # Messages that carry a variable id payload; the id count is
            # accumulated here and folded into ``bits`` at loop exit.
            xtra[tag] += extra_ids
            emit(src, dst, tag, msg)

        # -- deterministic choice helpers --------------------------------
        def add_more(i, w):
            mo = more[i]
            if w not in mo:
                mo.add(w)
                heappush(mheap[i], rrank[w])

        def add_unexplored(i, u):
            ux = unexp[i]
            if u not in ux:
                ux.add(u)
                heappush(uheap[i], rrank[u])

        def peek_more(i):
            heap = mheap[i]
            mo = more[i]
            while heap:
                w = by_rrank[heap[0]]
                if w in mo:
                    return w
                heappop(heap)
            return -1

        def pop_unexplored(i):
            heap = uheap[i]
            ux = unexp[i]
            while heap:
                u = by_rrank[heappop(heap)]
                if u not in ux:
                    continue
                ux.discard(u)
                if u == i or u in more[i] or u in done[i] or u in unaware[i]:
                    continue
                return u
            return -1

        # -- EXPLORE (Figure 3) ------------------------------------------
        def take_local(i, k):
            # _answer_query_locally without the message wrapper.
            loc = local[i]
            if len(loc) <= k:
                taken = frozenset(loc)
                loc.clear()
                return taken, True
            taken = frozenset(k_smallest(loc, k, rrank))
            loc -= taken
            return taken, False

        def ingest_reply(i, source, id_set, done_flag):
            if done_flag and source in more[i]:
                more[i].discard(source)
                done[i].add(source)
            mo = more[i]
            dn = done[i]
            for fresh in id_set:
                if fresh not in mo and fresh not in dn and fresh != i:
                    add_unexplored(i, fresh)

        def explore(i):
            status[i] = _EXPLORE
            while True:
                if variant[i] == _BOUNDED and len(done[i]) == csize[i]:
                    terminate_bounded(i)
                    return
                target = pop_unexplored(i)
                if target >= 0:
                    status[i] = _WAIT
                    aw_rel[i] = 1
                    emit(i, target, T_SEARCH, (T_SEARCH, i, phase[i], target, False))
                    return
                candidate = peek_more(i)
                if candidate < 0:
                    status[i] = _WAIT
                    aw_rel[i] = 0
                    return
                k = (1 << 62) if greedy[i] else len(more[i]) + len(done[i]) + 1
                if candidate == i:
                    taken, done_flag = take_local(i, k)
                    ingest_reply(i, i, taken, done_flag)
                    continue
                aw_query[i] = candidate
                emit(i, candidate, T_QUERY, (T_QUERY, k))
                return

        def terminate_bounded(i):
            status[i] = _TERMINATED
            cq = (T_CONQUER, i, phase[i])
            for w in rank_sorted(done[i], rrank, by_rrank):
                if w != i:
                    emit(i, w, T_CONQUER, cq)

        # -- Section 6 late-learned ids ----------------------------------
        def absorb_learned_id(i, other):
            loc = local[i]
            if other == i or other in loc:
                return
            if status[i] == _INACTIVE:
                had_reported_all = not loc
                loc.add(other)
                if had_reported_all:
                    emit(i, nxt[i], T_SEARCH, (T_SEARCH, i, 0, i, True))
                return
            loc.add(other)
            if i in done[i]:
                done[i].discard(i)
                add_more(i, i)

        # -- handlers (wire tag order) -----------------------------------
        def h_query(i, sender, msg):
            if status[i] != _INACTIVE:
                raise ProtocolError(
                    f"{ids[i]!r}: query from {ids[sender]!r} in status "
                    f"{status_names[status[i]]}; queries only ever reach "
                    "inactive cluster members"
                )
            taken, done_flag = take_local(i, msg[1])
            emitx(i, sender, T_QUERY_REPLY, (T_QUERY_REPLY, taken, done_flag), len(taken))
            return True

        def h_query_reply(i, sender, msg):
            if status[i] != _EXPLORE or aw_query[i] != sender:
                raise ProtocolError(
                    f"{ids[i]!r}: unexpected query-reply from {ids[sender]!r} "
                    f"in status {status_names[status[i]]}"
                )
            aw_query[i] = -1
            ingest_reply(i, sender, msg[1], msg[2])
            explore(i)
            return True

        def absorb_target(i, msg):
            # Section 4.2: the search's target learns the initiator's id.
            if msg[3] == i and msg[1] not in local[i]:
                local[i].add(msg[1])
                return (T_SEARCH, msg[1], msg[2], msg[3], True)
            return msg

        def leader_on_search(i, sender, msg):
            msg = absorb_target(i, msg)
            initiator = msg[1]
            mphase = msg[2]
            if msg[4] and msg[3] in done[i]:
                done[i].discard(msg[3])
                add_more(i, msg[3])
            if mphase > phase[i] or (
                mphase == phase[i] and nrank[initiator] > nrank[i]
            ):
                emit(i, sender, T_RELEASE, (T_RELEASE, i, True, initiator, phase[i]))
                if status[i] == _WAIT and aw_rel[i]:
                    expect_stale[i] = 1
                status[i] = _CONQUERED
            else:
                emit(i, sender, T_RELEASE, (T_RELEASE, i, False, initiator, phase[i]))
                if (
                    status[i] == _WAIT
                    and not aw_rel[i]
                    and (unexp[i] or peek_more(i) >= 0)
                ):
                    explore(i)

        def h_search(i, sender, msg):
            st = status[i]
            if st == _EXPLORE or st == _CONQUERED or st == _CONQUEROR:
                return False
            if st == _INACTIVE:
                msg = absorb_target(i, msg)
                prev = previous[i]
                if prev is None:
                    prev = previous[i] = deque()
                prev.append((msg, sender))
                if len(prev) == 1:
                    emit(i, nxt[i], T_SEARCH, msg)
                return True
            if st == _WAIT or st == _PASSIVE:
                leader_on_search(i, sender, msg)
                return True
            if st == _TERMINATED:
                msg = absorb_target(i, msg)
                initiator = msg[1]
                mphase = msg[2]
                if mphase > phase[i] or (
                    mphase == phase[i] and nrank[initiator] > nrank[i]
                ):
                    raise ProtocolError(
                        f"{ids[i]!r}: terminated leader outranked by search "
                        f"from {ids[initiator]!r} -- termination was unsound"
                    )
                emit(i, sender, T_RELEASE, (T_RELEASE, i, False, initiator, phase[i]))
                return True
            raise ProtocolError(
                f"{ids[i]!r}: search in impossible status {status_names[st]}"
            )

        def consume_own_release(i, msg):
            leader = msg[1]
            is_merge = msg[2]
            if status[i] == _WAIT and aw_rel[i]:
                aw_rel[i] = 0
                if not is_merge:
                    if leader == i:
                        explore(i)
                        return
                    absorb_learned_id(i, leader)
                    status[i] = _PASSIVE
                    return
                status[i] = _CONQUEROR
                aw_info[i] = 1
                emit(i, leader, T_MERGE_ACCEPT, WIRE_MERGE_ACCEPT)
                return
            st = status[i]
            if st == _PASSIVE or st == _CONQUERED or st == _INACTIVE:
                if is_merge:
                    emit(i, leader, T_MERGE_FAIL, WIRE_MERGE_FAIL)
                if expect_stale[i]:
                    expect_stale[i] = 0
                    absorb_learned_id(i, leader)
                return
            raise ProtocolError(
                f"{ids[i]!r}: own release ({MERGE if is_merge else ABORT}) in "
                f"status {status_names[st]} with awaiting_release={bool(aw_rel[i])}"
            )

        def h_release(i, sender, msg):
            if msg[3] == i:
                consume_own_release(i, msg)
                return True
            if status[i] != _INACTIVE:
                raise ProtocolError(
                    f"{ids[i]!r}: release for {ids[msg[3]]!r} in "
                    f"status {status_names[status[i]]}; only inactive nodes "
                    "route releases"
                )
            prev = previous[i]
            if not prev:
                raise ProtocolError(
                    f"{ids[i]!r}: release to route but previous queue empty"
                )
            _search, came_from = prev.popleft()
            if msg[4] >= phase[i]:
                nxt[i] = msg[1]
                phase[i] = msg[4]
            emit(i, came_from, T_RELEASE, msg)
            if prev:
                emit(i, nxt[i], T_SEARCH, prev[0][0])
            return True

        def h_merge_accept(i, sender, msg):
            if status[i] != _CONQUERED:
                raise ProtocolError(
                    f"{ids[i]!r}: merge-accept in status {status_names[status[i]]}"
                )
            nxt[i] = sender
            extra = len(more[i]) + len(done[i]) + len(unaware[i]) + len(unexp[i])
            emitx(
                i,
                sender,
                T_INFO,
                (
                    T_INFO,
                    phase[i],
                    frozenset(more[i]),
                    frozenset(done[i]),
                    frozenset(unaware[i]),
                    frozenset(unexp[i]),
                ),
                extra,
            )
            status[i] = _INACTIVE
            return True

        def h_merge_fail(i, sender, msg):
            if status[i] != _CONQUERED:
                raise ProtocolError(
                    f"{ids[i]!r}: merge-fail in status {status_names[status[i]]}"
                )
            status[i] = _PASSIVE
            return True

        def merge_with_unaware(i, msg):
            # Figure 6: absorb the conquered leader's state, then conquer.
            ua = unaware[i]
            ua |= msg[2] | msg[3] | msg[4]
            mo = more[i]
            dn = done[i]
            for u in msg[5]:
                if u not in ua and u not in mo and u not in dn and u != i:
                    add_unexplored(i, u)
            cluster = len(mo) + len(dn) + len(ua)
            if phase[i] == msg[1] or cluster >= 1 << (phase[i] + 1):
                phase[i] += 1
            cq = (T_CONQUER, i, phase[i])
            for w in rank_sorted(ua, rrank, by_rrank):
                emit(i, w, T_CONQUER, cq)
            if not ua:  # unreachable in practice: info.more holds the sender
                explore(i)

        def merge_direct(i, msg):
            # Section 4.5: the variants merge sets without the unaware stage.
            mo = more[i]
            dn = done[i]
            for w in msg[2]:
                # done -> more move and plain add collapse: _add_more is a
                # no-op for present members, discard for absent ones.
                dn.discard(w)
                add_more(i, w)
            for w in msg[3]:
                if w not in mo and w not in dn:
                    dn.add(w)
            for u in msg[5]:
                if u not in mo and u not in dn and u != i:
                    add_unexplored(i, u)
            cluster = len(mo) + len(dn)
            if phase[i] == msg[1] or cluster >= 1 << (phase[i] + 1):
                phase[i] += 1
            explore(i)

        def h_info(i, sender, msg):
            if status[i] != _CONQUEROR or not aw_info[i]:
                raise ProtocolError(
                    f"{ids[i]!r}: info in status {status_names[status[i]]}"
                )
            aw_info[i] = 0
            if variant[i] == _GENERIC:
                merge_with_unaware(i, msg)
            else:
                merge_direct(i, msg)
            return True

        def h_conquer(i, sender, msg):
            if status[i] != _INACTIVE:
                raise ProtocolError(
                    f"{ids[i]!r}: conquer in status {status_names[status[i]]}; "
                    "conquer messages only ever reach inactive nodes"
                )
            if msg[2] >= phase[i]:
                nxt[i] = msg[1]
                phase[i] = msg[2]
            emit(
                i,
                sender,
                T_MORE_DONE,
                WIRE_MORE_DONE_TRUE if local[i] else WIRE_MORE_DONE_FALSE,
            )
            return True

        def h_more_done(i, sender, msg):
            st = status[i]
            if st == _TERMINATED:
                return True
            if st != _CONQUEROR or aw_info[i]:
                raise ProtocolError(
                    f"{ids[i]!r}: more-done in status {status_names[st]}"
                )
            ua = unaware[i]
            if sender not in ua:
                raise ProtocolError(
                    f"{ids[i]!r}: more-done from {ids[sender]!r} not in unaware"
                )
            ua.discard(sender)
            if msg[1]:
                add_more(i, sender)
            else:
                done[i].add(sender)
            if not ua:
                explore(i)
            return True

        def h_probe(i, sender, msg):
            st = status[i]
            if msg[1] == i and st == _INACTIVE:
                emit(i, nxt[i], T_PROBE, msg)
                return True
            if is_leader[st]:
                knowledge = frozenset(more[i] | done[i] | unaware[i] | {i})
                emitx(
                    i,
                    sender,
                    T_PROBE_REPLY,
                    (T_PROBE_REPLY, i, knowledge, msg[1]),
                    len(knowledge),
                )
                return True
            if st == _INACTIVE:
                pq = probe_prev[i]
                if pq is None:
                    pq = probe_prev[i] = deque()
                pq.append((msg, sender))
                if len(pq) == 1:
                    emit(i, nxt[i], T_PROBE, msg)
                return True
            return False

        def h_probe_reply(i, sender, msg):
            if msg[3] == i:
                pr = presults[i]
                if pr is None:
                    pr = presults[i] = []
                # ``steps`` is the loop's counter: current here on every
                # route in (Python delivery, C deopt token, C pump handoff).
                pr.append((msg[1], msg[2], steps))
                probe_out[i] = 0
                return True
            if status[i] != _INACTIVE:
                raise ProtocolError(
                    f"{ids[i]!r}: probe-reply to route in status "
                    f"{status_names[status[i]]}"
                )
            pq = probe_prev[i]
            if not pq:
                raise ProtocolError(f"{ids[i]!r}: probe-reply but probe queue empty")
            _probe, came_from = pq.popleft()
            nxt[i] = msg[1]
            emitx(i, came_from, T_PROBE_REPLY, msg, len(msg[2]))
            if pq:
                emit(i, nxt[i], T_PROBE, pq[0][0])
            return True

        dispatch = [
            h_query,
            h_query_reply,
            h_search,
            h_release,
            h_merge_accept,
            h_merge_fail,
            h_info,
            h_conquer,
            h_more_done,
            h_probe,
            h_probe_reply,
        ]

        # -- inbox pump (deferral replay, Interpretation rule 1) ---------
        def pump(i):
            ib = inbox[i]
            df = deferred[i]
            while ib:
                sender, msg = ib.popleft()
                if not df:
                    if not dispatch[msg[0]](i, sender, msg):
                        if df is None:
                            df = deferred[i] = []
                        df.append((sender, msg))
                    continue
                before = (status[i], aw_rel[i], aw_query[i], aw_info[i])
                if not dispatch[msg[0]](i, sender, msg):
                    df.append((sender, msg))
                    continue
                if df and (status[i], aw_rel[i], aw_query[i], aw_info[i]) != before:
                    ib.extendleft(reversed(df))
                    df.clear()

        # -- the loop ----------------------------------------------------
        start_steps = self.steps
        steps = start_steps
        # ``executed >= limit`` becomes a single compare against the
        # absolute step count (one counter bump per iteration, not two).
        stop = start_steps + limit
        fifo = mode == _FIFO
        lifo = mode == _LIFO
        getrandbits = randbelow = None
        if mode == _RANDOM:
            # The pop draws ``rng.randrange(size)``, i.e. ``_randbelow``:
            # three lines over the C-level getrandbits, inlined -- the
            # *identical* value sequence -- when the RNG is exactly the
            # stdlib Random; any other is called as-is (mirror only).
            if type(rng) is _Random:
                getrandbits = rng.getrandbits
            else:
                randbelow = rng.randrange
        # -- C loop engagement (DESIGN.md SS15) --------------------------
        # The compiled module runs the identical state machine over the
        # same columns; Python keeps the trace path, the probe and error
        # arms, and the limit policy.  The tiered-deopt protocol:
        #   code 0  pool drained              -> done
        #   code 1  counted step hit ``stop`` -> quiescent()/raise here
        #   code 2  head message not provably handleable; ``aux`` is the
        #           already-popped token      -> run one Python delivery
        #   code 3  pump hit an unhandleable inbox head; step counted
        #                                     -> ``pump(aux)`` here
        # ``cell`` carries the absolute step count across the boundary on
        # every exit, including handler exceptions.
        crun = None
        if trace_events is None and (fifo or lifo or getrandbits is not None):
            if (type(pool) is deque) if fifo else (type(pool) is list):
                cmod = _arrayloop.load()
                if cmod is not None:
                    crun = cmod.run
        if crun is not None:
            cell = [steps]
            cstop = stop if stop < _C_STOP_CAP else _C_STOP_CAP
        forced = None
        # The loop allocates only acyclic transients (tuples, flyweight
        # messages, deque cells), freed by refcounting alone -- but the
        # generational collector keeps re-scanning the n-sized column
        # arena looking for cycles that can't exist.  Pausing collection
        # for the duration is results-invariant and worth ~25% wall-clock
        # at n=10^6.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if forced is not None:
                    token = forced
                    forced = None
                elif crun is not None:
                    cell[0] = steps
                    try:
                        code, aux = crun(
                            self, pool, pool_append, mode, getrandbits, cstop, cell
                        )
                    finally:
                        steps = cell[0]
                    if code == 0:
                        break
                    if code == 1:
                        if not quiescent():
                            raise StepLimitExceeded(limit_msg())
                        continue
                    if code == 3:
                        pump(aux)
                        if steps >= stop and not quiescent():
                            raise StepLimitExceeded(limit_msg())
                        continue
                    token = aux
                elif not pool:
                    break
                elif fifo:
                    token = pool.popleft()
                elif lifo:
                    token = pool.pop()
                else:
                    size = len(pool)
                    if getrandbits is not None:
                        k = size.bit_length()
                        index = getrandbits(k)
                        while index >= size:
                            index = getrandbits(k)
                    else:
                        index = randbelow(size)
                    token = pool[index]
                    pool[index] = pool[-1]
                    pool.pop()

                steps += 1
                if token >= 0:
                    msg = chanq[token]
                    if type(msg) is tuple:
                        chanq[token] = None
                    else:
                        msg = msg.popleft()
                    dst = chan_dst[token]
                    if not awake[dst]:
                        # Messages wake sleeping nodes (Section 1.2).
                        awake[dst] = 1
                        if trace_events is not None:
                            trace_events.append(
                                TraceEvent(steps, "wake", None, ids[dst], None)
                            )
                        explore(dst)
                    src = chan_src[token]
                    if trace_events is not None:
                        trace_events.append(
                            TraceEvent(
                                steps,
                                "deliver",
                                ids[src],
                                ids[dst],
                                MSG_TYPES[msg[0]],
                                _to_message(msg, ids),
                            )
                        )
                    # -- on_message ------------------------------------
                    # Each handler is stated once (the closures above);
                    # ``False`` means "defer" (search and probe only).
                    if deferred[dst] or inbox[dst]:
                        ib = inbox[dst]
                        if ib is None:
                            ib = inbox[dst] = deque()
                        ib.append((src, msg))
                        pump(dst)
                    elif not dispatch[msg[0]](dst, src, msg):
                        df = deferred[dst]
                        if df is None:
                            df = deferred[dst] = []
                        df.append((src, msg))
                else:
                    node = -1 - token
                    if awake[node]:
                        if trace_events is not None:
                            trace_events.append(
                                TraceEvent(steps, "wake-noop", None, ids[node], None)
                            )
                    else:
                        awake[node] = 1
                        if trace_events is not None:
                            trace_events.append(
                                TraceEvent(steps, "wake", None, ids[node], None)
                            )
                        explore(node)
                        if inbox[node]:  # on_wake pumps; inbox is
                            pump(node)  # empty outside exceptional states

                if steps >= stop and not quiescent():
                    raise StepLimitExceeded(limit_msg())
        finally:
            if gc_was_enabled:
                gc.enable()
            self.steps_out = steps
            # Fold the deferred bit accounting: per-tag totals are fully
            # determined by send count and extra-id count, so the hot
            # path never touched ``bits``.  (Recomputed from totals, so
            # safe on any exit, including handler exceptions.)
            for tag in order:
                bits[tag] = counts[tag] * bases[tag] + xtra[tag] * idc
        return steps - start_steps


# ----------------------------------------------------------------------
# Simulator-backed engagement
# ----------------------------------------------------------------------
def _intern_space(sim, n: int) -> IdSpace:
    """Per-simulator cached :class:`IdSpace` (nodes are append-only, so a
    cached space is valid whenever the count still matches)."""
    space = getattr(sim, "_array_space", None)
    if space is not None and space.n == n:
        return space
    if getattr(sim, "_array_space_bad_n", -1) == n:
        raise _Ineligible(
            "id-order", "cached: id space ineligible at this node count"
        )
    try:
        space = IdSpace(sim.nodes)
    except _Ineligible:
        sim._array_space_bad_n = n
        raise
    sim._array_space = space
    return space


def _arena_in_flight(chanq) -> int:
    """Messages pending in a channel arena (see ``ArrayCore.chanq``): a
    tuple slot is one message, a deque slot its length, ``None`` zero."""
    pending = 0
    for slot in chanq:
        if slot is not None:
            pending += 1 if type(slot) is tuple else len(slot)
    return pending


def _build_from_sim(sim, pool):
    """Validate and build the columnar image of a live simulator.

    Pure read phase: raises :class:`_Ineligible` without having mutated
    the simulator, its nodes, channels or pool in any way.  Returns
    ``(core, new_pool, chan_pending)`` where ``new_pool`` is the int token
    list (in pool order) and ``chan_pending`` the per-channel wire
    contents to swap in at commit time.
    """
    nodes_map = sim.nodes
    n = len(nodes_map)
    space = _intern_space(sim, n)
    idx = space.index
    rrank = space.repr_rank
    core = ArrayCore(space, sim.id_bits, fill=False)
    core.steps = sim.steps

    status_codes = STATUS_CODES
    variant_codes = _VARIANT_CODES
    local_col = core.local
    nxt_col = core.nxt
    done_col = core.done
    more_col = core.more
    unaware_col = core.unaware
    unexp_col = core.unexp
    mheap_col = core.mheap
    uheap_col = core.uheap
    variant_col = core.variant
    csize_col = core.csize
    greedy_col = core.greedy
    shadow_free = _NODE_WRAPPABLE.isdisjoint
    try:
        for i, node in enumerate(nodes_map.values()):
            if type(node) is not DiscoveryNode:
                raise _Ineligible("node-type", "non-stock node type")
            d = node.__dict__
            if not shadow_free(d):
                raise _Ineligible(
                    "wrapped-node", "node instance shadows a wrapped method"
                )
            # Fresh-node fast path: the dominant workload converts a
            # just-built simulator (every node asleep with only its
            # ``local`` successors populated), where the full conversion
            # below is pure overhead.  The chain verifies freshness
            # outright, so hand-mutated nodes still take the general path.
            if (
                _FRESH_SCALARS(d) == _FRESH_STATE
                and not any(_FRESH_CONTAINERS(d))
                and len(d["more"]) == 1
                and node.node_id in d["more"]
                and d["next"] == node.node_id
            ):
                local_col[i] = {idx[x] for x in d["local"]}
                nxt_col[i] = i
                done_col[i] = set()
                more_col[i] = {i}
                unaware_col[i] = set()
                unexp_col[i] = set()
                mheap_col[i] = [rrank[i]]
                uheap_col[i] = []
                variant_col[i] = variant_codes[d["variant"]]
                csize_col[i] = d["component_size"]
                if d["greedy_queries"]:
                    greedy_col[i] = 1
                continue
            if node._restarted or node._rejoining or node._processing:
                raise _Ineligible(
                    "node-state", "node carries recovery or reentrancy state"
                )
            if node._inbox:
                raise _Ineligible("node-state", "node inbox not drained")
            code = status_codes.get(node.status)
            if code is None:
                raise _Ineligible("node-state", f"unknown status {node.status!r}")
            core.status[i] = code
            core.awake[i] = 1 if node.awake else 0
            core.nxt[i] = idx[node.next]
            core.phase[i] = node.phase
            core.local[i] = {idx[x] for x in node.local}
            core.done[i] = {idx[x] for x in node.done}
            more = {idx[x] for x in node.more}
            core.more[i] = more
            core.unaware[i] = {idx[x] for x in node.unaware}
            unexplored = {idx[x] for x in node.unexplored}
            core.unexp[i] = unexplored
            # A sorted list is a valid heap; rebuilding from the *live*
            # members drops stale heap entries, which the object path
            # skips lazily on pop anyway -- same pop sequence either way.
            core.mheap[i] = sorted(rrank[w] for w in more)
            core.uheap[i] = sorted(rrank[u] for u in unexplored)
            core.aw_rel[i] = 1 if node._awaiting_release else 0
            aw_q = node._awaiting_query_from
            core.aw_query[i] = -1 if aw_q is None else idx[aw_q]
            core.aw_info[i] = 1 if node._awaiting_info else 0
            core.expect_stale[i] = 1 if node._expect_stale_release else 0
            core.probe_out[i] = 1 if node._probe_outstanding else 0
            if node.previous:
                core.previous[i] = deque(
                    (_to_wire(m, idx), idx[s]) for m, s in node.previous
                )
            if node.probe_previous:
                core.probe_prev[i] = deque(
                    (_to_wire(m, idx), idx[s]) for m, s in node.probe_previous
                )
            if node._deferred:
                core.deferred[i] = [
                    (idx[s], _to_wire(m, idx)) for s, m in node._deferred
                ]
            core.variant[i] = variant_codes[node.variant]
            core.csize[i] = node.component_size
            core.greedy[i] = 1 if node.greedy_queries else 0

        # -- channels: intern every existing pair, reusing its deque -----
        chanq = core.chanq
        chan_src = core.chan_src
        chan_dst = core.chan_dst
        out = core.out
        chan_pending = []
        for (src, dst), queue in sim._channels.items():
            si = idx[src]
            di = idx[dst]
            d = out[si]
            if d is None:
                d = out[si] = {}
            d[di] = len(chanq)
            chanq.append(queue)
            chan_src.append(si)
            chan_dst.append(di)
            if queue:
                chan_pending.append((queue, [_to_wire(m, idx) for m in queue]))

        # -- pool: wake and deliver tokens only --------------------------
        new_pool = []
        append = new_pool.append
        for token in pool:
            tcls = type(token)
            if tcls is WakeToken:
                append(-1 - idx[token.node])
            elif tcls is DeliverToken:
                append(out[idx[token.src]][idx[token.dst]])
            else:
                raise _Ineligible("token-type", f"pool holds a {tcls.__name__}")
    except KeyError as exc:
        raise _Ineligible("unknown-id", f"state references unknown id {exc}")
    except TypeError as exc:
        raise _Ineligible("node-state", f"uninternable state: {exc}")

    core.base_channels = len(chanq)
    return core, new_pool, chan_pending


def _materialize_to_sim(core: ArrayCore, sim, pool, mode) -> None:
    """Write the columnar state back onto the live objects.

    Runs on *every* exit (quiescence, step limit, handler exception); the
    simulator afterwards is indistinguishable from one the object path
    left behind, so resumed runs, result collection and diagnostics all
    behave identically.
    """
    ids = core.ids
    nodes_map = sim.nodes
    status_names = STATUS_NAMES
    heapify = heapq.heapify
    new_deque = deque
    status_col = core.status
    awake_col = core.awake
    nxt_col = core.nxt
    phase_col = core.phase
    local_col = core.local
    done_col = core.done
    more_col = core.more
    unaware_col = core.unaware
    unexp_col = core.unexp
    aw_rel_col = core.aw_rel
    aw_query_col = core.aw_query
    aw_info_col = core.aw_info
    expect_stale_col = core.expect_stale
    probe_out_col = core.probe_out
    previous_col = core.previous
    probe_prev_col = core.probe_prev
    inbox_col = core.inbox
    deferred_col = core.deferred
    presults_col = core.presults

    def to_message(msg):
        return _to_message(msg, ids)

    for i, node in enumerate(nodes_map.values()):
        d = node.__dict__
        d["status"] = status_names[status_col[i]]
        d["awake"] = awake_col[i] != 0
        d["next"] = ids[nxt_col[i]]
        d["phase"] = phase_col[i]
        d["local"] = {ids[x] for x in local_col[i]}
        d["done"] = {ids[x] for x in done_col[i]}
        more = {ids[x] for x in more_col[i]}
        d["more"] = more
        d["unaware"] = {ids[x] for x in unaware_col[i]}
        node._knowledge = None  # a slot; the three sets above were replaced
        unexplored = {ids[x] for x in unexp_col[i]}
        d["unexplored"] = unexplored
        # Rebuild (repr, id) heaps from live members (see _build_from_sim).
        more_heap = [(repr(w), w) for w in more]
        heapify(more_heap)
        d["_more_heap"] = more_heap
        unexp_heap = [(repr(u), u) for u in unexplored]
        heapify(unexp_heap)
        d["_unexplored_heap"] = unexp_heap
        d["_awaiting_release"] = aw_rel_col[i] != 0
        aw_q = aw_query_col[i]
        d["_awaiting_query_from"] = None if aw_q < 0 else ids[aw_q]
        d["_awaiting_info"] = aw_info_col[i] != 0
        d["_expect_stale_release"] = expect_stale_col[i] != 0
        d["_probe_outstanding"] = probe_out_col[i] != 0
        prev = previous_col[i]
        d["previous"] = (
            new_deque((to_message(m), ids[s]) for m, s in prev)
            if prev
            else new_deque()
        )
        pq = probe_prev_col[i]
        d["probe_previous"] = (
            new_deque((to_message(m), ids[s]) for m, s in pq) if pq else new_deque()
        )
        ib = inbox_col[i]
        d["_inbox"] = (
            new_deque((ids[s], to_message(m)) for s, m in ib) if ib else new_deque()
        )
        df = deferred_col[i]
        d["_deferred"] = [(ids[s], to_message(m)) for s, m in df] if df else []
        for leader, id_set, step in presults_col[i] or ():
            node.record_probe_answer(
                ids[leader], frozenset(ids[x] for x in id_set), step
            )

    # Channels: every slot becomes a deque of message objects.  Base
    # channels are converted in place (deque identity is shared with
    # sim._channels and the PR6 interning registry); channels created
    # mid-run exist only in the core's arena, still in any slot form, and
    # are registered on the simulator in creation order (matching the
    # insertion order the per-send path would have produced) once they
    # are deques.  The arena holds every channel of the simulator, so it
    # also re-establishes the O(1) in-flight count.
    chanq = core.chanq
    sim._in_flight = _arena_in_flight(chanq)
    channels = sim._channels
    base_channels = core.base_channels
    src_col = core.chan_src
    dst_col = core.chan_dst
    for cid, slot in enumerate(chanq):
        if slot is None:
            queue = new_deque()
        elif type(slot) is tuple:
            queue = new_deque((to_message(slot),))
        else:
            queue = slot
            if queue:
                materialized = [to_message(m) for m in queue]
                queue.clear()
                queue.extend(materialized)
        if cid >= base_channels:
            channels[(ids[src_col[cid]], ids[dst_col[cid]])] = queue

    # Pool: ints -> tokens, preserving order.
    if pool:
        items = [
            WakeToken(ids[-1 - token])
            if token < 0
            else DeliverToken(ids[src_col[token]], ids[dst_col[token]])
            for token in pool
        ]
        if mode == _FIFO:
            pool.clear()
            pool.extend(items)
        else:
            pool[:] = items

    sim.steps = core.steps_out
    sim.stats.record_indexed(MSG_TYPES, core.counts, core.bits, core.order)


def maybe_run_array(sim, max_steps) -> Optional[int]:
    """Run ``sim`` on the array core, or say why not.

    The single array-or-object gate, offered every :meth:`Simulator.run`.
    Returns the executed step count with ``sim._last_decline`` ``None``;
    or returns ``None`` with the simulator untouched and the
    :data:`DECLINE_REASONS` name of the first failed check on
    ``sim._last_decline``, and the caller's object loop proceeds.
    """
    n = len(sim.nodes)
    mode, pool = stock_pool(sim.scheduler)
    reason = None
    if not sim.fast:
        reason = "fast-off"
    elif type(sim) is not Simulator:
        reason = "simulator-subclass"
    elif sim.faults is not None:
        reason = "faults"
    elif sim.obs is not None:
        reason = "recorder"
    elif sim._send_observers:
        reason = "send-observer"
    elif sim.channel_discipline != "fifo":
        reason = "channel-discipline"
    elif mode is None:
        reason = "scheduler"
    elif not _WRAPPABLE.isdisjoint(vars(sim)):
        reason = "wrapped-simulator"
    elif n == 0 or _MIN_POOL_FACTOR * len(pool) < n:
        reason = "small-pool"
    elif not behavior_is_pristine():
        # A class-level monkeypatch (the finding-regression tests replace
        # DiscoveryNode methods to reproduce bugs) must keep taking
        # effect; the inlined state machine cannot honour it.
        reason = "patched-node-class"
    else:
        try:
            core, new_pool, chan_pending = _build_from_sim(sim, pool)
        except _Ineligible as exc:
            reason = exc.reason
    sim._last_decline = reason
    if reason is not None:
        sim._last_run_path = "legacy"
        return None

    # -- commit point: from here on every exit materializes --------------
    for queue, wires in chan_pending:
        queue.clear()
        queue.extend(wires)
    if mode == _FIFO:
        pool.clear()
        pool.extend(new_pool)
    else:
        pool[:] = new_pool
    sim._last_run_path = "array"

    rng = sim.scheduler._rng if mode == _RANDOM else None
    trace = sim.trace
    trace_events = trace.events if trace is not None else None
    limit = maxsize if max_steps is None else max_steps

    def quiescent():
        return sim.is_quiescent

    def limit_msg():
        # Counted over the channel arena, not sim.in_flight(): channels
        # created mid-run are registered on the simulator only at
        # materialization, but their pending messages are in flight now
        # (this is the count the legacy path would report).
        return (
            f"no quiescence within {max_steps} steps; "
            f"{_arena_in_flight(core.chanq)} messages still in flight"
        )

    try:
        return core.run_loop(
            pool, mode, rng, limit, trace_events, quiescent, limit_msg
        )
    finally:
        _materialize_to_sim(core, sim, pool, mode)
        if sim.steps != core.steps:
            sim.protocol_stamp += 1


# ----------------------------------------------------------------------
# Graph-backed driver (the million-node path)
# ----------------------------------------------------------------------
@dataclass
class ScaleResult:
    """Summary of a :func:`run_graph` execution (per-node state stays in
    the core; at n=10^6 a per-node result dict would dwarf the run)."""

    variant: str
    n: int
    steps: int
    stats: MessageStats
    n_components: int
    leaders: List[Hashable]
    verified: bool

    @property
    def total_messages(self) -> int:
        return self.stats.total_messages

    @property
    def total_bits(self) -> int:
        return self.stats.total_bits


def _graph_components(graph, idx, n: int) -> List[List[int]]:
    """Weakly connected components over int ids (union-find, O(E a(n)))."""
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u in graph.nodes:
        ui = idx[u]
        for v in graph.successors(u):
            ru = find(ui)
            rv = find(idx[v])
            if ru != rv:
                parent[ru] = rv
    components: Dict[int, List[int]] = {}
    for i in range(n):
        components.setdefault(find(i), []).append(i)
    return list(components.values())


def _verify_scale(core: ArrayCore, graph, variant: str, components=None) -> int:
    """O(n + E) check of properties (1)-(3)/(3a,3b) plus steady state.

    The cheap mirror of :func:`repro.verification.invariants.verify_discovery`
    (which wants a per-node ``DiscoveryResult`` -- exactly the object
    blow-up this driver exists to avoid).  ``components`` is the graph's
    :func:`_graph_components` when the caller already has them.  Returns
    the component count.
    """
    n = core.n
    status = core.status
    if components is None:
        components = _graph_components(graph, core.idx, n)

    for i in range(n):
        name = STATUS_NAMES[status[i]]
        if name in ("passive", "conquered", "asleep", "explore"):
            raise SimulationError(
                f"node {core.ids[i]!r} stuck in transient state {name!r} "
                "at quiescence"
            )

    comp_of = [0] * n
    for ci, members in enumerate(components):
        for m in members:
            comp_of[m] = ci
    leader_of_comp: List[Optional[int]] = [None] * len(components)
    for i in range(n):
        if IS_LEADER[status[i]]:
            ci = comp_of[i]
            if leader_of_comp[ci] is not None:
                raise SimulationError(
                    f"component of {core.ids[i]!r} has two leaders"
                )
            leader_of_comp[ci] = i
    for ci, members in enumerate(components):
        leader = leader_of_comp[ci]
        if leader is None:
            raise SimulationError(
                f"component of {core.ids[members[0]]!r} has no leader"
            )
        if variant == "bounded" and status[leader] != _TERMINATED:
            raise SimulationError(
                f"bounded leader {core.ids[leader]!r} did not terminate"
            )
        knowledge = core.more[leader] | core.done[leader] | core.unaware[leader]
        knowledge.add(leader)
        if knowledge != set(members):
            raise SimulationError(
                f"leader {core.ids[leader]!r}: knowledge != component "
                f"({len(knowledge)} vs {len(members)} ids)"
            )

    nxt = core.nxt
    if variant == "adhoc":
        # Properties 3a/3b: next-pointer chains are directed paths to the
        # component leader.  Memoized walk, amortized O(n).
        reach = [-1] * n
        stack: List[int] = []
        for i in range(n):
            j = i
            while reach[j] < 0 and not IS_LEADER[status[j]]:
                stack.append(j)
                j = nxt[j]
                if len(stack) > n:
                    raise SimulationError("adhoc next pointers form a cycle")
            root = reach[j] if reach[j] >= 0 else j
            while stack:
                reach[stack.pop()] = root
            reach[i] = root
            if root != leader_of_comp[comp_of[i]]:
                raise SimulationError(
                    f"node {core.ids[i]!r} does not reach its component leader"
                )
    else:
        # Strict property 3: non-leaders point directly at the leader.
        for i in range(n):
            if not IS_LEADER[status[i]] and nxt[i] != leader_of_comp[comp_of[i]]:
                raise SimulationError(
                    f"node {core.ids[i]!r} does not point at its leader"
                )
    return len(components)


def run_graph(
    graph,
    variant: str = "generic",
    *,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    greedy_queries: bool = False,
    verify: bool = True,
) -> ScaleResult:
    """Run discovery straight off a graph with no per-node objects.

    The million-node driver: builds the columnar state directly (a
    million ``DiscoveryNode`` objects cost ~4 GB before the first
    message; the columns cost ~100 MB), schedules one wake per node in
    graph order, and runs the same array engine the simulator path uses.
    ``seed`` selects the seeded random scheduler with *identical*
    semantics to ``build_simulation(seed=...)`` -- the differential test
    pins equal step counts, stats and leaders at small n -- and ``None``
    is global-FIFO, also matching.
    """
    from repro.core.runner import default_step_budget, id_bits_for

    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    ids = list(graph.nodes)
    n = len(ids)
    if n == 0:
        raise ValueError("run_graph needs a non-empty graph")
    try:
        space = IdSpace(ids)
    except _Ineligible as exc:
        raise SimulationError(f"graph ids not array-eligible: {exc}")
    idx = space.index
    core = ArrayCore(space, id_bits_for(n), fill=True)
    local = core.local
    for i, node_id in enumerate(ids):
        successors = {idx[x] for x in graph.successors(node_id)}
        successors.discard(i)
        local[i] = successors
    if greedy_queries:
        core.greedy = bytearray(b"\x01" * n)
    components = None
    if variant == "bounded":
        components = _graph_components(graph, idx, n)
        for members in components:
            size = len(members)
            for m in members:
                core.csize[m] = size
        core.variant = bytearray([_BOUNDED]) * n
    elif variant == "adhoc":
        core.variant = bytearray([_ADHOC]) * n

    wake_tokens = [-1 - i for i in range(n)]
    if seed is None:
        mode = _FIFO
        pool = deque(wake_tokens)
        rng = None
    else:
        mode = _RANDOM
        pool = wake_tokens
        rng = _Random(seed)  # what RandomScheduler(seed) draws from

    limit = max_steps if max_steps is not None else default_step_budget(graph)

    def quiescent():
        return not pool

    def limit_msg():
        return (
            f"no quiescence within {limit} steps; "
            f"{_arena_in_flight(core.chanq)} messages still in flight"
        )

    executed = core.run_loop(pool, mode, rng, limit, None, quiescent, limit_msg)

    stats = MessageStats()
    stats.record_indexed(MSG_TYPES, core.counts, core.bits, core.order)
    leaders = [core.ids[i] for i in range(n) if IS_LEADER[core.status[i]]]
    if verify:
        n_components = _verify_scale(core, graph, variant, components)
        verified = True
    else:
        if components is None:
            components = _graph_components(graph, idx, n)
        n_components = len(components)
        verified = False
    return ScaleResult(
        variant=variant,
        n=n,
        steps=executed,
        stats=stats,
        n_components=n_components,
        leaders=leaders,
        verified=verified,
    )
