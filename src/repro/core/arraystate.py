"""Array-backed protocol core: the Figure-2 state machine on dense ints.

At n >= 10^5 the cost of the object loop (``Simulator.run_for`` over
:class:`~repro.core.node.DiscoveryNode`, DESIGN.md SS15) is dict-of-sets
cluster state, frozen-dataclass message construction, token objects and
attribute-heavy handler dispatch.  This module removes all four by holding
the *same* state machine's state in columns and handing them to the C
delivery loop (``_arrayloop.c``, loaded by :mod:`repro.core.arrayloop`).
The state machine is stated twice -- ``core/node.py``, the reference, and
the C file -- and not here: this module converts, drives the loop, and
converts back.

* **Id interning** (:class:`IdSpace`): node ids become dense ints
  ``0..n-1`` in simulator insertion order.  Two total orders are
  precomputed -- the *repr order* the object path uses for its
  deterministic-choice heaps and broadcasts, and the *natural order* the
  ``(phase, id)`` conquest comparisons use.  Ids whose reprs collide or
  that are not strictly totally ordered make the system ineligible (the
  object path keeps running them).  Ids that are already ``0..n-1`` keep
  no id -> int dict (:class:`IdentityIndex`), and their int objects are
  the core's canonical ints.
* **Columnar node state**: every Figure-2 scalar becomes a flat list or
  bytearray indexed by node int, and each of the five knowledge sets
  (``local``/``more``/``done``/``unaware``/``unexp``) one :class:`IdSlab`:
  a node-major ``array('i')`` of members plus ``n + 1`` offsets, with no
  per-node Python object (a fresh ``more`` is ``range(n)``, a fresh
  ``done`` all-zero lengths).  For one call the C loop turns the slabs
  into one open-addressed int32 table per node, keyed by id with a class
  bitmask, and writes them back on every exit.  The ``more``/``unexplored``
  choice heaps have no column: the C loop builds them as repr-rank int
  arrays from the slabs at entry (the object path's ``(repr_string, id)``
  heaps pop in the same order) and frees them at exit.
* **Native messages**: for one C call a message is a fixed-width record
  (the tag and its row's fields at the ``messages.WIRE_TABLE`` offsets)
  and an id-set field an int32 span in a payload arena; a channel and a
  node's ``previous``/``inbox``/``deferred`` are FIFOs of records, and
  consumed records and spans are reused.  Between calls the pending ones
  are wire tuples ``(tag, field, ...)`` (an id-set a frozenset of ints):
  ``chanq`` maps a channel id to its pending wires, only for channels
  that hold any, and ``chan_src``/``chan_dst`` are ``array('i')``.  The
  C codec encodes them at every exit and decodes them when ``run_loop``
  calls again on the same core, driven by the same table as
  :func:`_to_message`.
* **Int-only scheduler pool**: a pending delivery is its interned channel
  id (a non-negative int) and a *wake token* is ``-1 - node_int`` -- the
  whole pool is ints, so the pop loop dispatches on a sign check instead
  of ``type(token)``.  For the length of one C call the pool, the
  scheduler's Mersenne Twister and the ``(src, dst) -> cid`` table are
  native arrays (the generator's words and index copied in place out of
  the ``random.Random`` object); the pool order and the words drawn to
  are written back, in place, on every exit.

Engagement, decline and hand-back
---------------------------------
:func:`maybe_run_array` is the array-or-object gate of a live simulator,
offered every :meth:`Simulator.run`.  It requires: ``fast=True`` with
nothing that needs per-message hooks (no fault interceptor, recorder,
kept trace, non-FIFO channel discipline or non-stock scheduler); a
pending pool large enough to amortize conversion (``4 * len(pool) >= n``);
nothing patched (an exact :class:`Simulator`, no instance-wrapped
simulator or node method, a pristine :class:`DiscoveryNode` class); a C
loop in this process; and a system that has not run yet: strictly
ordered ids, every node exactly a :class:`DiscoveryNode` in its
``__init__`` state, no message pending, only wake tokens in the pool --
the paper's starting point, and the only state a workload hands it.  A
resumed, probed or grown system runs on the object loop.  The first
check that fails leaves its :data:`DECLINE_REASONS` name on
``sim._last_decline`` and returns ``None``; *nothing is mutated until
every check has passed*.

The C loop executes only steps it can reproduce bit for bit.  A probe, a
probe reply or a protocol-impossible message (every ``ProtocolError``
path) stops it *before* the step mutates anything; the state is
materialized and the reference executes exactly that step -- an error is
raised by ``core/node.py`` itself -- and the rest of that ``run()`` call
stays on the object loop (``sim._last_decline == "handed-back"``).

On every exit -- quiescence, :class:`StepLimitExceeded`, or a handler
exception -- the columnar state is materialized back onto the live node
objects, channel deques and scheduler pool, so the simulator is always in
a legal object-path state when anyone else can look at it: as on the
object loop, ``sim._channels`` holds a deque for exactly the channels
with messages pending (registered in channel-id order, each with its
messages in channel order; empty at quiescence), and ``sim._in_flight``
is exact.  Stats fold through
:meth:`MessageStats.record_indexed` preserving the first-send key order
the per-message path would have produced.  The differential suites
(``tests/test_arraystate.py``, ``tests/test_handback.py`` and the
engine-equivalence module beside them) pin all of this bit-for-bit.

Two callers never build the objects: both fill the columns straight from
a :class:`KnowledgeGraph` (:func:`_run_columns`, the one from-graph
build: a drawn graph's own CSR slab is ``core.local``, a set-built
graph's successor sets are written into one by a C kernel, and another
labels the weak components, once per run, before the loop).
:func:`offer_graph` is the *direct entry* of the one-shot runners
(``run_generic`` / ``run_bounded`` / ``run_adhoc``, one body in
:func:`repro.core.runner.run_discovery`): a plain call -- ``fast``, no
scheduler of the caller's, a non-empty graph, an unpatched node class, a C
loop, orderable ids, checked in :data:`DECLINE_REASONS` order --
reads its ``DiscoveryResult`` off the columns; a declined one gets the
reason back and takes the gate above.  :func:`run_graph` is the
million-node driver (10^6 ``DiscoveryNode`` objects cost ~4 GB before the
first message, the columns ~100 MB): ``verify_discovery``'s checker over
the columns, O(n + E), and a summary instead of per-node dicts.  Both
build objects after all to let the reference raise on a handed-back step.
Only ``run_loop`` hands a core that has run back to the C loop (it calls
again at a step limit), and the entry codec decodes what the exit
encoded.
"""

from __future__ import annotations

import gc
import heapq
from array import array
from collections import Counter, deque
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from operator import add, eq, itemgetter
from random import Random as _Random
from sys import maxsize
from typing import Hashable, List, Optional, Tuple

from repro.core.messages import ABORT, MERGE, MSG_TYPES, WIRE_TABLE, fixed_bit_bases
from repro.core import arrayloop as _arrayloop
from repro.core.node import (
    DiscoveryNode,
    LEADER_STATES,
    STATUS_NAMES,
    VARIANTS,
    behavior_is_pristine,
)
from repro.graphs.components import weakly_connected_components
from repro.sim.events import DeliverToken, WakeToken
from repro.sim.network import (
    _WRAPPABLE,
    SimulationError,
    Simulator,
    StepLimitExceeded,
)
from repro.sim.scheduler import _FIFO, _RANDOM, native_draws, stock_pool
from repro.sim.trace import MessageStats

__all__ = [
    "IdSpace",
    "IdentityIndex",
    "IdSlab",
    "ArrayCore",
    "ScaleResult",
    "DECLINE_REASONS",
    "maybe_run_array",
    "run_graph",
]

#: status code -> is this a leader state (paper definition; byte lookup,
#: and a ``bytes.translate`` table over a status column).
IS_LEADER = bytes(name in LEADER_STATES for name in STATUS_NAMES).ljust(256, b"\0")
#: 0 <-> 1: a leader flag column translated to chain lengths 0 / 1
_FLIP = b"\1\0".ljust(256, b"\0")

_VARIANT_CODES = {name: code for code, name in enumerate(VARIANTS)}

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

#: Fresh-node signature, the one node state :func:`_build_from_sim` takes:
#: two C-level itemgetter grabs plus a tuple compare and ``any()`` per
#: node.  The scalars compare by equality, so a hand-mutated state
#: (``awake=None`` and friends) declines as ``node-state``.
_FRESH_SCALARS = itemgetter(
    "status",
    "awake",
    "phase",
    "_awaiting_release",
    "_awaiting_query_from",
    "_awaiting_info",
    "_expect_stale_release",
    "_restarted",
    "_rejoining",
    "_processing",
)
_FRESH_STATE = ("asleep", False, 1, False, None, False, False, False, False, False)
_FRESH_CONTAINERS = itemgetter(
    "done",
    "unaware",
    "unexplored",
    "previous",
    "_inbox",
    "_deferred",
)

#: Do not convert tiny workloads: a pool of a few wake tokens is a handful
#: of steps, while conversion and materialization are O(n + channels).
#: The object loop handles those; initial discovery runs (pool ~ n wake
#: tokens) always engage.
_MIN_POOL_FACTOR = 4

#: Why :func:`maybe_run_array` left a run to the object loop, in the order
#: the gate checks (the first failing check names the run).  From
#: ``id-order`` on the checks read the state: every id is interned first,
#: then each node in turn is checked for ``node-type`` and ``node-state``,
#: so the first failing node names the run; the channels and the pool's
#: tokens come last.
DECLINE_REASONS = (
    "fast-off",  # Simulator(fast=False): the caller asked for the reference
    "faults",  # an interceptor must see every transport decision
    "recorder",  # obs events are emitted per message
    "trace",  # keep_trace: trace events are recorded per step
    "channel-discipline",  # non-FIFO channels draw from the channel RNG
    "scheduler",  # not exactly a stock scheduler over the stdlib RNG
    "small-pool",  # conversion would cost more than the run (or n == 0)
    "patched",  # a subclass, shadowed method or class patch the C loop skips
    "no-c-loop",  # arrayloop.load() is None: the object loop is the fallback
    "id-order",  # ids without unique reprs and a strict total order
    "node-type",  # a node that is not exactly a DiscoveryNode
    "node-state",  # not just built: a node past __init__, a channel, an unknown id
    "token-type",  # the pool holds a token that is not a wake-up
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


@contextmanager
def _collector_paused():
    """The cyclic collector off for the block (if it was on): the columns
    and the loop's transients are acyclic, freed by refcounting alone, yet
    the collector would keep re-scanning the n-sized arena -- ~25% of the
    loop at n=10^6, three quarters of a dense n=20,000 fill."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
    path.  The three rank columns are ``array('i')``.

    Ids that are exactly the ints ``0..n-1`` in order (every drawn family)
    are ranked by the C module's ``range_ranks`` without a string: the
    natural rank is the identity, the repr order the preorder of the
    decimal trie (``0, 1, 10, 100, ..., 11, ..., 2, ...``), and ``index``
    is the read-only :class:`IdentityIndex` instead of a dict of ``n``
    entries.  Other ids, and a process without the C module, sort here and
    get the dict.
    """

    __slots__ = ("ids", "index", "repr_rank", "by_repr_rank", "nat_rank", "n")

    def __init__(self, ids) -> None:
        ids = list(ids)
        n = len(ids)
        columns = [array("i", bytes(4 * n)) for _ in range(3)]
        module = _arrayloop.load()
        if module is not None and module.range_ranks(ids, *columns):
            self.index = IdentityIndex(ids)
        else:
            _sort_ranks(ids, *columns)
            self.index = dict(zip(ids, range(n)))
        self.ids = ids
        self.by_repr_rank, self.repr_rank, self.nat_rank = columns
        self.n = n


class IdentityIndex(Mapping):
    """The id -> int index of ids that are exactly the ints ``0..n-1`` in
    order, without storing it: an exact ``int`` in range answers itself.
    Any other key -- ``True``, ``1.0``, ``-1``, ``n``, a string -- builds
    the dict :class:`IdSpace` would have built, once, and answers from it,
    so every lookup gives a dict's answer or its ``KeyError``.  Iterates
    the ids in int order, like that dict."""

    __slots__ = ("_ids", "_dict")

    def __init__(self, ids: list) -> None:
        self._ids = ids
        self._dict = None

    def __getitem__(self, key):
        if type(key) is int and 0 <= key < len(self._ids):
            return key
        if self._dict is None:
            self._dict = dict(zip(self._ids, range(len(self._ids))))
        return self._dict[key]

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids)


def _sort_ranks(ids: list, by_repr: array, repr_rank: array, nat_rank: array) -> None:
    """Fill the three rank columns by sorting the ids' reprs, which must be
    unique, and the ids, which ``<`` must order strictly."""
    n = len(ids)
    reprs = [repr(x) for x in ids]
    if len(set(reprs)) != n:
        raise _Ineligible("id-order", "node id reprs are not unique")
    by_repr[:] = array("i", sorted(range(n), key=reprs.__getitem__))
    for rank, i in enumerate(by_repr):
        repr_rank[i] = rank
    try:
        by_nat = sorted(range(n), key=ids.__getitem__)
    except TypeError as exc:
        raise _Ineligible("id-order", f"node ids are not mutually orderable: {exc}")
    for a, b in zip(by_nat, by_nat[1:]):
        # Strictness: stable sort gives equal-comparing distinct ids
        # adjacent ranks, which would invent an order the object
        # path's tuple comparison does not have.
        if not ids[a] < ids[b]:
            raise _Ineligible("id-order", "node ids are not strictly totally ordered")
    for rank, i in enumerate(by_nat):
        nat_rank[i] = rank


# ----------------------------------------------------------------------
# Knowledge columns
# ----------------------------------------------------------------------
class IdSlab:
    """One knowledge set per node as a node-major int32 slab: node ``i``'s
    member ints are ``mem[off[i]:off[i + 1]]`` (``off`` holds ``n + 1``
    offsets from 0), both ``array('i')``.

    Python builds a slab whole (:meth:`of`, :meth:`fresh`) and reads one
    node at a time (``slab[i]``); the C loop reads both arrays at entry and
    replaces them on every exit.  Nothing else writes one.
    """

    __slots__ = ("off", "mem")

    def __init__(self, off: array, mem: array) -> None:
        self.off = off
        self.mem = mem

    @classmethod
    def of(cls, rows) -> "IdSlab":
        """The slab of ``rows``, one iterable of member ints per node."""
        off, mem = array("i", [0]), array("i")
        extend, push = mem.extend, off.append
        for row in rows:
            extend(row)
            push(len(mem))
        return cls(off, mem)

    @classmethod
    def fresh(cls, n: int, *, own: bool) -> "IdSlab":
        """``n`` fresh sets: ``{i}`` for node ``i`` if ``own`` (``more``),
        else empty."""
        if own:
            return cls(array("i", range(n + 1)), array("i", range(n)))
        return cls(array("i", bytes(4 * (n + 1))), array("i"))

    def __getitem__(self, i: int) -> array:
        off = self.off
        return self.mem[off[i] : off[i + 1]]


# ----------------------------------------------------------------------
# Wire -> object message conversion
# ----------------------------------------------------------------------
# A wire tuple is ``(tag, field, ...)`` in its ``messages.WIRE_TABLE``
# row's field order; the C loop encodes the pending ones at every exit by
# the offsets ``arrayloop.defines`` derives from the same rows, and the
# materializer turns them back into messages, each field by its kind.
_DECODE = {
    "id": lambda value, ids: ids[value],
    "int": lambda value, ids: value,
    "flag": lambda value, ids: value,
    "verdict": lambda value, ids: MERGE if value else ABORT,
    "id-set": lambda value, ids: frozenset(ids[x] for x in value),
}


def _to_message(msg: tuple, ids):
    """Materialize a wire tuple back into the equivalent stock dataclass."""
    cls, fields = WIRE_TABLE[msg[0]]
    return cls(
        *[_DECODE[kind](value, ids) for (_name, kind), value in zip(fields, msg[1:])]
    )


# ----------------------------------------------------------------------
# The columnar core
# ----------------------------------------------------------------------
class ArrayCore:
    """Columnar Figure-2 state for ``n`` nodes plus interned channels.

    Built with every node in the fresh ``DiscoveryNode.__init__`` state
    (asleep, ``more = {self}``, nothing sent) except ``local``, the one
    column whose fresh value is the builder's input -- from a just-built
    simulator (:func:`_build_from_sim`) or straight from a graph
    (:func:`_run_columns`).  Only the C loop moves a core past that state.
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
        # -- Figure 2 columns (the five sets: IdSlab) --------------------
        "status",
        "awake",
        "nxt",
        "phase",
        "local",
        "done",
        "more",
        "unaware",
        "unexp",
        "previous",
        # -- event-driven bookkeeping ----------------------------------
        "inbox",
        "deferred",
        "aw_rel",
        "aw_query",
        "aw_info",
        "expect_stale",
        # -- per-node configuration ------------------------------------
        "variant",
        "csize",
        "greedy",
        # -- interned channels -----------------------------------------
        "chanq",
        "chan_src",
        "chan_dst",
        # -- canonical int objects (C loop) ----------------------------
        "iobj",
        # -- accounting ------------------------------------------------
        "counts",
        "bits",
        "xtra",
        "order",
        "steps",
        "steps_out",
        "handback",
    )

    def __init__(self, space: IdSpace, id_bits: int) -> None:
        n = space.n
        self.space = space
        self.ids = space.ids
        self.idx = space.index
        self.rrank = space.repr_rank
        self.by_rrank = space.by_repr_rank
        self.nrank = space.nat_rank
        self.n = n
        self.id_bits = id_bits
        self.status = bytearray(n)  # all asleep: code 0 (core.node asserts it)
        self.awake = bytearray(n)
        self.phase = [1] * n
        #: the five knowledge sets, one :class:`IdSlab` each
        self.local = None
        self.more = IdSlab.fresh(n, own=True)
        self.done = IdSlab.fresh(n, own=False)
        self.unaware = IdSlab.fresh(n, own=False)
        self.unexp = IdSlab.fresh(n, own=False)
        # Per node ``None`` or a list of pending pairs: ``(wire, sender)``
        # in ``previous``, ``(sender, wire)`` in ``inbox``/``deferred``.
        self.previous = [None] * n
        self.inbox = [None] * n
        self.deferred = [None] * n
        self.aw_rel = bytearray(n)
        self.aw_query = [-1] * n
        self.aw_info = bytearray(n)
        self.expect_stale = bytearray(n)
        self.variant = bytearray(n)
        self.csize = [None] * n
        self.greedy = bytearray(n)
        #: channel id -> its pending wire tuples, for the channels that
        #: hold any; the endpoints of every channel by id
        self.chanq = {}
        self.chan_src = array("i")
        self.chan_dst = array("i")
        #: ``iobj[i] == i`` as a Python object -- the canonical int table
        #: the C loop borrows for set membership and message fields, so it
        #: never allocates node-int objects on the hot path.  Ids that are
        #: exactly ``0..n-1`` (an :class:`IdentityIndex`) are that table
        #: already, so it is ``space.ids`` itself; ``nxt`` (every node its
        #: own) copies the table and shares its int objects.
        if type(space.index) is IdentityIndex:
            self.iobj = space.ids
        else:
            self.iobj = list(range(n))
        self.nxt = list(self.iobj)
        self.counts = [0] * len(MSG_TYPES)
        self.bits = [0] * len(MSG_TYPES)
        #: extra id payload count per tag; ``bits`` is derived from
        #: ``counts``/``xtra`` when the loop exits, so the per-send path
        #: only ever bumps integers.
        self.xtra = [0] * len(MSG_TYPES)
        self.order = []
        self.steps = 0
        self.steps_out = 0
        #: ``(code, aux)`` of the step the last ``run_loop`` stopped at
        #: without executing it (``_arrayloop.c`` header: ``RC_DEOPT``,
        #: ``aux`` the popped deliver token, step not counted; ``RC_PUMP``,
        #: ``aux`` the node whose inbox pump must resume, step counted),
        #: else ``None``.
        self.handback = None

    # ------------------------------------------------------------------
    # The engine
    # ------------------------------------------------------------------
    def run_loop(self, pool, mode, rng, limit, quiescent, limit_msg):
        """Drive the C loop until the pool drains, ``limit`` trips or the
        loop hands a step back (``self.handback``, see ``__init__``).

        ``pool`` (a list or a deque) holds only ints: channel ids ``>= 0``
        (deliveries) and ``-1 - node_int`` (wake-ups); ``rng`` is the
        scheduler's ``random.Random`` in random mode, else ``None``.  The
        C loop reads both at entry and writes the pool order and the rng
        state back on every exit.  ``quiescent``/``limit_msg`` are
        callables so the simulator-backed and graph-backed drivers can
        plug their own formulas.  Returns executed step count; updates
        ``self.steps_out`` on every exit for the materializer.
        """
        crun = _arrayloop.load().run
        # ``cell`` carries the absolute step count across the boundary on
        # every exit, including handler exceptions.
        cell = [self.steps]
        stop = min(self.steps + limit, _C_STOP_CAP)
        self.handback = None
        try:
            with _collector_paused():
                while True:
                    code, aux = crun(self, pool, mode, rng, stop, cell)
                    if code == _arrayloop.RC_LIMIT:  # a counted step reached ``stop``
                        if not quiescent():
                            raise StepLimitExceeded(limit_msg())
                        continue
                    if code != _arrayloop.RC_DRAINED:  # RC_DEOPT or RC_PUMP
                        self.handback = (code, aux)
                    break
        finally:
            self.steps_out = cell[0]
            # Fold the deferred bit accounting: per-tag totals are fully
            # determined by send count and extra-id count, so the hot
            # path never touched ``bits``.  (Recomputed from totals, so
            # safe on any exit, including handler exceptions.)
            bases = fixed_bit_bases(self.id_bits)
            idc = max(self.id_bits, 1)
            for tag in self.order:
                self.bits[tag] = self.counts[tag] * bases[tag] + self.xtra[tag] * idc
        return cell[0] - self.steps

    # ------------------------------------------------------------------
    # Quiescent reads (collect_columns and _verify_scale)
    # ------------------------------------------------------------------
    def knowledge(self, i: int) -> set:
        """The ints node ``i`` knows: itself, ``more``, ``done``, ``unaware``."""
        return {i}.union(self.more[i], self.done[i], self.unaware[i])

    def chains(self):
        """``(leaders, resolved, lengths)``: the leader ints, and per node
        the first leader on its ``next`` chain and the chain's length -- one
        hop over whole columns, then pointer doubling for longer (Ad-hoc)
        chains: each round every node not yet at a leader jumps to where
        its target's jump ends, by C-level gathers over the nodes still
        unresolved.  A chain unresolved after ``ceil(log2 n) + 1`` rounds
        meets a node twice, and the per-node walk (:meth:`_walk_chains`)
        raises ``RuntimeError`` naming it, as
        :func:`repro.core.result.collect_result` does."""
        n = self.n
        lead = self.status.translate(IS_LEADER)
        leaders = list(compress(range(n), lead))
        resolved = list(self.nxt)
        for i in leaders:
            resolved[i] = i
        lengths = lead.translate(_FLIP)
        if all(map(lead.__getitem__, set(resolved))):  # one hop to a leader
            return leaders, resolved, lengths
        lengths = list(lengths)  # 0 exactly at a leader, which points at itself
        todo = list(compress(range(n), map(lengths.__getitem__, resolved)))
        for _ in range((n - 1).bit_length() + 1):
            # one index more than ``todo`` holds, so every gather is a
            # tuple (``itemgetter`` of one index is the bare item); the
            # zips stop at ``todo``'s end
            at = itemgetter(*todo, todo[0])
            hop = itemgetter(*at(resolved))
            ahead = hop(resolved)
            for i, r, length in zip(todo, ahead, map(add, at(lengths), hop(lengths))):
                resolved[i] = r
                lengths[i] = length
            todo = list(compress(todo, map(lengths.__getitem__, ahead)))
            if not todo:
                return leaders, resolved, lengths
        return self._walk_chains(lead, leaders)

    def _walk_chains(self, lead, leaders):
        """:meth:`chains` one node at a time from the ``next`` column,
        memoizing each walked path; raises on the first node met twice."""
        n, nxt = self.n, self.nxt
        resolved = list(nxt)
        for i in leaders:
            resolved[i] = i
        done = bytearray(map(lead.__getitem__, resolved))  # 1: ends at a leader
        lengths = list(lead.translate(_FLIP))
        for i in compress(range(n), done.translate(_FLIP)):
            path, j = [], i
            while done[j] != 1:
                if done[j] == 2:  # on this walk already
                    raise RuntimeError(f"next-pointer cycle through {self.ids[j]!r}")
                done[j] = 2
                path.append(j)
                j = nxt[j]
            root, depth = resolved[j], lengths[j]
            for k in reversed(path):
                depth += 1
                resolved[k], lengths[k], done[k] = root, depth, 1
        return leaders, resolved, lengths


# ----------------------------------------------------------------------
# Simulator-backed engagement
# ----------------------------------------------------------------------
def _arena_in_flight(chanq) -> int:
    """Messages pending on the channels (see ``ArrayCore.chanq``)."""
    return sum(map(len, chanq.values()))


def _limit_text(budget, chanq) -> str:
    """The object loop's ``StepLimitExceeded`` text, counted over the arena
    and not ``sim.in_flight()``: a channel created mid-run is registered on
    the simulator only at materialization, its messages are in flight now."""
    pending = _arena_in_flight(chanq)
    return f"no quiescence within {budget} steps; {pending} messages still in flight"


def _build_from_sim(sim, pool):
    """The columnar image of a just-built simulator, or say why not.

    The columns hold only what a run starts from: every node exactly a
    :class:`DiscoveryNode` in its ``__init__`` state (the ``_FRESH_*``
    signature), no message pending, and only wake tokens in the pool.
    Pure read phase: raises :class:`_Ineligible` without having mutated the
    simulator, its nodes or pool in any way.  Returns ``(core, new_pool)``
    where ``new_pool`` is the int token list, in pool order.
    """
    space = IdSpace(sim.nodes)
    idx = space.index
    if type(idx) is IdentityIndex:
        # read once per member below: beside n node objects a dict costs
        # little, and it answers at C speed
        idx = dict(zip(space.ids, range(space.n)))
    core = ArrayCore(space, sim.id_bits)
    core.steps = sim.steps
    local_rows = []
    variant_col = core.variant
    csize_col = core.csize
    greedy_col = core.greedy
    try:
        for i, node in enumerate(sim.nodes.values()):
            if type(node) is not DiscoveryNode:
                raise _Ineligible("node-type", "non-stock node type")
            d = node.__dict__
            if not (
                _FRESH_SCALARS(d) == _FRESH_STATE
                and not any(_FRESH_CONTAINERS(d))
                and len(d["more"]) == 1
                and node.node_id in d["more"]
                and d["next"] == node.node_id
            ):
                raise _Ineligible(
                    "node-state", f"node {node.node_id!r} left its initial state"
                )
            local_rows.append([idx[x] for x in d["local"]])
            variant_col[i] = _VARIANT_CODES[d["variant"]]
            csize_col[i] = d["component_size"]
            if d["greedy_queries"]:
                greedy_col[i] = 1
        if sim._channels:
            raise _Ineligible("node-state", "a message is pending")
        new_pool = []
        append = new_pool.append
        for token in pool:
            if type(token) is not WakeToken:
                raise _Ineligible("token-type", f"pool holds a {type(token).__name__}")
            append(-1 - idx[token.node])
    except (KeyError, TypeError) as exc:
        # KeyError: state names an id outside the system
        raise _Ineligible("node-state", f"uninternable state: {exc!r}")
    core.local = IdSlab.of(local_rows)
    return core, new_pool


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
    previous_col = core.previous
    inbox_col = core.inbox
    deferred_col = core.deferred

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
        node._drop_census()  # the three sets above were replaced
        unexplored = {ids[x] for x in unexp_col[i]}
        d["unexplored"] = unexplored
        # Rebuild (repr, id) heaps from live members (the C loop drops the
        # stale entries the object path skips lazily on pop).
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
        prev = previous_col[i]
        d["previous"] = new_deque((to_message(m), ids[s]) for m, s in prev or ())
        ib = inbox_col[i]
        d["_inbox"] = (
            new_deque((ids[s], to_message(m)) for s, m in ib) if ib else new_deque()
        )
        df = deferred_col[i]
        d["_deferred"] = [(ids[s], to_message(m)) for s, m in df] if df else []

    # Channels.  The simulator had none at entry and, like the object
    # loop, holds one only while it carries a message: each channel the
    # exit wrote into ``chanq`` (in channel-id order) is registered with
    # its wires.
    chanq = core.chanq
    sim._in_flight = _arena_in_flight(chanq)
    channels = sim._channels
    src_col = core.chan_src
    dst_col = core.chan_dst
    for cid, wires in chanq.items():
        channels[(ids[src_col[cid]], ids[dst_col[cid]])] = new_deque(
            map(to_message, wires)
        )

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


def _run_handback(core: ArrayCore, sim) -> int:
    """Let the reference execute the one step the C loop stopped at, on
    the just-materialized simulator (a raise path raises from
    ``core/node.py`` itself); returns the steps that counted."""
    code, aux = core.handback
    ids = core.ids
    if code == _arrayloop.RC_PUMP:
        # The step was counted and the unhandleable message is at the
        # node's inbox head; the pump is resumable by design.
        sim.nodes[ids[aux]]._pump()
        return 0
    # The deliver token was popped, its message only peeked.  The C loop
    # may already have woken the destination; ``_execute_deliver``'s own
    # ``if not node.awake`` guard makes that idempotent.
    sim.steps += 1
    sim._execute_deliver(DeliverToken(ids[core.chan_src[aux]], ids[core.chan_dst[aux]]))
    return 1


def maybe_run_array(sim, max_steps) -> Optional[int]:
    """Run a just-built ``sim`` on the array core, or say why not.

    The single array-or-object gate, offered every :meth:`Simulator.run`;
    it takes only a system that has not run yet (:func:`_build_from_sim`),
    so a resumed, probed or grown one stays on the object loop.  Returns
    the executed step count with ``sim._last_decline`` ``None``; or
    returns ``None`` with the simulator untouched and the
    :data:`DECLINE_REASONS` name of the first failed check on
    ``sim._last_decline``, and the caller's object loop proceeds.

    ``"handed-back"`` is the one name set *after* the array core ran: the
    C loop met a step it does not execute (a protocol-impossible message),
    the reference executed exactly that step on the materialized
    simulator, and the count so far is returned for the caller's object
    loop to finish the call.
    """
    n = len(sim.nodes)
    mode, pool = stock_pool(sim.scheduler)
    rng = sim.scheduler._rng if mode == _RANDOM else None
    reason = None
    if not sim.fast:
        reason = "fast-off"
    elif sim.faults is not None:
        reason = "faults"
    elif sim.obs is not None:
        reason = "recorder"
    elif sim.trace is not None:
        reason = "trace"
    elif sim.channel_discipline != "fifo":
        reason = "channel-discipline"
    elif mode is None or rng is not None and not native_draws(rng):
        reason = "scheduler"
    elif n == 0 or _MIN_POOL_FACTOR * len(pool) < n:
        reason = "small-pool"
    elif (
        type(sim) is not Simulator
        or not _WRAPPABLE.isdisjoint(vars(sim))
        or not behavior_is_pristine()
        or not all(map(_NODE_WRAPPABLE.isdisjoint, map(vars, sim.nodes.values())))
    ):
        # Whatever replaces what the C loop inlines -- a subclass, a
        # wrapper on the simulator or a node instance (the obs Profiler,
        # spies), DiscoveryNode methods replaced on the class (the
        # finding-regression tests) -- must keep seeing every call.
        reason = "patched"
    else:
        try:
            if _arrayloop.load() is None:
                raise _Ineligible("no-c-loop", _arrayloop.why_missing())
            core, new_pool = _build_from_sim(sim, pool)
        except _Ineligible as exc:
            reason = exc.reason
    sim._last_decline = reason
    if reason is not None:
        sim._last_run_path = "legacy"
        return None

    # -- commit point: from here on every exit materializes --------------
    if mode == _FIFO:
        pool.clear()
        pool.extend(new_pool)
    else:
        pool[:] = new_pool
    sim._last_run_path = "array"
    limit = maxsize if max_steps is None else max_steps

    def quiescent():
        return sim.is_quiescent

    def limit_msg():
        return _limit_text(max_steps, core.chanq)

    try:
        executed = core.run_loop(pool, mode, rng, limit, quiescent, limit_msg)
    finally:
        _materialize_to_sim(core, sim, pool, mode)
        # The object loop's count: one per node woken (every node started
        # asleep) and one per message delivered (sent and off its channel).
        sim.protocol_stamp += (
            core.n - core.awake.count(0) + sum(core.counts) - sim._in_flight
        )
    if core.handback is not None:
        sim._last_decline = "handed-back"
        executed += _run_handback(core, sim)
    return executed


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


def _fill_local(graph, ids, idx) -> IdSlab:
    """``core.local`` straight off ``graph``: node ``idx[x]``'s successor
    ints for each ``x`` in ``ids``.

    A slab-born graph (``KnowledgeGraph.from_slab``) read in its node order
    hands over its own two arrays: its ids are ``0..n-1``, so ``idx`` is the
    identity, and nothing writes into them (the loop's exit replaces
    ``core.local``'s arrays).  Otherwise the C kernel writes the successor
    sets, in ``IdSlab.of``'s order, into a slab preallocated at
    ``graph.n_edges`` members; ``idx`` is a dict or an
    :class:`IdentityIndex`.  Either way a member count other than
    ``graph.n_edges`` raises."""
    csr = graph.slab()
    if csr is not None and len(ids) == graph.n and all(map(eq, ids, range(graph.n))):
        off, mem = csr
        if len(mem) != graph.n_edges:
            raise ValueError(
                f"fill_local: the graph's slab holds {len(mem)} members, "
                f"n_edges says {graph.n_edges}"
            )
        return IdSlab(off, mem)
    local = IdSlab(array("i", [0]) * (len(ids) + 1), array("i", [0]) * graph.n_edges)
    _arrayloop.load().fill_local(graph._succ, ids, idx, local.off, local.mem)
    return local


def _graph_components(graph, idx, local=None) -> Tuple[array, int]:
    """The weak components of ``graph`` over the ints of ``idx`` (an
    ``IdSpace.index``: a dict in int order or an :class:`IdentityIndex`)
    as ``(labels, count)``: ``labels[i]`` is the smallest int of node
    ``i``'s component.  With the C module the kernel labels ``local`` (the
    graph's successor slab, filled here when not given) in one pass;
    without, :func:`weakly_connected_components` does."""
    labels = array("i", [0]) * len(idx)
    module = _arrayloop.load()
    if module is not None:
        if local is None:
            local = _fill_local(graph, list(idx), idx)
        return labels, module.component_labels(local.off, local.mem, labels)
    components = weakly_connected_components(graph)
    for component in components:
        ints = [idx[x] for x in component]
        low = min(ints)
        for i in ints:
            labels[i] = low
    return labels, len(components)


def _verify_scale(core: ArrayCore, graph, variant: str, components=None) -> int:
    """O(n + E) check of properties (1)-(3)/(3a,3b) plus steady state:
    :func:`repro.verification.invariants.verify_quiescent` over a quiescent
    core's columns (``components`` the graph's :func:`_graph_components`
    when the caller has them).  Raises what ``verify_discovery`` raises on
    the core's ``collect_columns`` snapshot; returns the component count.
    """
    from repro.verification.invariants import verify_quiescent

    leaders, resolved, lengths = core.chains()
    return verify_quiescent(
        variant,
        core.ids,
        components or _graph_components(graph, core.idx),
        core.status,
        leaders,
        resolved,
        lengths,
        {i: core.knowledge(i) for i in leaders},
    ).n_components


def _run_columns(
    graph, space, variant, seed, max_steps, greedy_queries, wake_order=None
):
    """The one from-graph build: fresh columns over ``space``, a wake per
    node in graph order (or the ``wake_order`` given), the C loop to
    quiescence, the stats fold.  Raises what the object route would, in
    its order.  Returns ``(core, executed, stats, components)``, the last
    the graph's :func:`_graph_components`, labelled off ``core.local``
    before the loop drains it.
    """
    from repro.core.runner import build_simulation, default_step_budget, id_bits_for

    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    idx = space.index
    n = space.n
    # a list in every mode; node i's wake is -1 - i
    if wake_order is None:
        pool = list(range(-1, -1 - n, -1))
    else:
        try:
            pool = [-1 - idx[x] for x in wake_order]
        except KeyError as exc:  # Simulator.schedule_wake's error, not the index's
            raise KeyError(f"unknown node {exc.args[0]!r}") from None
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    limit = max_steps if max_steps is not None else default_step_budget(graph)
    # what RandomScheduler(seed) draws from
    mode, rng = (_FIFO, None) if seed is None else (_RANDOM, _Random(seed))

    def limit_msg():
        return _limit_text(limit, core.chanq)

    # One collector pause over the fill and the loop (run_loop's own pause
    # is then a no-op): the fill is n-sized and acyclic too.
    with _collector_paused():
        core = ArrayCore(space, id_bits_for(n))
        # read in place: a node never knows itself in the graph
        core.local = _fill_local(graph, space.ids, idx)
        components = _graph_components(graph, idx, core.local)
        if greedy_queries:
            core.greedy = bytearray(b"\x01" * n)
        core.variant = bytearray([_VARIANT_CODES[variant]]) * n
        if variant == "bounded":
            size = Counter(components[0])
            core.csize = list(map(size.__getitem__, components[0]))
        executed = core.run_loop(pool, mode, rng, limit, lambda: not pool, limit_msg)
    if core.handback is not None:
        # No probes here, so a protocol-impossible message: the reference
        # raises its own error, on objects built for the purpose.
        sim, _nodes = build_simulation(
            graph, variant, greedy_queries=greedy_queries, auto_wake=False, fast=False
        )
        _materialize_to_sim(core, sim, pool, mode)
        _run_handback(core, sim)
        raise SimulationError("the C loop handed back a step the reference executes")

    stats = MessageStats()
    stats.record_indexed(MSG_TYPES, core.counts, core.bits, core.order)
    return core, executed, stats, components


def offer_graph(
    graph, variant, seed, scheduler, wake_order, max_steps, greedy_queries, fast
):
    """The direct entry: offer a one-shot discovery to the columns.

    Returns ``(None, run)`` with :func:`_run_columns`'s tuple when taken,
    else ``(reason, None)`` -- the :data:`DECLINE_REASONS` name of the
    first failed check, in that tuple's order, nothing touched.
    """
    reason = (
        (not fast and "fast-off")
        or (scheduler is not None and "scheduler")
        or (graph.n == 0 and "small-pool")
        or (not behavior_is_pristine() and "patched")
        or (_arrayloop.load() is None and "no-c-loop")
    )
    if reason:
        return reason, None
    try:
        space = IdSpace(graph.nodes)
    except _Ineligible as exc:
        return exc.reason, None
    return None, _run_columns(
        graph, space, variant, seed, max_steps, greedy_queries, wake_order
    )


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

    The million-node driver: :func:`_run_columns` (the build the direct
    entry shares), an O(n + E) verification and a :class:`ScaleResult`
    summary.  ``seed`` selects the seeded random scheduler with
    *identical* semantics to ``build_simulation(seed=...)`` -- the
    differential test pins equal step counts, stats and leaders at small
    n -- and ``None`` is global-FIFO, also matching.

    Whatever :func:`offer_graph` declines -- no C loop
    (:func:`repro.core.arrayloop.load` is ``None``; warned once per
    process) or a ``DiscoveryNode`` patched on the class -- is the
    reference ``Simulator(fast=False)`` run at the object path's price,
    verified by ``verify_discovery`` on its ``collect_result``: the same
    result at any n the memory allows.  Ids the columns cannot hold raise
    :class:`SimulationError`.  A failed verification raises
    :class:`~repro.verification.invariants.InvariantViolation` with
    ``verify_discovery``'s text, or, for a ``next`` chain that meets a node
    twice, ``collect_result``'s ``RuntimeError``.
    """
    from repro.core.result import collect_result
    from repro.core.runner import build_simulation, default_step_budget
    from repro.verification.invariants import verify_discovery

    if graph.n == 0:
        raise ValueError("run_graph needs a non-empty graph")
    _reason, run = offer_graph(
        graph, variant, seed, None, None, max_steps, greedy_queries, True
    )
    if run is not None:
        core, executed, stats, components = run
        return ScaleResult(
            variant=variant,
            n=core.n,
            steps=executed,
            stats=stats,
            n_components=(
                _verify_scale(core, graph, variant, components) if verify else components[1]
            ),
            leaders=list(compress(core.ids, core.status.translate(IS_LEADER))),
            verified=verify,
        )
    try:
        space = IdSpace(graph.nodes)
    except _Ineligible as exc:
        raise SimulationError(f"graph ids not array-eligible: {exc}")
    sim, nodes = build_simulation(
        graph, variant, seed=seed, greedy_queries=greedy_queries, fast=False
    )
    budget = max_steps if max_steps is not None else default_step_budget(graph)
    executed = sim.run(budget)
    result = collect_result(graph, nodes, sim, variant)
    return ScaleResult(
        variant=variant,
        n=graph.n,
        steps=executed,
        stats=sim.stats,
        n_components=(
            verify_discovery(result, graph).n_components
            if verify
            else _graph_components(graph, space.index)[1]
        ),
        leaders=[x for x in graph.nodes if nodes[x].is_leader],
        verified=verify,
    )
