"""The Generic Algorithm's node state machine (Section 4, Figures 2-6).

One :class:`DiscoveryNode` instance per system node, driven by the
asynchronous simulator.  The paper's pseudocode is written as blocking
loops (``wait for message`` / ``goto WAIT``); an event-driven transcription
needs three interpretation rules, each documented where it bites:

1. **Deferral.**  A pseudocode loop that pattern-matches only some message
   types leaves the rest in the process's queue.  We replicate that with a
   deferred list: a message the current state does not handle is parked and
   replayed, in arrival order, whenever the (sub)state changes.

2. **Idle wait resumes exploration.**  Section 4.1: "If both v.unexplored
   and v.more are empty, the leader v waits until v.more becomes non-empty".
   A leader waiting *without* an outstanding search therefore re-enters
   EXPLORE as soon as an arriving search replenishes its sets; without this
   rule the single-leader-knows-everything property (Lemma 5.4) fails on
   e.g. a two-leader mutual-abort schedule.

3. **Self-interactions are local.**  The leader's own id lives in its
   ``more`` set; querying it is "simulated internally" (Section 4.1) and
   costs no messages, matching the accounting of Lemmas 5.5-5.10.

The class implements all three protocol variants (Section 4.5):

* ``variant="generic"`` -- the Oblivious algorithm with the ``unaware`` set
  and per-phase conquer broadcasts;
* ``variant="bounded"`` -- no ``unaware``; the leader knows its component
  size and terminates with one final conquer broadcast (Theorem 4);
* ``variant="adhoc"`` -- no conquer broadcasts at all; ``next`` pointers
  form the path to the leader (properties 3a/3b) and ``probe`` messages
  fetch id snapshots with path compression (Section 4.5.2).
"""

from __future__ import annotations

import collections.abc
import heapq
from collections import deque
from itertools import chain, islice
from typing import (
    AbstractSet,
    Any,
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.messages import (
    ABORT,
    MERGE,
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
)
from repro.sim.network import SimNode, SimulationError

NodeId = Hashable

__all__ = [
    "CensusView",
    "DiscoveryNode",
    "EMPTY_QUEUE",
    "ProtocolError",
    "VARIANTS",
    "LEADER_STATES",
    "TRANSIENT_STATES",
    "STATUS_NAMES",
    "STATUS_CODES",
    "behavior_is_pristine",
]

VARIANTS = ("generic", "bounded", "adhoc")

#: Status strings in dense-code order: the one statement of the codes.
#: The array-backed core (:mod:`repro.core.arraystate`) stores node status
#: as a byte indexing this tuple, :data:`STATUS_CODES` is the inverse, and
#: the C loop gets its ``ST_*`` names from it (``arrayloop.defines``), as
#: its ``V_*`` names from :data:`VARIANTS`.
STATUS_NAMES = (
    "asleep",
    "explore",
    "wait",
    "conquered",
    "conqueror",
    "passive",
    "inactive",
    "terminated",
)
STATUS_CODES = {name: code for code, name in enumerate(STATUS_NAMES)}
# The one code that is not free to move: ``bytearray(n)`` *is* the
# all-asleep status column, in the array core and in the C loop.
assert STATUS_CODES["asleep"] == 0

#: Paper definition: "we call a node leader if its state is not conquered
#: or inactive or passive".  ``terminated`` is the Bounded variant's final
#: leader state (Theorem 4).
LEADER_STATES = frozenset({"explore", "wait", "conqueror", "terminated"})

#: States no node may rest in at quiescence: a sleeper nobody woke, an
#: exploration still in hand, a merge or an abort half done.
TRANSIENT_STATES = frozenset({"asleep", "explore", "conquered", "passive"})

#: Phase value reserved for Section 6 new-link notification searches; real
#: leaders start at phase 1, so a phase-0 search loses every comparison and
#: is always answered with an abort.
NOTIFY_PHASE = 0

#: What a node's ``previous``, ``_inbox`` and ``probe_previous`` hold while
#: they are empty, which is nearly always: one shared empty tuple instead
#: of three deques of 760 B each.  The first append opens a deque
#: (:func:`_open`) and the pop that empties it puts this back.  Readers
#: only test truthiness, take ``len``, iterate or read ``[0]``, which the
#: tuple answers as an empty deque would.
EMPTY_QUEUE: Tuple[()] = ()


def _open(queue):
    """``queue`` itself, or a new deque in place of :data:`EMPTY_QUEUE`.

    An identity test, not a truth test: :meth:`DiscoveryNode._pump` holds
    the inbox it drains, and a message enqueued while that deque is empty
    but not yet put back must still land in it.
    """
    return deque() if queue is EMPTY_QUEUE else queue


class ProtocolError(SimulationError):
    """A message arrived in a state the protocol proves impossible."""


class CensusView(collections.abc.Set):
    """An immutable set: the first ``length`` ids of a census log.

    A leader's census only grows -- ids move between ``more``, ``done`` and
    ``unaware`` but never leave -- so every answer it gives is a prefix of
    one append-only log: ``ids`` in arrival order and ``at``, each id's
    position.  A view is O(1) to make and to test membership in, and it
    stays valid while the log grows past it.  Pickle and ``copy`` turn it
    into a plain ``frozenset``, so no log leaves the process.
    """

    __slots__ = ("_ids", "_at", "_len")

    def __init__(self, ids: List[NodeId], at: Dict[NodeId, int], length: int) -> None:
        self._ids = ids
        self._at = at
        self._len = length

    def __len__(self) -> int:
        return self._len

    def __contains__(self, x: object) -> bool:
        return self._at.get(x, self._len) < self._len

    def __iter__(self):
        return islice(self._ids, self._len)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (set, frozenset)):
            return len(other) == self._len and other.issuperset(self)
        return collections.abc.Set.__eq__(self, other)

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __reduce__(self):
        return (frozenset, (tuple(self),))

    def __repr__(self) -> str:
        return f"CensusView({set(self)!r})"

    @classmethod
    def _from_iterable(cls, it) -> FrozenSet[NodeId]:
        return frozenset(it)


#: Field-less handshake messages are value objects; one shared frozen
#: instance per type avoids an allocation on every merge handshake.
_MERGE_ACCEPT = MergeAccept()
_MERGE_FAIL = MergeFail()


class DiscoveryNode(SimNode):
    """One participant of the (Generic | Bounded | Ad-hoc) algorithm.

    Parameters
    ----------
    node_id:
        The node's unique id.  Ids within one system must be mutually
        orderable (they break ties in the ``(phase, id)`` conquest rule).
    initial_local:
        The ids this node knows at start -- its out-neighbours in ``E0``.
    variant:
        ``"generic"``, ``"bounded"`` or ``"adhoc"``.
    component_size:
        Required for ``"bounded"``: the size of this node's weakly
        connected component (the Bounded model's prior knowledge).
    greedy_queries:
        Ablation switch (off by default): ask queried members for *all*
        their ids instead of the balanced ``|more| + |done| + 1`` of
        Section 4.1.  Correct but forfeits the bit-complexity bound --
        the trivial solution the paper contrasts against
        (``O(|E0| log^2 n)`` bits).
    """

    #: Kept in slots beside the instance ``__dict__``, not in it.  CPython
    #: shares one key table between the dicts of all instances of a class
    #: only up to 29 attributes, which this class already has; a 30th key
    #: un-shares every node's dict (2.4 -> 3.3 KB per node allocated by
    #: ``build_simulation`` on a sparse n=2,000 graph).  Code that writes
    #: node state through ``node.__dict__`` (the array core) must set these
    #: four by attribute.
    __slots__ = ("_census_ids", "_census_at", "_knowledge", "probe_answer_steps")

    def __init__(
        self,
        node_id: NodeId,
        initial_local: FrozenSet[NodeId],
        *,
        variant: str = "generic",
        component_size: Optional[int] = None,
        greedy_queries: bool = False,
    ) -> None:
        super().__init__(node_id)
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if variant == "bounded" and (component_size is None or component_size < 1):
            raise ValueError("bounded variant requires component_size >= 1")
        self.variant = variant
        self.component_size = component_size
        self.greedy_queries = greedy_queries

        # -- Figure 2 data structure --------------------------------------
        self.status = "asleep"
        self.local: Set[NodeId] = set(initial_local) - {node_id}
        self.next: NodeId = node_id
        self.phase = 1
        self.done: Set[NodeId] = set()
        self.more: Set[NodeId] = set()
        self.unaware: Set[NodeId] = set()
        self.unexplored: Set[NodeId] = set()
        self.previous: Deque[Tuple[Search, NodeId]] | Tuple[()] = EMPTY_QUEUE
        #: the census log behind :attr:`knowledge`: every id of ``more``,
        #: ``done``, ``unaware`` and the node's own, in arrival order, and
        #: each one's position.  ``None`` until ``knowledge`` is first read;
        #: the add helpers below append to it.  A writer that replaces the
        #: three sets wholesale (checkpoint restore, the array core's
        #: materialize) calls :meth:`_drop_census` to start a new one.
        self._census_ids: Optional[List[NodeId]] = None
        self._census_at: Optional[Dict[NodeId, int]] = None
        #: the view :attr:`knowledge` last returned, ``None`` once the log
        #: grew past it.
        self._knowledge: Optional[CensusView] = None

        # -- event-driven bookkeeping -------------------------------------
        self._inbox: Deque[Tuple[NodeId, Any]] | Tuple[()] = EMPTY_QUEUE
        self._deferred: List[Tuple[NodeId, Any]] = []
        self._processing = False
        self._more_heap: List[Tuple[str, NodeId]] = []
        self._unexplored_heap: List[Tuple[str, NodeId]] = []
        #: substates of the paper's WAIT: with an outstanding search
        #: (awaiting its release) or idle (Section 4.1's wait-for-work).
        self._awaiting_release = False
        #: id we sent a query to while in EXPLORE (None otherwise).
        self._awaiting_query_from: Optional[NodeId] = None
        #: conqueror substate: Info not yet received.
        self._awaiting_info = False
        #: set when this node is conquered while one of its own searches is
        #: still outstanding; the eventual stale release must then feed the
        #: releasing leader's id back into the pipeline (finding F2), and
        #: only that one -- notification-search releases must not, or the
        #: node would re-report its own leader forever.
        self._expect_stale_release = False

        # -- Ad-hoc probe machinery (Section 4.5.2) ------------------------
        self.probe_previous: Deque[Tuple[Probe, NodeId]] | Tuple[()] = EMPTY_QUEUE
        self.probe_results: List[Tuple[NodeId, AbstractSet[NodeId]]] = []
        #: ``probe_answer_steps[i]`` is the simulator step at which
        #: ``probe_results[i]`` landed: latency is read off the node, never
        #: found by polling it after every step.  ``None`` until the first
        #: answer (see :meth:`record_probe_answer`): most nodes never probe.
        self.probe_answer_steps: Optional[List[int]] = None
        self._probe_outstanding = False
        #: set while a crash-recovery rejoin probe is in flight; its reply
        #: refreshes ``next`` (see :meth:`rejoin`).
        self._rejoining = False
        #: set once this node has been restarted from a checkpoint.  A
        #: restarted node -- and only a restarted node -- tolerates replies
        #: to conversations its dead incarnation started: the reliable
        #: transport re-queues a crashed peer's outstanding payloads to the
        #: new incarnation (to repair half-open handshakes), so messages
        #: that are *impossible* in the fault-free model legitimately reach
        #: fresh state here.  Handlers downgrade those specific
        #: ProtocolErrors to drops or deferrals; every other node keeps the
        #: strict fail-loud checks.
        self._restarted = False

        self._add_more(node_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.status in LEADER_STATES

    @property
    def knowledge(self) -> CensusView:
        """All ids this node has gathered as a leader (its cluster).

        An immutable :class:`CensusView` over the node's census log, O(1)
        per call once the log exists (the first call builds it in
        O(census)).  Probes answered between two membership changes share
        the same object; they are all retained in ``probe_results``, and
        none of them copies the cluster.
        """
        view = self._knowledge
        if view is None:
            ids = self._census_ids
            if ids is None:
                ids = self._census_ids = list(
                    dict.fromkeys(chain((self.node_id,), self.more, self.done, self.unaware))
                )
                self._census_at = dict(zip(ids, range(len(ids))))
            view = self._knowledge = CensusView(ids, self._census_at, len(ids))
        return view

    def _log(self, w: NodeId) -> None:
        """Append ``w`` to the census log (if one exists) unless it is
        already there; only a new id outdates the cached view."""
        at = self._census_at
        if at is not None and w not in at:
            at[w] = len(self._census_ids)
            self._census_ids.append(w)
            self._knowledge = None

    def _drop_census(self) -> None:
        """Start a new census log: ``more`` / ``done`` / ``unaware`` were
        replaced wholesale.  Views already handed out keep the old one."""
        self._census_ids = self._census_at = self._knowledge = None

    def __repr__(self) -> str:
        return (
            f"DiscoveryNode({self.node_id!r}, status={self.status}, "
            f"phase={self.phase}, |more|={len(self.more)}, "
            f"|done|={len(self.done)}, |unaware|={len(self.unaware)})"
        )

    # ------------------------------------------------------------------
    # Deterministic choice helpers (heaps keyed by repr: any fixed total
    # order works -- the pseudocode says "choose any"; we need determinism
    # for reproducible traces).
    # ------------------------------------------------------------------
    def _add_more(self, w: NodeId) -> None:
        if w not in self.more:
            self.more.add(w)
            heapq.heappush(self._more_heap, (repr(w), w))
            self._log(w)

    def _add_unexplored(self, u: NodeId) -> None:
        if u not in self.unexplored:
            self.unexplored.add(u)
            heapq.heappush(self._unexplored_heap, (repr(u), u))

    def _peek_more(self) -> Optional[NodeId]:
        while self._more_heap:
            _key, w = self._more_heap[0]
            if w in self.more:
                return w
            heapq.heappop(self._more_heap)
        return None

    def _pop_unexplored(self) -> Optional[NodeId]:
        """Pop the next genuinely-unexplored node.

        Skips entries that joined the cluster after being recorded (the
        merge rule only subtracts the conquered leader's members, so stale
        ids can linger -- harmless as long as we skip them here; searching a
        node of one's own tree would route the search back to its initiator).
        """
        while self._unexplored_heap:
            _key, u = heapq.heappop(self._unexplored_heap)
            if u not in self.unexplored:
                continue
            self.unexplored.discard(u)
            if (
                u == self.node_id
                or u in self.more
                or u in self.done
                or u in self.unaware
            ):
                continue
            return u
        return None

    # The two moves below shuffle a member between sets of the census; no
    # id enters the log, so the view (if any) stays valid.  That is what
    # lets probes share one: every new link costs a done -> more -> done
    # round trip at the leader and changes nothing.
    def _move_done_to_more(self, w: NodeId) -> None:
        self.done.discard(w)
        self._add_more(w)

    def _move_more_to_done(self, w: NodeId) -> None:
        self.more.discard(w)
        self._add_done(w)

    def _add_done(self, w: NodeId) -> None:
        self.done.add(w)
        self._log(w)

    def _add_unaware(self, ids: FrozenSet[NodeId]) -> None:
        self.unaware |= ids
        if self._census_at is not None:
            for w in ids:
                self._log(w)

    # ------------------------------------------------------------------
    # Simulator entry points
    # ------------------------------------------------------------------
    def on_wake(self) -> None:
        self.status = "explore"
        self._explore()
        self._pump()

    def on_message(self, sender: NodeId, message: Any) -> None:
        # Common case inlined: nothing queued, nothing deferred -- dispatch
        # without the inbox round-trip.  Observationally identical to the
        # general path because a successful dispatch never appends to
        # ``_deferred`` and the replay rule only fires when ``_deferred``
        # was non-empty *before* the dispatch.
        if self._processing or self._inbox or self._deferred:
            inbox = self._inbox = _open(self._inbox)
            inbox.append((sender, message))
            self._pump()
            return
        self._processing = True
        try:
            # _dispatch inlined (one call per delivered message saved).
            handler = self._HANDLERS.get(message.msg_type)
            if handler is None:
                raise ProtocolError(
                    f"{self.node_id!r}: unknown message type {message.msg_type!r}"
                )
            if not handler(self, sender, message):
                self._deferred.append((sender, message))
        finally:
            self._processing = False
        if self._inbox:  # a handler self-enqueued (none do today)
            self._pump()

    def _pump(self) -> None:
        """Process the inbox; replay deferred messages on substate change."""
        if self._processing:
            return
        self._processing = True
        inbox = self._inbox
        deferred = self._deferred
        try:
            while inbox:
                sender, message = inbox.popleft()
                if not deferred:
                    # The replay rule below compares substates only when a
                    # deferred message could be replayed; with none parked
                    # the comparison is dead weight, so skip computing it.
                    if not self._dispatch(sender, message):
                        deferred.append((sender, message))
                    continue
                before = self._substate_token()
                if not self._dispatch(sender, message):
                    deferred.append((sender, message))
                    continue
                if deferred and self._substate_token() != before:
                    inbox.extendleft(reversed(deferred))
                    deferred.clear()
        finally:
            self._processing = False
            if not inbox:
                self._inbox = EMPTY_QUEUE

    def _substate_token(self) -> Tuple:
        return (
            self.status,
            self._awaiting_release,
            self._awaiting_query_from,
            self._awaiting_info,
        )

    def _replay_deferred(self) -> None:
        """Move deferred messages back into the inbox (state just changed
        outside the pump loop, e.g. via a dynamic-addition entry point)."""
        if self._deferred:
            inbox = self._inbox = _open(self._inbox)
            inbox.extendleft(reversed(self._deferred))
            self._deferred.clear()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    #: msg_type -> unbound handler; filled in after the class body (the
    #: methods do not exist yet at this point in the class definition).
    #: One dict hit replaces the former chain of string comparisons --
    #: measurable, because dispatch runs once per delivered message.
    _HANDLERS: Dict[str, Any] = {}

    def _dispatch(self, sender: NodeId, message: Any) -> bool:
        """Handle one message; return False to defer it."""
        handler = self._HANDLERS.get(message.msg_type)
        if handler is None:
            raise ProtocolError(
                f"{self.node_id!r}: unknown message type {message.msg_type!r}"
            )
        return handler(self, sender, message)

    # ------------------------------------------------------------------
    # EXPLORE (Figure 3)
    # ------------------------------------------------------------------
    def _explore(self) -> None:
        """The Figure 3 loop: find an unexplored node or work the queue.

        Leaves the node in exactly one of: WAIT with an outstanding search,
        EXPLORE awaiting a query reply, idle WAIT, or (Bounded) terminated.
        """
        self.status = "explore"
        while True:
            if self.variant == "bounded" and len(self.done) == self.component_size:
                # Theorem 4: the component size is known, so a full ``done``
                # set is a sound termination signal.  Checked inside the
                # loop because internal self-queries can complete it without
                # any message arriving (e.g. an isolated node).
                self._terminate_bounded()
                return
            target = self._pop_unexplored()
            if target is not None:
                self.status = "wait"
                self._awaiting_release = True
                self.send(target, Search(self.node_id, self.phase, target, False))
                return
            candidate = self._peek_more()
            if candidate is None:
                # Section 4.1: wait until ``more`` becomes non-empty.
                self.status = "wait"
                self._awaiting_release = False
                return
            if self.greedy_queries:
                # Ablation: the trivial ask-for-everything strategy.
                k = 1 << 62
            else:
                k = len(self.more) + len(self.done) + 1
            if candidate == self.node_id:
                # Internal simulation of the self-query (Section 4.1).
                reply = self._answer_query_locally(k)
                self._ingest_query_reply(candidate, reply)
                continue
            self._awaiting_query_from = candidate
            self.send(candidate, Query(k))
            return

    def _answer_query_locally(self, k: int) -> QueryReply:
        """Figure 5's query handling applied to our own ``local`` set."""
        if len(self.local) <= k:
            ids = frozenset(self.local)
            self.local.clear()
            return QueryReply(ids, True)
        taken = frozenset(sorted(self.local, key=repr)[:k])
        self.local -= taken
        return QueryReply(taken, False)

    def _ingest_query_reply(self, source: NodeId, reply: QueryReply) -> None:
        if reply.done_flag and source in self.more:
            self._move_more_to_done(source)
        for fresh in reply.ids:
            if fresh not in self.more and fresh not in self.done and fresh != self.node_id:
                self._add_unexplored(fresh)

    def _on_query_reply(self, sender: NodeId, message: QueryReply) -> bool:
        if self.status != "explore" or self._awaiting_query_from != sender:
            if self._restarted:
                # Answer to a query the dead incarnation asked: the ids in
                # it were drained from the member's ``local`` for a
                # conversation nobody remembers.  Absorb what we can so the
                # ids are not lost entirely, but do not touch the explore
                # state machine.
                self._ingest_query_reply(sender, message)
                return True
            raise ProtocolError(
                f"{self.node_id!r}: unexpected query-reply from {sender!r} "
                f"in status {self.status}"
            )
        self._awaiting_query_from = None
        self._ingest_query_reply(sender, message)
        self._explore()
        return True

    # ------------------------------------------------------------------
    # Query answering (Figure 5, inactive side)
    # ------------------------------------------------------------------
    def _on_query(self, sender: NodeId, message: Query) -> bool:
        if self.status != "inactive":
            if self._restarted:
                # The querying leader still thinks we are its member.  Answer
                # "nothing more" without draining ``local``: the leader can
                # retire us from its ``more`` set and move on, while this
                # incarnation keeps (and reports) its own ids.
                self.send(sender, QueryReply(frozenset(), True))
                return True
            raise ProtocolError(
                f"{self.node_id!r}: query from {sender!r} in status {self.status}; "
                "queries only ever reach inactive cluster members"
            )
        self.send(sender, self._answer_query_locally(message.k))
        return True

    # ------------------------------------------------------------------
    # SEARCH (Figures 3, 4, 5)
    # ------------------------------------------------------------------
    def _on_search(self, sender: NodeId, message: Search) -> bool:
        if self.status in ("explore", "conquered", "conqueror"):
            # The pseudocode's EXPLORE / CONQUERED / CONQUEROR loops do not
            # receive searches; they stay queued until the state changes.
            return False
        if self.status == "inactive":
            self._route_search(sender, message)
            return True
        if self.status in ("wait", "passive"):
            self._leader_on_search(sender, message)
            return True
        if self.status == "terminated":
            # A search from a long-dead initiator can still be in flight
            # when the Bounded leader terminates (it was parked in some
            # previous queue during the final merges).  Conquest pairs are
            # monotone along the lineage that absorbed the initiator, so
            # the stale search always loses the comparison; answer abort.
            message = self._absorb_search_target(message)
            if (message.phase, message.initiator) > (self.phase, self.node_id):
                raise ProtocolError(
                    f"{self.node_id!r}: terminated leader outranked by search "
                    f"from {message.initiator!r} -- termination was unsound"
                )
            self.send(
                sender, Release(self.node_id, ABORT, message.initiator, self.phase)
            )
            return True
        raise ProtocolError(
            f"{self.node_id!r}: search in impossible status {self.status}"
        )

    def _route_search(self, sender: NodeId, message: Search) -> None:
        """Figure 5: inactive nodes enqueue and forward searches."""
        message = self._absorb_search_target(message)
        previous = self.previous = _open(self.previous)
        previous.append((message, sender))
        if len(previous) == 1:
            self.send(self.next, message)

    def _absorb_search_target(self, message: Search) -> Search:
        """Section 4.2: a search's target learns the initiator's id.

        Sets the ``new`` flag so the target's leader moves it from ``done``
        back to ``more`` -- this is what eventually makes every traversed
        edge bidirectional (the crux of Lemma 5.4).
        """
        if message.target == self.node_id and message.initiator not in self.local:
            self.local.add(message.initiator)
            return Search(message.initiator, message.phase, message.target, True)
        return message

    def _leader_on_search(self, sender: NodeId, message: Search) -> None:
        """Figure 4: a waiting or passive leader decides merge vs abort."""
        message = self._absorb_search_target(message)
        if message.new and message.target in self.done:
            self._move_done_to_more(message.target)
        if (message.phase, message.initiator) > (self.phase, self.node_id):
            self.send(
                sender, Release(self.node_id, MERGE, message.initiator, self.phase)
            )
            if self.status == "wait" and self._awaiting_release:
                self._expect_stale_release = True
            self.status = "conquered"
        else:
            self.send(
                sender, Release(self.node_id, ABORT, message.initiator, self.phase)
            )
            if (
                self.status == "wait"
                and not self._awaiting_release
                and (self.unexplored or self._peek_more() is not None)
            ):
                # Interpretation rule 2: the idle waiter got new work.
                self._explore()

    # ------------------------------------------------------------------
    # RELEASE (Figures 4, 5, 6)
    # ------------------------------------------------------------------
    def _on_release(self, sender: NodeId, message: Release) -> bool:
        if message.initiator == self.node_id:
            self._consume_own_release(message)
            return True
        if self.status == "inactive":
            self._route_release(message)
            return True
        if self._restarted:
            # The dead incarnation was a routing hop for this search; its
            # ``previous`` queue is gone, so the release cannot be forwarded.
            # Dropping it strands the initiator (a measured liveness
            # degradation) instead of crashing the run.
            return True
        raise ProtocolError(
            f"{self.node_id!r}: release for {message.initiator!r} in "
            f"status {self.status}; only inactive nodes route releases"
        )

    def _consume_own_release(self, message: Release) -> None:
        """The reply to a search this node initiated as a leader.

        In every outcome except a successful merge the releasing leader's id
        must be fed back into the reporting pipeline via
        :meth:`_absorb_learned_id`.  The pseudocode omits this, but the
        knowledge-graph model adds an edge for every received id and the
        Lemma 5.4 proof relies on releases making traversed edges
        bidirectional; without it a leader whose id was only ever carried by
        release messages to already-dead initiators is lost forever and a
        passive node survives quiescence (reproduction finding F2).
        """
        if self.status == "wait" and self._awaiting_release:
            self._awaiting_release = False
            if message.answer == ABORT:
                if message.leader == self.node_id:
                    # The search walked a pointer chain that led back to us,
                    # so the abort came from ourselves (the (phase, id)
                    # tie).  That only happens when crash-recovery churn
                    # re-circulates an id whose pointer chain already ends
                    # here; it is an answered search, not a lost duel --
                    # keep exploring instead of committing leader suicide.
                    # Deliberately *not* filed as a member: the chain proves
                    # routing, not ownership, and claiming the target could
                    # double-own it (I2).  If nobody owns it, the miss
                    # surfaces as a measured knowledge gap.
                    self._explore()
                    return
                # Figure 4: an aborted leader stops initiating searches.
                self._absorb_learned_id(message.leader)
                self.status = "passive"
                return
            # The reached leader asks to merge into us: become conqueror.
            self.status = "conqueror"
            self._awaiting_info = True
            self.send(message.leader, _MERGE_ACCEPT)
            return
        if self._restarted and self.status == "passive" and message.answer == MERGE:
            # Crash-recovery special case: a restart can shuffle which of
            # this node's releases (the dead incarnation's, re-queued by the
            # transport, or the new one's) arrives first, so "passive" may
            # mean "aborted by a reply meant for the dead incarnation".  A
            # merge offer is the peer leader saying *I lost, absorb me*;
            # refusing it here can leave a component with no leader at all.
            # Passive nodes are owned by nobody, so re-taking leadership to
            # absorb the loser is safe -- and it is the only answer that
            # keeps the component live.
            self.status = "conqueror"
            self._awaiting_info = True
            self.send(message.leader, _MERGE_ACCEPT)
            return
        if self.status in ("passive", "conquered", "inactive"):
            # A stale reply to a search from our leader days (Figures 4-6):
            # refuse merges, ignore aborts -- but keep the leader's id.
            if message.answer == MERGE:
                self.send(message.leader, _MERGE_FAIL)
            if self._expect_stale_release:
                self._expect_stale_release = False
                self._absorb_learned_id(message.leader)
            return
        if self._restarted:
            # Reply to a search the dead incarnation sent: treat it exactly
            # like the stale-reply case above (refuse merges, keep the id).
            if message.answer == MERGE:
                self.send(message.leader, _MERGE_FAIL)
            self._absorb_learned_id(message.leader)
            return
        raise ProtocolError(
            f"{self.node_id!r}: own release ({message.answer}) in "
            f"status {self.status} with awaiting_release={self._awaiting_release}"
        )

    def _route_release(self, message: Release) -> None:
        """Figure 5: pop the oldest pending search, send the release back
        along its path, path-compress, and launch the next pending search."""
        previous = self.previous
        if not previous:
            if self._restarted:
                # The routing queue died with the old incarnation; the
                # stranded initiator is a measured degradation (see
                # :meth:`_on_release`).
                return
            raise ProtocolError(
                f"{self.node_id!r}: release to route but previous queue empty"
            )
        _search, came_from = previous.popleft()
        if message.phase >= self.phase:
            # Path compression, phase-guarded (finding F3): never replace a
            # newer leader's pointer with a stale one.
            self.next = message.leader
            self.phase = message.phase
        self.send(came_from, message)
        if previous:
            pending_search, _y = previous[0]
            self.send(self.next, pending_search)
        else:
            self.previous = EMPTY_QUEUE

    # ------------------------------------------------------------------
    # Merging (Figures 4, 6)
    # ------------------------------------------------------------------
    def _on_merge_accept(self, sender: NodeId, message: MergeAccept) -> bool:
        if self.status != "conquered":
            if self._restarted:
                # Acceptance of a merge the dead incarnation offered.  The
                # new incarnation no longer has that cluster state to hand
                # over; there is no refusal message for this direction, so
                # drop it and let the accepter's horizon expire.
                return True
            raise ProtocolError(
                f"{self.node_id!r}: merge-accept in status {self.status}"
            )
        self.next = sender
        self.send(
            sender,
            Info(
                self.phase,
                frozenset(self.more),
                frozenset(self.done),
                frozenset(self.unaware),
                frozenset(self.unexplored),
            ),
        )
        self.status = "inactive"
        return True

    def _on_merge_fail(self, sender: NodeId, message: MergeFail) -> bool:
        if self.status != "conquered":
            if self._restarted:
                # Refusal of a merge the dead incarnation offered; nobody
                # waits on this reply, so it is safe to ignore.
                return True
            raise ProtocolError(
                f"{self.node_id!r}: merge-fail in status {self.status}"
            )
        self.status = "passive"
        return True

    def _on_info(self, sender: NodeId, message: Info) -> bool:
        if self.status != "conqueror" or not self._awaiting_info:
            if self._restarted:
                # The dead incarnation sent a MergeAccept; the sender has
                # already gone inactive pointing at us and handed its whole
                # cluster over.  Refusing the inheritance would orphan every
                # one of those members, so accept it whenever this node can
                # act as a leader: from idle ``wait`` or ``passive``,
                # becoming conqueror restores single ownership (the sender
                # genuinely transferred it).  Any other state parks the Info
                # until the node settles.
                if (self.status == "wait" and not self._awaiting_release) or (
                    self.status == "passive"
                ):
                    self.status = "conqueror"
                    self._awaiting_info = False
                    if self.variant == "generic":
                        self._merge_with_unaware(message)
                    else:
                        self._merge_direct(message)
                    return True
                return False
            raise ProtocolError(f"{self.node_id!r}: info in status {self.status}")
        self._awaiting_info = False
        if self.variant == "generic":
            self._merge_with_unaware(message)
        else:
            self._merge_direct(message)
        return True

    def _merge_with_unaware(self, info: Info) -> None:
        """Figure 6: absorb the conquered leader's state, then conquer."""
        self._add_unaware(info.more | info.done | info.unaware)
        for u in info.unexplored:
            if (
                u not in self.unaware
                and u not in self.more
                and u not in self.done
                and u != self.node_id
            ):
                self._add_unexplored(u)
        cluster = len(self.more) + len(self.done) + len(self.unaware)
        if self.phase == info.phase or cluster >= 1 << (self.phase + 1):
            self.phase += 1
        for w in sorted(self.unaware, key=repr):
            self.send(w, Conquer(self.node_id, self.phase))
        if not self.unaware:  # unreachable in practice: info.more holds the sender
            self._explore()

    def _merge_direct(self, info: Info) -> None:
        """Section 4.5: the variants merge sets without the unaware stage."""
        for w in info.more:
            if w in self.done:
                # The conquered leader had fresher knowledge: w owes ids.
                self._move_done_to_more(w)
            else:
                self._add_more(w)
        for w in info.done:
            if w not in self.more and w not in self.done:
                self._add_done(w)
        for u in info.unexplored:
            if u not in self.more and u not in self.done and u != self.node_id:
                self._add_unexplored(u)
        cluster = len(self.more) + len(self.done)
        if self.phase == info.phase or cluster >= 1 << (self.phase + 1):
            self.phase += 1
        self._explore()

    # ------------------------------------------------------------------
    # Conquering (Figures 5, 6)
    # ------------------------------------------------------------------
    def _on_conquer(self, sender: NodeId, message: Conquer) -> bool:
        if self.status != "inactive":
            if self._restarted:
                # The dead incarnation lost a merge battle this conquest
                # concludes, but the restart rewound it to an earlier
                # (possibly leading) state.  Park the conquest: if this
                # incarnation ends up conquered again it resolves to
                # inactive and answers then; if it stays a leader the
                # conqueror's loss is a measured degradation.
                return False
            raise ProtocolError(
                f"{self.node_id!r}: conquer in status {self.status}; "
                "conquer messages only ever reach inactive nodes"
            )
        if message.phase >= self.phase:
            self.next = message.leader
            self.phase = message.phase
        self.send(sender, MoreDone(has_more=bool(self.local)))
        return True

    def _on_more_done(self, sender: NodeId, message: MoreDone) -> bool:
        if self.status == "terminated":
            # Acknowledgements of the Bounded final broadcast (Lemma 5.8's
            # 2n count includes them); nothing left to do with them.
            return True
        if self.status != "conqueror" or self._awaiting_info:
            if self._restarted:
                # Acknowledgement of a conquest the dead incarnation made;
                # the member stays pointed at us, we just lost its pending
                # ids (a measured knowledge degradation, never corruption).
                return True
            raise ProtocolError(
                f"{self.node_id!r}: more-done in status {self.status}"
            )
        if sender not in self.unaware:
            if self._restarted:
                # Rejoin re-broadcasts the conquest, so a member that also
                # answered the pre-crash copy acks twice; collection is
                # idempotent and the duplicate is dropped.
                return True
            raise ProtocolError(
                f"{self.node_id!r}: more-done from {sender!r} not in unaware"
            )
        # unaware -> more/done: the sender is already in the census log.
        self.unaware.discard(sender)
        if message.has_more:
            self._add_more(sender)
        else:
            self._add_done(sender)
        if not self.unaware:
            self._explore()
        return True

    def _terminate_bounded(self) -> None:
        """Theorem 4: |done| reached the known component size -- finish."""
        self.status = "terminated"
        for w in sorted(self.done, key=repr):
            if w != self.node_id:
                self.send(w, Conquer(self.node_id, self.phase))

    # ------------------------------------------------------------------
    # Ad-hoc probes (Section 4.5.2)
    # ------------------------------------------------------------------
    @property
    def probe_outstanding(self) -> bool:
        """Whether this node is still waiting on a probe reply.

        A node carries at most one probe of its own at a time; callers
        that inject probes asynchronously (the service driver) check this
        to defer rather than trip :meth:`initiate_probe`'s guard.
        """
        return self._probe_outstanding

    def initiate_probe(self) -> Optional[Tuple[NodeId, AbstractSet[NodeId]]]:
        """Request the current id snapshot of this node's component.

        Leaders answer from their own state with zero messages; other nodes
        send a ``probe`` along their ``next`` pointer, and the reply lands
        in :attr:`probe_results` once the simulation quiesces.
        """
        if self.variant != "adhoc":
            raise ProtocolError("probes are an Ad-hoc Resource Discovery feature")
        if not self.awake:
            raise ProtocolError(f"{self.node_id!r} is asleep; wake it before probing")
        if self.is_leader:
            return (self.node_id, self.knowledge)
        if self._probe_outstanding:
            raise ProtocolError(f"{self.node_id!r} already has a probe outstanding")
        self._probe_outstanding = True
        # Route through the normal inbox so passive/conquered nodes park the
        # probe until they resolve to inactive (and thus have a real ``next``).
        inbox = self._inbox = _open(self._inbox)
        inbox.append((self.node_id, Probe(self.node_id)))
        self._pump()
        return None

    def _on_probe(self, sender: NodeId, message: Probe) -> bool:
        if message.initiator == self.node_id and self.status == "inactive":
            # Our own probe (possibly deferred from a transient state):
            # forward it without enqueueing -- its reply is consumed directly
            # by initiator match, never popped from probe_previous.
            self.send(self.next, message)
            return True
        if self.is_leader:
            self.send(sender, ProbeReply(self.node_id, self.knowledge, message.initiator))
            return True
        if self.status == "inactive":
            queue = self.probe_previous = _open(self.probe_previous)
            queue.append((message, sender))
            if len(queue) == 1:
                self.send(self.next, message)
            return True
        # Passive / conquered nodes resolve to inactive eventually; park it.
        return False

    def record_probe_answer(
        self, leader: NodeId, ids: AbstractSet[NodeId], step: int
    ) -> None:
        """Log the answer to one of this node's own probes, landed at
        simulator step ``step``."""
        self.probe_results.append((leader, ids))
        if self.probe_answer_steps is None:
            self.probe_answer_steps = []
        self.probe_answer_steps.append(step)

    def _on_probe_reply(self, sender: NodeId, message: ProbeReply) -> bool:
        if message.initiator == self.node_id:
            self.record_probe_answer(message.leader, message.ids, self.sim.steps)
            self._probe_outstanding = False
            if self._rejoining:
                # Crash-recovery re-attach: the reply names the component's
                # current leader, which is exactly the ``next`` pointer a
                # restarted inactive node needs.
                self._rejoining = False
                if self.status == "inactive":
                    self.next = message.leader
            return True
        if self.status != "inactive":
            if self._restarted:
                return True  # probe route died with the old incarnation
            raise ProtocolError(
                f"{self.node_id!r}: probe-reply to route in status {self.status}"
            )
        queue = self.probe_previous
        if not queue:
            if self._restarted:
                return True  # probe route died with the old incarnation
            raise ProtocolError(
                f"{self.node_id!r}: probe-reply but probe queue empty"
            )
        _probe, came_from = queue.popleft()
        self.next = message.leader
        self.send(came_from, message)
        if queue:
            pending_probe, _y = queue[0]
            self.send(self.next, pending_probe)
        else:
            self.probe_previous = EMPTY_QUEUE
        return True

    # ------------------------------------------------------------------
    # Late-learned ids and dynamic additions (Section 6)
    # ------------------------------------------------------------------
    def _absorb_learned_id(self, other: NodeId) -> None:
        """Feed a just-learned id back into the reporting pipeline.

        Implements the knowledge-graph rule that a received id is a new
        edge, with Section 6's two cases: an unreported node simply grows
        its ``local`` set; a node that had already reported everything must
        re-open itself at its leader -- inactive nodes via a phase-0
        notification search with the ``new`` flag, ex-/current leaders by
        moving their own entry from ``done`` back to ``more``.
        """
        if other == self.node_id or other in self.local:
            return
        if self.status == "inactive":
            had_reported_all = not self.local
            self.local.add(other)
            if had_reported_all:
                self.send(
                    self.next,
                    Search(self.node_id, NOTIFY_PHASE, self.node_id, True),
                )
            return
        self.local.add(other)
        if self.node_id in self.done:
            self._move_done_to_more(self.node_id)

    def rejoin(self) -> None:
        """Re-enter the protocol after a crash-recovery restart.

        Called by :mod:`repro.faults.recovery` once the node's durable
        state (the Figure 2 fields) has been restored and its transport
        restarted under a fresh incarnation epoch.  Every volatile
        conversation -- outstanding searches, queries, merge handshakes --
        died with the crash (epoch fencing discards the replies), so each
        restored status is normalised to a state that makes progress
        without them:

        * ``explore``/``wait``: re-run the Figure 3 loop -- it re-issues
          whatever search or query the crash orphaned;
        * ``conqueror`` with pending ``unaware`` members: re-broadcast the
          conquest (conquer is idempotent towards inactive nodes -- the
          phase guard keeps re-conquest safe); with none, back to the loop;
        * ``conquered``: the merge handshake is dead; demote to passive
          (exactly where a failed merge leaves a leader).  The conquering
          leader's own retry logic -- or give-up -- handles its side;
        * ``inactive``: the ``next`` pointer may name a leader long since
          conquered; re-probe the component (the Ad-hoc rejoin path) so
          the reply refreshes ``next``;
        * ``passive``/``terminated``: nothing outstanding, nothing to do.
        """
        if self.status in ("explore", "wait"):
            self._explore()
            self._pump()
        elif self.status == "conqueror":
            if self.unaware:
                for w in sorted(self.unaware, key=repr):
                    self.send(w, Conquer(self.node_id, self.phase))
            else:
                self._explore()
            self._pump()
        elif self.status == "conquered":
            self.status = "passive"
        elif self.status == "inactive" and self.next != self.node_id:
            self._rejoining = True
            self._probe_outstanding = True
            # Route through the normal inbox, exactly like initiate_probe
            # (bypassing its Ad-hoc guard: the probe plumbing is variant-
            # agnostic and rejoin needs it everywhere).
            inbox = self._inbox = _open(self._inbox)
            inbox.append((self.node_id, Probe(self.node_id)))
            self._pump()

    def notify_new_link(self, target: NodeId) -> None:
        """A new knowledge edge ``self -> target`` appeared at runtime.

        Section 6's dynamic-link operation; additionally revives an idle
        waiting leader so the new edge gets explored without outside help.
        """
        self._absorb_learned_id(target)
        if self.status == "wait" and not self._awaiting_release and (
            self.unexplored or self._peek_more() is not None
        ):
            self._explore()
            self._replay_deferred()
        self._pump()


# Dispatch table: one dict hit per delivered message instead of a chain of
# string comparisons.  Keyed by the wire msg_type, bound late so subclasses
# overriding a handler method would need to rebuild it -- none exist; the
# class is final in practice.
DiscoveryNode._HANDLERS = {
    "query": DiscoveryNode._on_query,
    "query-reply": DiscoveryNode._on_query_reply,
    "search": DiscoveryNode._on_search,
    "release": DiscoveryNode._on_release,
    "merge-accept": DiscoveryNode._on_merge_accept,
    "merge-fail": DiscoveryNode._on_merge_fail,
    "info": DiscoveryNode._on_info,
    "conquer": DiscoveryNode._on_conquer,
    "more-done": DiscoveryNode._on_more_done,
    "probe": DiscoveryNode._on_probe,
    "probe-reply": DiscoveryNode._on_probe_reply,
}

#: Pristine behaviour attributes captured at class-definition time.  The
#: array-backed core (:mod:`repro.core.arraystate`) runs the C statement
#: of the state machine, so it must decline to engage whenever any
#: behaviour-bearing class attribute has been replaced after the fact --
#: tests and ablation harnesses monkeypatch methods like
#: ``_absorb_learned_id`` on the class to reproduce findings, and those
#: patches must keep taking effect.
#: Instance-level shadowing is checked separately per node.
PRISTINE_BEHAVIOR = tuple(
    (name, value)
    for name, value in vars(DiscoveryNode).items()
    if callable(value) or isinstance(value, property)
) + (("_HANDLERS_ITEMS", tuple(DiscoveryNode._HANDLERS.items())),)


def behavior_is_pristine() -> bool:
    """Whether :class:`DiscoveryNode` still carries its original methods."""
    d = vars(DiscoveryNode)
    for name, value in PRISTINE_BEHAVIOR:
        if name == "_HANDLERS_ITEMS":
            if tuple(DiscoveryNode._HANDLERS.items()) != value:
                return False
        elif d.get(name) is not value:
            return False
    return True
