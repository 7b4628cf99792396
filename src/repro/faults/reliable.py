"""Ack/retransmit transport: exactly-once FIFO over unreliable channels.

The discovery algorithms are correct only in the paper's model -- reliable
exactly-once FIFO channels.  :class:`ReliableNode` restores that model over
a faulty network, so every protocol built on :class:`~repro.sim.network.SimNode`
(the Generic/Bounded/Ad-hoc :class:`~repro.core.node.DiscoveryNode`, the
asynchronous baselines) runs **unchanged** under message loss, duplication
and reordering.  The transport is selective repeat:

* the sender stamps each payload with a **per-destination sequence number**
  and keeps it buffered until cumulatively acknowledged;
* acks are **piggybacked and delayed**: when protocol traffic flows back
  the cumulative ack rides on the next data frame for one extra id worth
  of bits; an idle receiver confirms via a **delayed-ack timer**
  (``ack_delay = max(2, base_timeout // 8)`` virtual steps) instead of
  acking every frame;
* losses are repaired by **selective repeat with a NACK fast path**: the
  receiver parks out-of-order arrivals and, on detecting a sequence gap,
  immediately names the missing seqs in an explicit :class:`Nack`; the
  sender retransmits exactly those frames.  The retransmit timer is the
  backstop, and it resends only the head-of-line frame per firing -- a
  single lost frame never triggers retransmission of the whole window;
* retransmit timeouts are **adaptive**: each channel runs a Jacobson-style
  smoothed RTT/variance estimator in virtual time (``rto = srtt +
  4*rttvar``, clamped to ``[min_rto, max_rto]``), with **Karn's rule**
  (retransmitted frames never produce RTT samples) and exponential backoff
  on repeated timeouts.

An unacked channel gives up once it has spent more than ``max_retries``
timeout rounds *and* ``base_timeout * (2**(max_retries + 1) - 1)`` steps
without ack progress, and records the payloads as undeliverable (the peer
is presumed crashed -- retrying forever would forfeit quiescence).

Overhead accounting (the quantity ``BENCH_faults.json`` tracks): the first
copy of a payload is charged under the payload's own message type (plus
``id_bits`` for the sequence number, plus one more ``id_bits`` when a
cumulative ack is piggybacked), so the protocol's per-type lemma
accounting stays meaningful; every retransmission is charged as
``rt-retrans``, every standalone ack as ``rt-ack`` and every NACK as
``rt-nack``.  ``messages(*OVERHEAD_TYPES)`` is therefore exactly the price
of reliability.

Give-up is the transport's only departure from exactly-once semantics: a
payload addressed to a crashed peer is eventually dropped.  That is
unavoidable -- TCP does the same -- and safe here because the discovery
protocols' *safety* properties tolerate missing messages (they are what a
slow network already looks like); only liveness degrades.

**Incarnation epochs** (the crash-*recovery* model of
:mod:`repro.faults.recovery`): every frame carries the sender's epoch and
the sender's belief of the receiver's epoch.  A node that recovers from a
crash restarts under a bumped epoch via :meth:`ReliableNode.begin_epoch`,
which discards all pre-crash transport state.  On receipt, a frame whose
belief of *my* epoch is stale -- or that originates from a superseded
incarnation of the sender -- is **fenced**: never processed, so pre-crash
retransmissions and in-flight stragglers can never leak old sequence
numbers or duplicate payloads into the new incarnation.  Fencing a live
but ignorant sender additionally *teaches* it the new epoch via a
progress-free ack, upon which the sender re-keys its channel and re-queues
its unacked payloads to the new incarnation -- the repair that lets
half-open protocol conversations complete across a peer's restart.  The
re-keyed channel starts with a zero retry count and a fresh RTT estimator:
whatever give-up budget the stale incarnation consumed never counts
against the live one.  The steady-state cost is three extra O(log n)-bit
integers per frame, charged to the frame's own type.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.obs.events import RunEvent
from repro.sim.events import TimerToken
from repro.sim.network import TRANSPORT_ONLY, SimNode, SimulationError, Simulator
from repro.sim.trace import MessageStats, bits_for_ids

NodeId = Hashable

__all__ = [
    "Data",
    "Ack",
    "Nack",
    "ReliableNode",
    "RT_RETRANS",
    "RT_ACK",
    "RT_NACK",
    "OVERHEAD_TYPES",
    "retransmission_overhead",
    "transport_totals",
]

#: Message types charged as recovery overhead, never protocol traffic.
RT_RETRANS = "rt-retrans"
RT_ACK = "rt-ack"
RT_NACK = "rt-nack"
OVERHEAD_TYPES = (RT_RETRANS, RT_ACK, RT_NACK)

#: Tag prefix distinguishing a receiver-side delayed-ack timer (tagged
#: ``(_ACK_TAG, peer)``) from the per-destination retransmit timers
#: (tagged with the bare peer id).
_ACK_TAG = "rt-delayed-ack"

#: Recent-maximum RTT window lifetime, in units of ``base_timeout``:
#: samples older than this stop flooring the RTO, letting end-of-run
#: repairs use tight timeouts once the congestion that produced the big
#: samples has drained.
_RTT_WINDOW_LIFETIMES = 1


@dataclass(frozen=True)
class Data:
    """A protocol payload framed with a per-channel sequence number.

    ``src_epoch`` is the sender's incarnation at transmit time;
    ``dst_epoch`` is the sender's belief of the receiver's incarnation.
    Both are 0 for nodes that have never crashed, so the epoch machinery
    is invisible until a :class:`~repro.faults.plan.RecoverySpec` is in
    play.  ``ack`` is the piggybacked cumulative ack of the *reverse*
    channel (``None`` when the frame carries no ack), costing one extra id worth of bits on the carrying frame.
    """

    seq: int
    payload: Any
    retransmit: bool = False
    src_epoch: int = 0
    dst_epoch: int = 0
    ack: Optional[int] = None

    @property
    def msg_type(self) -> str:
        # First copies keep the payload's type so per-type accounting (the
        # Section 5 lemmas) still sees the protocol's traffic; retransmits
        # are pure overhead and get their own bucket.
        if self.retransmit:
            return RT_RETRANS
        return getattr(self.payload, "msg_type", "data")

    def bit_size(self, id_bits: int) -> int:
        # Payload bits + seq number + two O(log n)-bit epoch stamps
        # (+ one piggybacked cumulative ack when present).
        bits = self.payload.bit_size(id_bits) + 3 * id_bits
        if self.ack is not None:
            bits += id_bits
        return bits


@dataclass(frozen=True)
class Ack:
    """Cumulative acknowledgement: every seq <= ``cum`` has been received."""

    cum: int
    src_epoch: int = 0
    dst_epoch: int = 0
    msg_type = RT_ACK

    def bit_size(self, id_bits: int) -> int:
        return bits_for_ids(0, id_bits, extra_ints=3)


@dataclass(frozen=True)
class Nack:
    """Gap report: cumulative ack ``cum`` plus the missing seqs above it.

    The selective-repeat fast path: the receiver names exactly the frames
    a gap proves lost so the sender repairs them immediately instead of
    waiting out a retransmit timeout.  Doubles as a cumulative ack.
    """

    cum: int
    missing: Tuple[int, ...]
    src_epoch: int = 0
    dst_epoch: int = 0
    msg_type = RT_NACK

    def bit_size(self, id_bits: int) -> int:
        return bits_for_ids(0, id_bits, extra_ints=3 + len(self.missing))


class _Port:
    """The fake simulator handed to the wrapped node.

    Routes the node's sends through the wrapper's reliable path; everything
    else (stats, id_bits, ...) forwards to the real simulator, so protocol
    code that inspects its environment keeps working.  The wrapper owns
    its port; the port and the inner node point back up weakly, so the
    wrapper, its node and its port form no reference cycle.
    """

    def __init__(self, wrapper: "ReliableNode") -> None:
        self._wrapper = weakref.ref(wrapper)
        self._node_id = wrapper.node_id

    def _owner(self) -> "ReliableNode":
        wrapper = self._wrapper()
        if wrapper is None:
            raise SimulationError(
                f"node {self._node_id!r} is not bound to a simulator"
            )
        return wrapper

    def transmit(self, src: NodeId, dst: NodeId, message: Any) -> None:
        self._owner().reliable_send(dst, message)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._owner().sim, name)


class _Channel:
    """Sender-side state for one (self -> dst) reliable channel."""

    __slots__ = (
        "next_seq",
        "outstanding",
        "timer",
        "attempts",
        "timeout",
        "sent_at",
        "last_tx",
        "last_progress",
        "resent",
        "srtt",
        "rttvar",
    )

    def __init__(self) -> None:
        self.next_seq = 0
        self.outstanding: Dict[int, Any] = {}  # seq -> payload, insertion = seq order
        self.timer: Optional[TimerToken] = None
        self.attempts = 0
        self.timeout = 0  # set on first arm
        self.last_tx = 0  # step of the channel's latest (re)transmission
        self.last_progress: Optional[int] = None  # step of last ack progress
        self.sent_at: Dict[int, int] = {}  # seq -> first-transmit step (RTT samples)
        self.resent: Set[int] = set()  # retransmitted seqs (Karn's rule)
        self.srtt: Optional[float] = None  # smoothed RTT, virtual steps
        self.rttvar = 0.0


class ReliableNode(SimNode):
    """Wrap any :class:`SimNode` in the reliable transport.

    The wrapper registers with the simulator under the inner node's id;
    the inner node is re-pointed at a :class:`_Port` so its ``send`` calls
    enter the reliable path.  Verification and monitoring keep operating on
    the *inner* nodes -- the wrapper is invisible to the protocol layer.

    Parameters
    ----------
    inner:
        The protocol node to protect.  Must not already be bound.
    base_timeout:
        The RTO used until this node's estimator has its first sample
        (doubled: the opening wave is an RTT probe), the unit of the
        give-up horizon and of the delayed-ack wait
        (``ack_delay = max(2, base_timeout // 8)`` steps).  Too small
        merely wastes overhead (spurious retransmits are deduplicated); too
        large slows recovery.  Scale with system size: every node's
        handler steps share the one global step clock.
    max_retries:
        Fruitless timeout rounds before a channel may give up
        (presumed-crashed peer); it gives up once it has also waited
        ``base_timeout * (2^(max_retries+1) - 1)`` steps without ack
        progress.
    min_rto / max_rto:
        Clamp on the adaptive retransmit timeout.  ``min_rto`` defaults
        to ``max(4, 2 * ack_delay)`` (an RTO below the peer's ack delay
        guarantees spurious retransmits); ``max_rto`` defaults to
        ``8 * base_timeout`` and also caps the exponential backoff -- an
        uncapped backoff turns every lost retransmission into thousands of
        steps of timer waiting.
    """

    def __init__(
        self,
        inner: SimNode,
        *,
        base_timeout: int = 64,
        max_retries: int = 6,
        min_rto: Optional[int] = None,
        max_rto: Optional[int] = None,
    ) -> None:
        if base_timeout < 1:
            raise ValueError(f"base_timeout must be >= 1, got {base_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        ack_delay = max(2, base_timeout // 8)
        if min_rto is None:
            min_rto = max(4, 2 * ack_delay)
        if max_rto is None:
            max_rto = 8 * base_timeout
        if min_rto < 1:
            raise ValueError(f"min_rto must be >= 1, got {min_rto}")
        if max_rto < min_rto:
            raise ValueError(f"need max_rto >= min_rto, got {max_rto} < {min_rto}")
        super().__init__(inner.node_id)
        if inner._sim() is not None:
            raise SimulationError(
                f"node {inner.node_id!r} is already bound; wrap before add_node"
            )
        self.inner = inner
        self._port = _Port(self)
        inner._sim = weakref.ref(self._port)
        self.base_timeout = base_timeout
        self.max_retries = max_retries
        self.ack_delay = ack_delay
        self.min_rto = min_rto
        self.max_rto = max_rto
        self._channels: Dict[NodeId, _Channel] = {}
        self._expected: Dict[NodeId, int] = {}
        self._reorder: Dict[NodeId, Dict[int, Any]] = {}
        self._ack_owed: Set[NodeId] = set()
        self._ack_timers: Dict[NodeId, TimerToken] = {}
        self._nacked: Dict[NodeId, Set[int]] = {}
        # Node-wide RTT estimator: seeds the RTO of channels that have no
        # sample of their own yet.  In a busy system the dominant RTT term
        # is the shared delivery queue, so a fresh channel's first timeout
        # should reflect current congestion, not the static base_timeout --
        # otherwise every channel's first frame risks a spurious retransmit
        # while the real ack is still queued.
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        # How long a channel waits on a silent peer before declaring it
        # crashed: max_retries + 1 timeouts doubling from base_timeout.
        self._giveup_horizon = base_timeout * (2 ** (max_retries + 1) - 1)
        # Recent-maximum RTT window: the smoothed estimator lags behind a
        # congestion ramp (its gain is 1/8 while ack latency can grow 10x
        # within one burst), so the RTO is floored at the largest sample
        # seen recently.  Entries age out, letting end-of-run repairs --
        # when the queue has drained and acks return fast -- use tight
        # timeouts again instead of mid-run congestion estimates.
        self._rtt_window: List[Tuple[int, float]] = []
        # Last step an ack of any kind (piggybacked, delayed, immediate,
        # NACK-carried) was sent to each peer, for duplicate-ack
        # suppression: a duplicate arriving while our ack is plausibly
        # still in flight does not warrant paying for another one.
        self._last_ack_step: Dict[NodeId, int] = {}
        # -- incarnation epochs (crash-recovery model) --
        self.epoch = 0
        self._peer_epochs: Dict[NodeId, int] = {}
        #: Checkpoint/recovery hook (duck-typed ``RecoveryManager``); set by
        #: :meth:`repro.faults.recovery.RecoveryManager.attach` on nodes
        #: with a recovery spec, ``None`` otherwise -- the one-predicate
        #: disabled path keeps the fault-free overhead at zero.
        self.recovery: Optional[Any] = None
        # -- transport telemetry --
        self.retransmissions = 0
        self.fast_retransmissions = 0
        self.duplicates_discarded = 0
        self.reordered_buffered = 0
        self.acks_piggybacked = 0
        self.acks_delayed = 0
        self.acks_immediate = 0
        self.nacks_sent = 0
        self.rtt_samples = 0
        self.epoch_fenced = 0
        self.epoch_resets = 0
        self.undeliverable: List[Tuple[NodeId, Any]] = []

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def reliable_send(self, dst: NodeId, payload: Any) -> None:
        """Send ``payload`` with at-least-once delivery + receiver dedupe."""
        if dst == self.node_id:
            raise SimulationError(
                f"node {self.node_id!r} tried to message itself through the "
                "reliable transport"
            )
        channel = self._channels.setdefault(dst, _Channel())
        seq = channel.next_seq
        channel.next_seq += 1
        channel.outstanding[seq] = payload
        channel.sent_at[seq] = self.sim.steps
        channel.last_tx = self.sim.steps
        self.sim.transmit(self.node_id, dst, self._frame(dst, seq, payload))
        if channel.timer is None:
            self._arm(dst, channel, reset_backoff=True)

    def _frame(self, dst: NodeId, seq: int, payload: Any, *, retransmit: bool = False) -> Data:
        ack = None
        if dst in self._ack_owed:
            # Piggyback: the owed cumulative ack rides on this frame for
            # one id worth of bits, discharging the delayed-ack timer.
            ack = self._expected.get(dst, 0) - 1
            self._ack_owed.discard(dst)
            self._cancel_ack_timer(dst)
            self._last_ack_step[dst] = self.sim.steps
            self.acks_piggybacked += 1
        return Data(
            seq,
            payload,
            retransmit=retransmit,
            src_epoch=self.epoch,
            dst_epoch=self._peer_epochs.get(dst, 0),
            ack=ack,
        )

    def on_timer(self, tag: Hashable) -> object:
        """Delayed-ack and retransmit timers: the wrapped node never runs,
        so every firing is :data:`~repro.sim.network.TRANSPORT_ONLY`."""
        self._transport_timer(tag)
        return TRANSPORT_ONLY

    def _transport_timer(self, tag: Hashable) -> None:
        if type(tag) is tuple and len(tag) == 2 and tag[0] == _ACK_TAG:
            self._fire_delayed_ack(tag[1])
            return
        dst = tag
        channel = self._channels.get(dst)
        if channel is None:
            return
        channel.timer = None
        if not channel.outstanding:
            return  # acked while the timer was in flight
        # Re-validate the deadline against the *current* RTO estimate: the
        # timer may have been armed before the estimator had any sample
        # (first wave of a busy run), in which case firing now would
        # retransmit a frame whose ack is still queued.  Waiting out the
        # refreshed estimate is not a fruitless round.
        rto = self._rto(channel)
        waited = self.sim.steps - channel.last_tx
        if waited < rto:
            channel.timeout = rto - waited
            channel.timer = self.sim.schedule_timer(self.node_id, channel.timeout, tag=dst)
            return
        channel.attempts += 1
        obs = getattr(self.sim, "obs", None)
        if channel.attempts > self.max_retries:
            # Adaptive RTOs make retry rounds short, so a bare round count
            # would give up on a live peer after a few RTTs -- at 20% loss
            # an unlucky streak of lost repairs would then *drop* a
            # deliverable payload.  Give-up is therefore also time-based:
            # the round budget refills until the channel has been fruitless
            # (no ack progress since the head-of-line frame was first sent)
            # for the whole give-up horizon.
            head_sent = channel.sent_at.get(min(channel.outstanding), channel.last_tx)
            fruitless_since = (
                head_sent
                if channel.last_progress is None
                else max(head_sent, channel.last_progress)
            )
            if self.sim.steps - fruitless_since < self._giveup_horizon:
                channel.attempts = self.max_retries
        if channel.attempts > self.max_retries:
            # Peer presumed crashed: drop the channel's backlog so the
            # system can quiesce.  Liveness may degrade; safety cannot --
            # a dropped message is indistinguishable from a slow one.
            if obs is not None:
                obs.emit(
                    RunEvent(
                        self.sim.steps,
                        "fault-action",
                        node=self.node_id,
                        peer=dst,
                        value=f"give-up x{len(channel.outstanding)}",
                    )
                )
            for seq in sorted(channel.outstanding):
                self.undeliverable.append((dst, channel.outstanding[seq]))
            channel.outstanding.clear()
            channel.sent_at.clear()
            channel.resent.clear()
            return
        # The timer is the backstop, and it repairs only the head-of-line
        # frame -- anything else still missing is the NACK fast path's job
        # (or the next timeout's, with backoff).  Karn's rule: the resent
        # frame never samples RTT.
        seq = min(channel.outstanding)
        payload = channel.outstanding[seq]
        if obs is not None:
            obs.emit(
                RunEvent(
                    self.sim.steps,
                    "retransmit",
                    node=self.node_id,
                    peer=dst,
                    msg_type=getattr(payload, "msg_type", "data"),
                    value=channel.attempts,
                )
            )
        self.sim.transmit(self.node_id, dst, self._frame(dst, seq, payload, retransmit=True))
        self.retransmissions += 1
        channel.resent.add(seq)
        channel.last_tx = self.sim.steps
        channel.timeout = min(self.max_rto, (channel.timeout * 2) or self.base_timeout)
        self._arm(dst, channel, reset_backoff=False)

    def _rto(self, channel: _Channel) -> int:
        """Adaptive retransmit timeout: ``srtt + 4*rttvar`` clamped.

        A channel with no sample of its own borrows the node-wide
        estimator (current congestion); ``base_timeout`` only until this
        node has seen its very first ack.  The result is floored at 1.25x
        the largest recent sample: a smoothed mean lags a congestion ramp
        badly enough to fire timers while real acks are still queued.
        """
        srtt, rttvar = channel.srtt, channel.rttvar
        if srtt is None:
            srtt, rttvar = self._srtt, self._rttvar
        if srtt is None:
            # No ack observed yet, anywhere: the network's RTT is unknown
            # and the opening wave is its most congested moment.  Double
            # the configured base so the first timeout doubles as an RTT
            # probe window instead of a guaranteed spurious retransmit.
            return min(self.max_rto, 2 * self.base_timeout)
        rto = int(srtt + 4.0 * rttvar) + 1
        window = self._rtt_window
        if window:
            horizon = self.sim.steps - _RTT_WINDOW_LIFETIMES * self.base_timeout
            while window and window[0][0] < horizon:
                window.pop(0)
            if window:
                rto = max(rto, int(1.25 * max(s for _, s in window)) + 1)
        return min(self.max_rto, max(self.min_rto, rto))

    def _arm(self, dst: NodeId, channel: _Channel, *, reset_backoff: bool) -> None:
        if reset_backoff:
            channel.attempts = 0
            channel.timeout = self._rto(channel)
        channel.timer = self.sim.schedule_timer(self.node_id, channel.timeout, tag=dst)

    def _handle_ack(self, dst: NodeId, cum: int) -> None:
        channel = self._channels.get(dst)
        if channel is None:
            return
        acked = [seq for seq in channel.outstanding if seq <= cum]
        if acked:
            self._sample_rtt(channel, acked)
            channel.last_progress = self.sim.steps
        for seq in acked:
            del channel.outstanding[seq]
            channel.sent_at.pop(seq, None)
            channel.resent.discard(seq)
        if channel.timer is not None and (acked or not channel.outstanding):
            # Progress: stop the pending timer; re-arm fresh if the channel
            # still has unacked traffic (backoff resets -- the peer lives).
            self.sim.cancel_timer(channel.timer)
            channel.timer = None
        if channel.outstanding and channel.timer is None:
            self._arm(dst, channel, reset_backoff=True)

    def _sample_rtt(self, channel: _Channel, acked: List[int]) -> None:
        """Feed the newest unambiguous sample into the Jacobson estimator.

        Karn's rule: a retransmitted frame's ack is ambiguous (it may
        answer either copy), so only never-resent frames sample.
        """
        eligible = [
            seq for seq in acked if seq not in channel.resent and seq in channel.sent_at
        ]
        if not eligible:
            return
        sample = float(self.sim.steps - channel.sent_at[max(eligible)])
        if channel.srtt is None:
            channel.srtt = sample
            channel.rttvar = sample / 2.0
        else:
            channel.rttvar = 0.75 * channel.rttvar + 0.25 * abs(channel.srtt - sample)
            channel.srtt = 0.875 * channel.srtt + 0.125 * sample
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rtt_window.append((self.sim.steps, sample))
        self.rtt_samples += 1

    def _handle_nack(self, dst: NodeId, nack: Nack) -> None:
        # The cumulative half releases acked frames (and may sample RTT).
        self._handle_ack(dst, nack.cum)
        channel = self._channels.get(dst)
        if channel is None or not channel.outstanding:
            return
        obs = getattr(self.sim, "obs", None)
        repaired = False
        for seq in nack.missing:
            payload = channel.outstanding.get(seq)
            if payload is None:
                continue  # already acked (stale NACK) -- nothing to repair
            if obs is not None:
                obs.emit(
                    RunEvent(
                        self.sim.steps,
                        "retransmit",
                        node=self.node_id,
                        peer=dst,
                        msg_type=getattr(payload, "msg_type", "data"),
                        value="nack",
                    )
                )
            self.sim.transmit(self.node_id, dst, self._frame(dst, seq, payload, retransmit=True))
            self.retransmissions += 1
            self.fast_retransmissions += 1
            channel.resent.add(seq)
            channel.last_tx = self.sim.steps
            repaired = True
        if repaired:
            # The peer is demonstrably alive: whatever timeout budget the
            # pending timer consumed belongs to a live conversation.
            if channel.timer is not None:
                self.sim.cancel_timer(channel.timer)
                channel.timer = None
            self._arm(dst, channel, reset_backoff=True)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def _handle_data(self, src: NodeId, data: Data) -> bool:
        """Process one admitted frame; ``True`` iff it (and whatever it
        released from the reorder park) was handed to the wrapped node."""
        if data.ack is not None:
            self._handle_ack(src, data.ack)
        expected = self._expected.setdefault(src, 0)
        if data.seq > expected:
            parked = self._reorder.setdefault(src, {})
            if data.seq not in parked:
                parked[data.seq] = data.payload
                self.reordered_buffered += 1
            else:
                self.duplicates_discarded += 1
            # Gap detected: name every seq below the arrival that is neither
            # parked nor already NACKed.  The NACK carries the cumulative
            # ack, so it discharges any owed delayed ack.
            nacked = self._nacked.setdefault(src, set())
            gaps = [
                seq
                for seq in range(expected, data.seq)
                if seq not in parked and seq not in nacked
            ]
            if gaps:
                self._send_nack(src, expected - 1, gaps)
            else:
                self._owe_ack(src)
            return False
        if data.seq < expected:
            self.duplicates_discarded += 1
            # A duplicate means the sender is retransmitting -- its copy of
            # our ack was lost or slow.  Re-ack immediately: repair
            # confirmations must not wait out another ack_delay (a lost ack
            # would otherwise cost rto + ack_delay per retry round and
            # ratchet the sender toward give-up).  Exception: if we acked
            # this peer within the last ack_delay steps, that ack is
            # plausibly still in flight and answers the retransmission --
            # don't pay for another.
            if self.sim.steps - self._last_ack_step.get(src, -(1 << 30)) <= self.ack_delay // 2:
                self._owe_ack(src)
            else:
                self._ack_now(src)
            return False
        # In-order: advance the receive cursor and mark the ack debt
        # *before* running the handlers, so a protocol reply sent from
        # inside _deliver piggybacks a cumulative ack covering this very
        # frame -- request/reply conversations then never pay a standalone
        # ack.  Handlers cannot re-enter this path (sends are enqueued, not
        # delivered synchronously), so collecting the batch first is safe.
        batch = [data.payload]
        expected += 1
        parked = self._reorder.get(src)
        while parked and expected in parked:
            batch.append(parked.pop(expected))
            expected += 1
        self._expected[src] = expected
        nacked = self._nacked.get(src)
        if nacked:
            nacked.difference_update({s for s in nacked if s < expected})
        self._ack_owed.add(src)
        for payload in batch:
            self._deliver(src, payload)
        if src in self._ack_owed:  # no reply piggybacked it
            if data.retransmit:
                self._ack_now(src)  # repair confirmation: don't delay
            else:
                self._arm_ack_timer(src)
        return True

    def _owe_ack(self, src: NodeId) -> None:
        self._ack_owed.add(src)
        self._arm_ack_timer(src)

    def _arm_ack_timer(self, src: NodeId) -> None:
        if src not in self._ack_timers:
            self._ack_timers[src] = self.sim.schedule_timer(
                self.node_id, self.ack_delay, tag=(_ACK_TAG, src)
            )

    def _ack_now(self, src: NodeId) -> None:
        """Standalone cumulative ack, sent immediately (repair path)."""
        self._ack_owed.discard(src)
        self._cancel_ack_timer(src)
        self._last_ack_step[src] = self.sim.steps
        self.acks_immediate += 1
        self.sim.transmit(
            self.node_id,
            src,
            Ack(
                self._expected.get(src, 0) - 1,
                src_epoch=self.epoch,
                dst_epoch=self._peer_epochs.get(src, 0),
            ),
        )

    def _fire_delayed_ack(self, src: NodeId) -> None:
        self._ack_timers.pop(src, None)
        if src not in self._ack_owed:
            return
        self._ack_owed.discard(src)
        self._last_ack_step[src] = self.sim.steps
        self.acks_delayed += 1
        self.sim.transmit(
            self.node_id,
            src,
            Ack(
                self._expected.get(src, 0) - 1,
                src_epoch=self.epoch,
                dst_epoch=self._peer_epochs.get(src, 0),
            ),
        )

    def _cancel_ack_timer(self, src: NodeId) -> None:
        token = self._ack_timers.pop(src, None)
        if token is not None:
            self.sim.cancel_timer(token)

    def _send_nack(self, src: NodeId, cum: int, gaps: List[int]) -> None:
        self._nacked.setdefault(src, set()).update(gaps)
        self._ack_owed.discard(src)
        self._cancel_ack_timer(src)
        self._last_ack_step[src] = self.sim.steps
        self.nacks_sent += 1
        obs = getattr(self.sim, "obs", None)
        if obs is not None:
            obs.emit(
                RunEvent(
                    self.sim.steps,
                    "nack",
                    node=self.node_id,
                    peer=src,
                    value=f"missing x{len(gaps)}",
                )
            )
        self.sim.transmit(
            self.node_id,
            src,
            Nack(
                cum,
                tuple(gaps),
                src_epoch=self.epoch,
                dst_epoch=self._peer_epochs.get(src, 0),
            ),
        )

    def _deliver(self, src: NodeId, payload: Any) -> None:
        if not self.inner.awake:
            self.inner.awake = True
            self.inner.on_wake()
        self.inner.on_message(src, payload)
        if self.recovery is not None:
            self.recovery.observe(self)

    # ------------------------------------------------------------------
    # incarnation epochs (crash-recovery model)
    # ------------------------------------------------------------------
    def _epoch_admit(self, sender: NodeId, frame: Any) -> bool:
        """Admit or fence one incoming frame; return ``True`` to process it.

        Learn first, check second: a frame from a *newer* incarnation of
        ``sender`` teaches us the new epoch (restarting every channel
        keyed to the superseded one) before we judge the frame's belief
        about *our* epoch.  A frame is fenced when it comes from a
        superseded incarnation of the sender (a dead straggler: discard
        silently) or was addressed to a superseded incarnation of us.  The
        latter sender is alive and merely ignorant, so the fence *teaches*:
        we answer with a current-epoch ack that carries no cumulative
        progress but whose ``src_epoch`` makes the sender re-key its
        channel to our new incarnation and re-queue what it still owes us.
        Without the teach step a peer that last spoke to our old
        incarnation would retransmit into the fence until give-up and its
        half of the protocol conversation would hang forever.
        """
        known = self._peer_epochs.get(sender, 0)
        if frame.src_epoch > known:
            self._epoch_reset(sender, frame.src_epoch)
            known = frame.src_epoch
        if frame.src_epoch < known:
            self._fence(sender, frame)
            return False
        if frame.dst_epoch != self.epoch:
            self._fence(sender, frame)
            self.sim.transmit(
                self.node_id,
                sender,
                Ack(
                    self._expected.get(sender, 0) - 1,
                    src_epoch=self.epoch,
                    dst_epoch=known,
                ),
            )
            return False
        return True

    def _fence(self, sender: NodeId, frame: Any) -> None:
        self.epoch_fenced += 1
        obs = getattr(self.sim, "obs", None)
        if obs is not None:
            obs.emit(
                RunEvent(
                    self.sim.steps,
                    "epoch-fence",
                    node=self.node_id,
                    peer=sender,
                    msg_type=frame.msg_type,
                    value=f"src={frame.src_epoch} dst={frame.dst_epoch} have={self.epoch}",
                )
            )

    def _epoch_reset(self, peer: NodeId, new_epoch: int) -> None:
        """``peer`` restarted: re-key all transport state shared with its
        old incarnation.

        Receiver state (expected seq, reorder park, owed/NACKed acks)
        belonged to the dead incarnation's channel and is simply dropped --
        the new incarnation restarts at seq 0.  The sender-side channel is
        *re-queued*, not dropped: every outstanding payload carries a
        now-stale ``dst_epoch`` (our belief was constant over the
        channel's lifetime) and would be fenced on arrival, but the
        payloads themselves are protocol messages our wrapped node still
        expects answers to.  Re-framing them on a fresh channel to the new
        incarnation is what lets a half-open conversation (a search
        awaiting its release, a conquest awaiting its more-done) complete
        against the restarted peer instead of hanging forever.  The fresh
        channel starts with ``attempts = 0`` and an empty RTT estimator:
        the give-up budget and backoff the *stale* incarnation consumed
        must never be charged to the live one.  To the asynchronous model
        this is indistinguishable from a very slow channel; a restarted
        peer whose state makes a re-queued message impossible fails loudly
        via ProtocolError, never silently.
        """
        self._peer_epochs[peer] = new_epoch
        self.epoch_resets += 1
        self._expected.pop(peer, None)
        self._reorder.pop(peer, None)
        self._ack_owed.discard(peer)
        self._cancel_ack_timer(peer)
        self._nacked.pop(peer, None)
        self._last_ack_step.pop(peer, None)
        channel = self._channels.pop(peer, None)
        if channel is not None:
            if channel.timer is not None:
                self.sim.cancel_timer(channel.timer)
                channel.timer = None
            if channel.outstanding:
                fresh = self._channels.setdefault(peer, _Channel())
                for seq in sorted(channel.outstanding):
                    payload = channel.outstanding[seq]
                    new_seq = fresh.next_seq
                    fresh.next_seq += 1
                    fresh.outstanding[new_seq] = payload
                    # First transmission on the fresh channel: any ack is
                    # unambiguous, so it may sample RTT despite the
                    # rt-retrans accounting.
                    fresh.sent_at[new_seq] = self.sim.steps
                    fresh.last_tx = self.sim.steps
                    self.sim.transmit(
                        self.node_id,
                        peer,
                        self._frame(peer, new_seq, payload, retransmit=True),
                    )
                    self.retransmissions += 1
                if fresh.timer is None:
                    self._arm(peer, fresh, reset_backoff=True)

    def begin_epoch(self, epoch: int) -> None:
        """Restart this node's transport under incarnation ``epoch``.

        Called by the recovery manager when the node comes back: all
        pre-crash channel state (seqnums, retransmit buffers, reorder
        parks, ack debts, peer-epoch beliefs) is the old incarnation's and
        must not leak into the new one -- that is exactly what epoch
        fencing guarantees the *peers* will discard, so we discard it too.
        """
        if epoch <= self.epoch:
            raise SimulationError(
                f"epoch must increase: {epoch} <= current {self.epoch}"
            )
        for dst, channel in self._channels.items():
            if channel.timer is not None:
                self.sim.cancel_timer(channel.timer)
                channel.timer = None
            for seq in sorted(channel.outstanding):
                self.undeliverable.append((dst, channel.outstanding[seq]))
        for token in self._ack_timers.values():
            self.sim.cancel_timer(token)
        self._channels = {}
        self._expected = {}
        self._reorder = {}
        self._ack_owed = set()
        self._ack_timers = {}
        self._nacked = {}
        self._last_ack_step = {}
        self._srtt = None
        self._rttvar = 0.0
        self._rtt_window = []
        self._peer_epochs = {}
        self.epoch = epoch

    # ------------------------------------------------------------------
    # SimNode interface
    # ------------------------------------------------------------------
    def on_wake(self) -> None:
        if not self.inner.awake:
            self.inner.awake = True
            self.inner.on_wake()
            if self.recovery is not None:
                self.recovery.observe(self)

    def on_message(self, sender: NodeId, message: Any) -> object:
        """Returns :data:`~repro.sim.network.TRANSPORT_ONLY` unless the
        frame reached the wrapped node: fenced frames, acks, nacks, and
        parked or duplicate data change transport state only."""
        if isinstance(message, Data):
            if self._epoch_admit(sender, message) and self._handle_data(sender, message):
                return None
        elif isinstance(message, Ack):
            if self._epoch_admit(sender, message):
                self._handle_ack(sender, message.cum)
        elif isinstance(message, Nack):
            if self._epoch_admit(sender, message):
                self._handle_nack(sender, message)
        else:
            raise SimulationError(
                f"reliable node {self.node_id!r} got a raw {message!r}; mixing "
                "wrapped and unwrapped nodes on one simulator is unsupported"
            )
        return TRANSPORT_ONLY

    def on_crash(self) -> None:
        # Silence every pending retransmit and delayed-ack timer: the
        # injector suppresses timers during the down window anyway, but a
        # pre-crash timer due *after* recovery would otherwise fire into
        # the new incarnation.
        for channel in self._channels.values():
            if channel.timer is not None:
                self.sim.cancel_timer(channel.timer)
                channel.timer = None
        for token in self._ack_timers.values():
            self.sim.cancel_timer(token)
        self._ack_timers.clear()
        if self.recovery is not None:
            self.recovery.on_crash(self)

    def on_recover(self) -> None:
        if self.recovery is not None:
            self.recovery.restore(self)

    @property
    def outstanding_total(self) -> int:
        return sum(len(ch.outstanding) for ch in self._channels.values())


# ----------------------------------------------------------------------
# accounting helpers
# ----------------------------------------------------------------------
def retransmission_overhead(stats: MessageStats) -> Dict[str, int]:
    """Messages/bits spent on reliability, split out of ``stats``.

    ``protocol_*`` counts everything else -- i.e. what the run would have
    cost in the fault-free model plus the per-message sequence numbers.
    """
    overhead_msgs = stats.messages(*OVERHEAD_TYPES)
    overhead_bits = stats.bits(*OVERHEAD_TYPES)
    return {
        "overhead_messages": overhead_msgs,
        "overhead_bits": overhead_bits,
        "protocol_messages": stats.total_messages - overhead_msgs,
        "protocol_bits": stats.total_bits - overhead_bits,
    }


def transport_totals(wrappers: Dict[NodeId, ReliableNode]) -> Dict[str, int]:
    """Aggregate transport telemetry across a system's wrappers."""
    return {
        "retransmissions": sum(w.retransmissions for w in wrappers.values()),
        "fast_retransmissions": sum(w.fast_retransmissions for w in wrappers.values()),
        "duplicates_discarded": sum(w.duplicates_discarded for w in wrappers.values()),
        "reordered_buffered": sum(w.reordered_buffered for w in wrappers.values()),
        "acks_piggybacked": sum(w.acks_piggybacked for w in wrappers.values()),
        "acks_delayed": sum(w.acks_delayed for w in wrappers.values()),
        "acks_immediate": sum(w.acks_immediate for w in wrappers.values()),
        "nacks_sent": sum(w.nacks_sent for w in wrappers.values()),
        "rtt_samples": sum(w.rtt_samples for w in wrappers.values()),
        "undeliverable": sum(len(w.undeliverable) for w in wrappers.values()),
        "epoch_fenced": sum(w.epoch_fenced for w in wrappers.values()),
    }
