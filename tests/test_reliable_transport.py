"""The ack/retransmit transport restores exactly-once FIFO over chaos.

The ``[gbn]`` legs replay runs of the go-back-N transport that preceded
selective repeat.  Go-back-N is gone; what it did on each run is frozen in
``tests/golden/transport/gbn.json`` (written by
``tests/test_transport_v2.py``).  A ``[gbn]`` leg runs the same run live,
requires it to deliver and drop exactly the payloads go-back-N did, and
then holds the frozen outcome to the assertion the leg always made.
"""

import json
import pathlib

import pytest

from repro.faults import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    ReliableNode,
    retransmission_overhead,
    transport_totals,
)
from repro.sim.network import SimNode, SimulationError, Simulator
from repro.sim.scheduler import GlobalFifoScheduler, RandomScheduler
from repro.sim.trace import bits_for_ids

GBN_GOLDEN = pathlib.Path(__file__).parent / "golden" / "transport" / "gbn.json"


class Ping:
    msg_type = "ping"

    def __init__(self, tag):
        self.tag = tag

    def bit_size(self, id_bits):
        return bits_for_ids(1, id_bits)


class Burst(SimNode):
    """Sends ``count`` tagged pings to ``target`` on wake-up."""

    def __init__(self, node_id, target, count):
        super().__init__(node_id)
        self.target = target
        self.count = count

    def on_wake(self):
        for i in range(self.count):
            self.send(self.target, Ping(i))

    def on_message(self, sender, message):
        pass


class Sink(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_wake(self):
        pass

    def on_message(self, sender, message):
        self.received.append((sender, message.tag))


def run_burst(
    count=20,
    *,
    loss=0.0,
    duplicate=0.0,
    crashes=(),
    channel_discipline="fifo",
    seed=0,
    base_timeout=16,
    max_retries=6,
    **node_kwargs,
):
    plan = FaultPlan(loss=loss, duplicate=duplicate, crashes=crashes)
    injector = FaultInjector(plan, seed=seed)
    sim = Simulator(
        RandomScheduler(seed),
        faults=injector,
        channel_discipline=channel_discipline,
        channel_seed=seed,
    )
    sender = ReliableNode(
        Burst("a", "b", count),
        base_timeout=base_timeout,
        max_retries=max_retries,
        **node_kwargs,
    )
    receiver = ReliableNode(
        Sink("b"),
        base_timeout=base_timeout,
        max_retries=max_retries,
        **node_kwargs,
    )
    sim.add_node(sender)
    sim.add_node(receiver)
    sim.schedule_wake("a")
    sim.schedule_wake("b")
    sim.run()
    return sim, sender, receiver


def run_dead_peer(max_retries, **node_kwargs):
    """One ping into a peer that is down from step 0, under deterministic
    FIFO scheduling and ``base_timeout=2``."""
    plan = FaultPlan(crashes=(CrashSpec("b", at_step=0),))
    sim = Simulator(GlobalFifoScheduler(), faults=FaultInjector(plan, seed=0))
    sender = ReliableNode(
        Burst("a", "b", 1), base_timeout=2, max_retries=max_retries, **node_kwargs
    )
    receiver = ReliableNode(Sink("b"), base_timeout=2, **node_kwargs)
    sim.add_node(sender)
    sim.add_node(receiver)
    sim.schedule_wake("a")
    sim.schedule_wake("b")
    sim.run()
    return sim, sender, receiver


#: Every run a ``[gbn]`` leg replays: name -> (runner, arguments).
RUNS = {
    "clean": (run_burst, dict(count=20)),
    "loss": (run_burst, dict(count=20, loss=0.4, seed=2)),
    "duplication": (run_burst, dict(count=20, duplicate=0.5, seed=3)),
    "reordering": (run_burst, dict(count=20, channel_discipline="random", seed=4)),
    "mixed": (
        run_burst,
        dict(count=30, loss=0.25, duplicate=0.25, channel_discipline="random", seed=5),
    ),
    **{
        f"many-{seed}": (
            run_burst,
            dict(count=15, loss=0.3, duplicate=0.2, channel_discipline="random", seed=seed),
        )
        for seed in range(6)
    },
    "acks": (run_burst, dict(count=10)),
    "crashed-peer": (
        run_burst,
        dict(count=5, crashes=(CrashSpec("b", at_step=0),), base_timeout=4, max_retries=2),
    ),
    **{
        f"dead-peer-{max_retries}": (run_dead_peer, dict(max_retries=max_retries))
        for max_retries in (0, 2, 3)
    },
}


def outcome(sim, sender, receiver):
    """What one sender -> receiver run left behind, as JSON-native data."""
    return {
        "received": [tag for _src, tag in receiver.inner.received],
        "undeliverable": [msg.tag for _dst, msg in sender.undeliverable],
        "outstanding": sender.outstanding_total,
        "retransmissions": sender.retransmissions,
        "duplicates_discarded": receiver.duplicates_discarded,
        "reordered_buffered": receiver.reordered_buffered,
        "acks": sim.stats.messages("rt-ack"),
        "steps": sim.steps,
        "quiescent": sim.is_quiescent,
    }


def run_case(name, **node_kwargs):
    runner, kwargs = RUNS[name]
    return outcome(*runner(**kwargs, **node_kwargs))


def replay(name, transport):
    """Run ``name`` live; for the ``gbn`` leg return go-back-N's frozen
    outcome of the same run, once the live run has delivered and dropped
    exactly the payloads go-back-N did."""
    live = run_case(name)
    if transport == "sr":
        return live
    frozen = json.loads(GBN_GOLDEN.read_text())["burst"][name]
    assert live["received"] == frozen["received"]
    assert live["undeliverable"] == frozen["undeliverable"]
    return frozen


@pytest.mark.parametrize("transport", ["sr", "gbn"])
class TestExactlyOnceFifo:
    def test_clean_channel(self, transport):
        run = replay("clean", transport)
        assert run["received"] == list(range(20))
        assert run["outstanding"] == 0

    def test_heavy_loss(self, transport):
        run = replay("loss", transport)
        assert run["received"] == list(range(20))
        assert run["retransmissions"] > 0

    def test_heavy_duplication(self, transport):
        run = replay("duplication", transport)
        assert run["received"] == list(range(20))
        assert run["duplicates_discarded"] > 0

    def test_reordering_channels(self, transport):
        # channel_discipline="random" delivers each channel out of order;
        # the transport's reorder buffer must restore sequence order.
        run = replay("reordering", transport)
        assert run["received"] == list(range(20))
        assert run["reordered_buffered"] > 0

    def test_loss_duplication_and_reordering_together(self, transport):
        assert replay("mixed", transport)["received"] == list(range(30))

    @pytest.mark.parametrize("seed", range(6))
    def test_many_seeds(self, transport, seed):
        assert replay(f"many-{seed}", transport)["received"] == list(range(15))


class TestOverheadAccounting:
    def test_first_copies_keep_payload_type(self):
        sim, sender, receiver = run_burst(20, loss=0.3, seed=1)
        # Every payload is charged exactly once under its own type; the
        # price of reliability sits in rt-retrans / rt-ack.
        assert sim.stats.messages("ping") == 20
        overhead = retransmission_overhead(sim.stats)
        assert overhead["protocol_messages"] == 20
        assert overhead["overhead_messages"] > 0
        assert (
            overhead["overhead_messages"] + overhead["protocol_messages"]
            == sim.stats.total_messages
        )

    def test_clean_channel_overhead_is_acks_only_gbn(self):
        # Go-back-N acked every frame: 10 frames -> 10 standalone acks.
        # Selective repeat's delayed acks undercut that on the same run.
        gbn = replay("acks", "gbn")
        assert gbn["acks"] == 10
        assert gbn["retransmissions"] == 0
        assert run_case("acks")["acks"] < gbn["acks"]

    def test_clean_channel_sr_batches_acks(self):
        # Selective repeat only sends standalone acks when the delayed-ack
        # timer fires, batching a whole burst into a few cumulative acks.
        sim, sender, receiver = run_burst(10)
        assert sender.retransmissions == 0
        assert receiver.nacks_sent == 0
        assert sim.stats.messages("rt-ack") == receiver.acks_delayed
        assert 0 < sim.stats.messages("rt-ack") < 10

    def test_transport_totals_aggregates(self):
        sim, sender, receiver = run_burst(20, loss=0.4, seed=2)
        totals = transport_totals({"a": sender, "b": receiver})
        assert totals["retransmissions"] == sender.retransmissions
        assert totals["undeliverable"] == 0


class TestGiveUp:
    @pytest.mark.parametrize(
        "transport,expected_retrans",
        [("gbn", 2 * 5), ("sr", 2)],  # full-window rounds vs head-of-line only
    )
    def test_crashed_peer_gives_up_and_quiesces(self, transport, expected_retrans):
        run = replay("crashed-peer", transport)
        # The run returned, so the system quiesced despite the dead peer.
        assert run["quiescent"]
        assert run["received"] == []
        assert run["undeliverable"] == list(range(5))
        assert run["outstanding"] == 0
        assert run["retransmissions"] == expected_retrans

    @pytest.mark.parametrize("transport", ["sr", "gbn"])
    @pytest.mark.parametrize("max_retries", [0, 2, 3])
    def test_give_up_horizon_is_exact(self, transport, max_retries):
        # One ping into a dead peer under deterministic FIFO scheduling.
        # The timers double each round, so the transport abandons the
        # conversation after a bounded number of waiting steps.  This pins
        # the worst-case latency bound any caller of reliable_send can rely
        # on.  A dead peer never acks, so the estimator never gets a
        # sample: the first RTO is the no-sample probe window
        # (2 * base_timeout) and later rounds double from there, capped at
        # max_rto (8 * base_timeout).
        base_timeout = 2
        name = f"dead-peer-{max_retries}"
        run = replay(name, transport)
        if transport == "gbn":
            # Go-back-N's fixed ladder: two extra steps, both wake-ups
            # precede the first timeout.  Selective repeat waits at least
            # as long before it drops the payload.
            horizon = 2 + base_timeout * (2 ** (max_retries + 1) - 1)
            assert run_case(name)["steps"] >= horizon
        else:
            # One extra step: the wider first probe window already covers
            # the second wake-up and the doomed delivery attempt.
            timeout, horizon = 2 * base_timeout, 1
            for _ in range(max_retries + 1):
                horizon += timeout
                timeout = min(8 * base_timeout, timeout * 2)
        assert run["steps"] == horizon
        assert run["retransmissions"] == max_retries
        assert run["undeliverable"] == [0]
        assert run["outstanding"] == 0


class TestWiring:
    def test_wrapping_a_bound_node_is_rejected(self):
        sim = Simulator()
        inner = Sink("x")
        sim.add_node(inner)
        with pytest.raises(SimulationError):
            ReliableNode(inner)

    def test_self_send_is_rejected(self):
        sim = Simulator()
        node = ReliableNode(Burst("a", "a", 1))
        sim.add_node(node)
        sim.schedule_wake("a")
        with pytest.raises(SimulationError):
            sim.run()

    def test_raw_message_to_wrapped_node_is_rejected(self):
        sim = Simulator()
        wrapped = ReliableNode(Sink("b"))
        raw = Burst("a", "b", 1)
        sim.add_node(wrapped)
        sim.add_node(raw)
        sim.schedule_wake("a")
        with pytest.raises(SimulationError):
            sim.run()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReliableNode(Sink("a"), base_timeout=0)
        with pytest.raises(ValueError):
            ReliableNode(Sink("b"), max_retries=-1)
        with pytest.raises(ValueError):
            ReliableNode(Sink("c"), min_rto=0)
        with pytest.raises(ValueError):
            ReliableNode(Sink("d"), min_rto=8, max_rto=4)

    def test_inner_sim_facade_forwards(self):
        sim = Simulator()
        node = ReliableNode(Sink("a"))
        sim.add_node(node)
        # Protocol code reading its environment through self.sim must see
        # the real simulator's attributes.
        assert node.inner.sim.id_bits == sim.id_bits
        assert node.inner.sim.stats is sim.stats
