"""Selective-repeat transport properties: exactly-once FIFO under
arbitrary seeded fault plans, differential equivalence against the frozen
go-back-N transport it replaced, and the give-up / epoch-fencing
interaction.

Go-back-N left the tree; its per-channel delivered sequences on the
differential mesh, and its outcomes on the burst runs of
``tests/test_reliable_transport.py``, are frozen in
``tests/golden/transport/gbn.json``.  The file can only be regenerated
from a source tree that still has go-back-N (any commit before its
removal), from the repository root::

    PYTHONPATH=<that tree>/src python -m tests.test_transport_v2
"""

import json

import pytest

from repro.faults import CrashSpec, FaultInjector, FaultPlan, ReliableNode
from repro.sim.network import SimNode, Simulator
from repro.sim.scheduler import GlobalFifoScheduler, LifoScheduler, RandomScheduler
from repro.sim.trace import bits_for_ids
from tests.test_reliable_transport import GBN_GOLDEN, RUNS, run_case


class Tagged:
    msg_type = "tagged"

    def __init__(self, tag):
        self.tag = tag

    def bit_size(self, id_bits):
        return bits_for_ids(1, id_bits)


class Chatter(SimNode):
    """Sends ``count`` tagged payloads to each peer in ``targets`` on
    wake-up, interleaved round-robin so several channels are in flight at
    once, and echoes one reply per received payload (reverse traffic for
    the piggyback path)."""

    def __init__(self, node_id, targets, count, echo=True):
        super().__init__(node_id)
        self.targets = targets
        self.count = count
        self.echo = echo
        self.received = []

    def on_wake(self):
        for i in range(self.count):
            for target in self.targets:
                self.send(target, Tagged(i))

    def on_message(self, sender, message):
        self.received.append((sender, message.tag))
        if self.echo and message.tag < 0:
            return  # never echo an echo
        if self.echo:
            self.send(sender, Tagged(-1 - message.tag))


def make_scheduler(name, seed):
    if name == "fifo":
        return GlobalFifoScheduler()
    if name == "lifo":
        return LifoScheduler()
    return RandomScheduler(seed)


def run_mesh(plan, scheduler_name, *, seed, count=8, echo=True, **node_kwargs):
    """Three nodes, all-to-all bursts (+ echoes), under one fault plan."""
    sim = Simulator(
        make_scheduler(scheduler_name, seed),
        faults=FaultInjector(plan, seed=seed),
        channel_discipline="random" if scheduler_name == "random" else "fifo",
        channel_seed=seed,
    )
    ids = ["a", "b", "c"]
    nodes = {}
    for node_id in ids:
        peers = [p for p in ids if p != node_id]
        nodes[node_id] = Chatter(node_id, peers, count, echo=echo)
        sim.add_node(
            ReliableNode(nodes[node_id], base_timeout=16, max_retries=6, **node_kwargs)
        )
        sim.schedule_wake(node_id)
    sim.run()
    return sim, nodes


FAULT_PLANS = [
    FaultPlan(),
    FaultPlan(loss=0.25),
    FaultPlan(duplicate=0.3),
    FaultPlan(loss=0.2, duplicate=0.2),
]


def skip_unfair_lossy(scheduler_name, plan):
    """Loss + pure-LIFO delivery is outside the transport's model.

    A LIFO stack starves old deliveries for as long as *new* events keep
    arriving, and under loss the retransmit timers supply new events
    forever -- so a channel's traffic can make no progress for longer
    than any finite give-up horizon, and the transport rightly concludes
    the peer is unreachable.  Exactly-once delivery is only promised under
    the asynchronous model's fairness assumption (every sent message is *eventually* delivered), which
    fifo/random honour and adversarial LIFO does not."""
    if scheduler_name == "lifo" and plan.loss > 0:
        pytest.skip("LIFO starvation violates eventual delivery under loss")


@pytest.mark.parametrize("scheduler_name", ["fifo", "lifo", "random"])
@pytest.mark.parametrize("plan_index", range(len(FAULT_PLANS)))
@pytest.mark.parametrize("seed", range(3))
class TestExactlyOnceFifoProperty:
    """sr delivers every payload exactly once, per-channel FIFO, under any
    seeded fault plan and delivery order."""

    def test_mesh_delivery(self, scheduler_name, plan_index, seed):
        plan = FAULT_PLANS[plan_index]
        skip_unfair_lossy(scheduler_name, plan)
        sim, nodes = run_mesh(plan, scheduler_name, seed=seed)
        for node in nodes.values():
            for peer in node.targets:
                forward = [tag for src, tag in node.received if src == peer and tag >= 0]
                echoes = [tag for src, tag in node.received if src == peer and tag < 0]
                # Exactly once, in order, on both the burst and echo flows.
                assert forward == list(range(node.count)), (peer, node.node_id)
                assert echoes == [-1 - i for i in range(node.count)], (
                    peer,
                    node.node_id,
                )


def per_channel(nodes):
    """``{node: {peer: [tag, ...]}}``: each channel's delivered sequence."""
    return {
        node_id: {
            peer: [tag for src, tag in node.received if src == peer]
            for peer in node.targets
        }
        for node_id, node in nodes.items()
    }


@pytest.mark.parametrize("scheduler_name", ["fifo", "lifo", "random"])
@pytest.mark.parametrize("plan_index", range(len(FAULT_PLANS)))
@pytest.mark.parametrize("seed", range(2))
class TestDifferentialGbnVsSr:
    """Selective repeat is protocol-indistinguishable from the go-back-N
    transport it replaced: the wrapped nodes see the per-channel payload
    sequences go-back-N delivered on the same run (cost differs; semantics
    must not)."""

    def test_same_delivered_sequences(self, scheduler_name, plan_index, seed):
        plan = FAULT_PLANS[plan_index]
        skip_unfair_lossy(scheduler_name, plan)
        _, nodes_sr = run_mesh(plan, scheduler_name, seed=seed)
        frozen = json.loads(GBN_GOLDEN.read_text())["mesh"]
        # The interleaving across channels is schedule-dependent (the
        # transports time their repairs differently), but each channel's
        # delivered sequence is identical.
        assert per_channel(nodes_sr) == frozen[f"{seed}-{plan_index}-{scheduler_name}"]


class TestGiveUpVsEpochFencing:
    """A superseded incarnation's retry budget must never be charged to
    the live one (the re-keyed channel restarts its give-up clock)."""

    def _sender_with_stuck_channel(self):
        sim = Simulator(
            GlobalFifoScheduler(),
            faults=FaultInjector(FaultPlan(crashes=(CrashSpec("b", at_step=0),))),
        )
        burst = Chatter("a", ["b"], 3, echo=False)
        sender = ReliableNode(burst, base_timeout=4, max_retries=6)
        sim.add_node(sender)
        sim.add_node(ReliableNode(Chatter("b", ["a"], 0)))
        sim.schedule_wake("a")
        # Burn most of the give-up budget against the dead incarnation.
        for _ in range(3000):
            if not sim.step():
                break
            if sender._channels.get("b") and sender._channels["b"].attempts >= 4:
                break
        channel = sender._channels["b"]
        assert channel.attempts >= 4
        assert channel.outstanding
        return sim, sender, channel

    def test_epoch_reset_restarts_the_give_up_clock(self):
        sim, sender, stale = self._sender_with_stuck_channel()
        # The peer restarts under a bumped epoch; the teach-ack re-keys the
        # sender's channel and re-queues the backlog on a fresh one.
        sender._epoch_reset("b", 1)
        fresh = sender._channels["b"]
        assert fresh is not stale
        assert fresh.attempts == 0
        assert fresh.srtt is None  # fresh estimator, no inherited backoff
        assert len(fresh.outstanding) == 3  # the backlog rode over
        # The fresh channel's frames count as first transmissions *now*:
        # its give-up horizon is measured from this instant, not from the
        # stale incarnation's first attempt.
        assert all(step == sim.steps for step in fresh.sent_at.values())
        assert sender.undeliverable == []

    def test_stale_budget_not_inherited_by_retries(self):
        sim, sender, _stale = self._sender_with_stuck_channel()
        sender._epoch_reset("b", 1)
        # Even after more fruitless rounds against the (still dead) new
        # incarnation, the fresh channel gets its full round budget: the
        # combined attempts observed after the reset start over from 1.
        fresh = sender._channels["b"]
        for _ in range(200):
            if not sim.step():
                break
            if fresh.attempts >= 2:
                break
        assert 0 < fresh.attempts <= sender.max_retries


if __name__ == "__main__":
    # Go-back-N was selected with ReliableNode(transport="gbn").
    mesh = {}
    for scheduler_name in ("fifo", "lifo", "random"):
        for plan_index, plan in enumerate(FAULT_PLANS):
            for seed in range(2):
                _, nodes = run_mesh(plan, scheduler_name, seed=seed, transport="gbn")
                mesh[f"{seed}-{plan_index}-{scheduler_name}"] = per_channel(nodes)
    frozen = {
        "mesh": mesh,
        "burst": {name: run_case(name, transport="gbn") for name in RUNS},
    }
    GBN_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GBN_GOLDEN.write_text(json.dumps(frozen, sort_keys=True, indent=0) + "\n")
    print(f"wrote {GBN_GOLDEN}")
