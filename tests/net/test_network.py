"""Unit tests for the simulated flooding network."""

import pytest

from repro.energy.meter import EnergyCategory
from repro.eval.runner import DeploymentSpec
from repro.session.builder import compute_delta
from repro.sim.process import Process
from tests.conftest import make_network


class Sink(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.messages = []

    def on_message(self, sender, message):
        self.messages.append((sender, message, self.sim.now))


def build(n=5, k=2, seed=3):
    sim, topology, ledger, network = make_network(n, k, seed)
    sinks = {pid: Sink(sim, pid) for pid in topology.nodes}
    for sink in sinks.values():
        network.register(sink)
    return sim, topology, ledger, network, sinks


def test_broadcast_reaches_every_node_exactly_once():
    sim, _, _, network, sinks = build()
    network.broadcast(0, "hello")
    sim.run_until_idle()
    for pid, sink in sinks.items():
        assert len(sink.messages) == 1, pid
        assert sink.messages[0][0] == 0
        assert sink.messages[0][1] == "hello"


def test_broadcast_delivery_within_diameter_times_hop_delay():
    sim, topology, _, network, sinks = build(n=9, k=2)
    bound = topology.diameter() * network.hop_delay
    network.broadcast(0, "m")
    sim.run_until_idle()
    for sink in sinks.values():
        assert sink.messages[0][2] <= bound + 1e-9


def test_broadcast_charges_transmit_and_receive_energy():
    sim, _, ledger, network, _ = build()
    network.broadcast(0, "x" * 100)
    sim.run_until_idle()
    for pid in range(5):
        meter = ledger.meter(pid)
        assert meter.breakdown.get(EnergyCategory.TRANSMIT) > 0
        assert meter.breakdown.get(EnergyCategory.RECEIVE) > 0


def test_non_relaying_byzantine_nodes_cannot_partition_below_fault_bound():
    # k=2 ring of 7 tolerates 1 non-relaying fault (f < k); the flood still
    # reaches everyone.
    sim, _, _, network, sinks = build(n=7, k=2)
    network.set_relay_policy(1, lambda origin, message: False)
    network.broadcast(0, "m")
    sim.run_until_idle()
    delivered = [pid for pid, sink in sinks.items() if sink.messages]
    assert sorted(delivered) == list(range(7))


def test_origin_relay_policy_does_not_block_own_broadcast():
    sim, _, _, network, sinks = build(n=5, k=2)
    network.set_relay_policy(0, lambda origin, message: False)
    network.broadcast(0, "m")
    sim.run_until_idle()
    assert all(sink.messages for sink in sinks.values())


def test_isolated_node_receives_nothing():
    sim, _, _, network, sinks = build(n=5, k=2)
    network.isolate(3)
    network.broadcast(0, "m")
    sim.run_until_idle()
    assert sinks[3].messages == []


def test_reconnect_restores_delivery():
    sim, _, _, network, sinks = build(n=5, k=2)
    network.isolate(3)
    network.reconnect(3)
    network.broadcast(0, "m")
    sim.run_until_idle()
    assert sinks[3].messages


def test_isolation_is_refcounted():
    """Regression: two overlapping isolations (e.g. overlapping partition
    windows) must both be undone before the node rejoins."""
    sim, _, _, network, sinks = build(n=5, k=2)
    network.isolate(3)
    network.isolate(3)
    network.reconnect(3)
    network.broadcast(0, "first")
    sim.run_until_idle()
    assert sinks[3].messages == [], "one reconnect must not lift two isolations"
    network.reconnect(3)
    network.broadcast(0, "second")
    sim.run_until_idle()
    assert [m[1] for m in sinks[3].messages] == ["second"]


def test_reconnect_without_isolation_is_a_noop():
    sim, _, _, network, sinks = build(n=5, k=2)
    with pytest.warns(RuntimeWarning, match="reconnect.*without a matching isolate"):
        network.reconnect(3)
    network.isolate(3)
    network.broadcast(0, "m")
    sim.run_until_idle()
    assert sinks[3].messages == [], "a stray reconnect must not pre-cancel an isolation"
    assert network.unbalanced_reconnects == 1
    assert network.recovery_metrics() == {"unbalanced_reconnects": 1}


def test_unbalanced_reconnects_counted_but_warned_once():
    import warnings

    sim, _, _, network, _ = build(n=5, k=2)
    with pytest.warns(RuntimeWarning):
        network.reconnect(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise here
        network.reconnect(2)
    assert network.unbalanced_reconnects == 2
    # Balanced pairs never touch the counter.
    network.isolate(4)
    network.reconnect(4)
    assert network.unbalanced_reconnects == 2


def test_relay_denial_is_refcounted_and_restores_base_policy():
    sim, _, _, network, _ = build(n=5, k=2)
    base = lambda origin, message: origin == 0
    network.set_relay_policy(2, base)
    network.deny_relay(2)
    network.deny_relay(2)
    assert network.relay_policies[2](0, "m") is False
    network.allow_relay(2)
    assert network.relay_policies[2](0, "m") is False, "inner denial still active"
    network.allow_relay(2)
    assert network.relay_policies[2] is base
    # With no base policy the entry is removed entirely.
    network.deny_relay(4)
    network.allow_relay(4)
    assert 4 not in network.relay_policies


def test_unbalanced_allow_relay_is_a_noop():
    sim, _, _, network, _ = build(n=5, k=2)
    network.allow_relay(2)
    assert 2 not in network.relay_policies
    network.deny_relay(2)
    assert network.relay_policies[2](0, "m") is False


def test_set_relay_policy_under_active_denial_updates_the_base():
    """A policy installed while a denial window is open becomes the base
    restored when the last window closes — the denial stays on top."""
    sim, _, _, network, _ = build(n=5, k=2)
    network.deny_relay(2)
    replacement = lambda origin, message: True
    network.set_relay_policy(2, replacement)
    assert network.relay_policies[2](0, "m") is False, "denial must stay on top"
    network.allow_relay(2)
    assert network.relay_policies[2] is replacement


def test_unicast_delivers_and_charges_both_endpoints():
    sim, _, ledger, network, sinks = build()
    network.send(0, 3, "direct")
    sim.run_until_idle()
    assert sinks[3].messages == [(0, "direct", pytest.approx(sinks[3].messages[0][2]))]
    assert ledger.meter(0).breakdown.get(EnergyCategory.TRANSMIT) > 0
    assert ledger.meter(3).breakdown.get(EnergyCategory.RECEIVE) > 0
    assert network.stats.unicasts == 1


def test_unicast_to_unknown_destination_rejected():
    sim, _, _, network, _ = build()
    with pytest.raises(ValueError):
        network.send(0, 99, "x")


def test_broadcast_from_unregistered_process_rejected():
    sim, _, _, network, _ = build()
    with pytest.raises(ValueError):
        network.broadcast(99, "x")


def test_multicast_neighbors_is_single_hop():
    sim, topology, _, network, sinks = build(n=7, k=2)
    network.multicast_neighbors(0, "hi")
    sim.run_until_idle()
    delivered = {pid for pid, sink in sinks.items() if sink.messages}
    assert delivered == topology.out_neighbors(0)


def test_stats_count_transmissions_and_bytes():
    sim, _, _, network, _ = build(n=5, k=2)
    network.broadcast(0, "y" * 50)
    sim.run_until_idle()
    # Every node relays once in a flood.
    assert network.stats.physical_transmissions == 5
    assert network.stats.physical_bytes == 5 * 50
    assert network.transmissions_by(0) == 1
    assert network.bytes_sent_by(0) == 50


def test_wire_size_uses_message_attribute():
    class Sized:
        wire_size_bytes = 321

    from repro.net.network import default_wire_size

    assert default_wire_size(Sized()) == 321
    assert default_wire_size("abcd") == 4


def test_duplicate_registration_rejected():
    sim, _, _, network, sinks = build()
    with pytest.raises(ValueError):
        network.register(sinks[0])


def test_compute_delta_covers_observed_flood_latency():
    sim, topology, _, network, sinks = build(n=9, k=2)
    spec = DeploymentSpec(n=9, k=2, hop_delay=network.hop_delay)
    delta = compute_delta(spec, topology)
    network.broadcast(0, "m")
    sim.run_until_idle()
    worst = max(sink.messages[0][2] for sink in sinks.values())
    assert worst <= delta
