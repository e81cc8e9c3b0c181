"""Unit tests for clients and the f+1-ack acceptance rule."""

from repro.core.client import Acknowledgement, AckRouter, Client, CommandFactory


def ack(replica, command_id="c0-0", height=1, block_hash="h1"):
    return Acknowledgement(replica=replica, command_id=command_id, height=height, block_hash=block_hash)


def test_command_factory_generates_unique_ids():
    factory = CommandFactory(client_id=3)
    commands = factory.batch(5)
    assert len({c.command_id for c in commands}) == 5
    assert all(c.client_id == 3 for c in commands)


def test_client_accepts_after_f_plus_one_matching_acks():
    client = Client(client_id=0, f=2)
    [command] = client.create_commands(1)
    assert not client.is_accepted(command.command_id)
    assert client.on_ack(ack(0, command.command_id)) is False
    assert client.on_ack(ack(1, command.command_id)) is False
    assert client.on_ack(ack(2, command.command_id)) is True
    assert client.is_accepted(command.command_id)


def test_duplicate_acks_from_same_replica_do_not_count_twice():
    client = Client(client_id=0, f=2)
    [command] = client.create_commands(1)
    client.on_ack(ack(0, command.command_id))
    client.on_ack(ack(0, command.command_id))
    assert not client.is_accepted(command.command_id)


def test_acks_for_different_positions_do_not_mix():
    client = Client(client_id=0, f=1)
    [command] = client.create_commands(1)
    client.on_ack(ack(0, command.command_id, height=1, block_hash="a"))
    client.on_ack(ack(1, command.command_id, height=2, block_hash="b"))
    assert not client.is_accepted(command.command_id)
    client.on_ack(ack(2, command.command_id, height=1, block_hash="a"))
    assert client.is_accepted(command.command_id)


def test_stats_and_unaccepted():
    client = Client(client_id=0, f=0)
    commands = client.create_commands(3)
    client.on_ack(ack(0, commands[0].command_id))
    stats = client.stats()
    assert stats.submitted == 3
    assert stats.accepted == 1
    assert stats.pending == 2
    assert set(client.unaccepted_ids()) == {commands[1].command_id, commands[2].command_id}


def test_ack_router_routes_to_owning_client():
    client = Client(client_id=0, f=0)
    [command] = client.create_commands(1)
    router = AckRouter([client])
    router.route(replica=4, command=command, height=2, block_hash="bh")
    assert client.is_accepted(command.command_id)


def test_ack_router_ignores_unknown_client():
    client = Client(client_id=0, f=0)
    other_command = CommandFactory(client_id=9).next_command()
    router = AckRouter([client])
    router.route(replica=1, command=other_command, height=1, block_hash="x")
    assert client.stats().accepted == 0
    assert len(router.clients()) == 1


def test_ack_router_builds_no_ack_once_the_command_is_accepted(monkeypatch):
    client = Client(client_id=0, f=1)
    [command] = client.create_commands(1)
    router = AckRouter([client])
    delivered = []
    on_ack = client.on_ack
    monkeypatch.setattr(client, "on_ack", lambda ack: delivered.append(ack) or on_ack(ack))
    for replica in range(4):
        router.route(replica=replica, command=command, height=1, block_hash="bh")
    assert [a.replica for a in delivered] == [0, 1]
    assert client.accepted == {command.command_id: (1, "bh")}
