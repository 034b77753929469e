"""Active-relay NVM journal and downstream-failure recovery."""

from functools import partial

from repro.blockdev.disk import BLOCK_SIZE
from repro.core import relay as relay_module
from repro.sim import Process


def attach_active(env, **relay_kw):
    flow, (mb,) = env.attach([env.spec(relay="active")])
    for key, value in relay_kw.items():
        setattr(mb.relay, key, value)
    return flow, mb


def kill_downstream(env, mb):
    """Reset the pseudo-client's connection (storage-path failure)."""
    pair = mb.relay.pairs[0]
    pair.client.reset()
    return pair


def test_recovery_replays_and_io_continues(env):
    flow, mb = attach_active(env)
    payload = bytes([0x77] * BLOCK_SIZE)
    outcome = {}

    def scenario():
        yield flow.session.write(0, BLOCK_SIZE, payload)
        kill_downstream(env, mb)
        yield env.sim.timeout(0.2)  # reconnect delay passes
        yield flow.session.write(BLOCK_SIZE, BLOCK_SIZE, payload)
        outcome["second_write"] = True
        outcome["read"] = yield flow.session.read(0, BLOCK_SIZE)

    env.run(scenario())
    assert outcome["second_write"]
    assert outcome["read"] == payload
    pair = mb.relay.pairs[0]
    assert pair.reconnects == 1
    assert env.volume.read_sync(BLOCK_SIZE, BLOCK_SIZE) == payload


def test_unacked_pdu_is_replayed_after_failure(env):
    flow, mb = attach_active(env)
    payload = bytes([0x12] * BLOCK_SIZE)

    def scenario():
        # issue a write and kill the downstream leg immediately, before
        # the target can acknowledge it
        event = flow.session.write(0, BLOCK_SIZE, payload)
        yield env.sim.timeout(0.0005)
        kill_downstream(env, mb)
        yield event  # completes via the replayed copy

    env.run(scenario())
    env.sim.run()
    assert mb.relay.pdus_replayed >= 1
    assert env.volume.read_sync(0, BLOCK_SIZE) == payload


def test_giving_up_empties_the_journal(env):
    """With no reconnect left the relay resets the VM side, which ends
    the pair: its journal empties, and the write lands through the
    initiator's re-login and re-issue, not through a replay."""
    flow, mb = attach_active(env, max_reconnects=0)  # no recovery
    payload = bytes([0x34] * BLOCK_SIZE)
    journal = {}

    def scenario():
        event = flow.session.write(0, BLOCK_SIZE, payload)
        yield env.sim.timeout(0.0005)
        pair = kill_downstream(env, mb)
        journal["in flight"] = len(mb.relay.nvm)
        yield env.sim.timeout(0.001)
        journal["given up"] = len(mb.relay.nvm)
        assert pair.closed and pair not in mb.relay.pairs
        yield event

    env.run(scenario())
    assert journal == {"in flight": 1, "given up": 0}
    assert flow.session.commands_reissued == 1
    assert mb.relay.pdus_replayed == 0
    assert env.volume.read_sync(0, BLOCK_SIZE) == payload


def test_giving_up_leaves_nothing_to_replay_over_a_newer_write(env):
    """A write orphaned by giving up must not replay over a newer write
    to the same block when a later pair's storage leg fails (the
    re-issue reuses its task tag, so no response would ever retire a
    kept entry)."""
    flow, mb = attach_active(env, max_reconnects=0)
    relay = mb.relay
    older, newer = bytes([0x01]) * BLOCK_SIZE, bytes([0x02]) * BLOCK_SIZE

    def scenario():
        first = flow.session.write(0, BLOCK_SIZE, older)
        yield env.sim.timeout(0.0005)
        kill_downstream(env, mb)  # the relay gives up on this pair
        yield first  # re-logged in and re-issued by the VM
        relay.max_reconnects = 3
        yield flow.session.write(0, BLOCK_SIZE, newer)
        assert env.volume.read_sync(0, BLOCK_SIZE) == newer
        relay.pairs[-1].client.reset()
        yield env.sim.timeout(0.2)  # the relay reconnects and replays

    env.run(scenario())
    assert relay.pairs[-1].reconnects == 1
    assert env.volume.read_sync(0, BLOCK_SIZE) == newer
    assert relay.pdus_replayed == 0


def test_giving_up_mid_burst_keeps_each_blocks_last_completed_write(env):
    """Overlapping writes in flight when the relay gives up: after the
    initiator's re-issue every block holds the write that completed
    last for it, and nothing was replayed."""
    flow, mb = attach_active(env, max_reconnects=0)
    writes = [(0, 0x11), (1, 0x21), (0, 0x12), (2, 0x31), (1, 0x22), (0, 0x13)]
    last_completed = {}

    def completed(block, byte, _event):
        last_completed[block] = byte

    def scenario():
        events = []
        for block, byte in writes:
            event = flow.session.write(block * BLOCK_SIZE, BLOCK_SIZE, bytes([byte]) * BLOCK_SIZE)
            event.callbacks.append(partial(completed, block, byte))
            events.append(event)
        yield env.sim.timeout(0.0006)
        kill_downstream(env, mb)
        for event in events:
            yield event

    env.run(scenario())
    assert sorted(last_completed) == [0, 1, 2]
    for block, byte in last_completed.items():
        assert env.volume.read_sync(block * BLOCK_SIZE, BLOCK_SIZE) == bytes([byte]) * BLOCK_SIZE
    assert mb.relay.pdus_replayed == 0
    assert not [e for e in mb.relay.nvm.values() if e.direction == "upstream"]


def test_vm_initiated_close_does_not_trigger_recovery(env):
    flow, mb = attach_active(env)
    pair = mb.relay.pairs[0]

    def scenario():
        yield flow.session.write(0, BLOCK_SIZE, bytes(BLOCK_SIZE))
        flow.session.reset()  # the VM side tears the flow down
        yield env.sim.timeout(0.5)

    env.run(scenario())
    assert pair.closed
    assert pair.reconnects == 0
    assert pair not in mb.relay.pairs  # closed, both pumps returned


def test_recovery_stops_when_the_vm_side_ends_during_it(env):
    """The VM side ends the pair inside the reconnect delay: the
    recovery must not log a fresh pseudo-client in or replay onto it,
    and the pair must leave the relay's pairs."""
    flow, mb = attach_active(env)
    relay = mb.relay
    clients = []
    new_client = relay._new_client_socket

    def recording(server):
        client = new_client(server)
        clients.append((server, client))
        return client

    relay._new_client_socket = recording

    def scenario():
        yield flow.session.write(0, BLOCK_SIZE, bytes([0x5C]) * BLOCK_SIZE)
        pair = kill_downstream(env, mb)
        replayed = relay.pdus_replayed
        yield env.sim.timeout(0.01)  # inside the 50 ms reconnect delay
        flow.session.reset()
        yield env.sim.timeout(1.0)
        return pair, replayed

    pair, replayed = env.run(scenario())
    assert pair.closed and pair not in relay.pairs
    assert not [c for s, c in clients if s is pair.server and c.state == "established"]
    assert relay.pdus_replayed == replayed


def test_recovery_gives_up_after_max_attempts(env):
    flow, mb = attach_active(env, max_reconnects=2, reconnect_delay=0.01)
    # make the egress unreachable: remove the relay's path to it by
    # unbinding the egress gateway's conntrack and NAT plus killing the
    # target listener — simplest is to reset and keep resetting via a
    # guard process that kills any new downstream connection
    relay = mb.relay
    first = relay.pairs[0]

    killing = [True]

    def killer():
        seen = set()
        while killing[0]:
            for pair in relay.pairs:
                if pair.client.state == "established" and id(pair.client) not in seen:
                    seen.add(id(pair.client))
                    pair.client.reset()
            yield env.sim.timeout(0.005)

    env.sim.process(killer())

    def scenario():
        yield env.sim.timeout(0.5)
        killing[0] = False

    env.run(scenario())
    assert first.reconnects == 2
    # the relay reset the pair toward the VM after exhausting retries
    # (the VM session then re-logs-in on a fresh pair), ending it
    assert first.closed
    assert first.server.state == "reset"
    assert not relay.nvm
    assert first not in relay.pairs  # closed, its pumps and recovery returned


def test_relayed_pdus_start_no_process(env, monkeypatch):
    """Journal retirement is a callback on the peer's delivery event:
    relaying whole and streamed PDUs both ways starts no process, and
    every entry still retires once its bytes are ACKed."""
    flow, mb = attach_active(env)
    started = []
    bootstrap = Process.__init__

    def counting_init(self, sim, generator, name=None):
        started.append(generator.gi_code.co_filename)
        bootstrap(self, sim, generator, name)

    monkeypatch.setattr(Process, "__init__", counting_init)
    payload = bytes([0x3C] * 16 * BLOCK_SIZE)  # many segments: a streamed PDU

    def scenario():
        yield flow.session.write(0, len(payload), payload)
        assert (yield flow.session.read(0, len(payload))) == payload
        yield flow.session.write(0, BLOCK_SIZE, payload[:BLOCK_SIZE])

    relayed = mb.relay.pdus_relayed
    env.run(scenario())
    env.sim.run(until=env.sim.now + 0.1)  # the last ACKs land
    assert mb.relay.pdus_relayed - relayed >= 6
    assert not [path for path in started if path == relay_module.__file__]
    assert not mb.relay.nvm
