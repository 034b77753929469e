"""Active-relay NVM journal and downstream-failure recovery."""

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


def test_nvm_retains_entries_while_disconnected(env):
    flow, mb = attach_active(env, max_reconnects=0)  # no recovery
    payload = bytes([0x34] * BLOCK_SIZE)

    def scenario():
        event = flow.session.write(0, BLOCK_SIZE, payload)
        yield env.sim.timeout(0.0005)
        pair = kill_downstream(env, mb)
        yield env.sim.timeout(0.5)

    env.run(scenario())
    # without recovery the journaled PDU is never discarded
    assert any(e.direction == "upstream" for e in mb.relay.nvm.values())


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


def test_recovery_gives_up_after_max_attempts(env):
    flow, mb = attach_active(env, max_reconnects=2, reconnect_delay=0.01)
    # make the egress unreachable: remove the relay's path to it by
    # unbinding the egress gateway's conntrack and NAT plus killing the
    # target listener — simplest is to reset and keep resetting via a
    # guard process that kills any new downstream connection
    relay = mb.relay
    first = relay.pairs[0]

    def killer():
        seen = set()
        while True:
            for pair in relay.pairs:
                if pair.client.state == "established" and id(pair.client) not in seen:
                    seen.add(id(pair.client))
                    pair.client.reset()
            yield env.sim.timeout(0.005)

    killer_proc = env.sim.process(killer())

    def scenario():
        yield env.sim.timeout(0.5)

    env.run(scenario())
    killer_proc.interrupt()
    assert first.reconnects == 2
    # the relay abandoned the pair toward the VM after exhausting
    # retries (the VM session then re-logs-in on a fresh pair)
    assert first.abandoned
    assert first.server.state == "reset"
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
