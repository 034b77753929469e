"""Object-storage substrate and StorM object flows."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core.policy import ServiceSpec
from repro.objstore import ObjectStoreClient, ObjectStoreServer
from repro.objstore.client import ObjectStoreDead
from repro.testbed import Testbed

from tests.conftest import at_rest


@pytest.fixture
def env():
    yield from at_rest(Testbed())


def start_server(env, volume_name="objvol", size=2048 * BLOCK_SIZE):
    volume = env.cloud.create_volume(env.tenant, volume_name, size)
    server = ObjectStoreServer(
        env.sim, env.storage.stack, env.storage.storage_iface.ip, volume
    )
    return server, volume


def direct_session(env):
    host = env.cloud.compute_hosts["compute1"]
    client = ObjectStoreClient(env.sim, host.stack, host.storage_iface.ip)

    def connect():
        return (yield env.sim.process(client.connect(env.storage.storage_iface.ip)))

    return env.run(connect())


def test_put_get_roundtrip(env):
    server, _volume = start_server(env)
    session = direct_session(env)
    payload = b"object body " * 100
    result = {}

    def scenario():
        response = yield session.put("photos", "cat.jpg", payload)
        assert response.status == "ok"
        response = yield session.get("photos", "cat.jpg")
        result["get"] = response

    env.run(scenario())
    assert result["get"].status == "ok"
    assert result["get"].data == payload
    assert result["get"].size == len(payload)


def test_get_missing_object(env):
    server, _volume = start_server(env)
    session = direct_session(env)
    result = {}

    def scenario():
        result["r"] = yield session.get("photos", "nope.jpg")

    env.run(scenario())
    assert result["r"].status == "not-found"


def test_delete_and_list(env):
    server, _volume = start_server(env)
    session = direct_session(env)
    result = {}

    def scenario():
        for key in ("a", "b", "c"):
            yield session.put("bucket", key, size=BLOCK_SIZE)
        listing = yield session.list("bucket")
        result["before"] = listing.keys
        response = yield session.delete("bucket", "b")
        assert response.status == "ok"
        listing = yield session.list("bucket")
        result["after"] = listing.keys
        response = yield session.delete("bucket", "b")
        result["double_delete"] = response.status

    env.run(scenario())
    assert result["before"] == ["a", "b", "c"]
    assert result["after"] == ["a", "c"]
    assert result["double_delete"] == "not-found"


def test_overwrite_updates_content(env):
    server, _volume = start_server(env)
    session = direct_session(env)
    result = {}

    def scenario():
        yield session.put("b", "k", b"version-1")
        yield session.put("b", "k", b"version-2!")
        result["r"] = yield session.get("b", "k")

    env.run(scenario())
    assert result["r"].data == b"version-2!"


def test_server_capacity_exhaustion(env):
    server, volume = start_server(env, size=4 * BLOCK_SIZE)
    session = direct_session(env)
    result = {}

    def scenario():
        first = yield session.put("b", "fits", size=3 * BLOCK_SIZE)
        second = yield session.put("b", "does-not", size=3 * BLOCK_SIZE)
        result["statuses"] = (first.status, second.status)

    env.run(scenario())
    assert result["statuses"] == ("ok", "error")


def test_session_reset_fails_pending(env):
    server, _volume = start_server(env)
    session = direct_session(env)
    outcome = {}

    def scenario():
        event = session.put("b", "k", size=64 * BLOCK_SIZE)
        session.socket.reset()
        try:
            yield event
        except ObjectStoreDead:
            outcome["failed"] = True

    env.run(scenario())
    assert outcome == {"failed": True}
    with pytest.raises(ObjectStoreDead):
        session.get("b", "k")


# -- StorM object flows ------------------------------------------------------


def spliced_object_flow(env, specs):
    server, volume = start_server(env)
    mbs = [env.storm.provision_middlebox(env.tenant, s) for s in specs]

    def attach():
        return (
            yield env.sim.process(
                env.storm.attach_object_session(
                    env.tenant,
                    env.vm,
                    env.storage.storage_iface.ip,
                    mbs,
                    ingress_host=env.cloud.compute_hosts["compute2"],
                    egress_host=env.cloud.compute_hosts["compute4"],
                )
            )
        )

    flow = env.run(attach())
    return flow, mbs, server, volume


def test_spliced_object_flow_roundtrip(env):
    spec = ServiceSpec("objfwd", "noop", relay="fwd", placement="compute3")
    flow, (mb,), server, _volume = spliced_object_flow(env, [spec])
    seen = []
    mb.stack.packet_taps.append(lambda p, i: seen.append(p))
    payload = b"spliced object" * 50
    result = {}

    def scenario():
        yield flow.session.put("b", "key", payload)
        result["r"] = yield flow.session.get("b", "key")

    env.run(scenario())
    assert result["r"].data == payload
    assert seen, "object traffic never crossed the middle-box"
    # steering rules were narrowed to the object flow's port
    rules = env.cloud.sdn.rules_for_cookie(flow.cookie)
    assert rules
    assert all(8080 in (r.src_port, r.dst_port) for _s, r in rules)


def test_object_encryption_middlebox(env):
    spec = ServiceSpec(
        "objcrypt", "object-encryption", relay="active", placement="compute3"
    )
    flow, (mb,), server, volume = spliced_object_flow(env, [spec])
    payload = b"secret object contents" * 40
    result = {}

    def scenario():
        yield flow.session.put("vault", "doc", payload)
        result["r"] = yield flow.session.get("vault", "doc")

    env.run(scenario())
    # transparent to the client...
    assert result["r"].data == payload
    # ...ciphertext at rest on the object volume
    extent = server._index[("vault", "doc")]
    stored = volume.read_sync(extent.offset, BLOCK_SIZE)
    assert not stored.startswith(payload[:16])
    assert mb.service.objects_encrypted == 1
    assert mb.service.objects_decrypted == 1


def test_object_logger_records_operations(env):
    spec = ServiceSpec("objlog", "object-logger", relay="active", placement="compute3")
    flow, (mb,), server, _volume = spliced_object_flow(env, [spec])

    def scenario():
        yield flow.session.put("b", "one", b"x" * 100)
        yield flow.session.get("b", "one")
        yield flow.session.put("b", "two", b"y" * 100)

    env.run(scenario())
    ops = [(op, bucket, key) for _t, op, bucket, key in mb.service.log]
    assert ops == [("put", "b", "one"), ("get", "b", "one"), ("put", "b", "two")]
