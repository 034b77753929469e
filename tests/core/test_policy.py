"""Tenant policy schema, parsing, and policy-driven deployment."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core.policy import (
    ChainPolicy,
    PolicyError,
    ServiceSpec,
    TenantPolicy,
    parse_policy,
)

from tests.core.conftest import StormEnv


def sample_policy_dict():
    return {
        "tenant": "acme",
        "services": [
            {"name": "enc", "kind": "xor", "relay": "active", "vcpus": 2},
            {"name": "fwd", "kind": "noop", "relay": "fwd"},
        ],
        "chains": [{"vm": "vm1", "volume": "vol1", "chain": ["fwd", "enc"]}],
    }


def test_parse_valid_policy():
    policy = parse_policy(sample_policy_dict())
    assert policy.tenant == "acme"
    assert [s.name for s in policy.services] == ["enc", "fwd"]
    assert policy.chains[0].chain == ["fwd", "enc"]
    assert policy.service("enc").relay == "active"


def test_parse_rejects_missing_tenant():
    bad = sample_policy_dict()
    del bad["tenant"]
    with pytest.raises(PolicyError, match="malformed"):
        parse_policy(bad)


def test_parse_rejects_unknown_chain_service():
    bad = sample_policy_dict()
    bad["chains"][0]["chain"] = ["nonexistent"]
    with pytest.raises(PolicyError, match="unknown"):
        parse_policy(bad)


def test_validate_rejects_bad_relay():
    spec = ServiceSpec(name="x", kind="noop", relay="teleport")
    with pytest.raises(PolicyError, match="relay"):
        spec.validate()


def test_validate_rejects_duplicate_service_names():
    policy = TenantPolicy(
        tenant="t",
        services=[ServiceSpec("a", "noop"), ServiceSpec("a", "noop")],
    )
    with pytest.raises(PolicyError, match="duplicate"):
        policy.validate()


def test_validate_rejects_zero_vcpus():
    with pytest.raises(PolicyError, match="vcpus"):
        ServiceSpec("a", "noop", vcpus=0).validate()


def test_deploy_policy_end_to_end():
    env = StormEnv()
    policy = parse_policy(sample_policy_dict())

    def deploy():
        flows = yield env.sim.process(env.storm.deploy_policy(policy))
        return flows

    flows = env.run(deploy())
    assert len(flows) == 1
    flow = flows[0]
    assert [mb.name.split("-")[2] for mb in flow.middleboxes] == ["fwd", "enc"]
    # I/O through the policy-deployed chain round-trips
    payload = bytes([9] * BLOCK_SIZE)
    result = {}

    def io():
        yield flow.session.write(0, BLOCK_SIZE, payload)
        result["data"] = yield flow.session.read(0, BLOCK_SIZE)

    env.run(io())
    assert result["data"] == payload
    # the xor box really encrypted at rest
    assert env.volume.read_sync(0, BLOCK_SIZE) != payload


def test_deploy_policy_unknown_tenant():
    env = StormEnv()
    policy = TenantPolicy(tenant="ghost")

    def deploy():
        yield env.sim.process(env.storm.deploy_policy(policy))

    with pytest.raises(PolicyError, match="unknown tenant"):
        env.run(deploy())


def committed(env):
    return {
        name: (host.committed_vcpus, host.committed_memory_mb)
        for name, host in env.cloud.compute_hosts.items()
    }


@pytest.mark.parametrize(
    "chains, error",
    [
        # the chain names a VM that does not exist
        ([ChainPolicy("no-such-vm", "vol1", ["a", "b"])], PolicyError),
        # the first chain attaches, the second one's volume is missing
        (
            [ChainPolicy("vm1", "vol1", ["a"]), ChainPolicy("vm1", "no-such-vol", ["b"])],
            KeyError,
        ),
    ],
    ids=["unknown-vm", "second-attach-fails"],
)
def test_failed_deploy_leaves_nothing_behind(env, chains, error):
    """A deploy that fails part-way returns every box it provisioned
    (and detaches every flow it attached) before raising."""
    before = committed(env)
    policy = TenantPolicy(
        tenant="acme",
        services=[ServiceSpec("a", "noop", relay="fwd"), ServiceSpec("b", "noop", relay="fwd")],
        chains=chains,
    )

    def deploy():
        yield env.sim.process(env.storm.deploy_policy(policy))

    with pytest.raises(error):
        env.run(deploy())
    assert env.storm.middleboxes == {}
    assert env.storm.flows == []
    assert committed(env) == before


def test_deploy_policy_unknown_kind():
    env = StormEnv()
    with pytest.raises(PolicyError, match="unknown service kind"):
        env.storm.provision_middlebox(env.tenant, ServiceSpec("s", "warp-drive"))


def test_placement_respected():
    env = StormEnv()
    spec = ServiceSpec("pinned", "noop", relay="fwd", placement="compute3")
    mb = env.storm.provision_middlebox(env.tenant, spec)
    assert mb.host_name == "compute3"
