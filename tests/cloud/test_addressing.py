"""Address allocation."""

import ipaddress
import itertools

import pytest

from repro.cloud import AddressAllocator


def test_macs_unique_and_formatted():
    allocator = AddressAllocator()
    macs = [allocator.next_mac() for _ in range(300)]
    assert len(set(macs)) == 300
    for mac in macs:
        parts = mac.split(":")
        assert len(parts) == 6
        assert all(len(p) == 2 for p in parts)


def test_ips_sequential_per_subnet():
    allocator = AddressAllocator()
    assert allocator.next_ip("10.0.0.0/24") == "10.0.0.1"
    assert allocator.next_ip("10.0.0.0/24") == "10.0.0.2"
    assert allocator.next_ip("172.16.1.0/24") == "172.16.1.1"


def test_subnet_exhaustion():
    allocator = AddressAllocator()
    for _ in range(254):  # .1 through .254; .255 is broadcast
        last = allocator.next_ip("192.168.0.0/24")
    assert last == "192.168.0.254"
    with pytest.raises(ValueError, match="exhausted"):
        allocator.next_ip("192.168.0.0/24")


def reference_ips(subnet):
    """The allocation order, spelled with ``ipaddress``: every address
    after the network address, up to (not including) the broadcast."""
    network = ipaddress.ip_network(subnet)
    address = network.network_address + 1
    while address < network.broadcast_address:
        yield str(address)
        address += 1


@pytest.mark.parametrize(
    "subnet, count, carries",
    [
        # the 256th address carries into the next octet; in a /8 the
        # 65,536th carries two
        ("10.0.0.0/8", 65_600, {254: "10.0.0.255", 255: "10.0.1.0", 65_535: "10.1.0.0"}),
        ("172.16.0.0/16", 600, {254: "172.16.0.255", 255: "172.16.1.0"}),
        ("192.168.7.0/24", 254, {253: "192.168.7.254"}),
    ],
)
def test_ips_match_ipaddress(subnet, count, carries):
    allocator = AddressAllocator()
    got = [allocator.next_ip(subnet) for _ in range(count)]
    assert got == list(itertools.islice(reference_ips(subnet), count))
    assert {i: got[i] for i in carries} == carries


@pytest.mark.parametrize("subnet", ["10.1.2.4/30", "172.31.0.0/16"])
def test_exhaustion_at_the_ipaddress_cursor(subnet):
    allocator = AddressAllocator()
    expected = list(reference_ips(subnet))
    assert [allocator.next_ip(subnet) for _ in expected] == expected
    for _ in range(2):  # the cursor does not move past the end
        with pytest.raises(ValueError, match="exhausted"):
            allocator.next_ip(subnet)
    assert allocator.next_ip("10.9.0.0/24") == "10.9.0.1"  # other subnets unaffected
