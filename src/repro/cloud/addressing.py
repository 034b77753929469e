"""MAC and IP allocation for the simulated datacenter."""

from __future__ import annotations

import ipaddress


class AddressAllocator:
    """Hands out unique MACs and per-subnet IPs."""

    def __init__(self):
        self._mac_counter = 0
        #: subnet -> [next address, broadcast address], as integers;
        #: each subnet string is parsed once, on its first allocation
        self._ip_cursors: dict[str, list[int]] = {}

    def next_mac(self, prefix: str = "02:00") -> str:
        self._mac_counter += 1
        value = self._mac_counter
        octets = [(value >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return f"{prefix}:" + ":".join(f"{o:02x}" for o in octets)

    def next_ip(self, subnet: str) -> str:
        cursor = self._ip_cursors.get(subnet)
        if cursor is None:
            network = ipaddress.IPv4Network(subnet)
            # skip the network address
            cursor = self._ip_cursors[subnet] = [
                int(network.network_address) + 1,
                int(network.broadcast_address),
            ]
        address = cursor[0]
        if address >= cursor[1]:
            raise ValueError(f"subnet {subnet} exhausted")
        cursor[0] = address + 1
        return f"{address >> 24}.{(address >> 16) & 255}.{(address >> 8) & 255}.{address & 255}"
