"""Shared StorM test environment: the §V-A bed plus an ``xor`` service."""

import pytest

from repro.core import StorageService
from repro.iscsi.pdu import DataInPdu, ScsiCommandPdu
from repro.testbed import Testbed

from tests.conftest import at_rest


class XorService(StorageService):
    """Test cipher: XOR every payload byte with 0x5A."""

    name = "xor"
    cpu_per_byte = 1e-9

    @staticmethod
    def _xor(data: bytes) -> bytes:
        return bytes(b ^ 0x5A for b in data)

    def transform_upstream(self, pdu):
        if isinstance(pdu, ScsiCommandPdu) and pdu.op == "write" and pdu.data is not None:
            pdu.data = self._xor(pdu.data)
        return pdu

    def transform_downstream(self, pdu):
        if isinstance(pdu, DataInPdu) and pdu.data is not None:
            pdu.data = self._xor(pdu.data)
        return pdu


def storm_env(params=None, **kwargs):
    """The §V-A bed with the ``xor`` test service on top of the defaults."""
    bed = Testbed(params, **kwargs)
    bed.storm.register_service("xor", lambda spec, storm: XorService())
    return bed


@pytest.fixture
def env():
    yield from at_rest(storm_env())
