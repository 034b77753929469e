"""Shared fault-injection environment: the §V-A bed with every recovery
knob on (reliable TCP, iSCSI session recovery) and one obs bus whose
events are the fault/recovery timeline."""

import pytest

from repro.testbed import Testbed, recovery_params

from tests.conftest import at_rest


def fault_env(params=None, **kwargs):
    """A recoverable, instrumented bed (``recovery_params()`` unless
    ``params`` is given)."""
    return Testbed(params or recovery_params(), obs=True, **kwargs)


@pytest.fixture
def env():
    yield from at_rest(fault_env())
