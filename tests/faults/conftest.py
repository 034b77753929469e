"""Shared fault-injection environment: the §V-A bed with one obs bus
whose events are the fault/recovery timeline."""

import pytest

from repro.testbed import Testbed

from tests.conftest import at_rest


def fault_env(params=None, **kwargs):
    """An instrumented bed."""
    return Testbed(params, obs=True, **kwargs)


@pytest.fixture
def env():
    yield from at_rest(fault_env())
