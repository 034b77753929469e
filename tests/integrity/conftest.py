"""Shared hostile-tenant environment: the recoverable fault bed
with the end-to-end integrity layer on (``CloudParams.integrity``),
plus helpers to compare the endpoint's detection ledger against the
injector's ground truth."""

import pytest

from repro.iscsi.pdu import volume_iqn
from repro.testbed import recovery_params

from tests.conftest import at_rest
from tests.faults.conftest import fault_env

VOL_IQN = volume_iqn("vol1")


def integrity_env(**overrides):
    """The recoverable bed with integrity verification on."""
    return fault_env(recovery_params(integrity=True, **overrides))


def layer(env):
    return env.cloud.integrity


def detected(env):
    """(kind, flow, seq) rows of every endpoint detection, in order."""
    return [(d.kind, d.flow, d.seq) for d in env.cloud.integrity.detections]


def injected(env):
    """(kind, flow, seq) ground-truth rows of every executed
    adversarial action, in order."""
    return [(row["kind"], row["flow"], row["seq"]) for row in env.injector.adversarial]


@pytest.fixture
def env():
    yield from at_rest(integrity_env())
