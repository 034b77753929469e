"""StorM: the tenant-defined storage middle-box platform.

The paper's three mechanisms, each in its own module:

- **network splicing** — :mod:`repro.core.attribution` (which VM owns
  which iSCSI connection), :mod:`repro.core.splicing` (storage
  gateways + NAT + the atomic volume attach), and
  :mod:`repro.core.steering` (SDN ``mod_dst_mac`` chains, Fig. 3);
- **platform efficiency** — :mod:`repro.core.relay` (the passive-relay
  netfilter hook and the novel split-TCP active relay with immediate
  ACKs and NVM buffering);
- **semantic reconstruction** — :mod:`repro.core.semantics` (block→file
  mapping kept live from intercepted metadata writes).

:mod:`repro.core.policy` defines the tenant policy schema,
:mod:`repro.core.platform` declares the control operations end to end,
:mod:`repro.core.saga` journals and runs them, and
:mod:`repro.core.reconcile` is the one control loop that holds every
flow to its desired chain and every scaling pool
(:mod:`repro.core.scaling`) to its width.
"""

from repro.core.attribution import AttributionRecord, ConnectionAttributor
from repro.core.middlebox import MiddleBox, StorageService
from repro.core.relay import ActiveRelay, PassiveRelay, RelayMode
from repro.core.splicing import GatewayPair, StorageGateway
from repro.core.steering import SteeringChain, build_chain_rules
from repro.core.semantics import AccessRecord, SemanticsEngine
from repro.core.policy import ChainPolicy, PolicyError, ServiceSpec, TenantPolicy, parse_policy
from repro.core.platform import StorM, StorMFlow
from repro.core.ha import HaCluster, HaConfig, ReplicaLog
from repro.core.saga import (
    ControlPlaneNode,
    ControllerCrashed,
    IntentLog,
    QuorumLost,
    Saga,
    SagaEngine,
    SagaStep,
)
from repro.core.scaling import ScalingPool
from repro.core.reconcile import Drift, Reconciler

__all__ = [
    "AccessRecord",
    "ActiveRelay",
    "AttributionRecord",
    "ChainPolicy",
    "ConnectionAttributor",
    "ControlPlaneNode",
    "ControllerCrashed",
    "Drift",
    "GatewayPair",
    "HaCluster",
    "HaConfig",
    "IntentLog",
    "QuorumLost",
    "Reconciler",
    "ReplicaLog",
    "Saga",
    "SagaEngine",
    "SagaStep",
    "ScalingPool",
    "MiddleBox",
    "PassiveRelay",
    "PolicyError",
    "RelayMode",
    "SemanticsEngine",
    "ServiceSpec",
    "SteeringChain",
    "StorM",
    "StorMFlow",
    "StorageGateway",
    "StorageService",
    "TenantPolicy",
    "build_chain_rules",
]
