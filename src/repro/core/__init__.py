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
and :mod:`repro.core.saga` journals and runs them.
"""

from repro.core.attribution import AttributionRecord, ConnectionAttributor
from repro.core.middlebox import MiddleBox, StorageService, payload_bytes
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
from repro.core.scaling import MiddleboxAutoscaler, ScalingEvent, resteer_flow
from repro.core.reconcile import Drift, Reconciler
from repro.core.watchdog import ChainWatchdog

__all__ = [
    "AccessRecord",
    "ActiveRelay",
    "AttributionRecord",
    "ChainPolicy",
    "ChainWatchdog",
    "ConnectionAttributor",
    "ControlPlaneNode",
    "ControllerCrashed",
    "Drift",
    "GatewayPair",
    "HaCluster",
    "HaConfig",
    "IntentLog",
    "MiddleboxAutoscaler",
    "QuorumLost",
    "Reconciler",
    "ReplicaLog",
    "Saga",
    "SagaEngine",
    "SagaStep",
    "ScalingEvent",
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
    "payload_bytes",
    "resteer_flow",
]
