"""End-to-end data integrity for tenant storage chains (opt-in).

The initiator stamps each iSCSI data PDU with a keyed MAC over
(payload, LBA, tenant nonce, sequence); each chained middle-box adds a
hop mark (a SICS-style traversal proof); the receiving endpoint
verifies payload, chain, and sequence window, turning mid-chain
tampering, replay, reorder, and chain bypass into explicit
``integrity.*`` detections wired into SCSI-level retry and the chain
control loop's fail-closed path.  See DESIGN.md §14 for the threat model.
"""

from repro.integrity.layer import (
    Detection,
    IntegrityError,
    IntegrityLayer,
    TamperBreaker,
)
from repro.integrity.mac import MAC_SIZE, derive_key, keyed_mac
from repro.integrity.tag import HopMark, IntegrityTag

__all__ = [
    "Detection",
    "HopMark",
    "IntegrityError",
    "IntegrityLayer",
    "IntegrityTag",
    "MAC_SIZE",
    "TamperBreaker",
    "derive_key",
    "keyed_mac",
]
