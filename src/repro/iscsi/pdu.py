"""iSCSI protocol data units.

Every PDU has a 48-byte basic header segment; write commands carry
immediate data and Data-In PDUs carry read payloads.  ``wire_size``
is what TCP charges for the transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

BHS_SIZE = 48
ISCSI_PORT = 3260


def volume_iqn(volume_name: str) -> str:
    """OpenStack-style one-target-per-volume IQN."""
    return f"iqn.2016-01.org.repro:{volume_name}"


@dataclass
class LoginRequestPdu:
    initiator_iqn: str
    target_iqn: str
    #: trace context (:class:`repro.obs.TraceContext`) — joins the wire
    #: transfer of this PDU to a request's span tree; None when off
    ctx: Any = field(default=None, repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        return BHS_SIZE + len(self.initiator_iqn) + len(self.target_iqn)


@dataclass
class LoginResponsePdu:
    target_iqn: str
    status: str  # "success" | "target-not-found"
    ctx: Any = field(default=None, repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        return BHS_SIZE


@dataclass
class ScsiCommandPdu:
    op: str  # "read" | "write"
    offset: int
    length: int
    task_tag: int
    data: Optional[bytes] = None  # immediate data for writes
    ctx: Any = field(default=None, repr=False, compare=False)
    #: end-to-end integrity stamp (:class:`repro.integrity.IntegrityTag`)
    #: riding the PDU as an AHS extension; None when integrity is off
    tag: Any = field(default=None, repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        size = BHS_SIZE + (self.length if self.op == "write" else 0)
        if self.tag is not None:
            size += self.tag.wire_size
        return size


@dataclass
class DataInPdu:
    task_tag: int
    length: int
    data: Optional[bytes] = None
    #: volume byte offset the data came from — lets positional ciphers
    #: (CTR/keystream) decrypt read payloads without per-tag state
    offset: int = 0
    ctx: Any = field(default=None, repr=False, compare=False)
    tag: Any = field(default=None, repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        size = BHS_SIZE + self.length
        if self.tag is not None:
            size += self.tag.wire_size
        return size


@dataclass
class ScsiResponsePdu:
    task_tag: int
    status: str  # "good" | "error" | "io-error" | "check-integrity"
    ctx: Any = field(default=None, repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        return BHS_SIZE
