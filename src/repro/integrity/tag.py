"""The integrity tag that rides each stamped iSCSI data PDU.

The initiator (or target, for Data-In) attaches an
:class:`IntegrityTag`; every chained middle-box relay appends a
:class:`HopMark` as the PDU passes through.  The endpoint then checks
three independent properties: the payload MAC (tamper), the hop-mark
fold against the registered chain (traversal proof, SICS-style), and
the per-flow sequence window (replay/reorder).

The hop fold is *payload-independent* on purpose: a transforming hop
(encryption) rewrites the payload in flight, and the endpoint cannot
recompute MACs over intermediate payload states it never sees.  So the
chain proof folds only (ticket, seq) under per-hop keys, while a
transforming hop separately re-stamps the payload MAC under its own
hop key and flags the mark ``restamped`` so the verifier knows which
key the final payload MAC is under.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: wire bytes per hop mark: truncated MAC + name/flag framing
HOP_MARK_SIZE = 24
#: wire bytes for the base tag: seq + origin + payload MAC + ticket
TAG_BASE_SIZE = 48


@dataclass
class HopMark:
    """One middle-box's contribution to the traversal proof."""

    hop: str
    mac: bytes
    #: the hop transformed the payload and re-stamped the payload MAC
    #: under its own hop key
    restamped: bool = False


@dataclass
class IntegrityTag:
    """End-to-end stamp carried in a PDU's ``tag`` slot."""

    #: target IQN the stamp is keyed for
    flow: str
    #: per-(flow, direction) sequence number at the stamping endpoint
    seq: int
    #: which endpoint stamped it: "initiator" | "target"
    origin: str
    #: keyed MAC over (op, LBA, length, payload, tenant nonce, seq)
    payload_mac: bytes
    #: seed of the hop-mark fold: MAC(data key; "tkt", nonce, seq)
    ticket: bytes
    hops: list[HopMark] = field(default_factory=list)

    @property
    def wire_size(self) -> int:
        return TAG_BASE_SIZE + HOP_MARK_SIZE * len(self.hops)
