"""The end-to-end integrity layer (opt-in, ``CloudParams.integrity``).

One :class:`IntegrityLayer` per cloud holds the tenant key material,
the per-flow chain registrations, the endpoint sequence windows, and
the detection ledger.  The datapath hooks are three calls:

- :meth:`stamp` — an endpoint (initiator, or target for Data-In)
  attaches an :class:`~repro.integrity.tag.IntegrityTag` before send;
- :meth:`hop_process` — a chained middle-box relay appends its
  :class:`~repro.integrity.tag.HopMark` (and re-stamps the payload MAC
  when its service transformed the payload);
- :meth:`verify` — the receiving endpoint checks payload MAC,
  traversal proof, and sequence window; a violation is recorded as a
  :class:`Detection`, emitted as an ``integrity.*`` obs event/counter,
  demotes any express-path flows, and feeds the per-flow
  :class:`TamperBreaker` that the chain control loop
  (:class:`~repro.core.reconcile.Reconciler`) consults to fail the flow
  closed under a tamper burst.

Everything is deterministic: keys derive from a fixed master secret,
sequence numbers are per-flow counters, and no RNG or wall clock is
touched — two identical runs produce identical detection ledgers.
Like ``Link.faults`` and ``obs``, every hook defaults to ``None``:
with ``integrity=False`` none of this is constructed and the datapath
is bit-identical to an integrity-less build.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from hashlib import blake2s, sha256
from typing import Any, Optional

from repro.integrity.mac import (
    FRAMED_U64,
    MAC_SIZE,
    PAYLOAD_FIELDS,
    U64_MASK,
    derive_key,
    frame,
    hop_mark,
)
from repro.integrity.tag import HopMark, IntegrityTag

DEFAULT_MASTER_KEY = b"repro-integrity-master-key"


class IntegrityError(Exception):
    """An integrity violation the session could not retry away."""


@dataclass
class Detection:
    """One verified integrity violation at an endpoint."""

    when: float
    #: "tamper" | "replay" | "reorder" | "chain-violation" | "unstamped"
    kind: str
    flow: str
    direction: str  # "upstream" | "downstream"
    where: str      # "target" | "initiator"
    op: str
    offset: int
    seq: int


#: SHA-256 of the empty payload (commands that carry no data)
_EMPTY_DIGEST = sha256(b"").digest()


@dataclass
class _RxWindow:
    """Receive-side sequence state for one (flow, direction)."""

    high: int = 0
    #: accepted sequence numbers inside the window, oldest first: they
    #: are accepted in increasing order, so eviction pops the left end
    seen: deque[int] = field(default_factory=deque)


class _Flow:
    """Everything the layer keeps for one flow, in one record so that
    :meth:`IntegrityLayer.forget_flow` drops it in O(1): key material
    derived once, the framed MAC-input prefixes that depend only on the
    flow, and both directions' sequence counters and windows."""

    __slots__ = ("data_key", "nonce", "ticket_prefix", "hop_keys", "headers",
                 "tx_seq", "rx")

    def __init__(self, master_key: bytes, flow: str) -> None:
        self.data_key = derive_key(master_key, "data", flow)
        self.nonce = derive_key(master_key, "nonce", flow)[:8]
        #: the ticket's MAC input up to its seq: ``frame(b"tkt", nonce)``
        self.ticket_prefix = frame(b"tkt", self.nonce)
        self.hop_keys: dict[str, bytes] = {}
        #: (origin, op) -> ``frame(origin, op, nonce)``, the variable-width
        #: head of a payload MAC header
        self.headers: dict[tuple[str, Optional[str]], bytes] = {}
        #: direction -> last sequence number stamped
        self.tx_seq: dict[str, int] = {}
        #: direction -> receive window
        self.rx: dict[str, _RxWindow] = {}

    def ticket(self, framed_seq: bytes) -> bytes:
        """The hop fold's seed, ``keyed_mac(data key, b"tkt", nonce, seq)``."""
        framed = self.ticket_prefix + framed_seq
        return blake2s(framed, key=self.data_key, digest_size=MAC_SIZE).digest()


class TamperBreaker:
    """Counts detections per flow in a sliding window; trips when a
    burst crosses the threshold, and stays tripped for ``cooldown``."""

    def __init__(self, threshold: int, window: float, cooldown: float) -> None:
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self._events: dict[str, list[float]] = {}
        self.trip_until: dict[str, float] = {}
        self.trips = 0

    def note(self, flow: str, now: float) -> bool:
        """Record one detection; True when this one newly trips."""
        times = self._events.setdefault(flow, [])
        times.append(now)
        cutoff = now - self.window
        while times and times[0] < cutoff:
            times.pop(0)
        if len(times) >= self.threshold:
            newly = not self.tripped(flow, now)
            self.trip_until[flow] = now + self.cooldown
            if newly:
                self.trips += 1
            return newly
        return False

    def tripped(self, flow: str, now: float) -> bool:
        until = self.trip_until.get(flow)
        return until is not None and now < until

    def forget(self, flow: str) -> None:
        """Drop the flow's detection history and trip state (detach)."""
        self._events.pop(flow, None)
        self.trip_until.pop(flow, None)


def _op(pdu: Any) -> str:
    """The op a PDU's MAC covers, duck-typed so this module never
    imports :mod:`repro.iscsi.pdu` (the PDU module must stay
    import-light; the tag slot there is typed ``Any``)."""
    op = getattr(pdu, "op", None)
    return "data-in" if op is None else str(op)  # DataInPdu has no op


class IntegrityLayer:
    """Key material, chain registrations, and endpoint verification."""

    def __init__(
        self,
        sim: Any,
        params: Any = None,
        master_key: bytes = DEFAULT_MASTER_KEY,
    ) -> None:
        self.sim = sim
        self.master_key = master_key
        self.max_retries: int = getattr(params, "integrity_max_retries", 2)
        self.replay_window: int = getattr(params, "integrity_replay_window", 4096)
        self.breaker = TamperBreaker(
            getattr(params, "integrity_trip_threshold", 3),
            getattr(params, "integrity_trip_window", 1.0),
            getattr(params, "integrity_trip_cooldown", 2.0),
        )
        #: observability bus (set by ``repro.obs.instrument``); None = off
        self.obs: Any = None
        #: flow IQN -> ordered upstream hop names the endpoint expects
        self.expected: dict[str, tuple[str, ...]] = {}
        #: flow IQN -> its keys, counters and windows (opened on first use)
        self._flows: dict[str, _Flow] = {}
        self.detections: list[Detection] = []
        self.stamped = 0
        self.verified = 0
        self.retries = 0

    # -- per-flow state --------------------------------------------------

    # the miss paths of ``self._flows.get(flow)`` and
    # ``state.hop_keys.get(hop)``, which the datapath probes inline

    def _open_flow(self, flow: str) -> _Flow:
        state = self._flows[flow] = _Flow(self.master_key, flow)
        return state

    def _derive_hop_key(self, state: _Flow, flow: str, hop: str) -> bytes:
        key = state.hop_keys[hop] = derive_key(self.master_key, "hop", flow, hop)
        return key

    # -- chain registration (platform control plane) -------------------

    def register_chain(self, flow: str, hops: list[str]) -> None:
        """Authorized statement of the chain the endpoint must see, in
        upstream order.  Attach and (authorized) reconfigure call this;
        an attacker who re-steers rules without it is caught by the
        traversal proof."""
        self.expected[flow] = tuple(hops)

    def unregister_chain(self, flow: str) -> None:
        self.expected.pop(flow, None)
        self.forget_flow(flow)

    def forget_flow(self, flow: str) -> None:
        """Drop the flow's record — key material, sequence counters,
        replay windows — and its breaker history, so integrity state is
        O(active flows), not O(ever-attached).  Keys are pure
        derivations of (master key, flow), so a later re-attach of the
        same IQN rebuilds identical material; the ``detections`` audit
        log is deliberately kept."""
        self._flows.pop(flow, None)
        self.breaker.forget(flow)

    def expected_hops(self, flow: str) -> tuple[str, ...]:
        return self.expected.get(flow, ())

    # -- datapath: stamping --------------------------------------------

    def _payload_mac(self, state: _Flow, key: bytes, origin: str, pdu: Any, seq: int) -> bytes:
        """Hash-then-MAC over the PDU: one keyed BLAKE2s of
        ``frame(origin, op, nonce) || offset || length || seq`` (64-bit
        big-endian each) followed by the payload's SHA-256."""
        op = getattr(pdu, "op", None)
        header = state.headers.get((origin, op))
        if header is None:
            header = state.headers[(origin, op)] = frame(
                origin.encode("utf-8"), _op(pdu).encode("utf-8"), state.nonce
            )
        data = getattr(pdu, "data", None)
        digest = sha256(data).digest() if isinstance(data, bytes) else _EMPTY_DIGEST
        fields = PAYLOAD_FIELDS.pack(
            getattr(pdu, "offset", 0) & U64_MASK,
            getattr(pdu, "length", 0) & U64_MASK,
            seq & U64_MASK,
        )
        return blake2s(header + fields + digest, key=key, digest_size=MAC_SIZE).digest()

    def stamp(self, pdu: Any, flow: str, direction: str, origin: str) -> IntegrityTag:
        """Attach a fresh tag; sequence numbers never repeat per
        (flow, direction), so a retried command gets a new stamp."""
        state = self._flows.get(flow) or self._open_flow(flow)
        seq = state.tx_seq.get(direction, 0) + 1
        state.tx_seq[direction] = seq
        tag = IntegrityTag(
            flow=flow,
            seq=seq,
            origin=origin,
            payload_mac=self._payload_mac(state, state.data_key, origin, pdu, seq),
            ticket=state.ticket(FRAMED_U64.pack(8, seq & U64_MASK)),
        )
        pdu.tag = tag
        self.stamped += 1
        return tag

    def hop_process(self, pdu: Any, hop: str, transformed: bool = False) -> None:
        """Append this middle-box's mark to a stamped PDU in flight.
        ``transformed`` = the service rewrote the payload, so the
        payload MAC is re-stamped under the hop's own key."""
        tag = getattr(pdu, "tag", None)
        if not isinstance(tag, IntegrityTag):
            return
        flow = tag.flow
        state = self._flows.get(flow) or self._open_flow(flow)
        key = state.hop_keys.get(hop) or self._derive_hop_key(state, flow, hop)
        prev = tag.hops[-1].mac if tag.hops else tag.ticket
        mark = hop_mark(key, prev, FRAMED_U64.pack(8, tag.seq & U64_MASK))
        if transformed:
            tag.payload_mac = self._payload_mac(state, key, tag.origin, pdu, tag.seq)
        tag.hops.append(HopMark(hop, mark, restamped=transformed))

    # -- datapath: endpoint verification -------------------------------

    def verify(
        self, pdu: Any, flow: str, direction: str, where: str
    ) -> Optional[Detection]:
        """Check one arriving PDU; returns the Detection on violation
        (already recorded/emitted), or None when the PDU is clean."""
        self.verified += 1
        tag = getattr(pdu, "tag", None)
        if not isinstance(tag, IntegrityTag) or tag.flow != flow:
            return self._detect("unstamped", flow, direction, where, pdu, -1)
        seq = tag.seq
        state = self._flows.get(flow) or self._open_flow(flow)
        hop_keys = state.hop_keys
        # 1. payload MAC — under the data key, unless a transforming
        # hop re-stamped it (the last restamp wins; its mark's own
        # authenticity is checked by the fold below)
        key = state.data_key
        for hopmark in tag.hops:
            if hopmark.restamped:
                key = hop_keys.get(hopmark.hop) or self._derive_hop_key(state, flow, hopmark.hop)
        if self._payload_mac(state, key, tag.origin, pdu, seq) != tag.payload_mac:
            return self._detect("tamper", flow, direction, where, pdu, seq)
        # 2. traversal proof — the configured chain, in path order, and
        # the fold of (ticket, seq) through every hop's key
        expected = self.expected.get(flow, ())
        want = expected if direction == "upstream" else expected[::-1]
        framed_seq = FRAMED_U64.pack(8, seq & U64_MASK)
        prev = tag.ticket
        if len(tag.hops) != len(want) or prev != state.ticket(framed_seq):
            return self._detect("chain-violation", flow, direction, where, pdu, seq)
        for hopmark, hop in zip(tag.hops, want):
            if hopmark.hop != hop:
                return self._detect("chain-violation", flow, direction, where, pdu, seq)
            key = hop_keys.get(hop) or self._derive_hop_key(state, flow, hop)
            prev = hop_mark(key, prev, framed_seq)
            if prev != hopmark.mac:
                return self._detect("chain-violation", flow, direction, where, pdu, seq)
        # 3. sequence window — duplicates are replays, late arrivals of
        # never-seen sequence numbers are reorders (delivery is in-order
        # per TCP connection, so fresh traffic only moves forward)
        window = state.rx.get(direction)
        if window is None:
            window = state.rx[direction] = _RxWindow()
        seen = window.seen
        if seq <= window.high:
            kind = "replay" if seq in seen else "reorder"
            return self._detect(kind, flow, direction, where, pdu, seq)
        seen.append(seq)
        window.high = seq
        if len(seen) > self.replay_window:
            # keep what lies inside (high - window, high]: the oldest
            # entries are on the left, so eviction is a pop each
            low = seq - self.replay_window
            while seen[0] <= low:
                seen.popleft()
        return None

    # -- detection plumbing --------------------------------------------

    def _detect(
        self, kind: str, flow: str, direction: str, where: str, pdu: Any, seq: int,
    ) -> Detection:
        op = _op(pdu)
        offset = int(getattr(pdu, "offset", 0))
        detection = Detection(
            when=self.sim.now, kind=kind, flow=flow, direction=direction,
            where=where, op=op, offset=offset, seq=seq,
        )
        self.detections.append(detection)
        obs = self.obs
        if obs is not None:
            obs.event(
                f"integrity.{kind}", target=flow, direction=direction,
                where=where, op=op, offset=offset, seq=seq,
            )
            obs.metrics.counter(f"integrity.{kind}", flow).inc()
            obs.metrics.counter("integrity.detections", flow).inc()
        newly_tripped = self.breaker.note(flow, self.sim.now)
        if newly_tripped and obs is not None:
            obs.event("integrity.trip", target=flow, cause=kind)
        # a violated datapath must not stay on the analytic fast path
        express = getattr(self.sim, "express", None)
        if express is not None:
            express.demote_all("integrity")
        return detection

    def tripped(self, flow: str) -> bool:
        """Is this flow's tamper breaker currently tripped?  Consulted
        by the :class:`~repro.core.reconcile.Reconciler` loop to hold
        the flow fail-closed."""
        return self.breaker.tripped(flow, self.sim.now)

    def detections_for(self, flow: str) -> list[Detection]:
        return [d for d in self.detections if d.flow == flow]
