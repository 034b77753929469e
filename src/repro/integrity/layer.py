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

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.integrity.mac import derive_key, keyed_mac, u64
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


@dataclass
class _RxWindow:
    """Receive-side sequence state for one (flow, direction)."""

    high: int = 0
    #: accepted sequence numbers inside the window (dict, not set: the
    #: trim below iterates it, and dict order is deterministic)
    seen: dict[int, None] = field(default_factory=dict)


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


def _frame(pdu: Any) -> tuple[str, int, int, bytes]:
    """(op, offset, length, payload) of a stamped PDU, duck-typed so
    this module never imports :mod:`repro.iscsi.pdu` (the PDU module
    must stay import-light; the tag slot there is typed ``Any``)."""
    op = getattr(pdu, "op", None)
    if op is None:
        op = "data-in"  # DataInPdu carries no op field
    data = getattr(pdu, "data", None)
    return (
        str(op),
        int(getattr(pdu, "offset", 0)),
        int(getattr(pdu, "length", 0)),
        data if isinstance(data, bytes) else b"",
    )


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
        self._tx_seq: dict[tuple[str, str], int] = {}
        self._rx: dict[tuple[str, str], _RxWindow] = {}
        self._data_keys: dict[str, bytes] = {}
        self._hop_keys: dict[tuple[str, str], bytes] = {}
        self._nonces: dict[str, bytes] = {}
        self.detections: list[Detection] = []
        self.stamped = 0
        self.verified = 0
        self.retries = 0

    # -- key material --------------------------------------------------

    def data_key(self, flow: str) -> bytes:
        key = self._data_keys.get(flow)
        if key is None:
            key = self._data_keys[flow] = derive_key(self.master_key, "data", flow)
        return key

    def hop_key(self, flow: str, hop: str) -> bytes:
        cached = self._hop_keys.get((flow, hop))
        if cached is None:
            cached = self._hop_keys[(flow, hop)] = derive_key(
                self.master_key, "hop", flow, hop
            )
        return cached

    def nonce(self, flow: str) -> bytes:
        nonce = self._nonces.get(flow)
        if nonce is None:
            nonce = self._nonces[flow] = derive_key(self.master_key, "nonce", flow)[:8]
        return nonce

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
        """Drop every per-flow registry entry — key material, sequence
        counters, replay windows, breaker history — so integrity state
        is O(active flows), not O(ever-attached).  Keys are pure
        derivations of (master key, flow), so a later re-attach of the
        same IQN rebuilds identical material; the ``detections`` audit
        log is deliberately kept."""
        self._data_keys.pop(flow, None)
        self._nonces.pop(flow, None)
        for seq_key in [k for k in self._tx_seq if k[0] == flow]:
            del self._tx_seq[seq_key]
        for rx_key in [k for k in self._rx if k[0] == flow]:
            del self._rx[rx_key]
        for hop_key in [k for k in self._hop_keys if k[0] == flow]:
            del self._hop_keys[hop_key]
        self.breaker.forget(flow)

    def expected_hops(self, flow: str) -> tuple[str, ...]:
        return self.expected.get(flow, ())

    # -- datapath: stamping --------------------------------------------

    def _payload_mac(
        self, key: bytes, origin: str, op: str, offset: int, length: int,
        payload: bytes, flow: str, seq: int,
    ) -> bytes:
        return keyed_mac(
            key, origin.encode("utf-8"), op.encode("utf-8"),
            u64(offset), u64(length), payload, self.nonce(flow), u64(seq),
        )

    def stamp(self, pdu: Any, flow: str, direction: str, origin: str) -> IntegrityTag:
        """Attach a fresh tag; sequence numbers never repeat per
        (flow, direction), so a retried command gets a new stamp."""
        seq = self._tx_seq.get((flow, direction), 0) + 1
        self._tx_seq[(flow, direction)] = seq
        op, offset, length, payload = _frame(pdu)
        tag = IntegrityTag(
            flow=flow,
            seq=seq,
            origin=origin,
            payload_mac=self._payload_mac(
                self.data_key(flow), origin, op, offset, length, payload, flow, seq
            ),
            ticket=keyed_mac(self.data_key(flow), b"tkt", self.nonce(flow), u64(seq)),
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
        prev = tag.hops[-1].mac if tag.hops else tag.ticket
        mark = keyed_mac(self.hop_key(tag.flow, hop), prev, u64(tag.seq))
        if transformed:
            op, offset, length, payload = _frame(pdu)
            tag.payload_mac = self._payload_mac(
                self.hop_key(tag.flow, hop), tag.origin, op, offset, length,
                payload, tag.flow, tag.seq,
            )
        tag.hops.append(HopMark(hop, mark, restamped=transformed))

    # -- datapath: endpoint verification -------------------------------

    def verify(
        self, pdu: Any, flow: str, direction: str, where: str
    ) -> Optional[Detection]:
        """Check one arriving PDU; returns the Detection on violation
        (already recorded/emitted), or None when the PDU is clean."""
        self.verified += 1
        op, offset, length, payload = _frame(pdu)
        tag = getattr(pdu, "tag", None)
        if not isinstance(tag, IntegrityTag) or tag.flow != flow:
            return self._detect("unstamped", flow, direction, where, op, offset, -1)
        seq = tag.seq
        # 1. payload MAC — under the data key, unless a transforming
        # hop re-stamped it (the last restamp wins; its mark's own
        # authenticity is checked by the fold below)
        key = self.data_key(flow)
        for hopmark in tag.hops:
            if hopmark.restamped:
                key = self.hop_key(flow, hopmark.hop)
        expect = self._payload_mac(key, tag.origin, op, offset, length, payload, flow, seq)
        if expect != tag.payload_mac:
            return self._detect("tamper", flow, direction, where, op, offset, seq)
        # 2. traversal proof — the configured chain, in path order
        expected = self.expected_hops(flow)
        want = expected if direction == "upstream" else tuple(reversed(expected))
        if tag.hop_names() != want:
            return self._detect(
                "chain-violation", flow, direction, where, op, offset, seq
            )
        if tag.ticket != keyed_mac(self.data_key(flow), b"tkt", self.nonce(flow), u64(seq)):
            return self._detect(
                "chain-violation", flow, direction, where, op, offset, seq
            )
        prev = tag.ticket
        for hopmark in tag.hops:
            prev = keyed_mac(self.hop_key(flow, hopmark.hop), prev, u64(seq))
            if prev != hopmark.mac:
                return self._detect(
                    "chain-violation", flow, direction, where, op, offset, seq
                )
        # 3. sequence window — duplicates are replays, late arrivals of
        # never-seen sequence numbers are reorders (delivery is in-order
        # per TCP connection, so fresh traffic only moves forward)
        state = self._rx.get((flow, direction))
        if state is None:
            state = self._rx[(flow, direction)] = _RxWindow()
        if seq <= state.high:
            kind = "replay" if seq in state.seen else "reorder"
            return self._detect(kind, flow, direction, where, op, offset, seq)
        state.seen[seq] = None
        state.high = seq
        if len(state.seen) > self.replay_window:
            low = state.high - self.replay_window
            state.seen = {s: None for s in state.seen if s > low}
        return None

    # -- detection plumbing --------------------------------------------

    def _detect(
        self, kind: str, flow: str, direction: str, where: str,
        op: str, offset: int, seq: int,
    ) -> Detection:
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
