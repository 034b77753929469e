"""Unit tests for the integrity primitives: keyed MACs, tags, the
stamp/hop/verify datapath calls, sequence windows, and the breaker."""

from repro.integrity import (
    IntegrityLayer,
    IntegrityTag,
    MAC_SIZE,
    TamperBreaker,
    derive_key,
    keyed_mac,
)
from repro.integrity.tag import HOP_MARK_SIZE, TAG_BASE_SIZE
from repro.iscsi.pdu import DataInPdu, ScsiCommandPdu
from repro.sim import Simulator

KEY = b"k" * 32
FLOW = "iqn.2016-01.org.repro:vol1"


def fresh_layer(**params):
    class P:
        integrity_max_retries = params.get("max_retries", 2)
        integrity_replay_window = params.get("replay_window", 4096)
        integrity_trip_threshold = params.get("threshold", 3)
        integrity_trip_window = params.get("window", 1.0)
        integrity_trip_cooldown = params.get("cooldown", 2.0)

    return IntegrityLayer(Simulator(), P())


def write_pdu(data=b"a" * 4096, offset=0, tag_num=1):
    return ScsiCommandPdu("write", offset, len(data), tag_num, data)


# -- MAC primitives ----------------------------------------------------


def test_keyed_mac_is_deterministic_and_sized():
    assert keyed_mac(KEY, b"x", b"y") == keyed_mac(KEY, b"x", b"y")
    assert len(keyed_mac(KEY, b"x")) == MAC_SIZE


def test_keyed_mac_depends_on_key_and_parts():
    assert keyed_mac(KEY, b"x") != keyed_mac(b"j" * 32, b"x")
    assert keyed_mac(KEY, b"x") != keyed_mac(KEY, b"y")


def test_keyed_mac_framing_resists_concatenation_ambiguity():
    # ("ab","c") and ("a","bc") concatenate identically; the length
    # prefix must still separate them
    assert keyed_mac(KEY, b"ab", b"c") != keyed_mac(KEY, b"a", b"bc")


def test_derive_key_label_separation():
    assert derive_key(KEY, "data", FLOW) == derive_key(KEY, "data", FLOW)
    assert derive_key(KEY, "data", FLOW) != derive_key(KEY, "hop", FLOW)
    assert derive_key(KEY, "data", FLOW) != derive_key(KEY, "data", "other")


def test_tag_wire_size_grows_per_hop():
    layer = fresh_layer()
    pdu = write_pdu()
    tag = layer.stamp(pdu, FLOW, "upstream", "initiator")
    assert tag.wire_size == TAG_BASE_SIZE
    layer.hop_process(pdu, "enc")
    layer.hop_process(pdu, "mon")
    assert tag.wire_size == TAG_BASE_SIZE + 2 * HOP_MARK_SIZE
    # ...and the PDU charges TCP for it
    assert pdu.wire_size == 48 + 4096 + tag.wire_size


# -- stamp / verify round trips ----------------------------------------


def test_clean_roundtrip_no_chain():
    layer = fresh_layer()
    pdu = write_pdu()
    layer.stamp(pdu, FLOW, "upstream", "initiator")
    assert layer.verify(pdu, FLOW, "upstream", "target") is None
    assert layer.detections == []
    assert (layer.stamped, layer.verified) == (1, 1)


def test_sequence_numbers_monotonic_per_direction():
    layer = fresh_layer()
    up1 = layer.stamp(write_pdu(), FLOW, "upstream", "initiator")
    up2 = layer.stamp(write_pdu(), FLOW, "upstream", "initiator")
    down = layer.stamp(DataInPdu(1, 4096, b"b" * 4096), FLOW, "downstream", "target")
    assert (up1.seq, up2.seq, down.seq) == (1, 2, 1)


def test_unstamped_pdu_detected():
    layer = fresh_layer()
    detection = layer.verify(write_pdu(), FLOW, "upstream", "target")
    assert detection is not None and detection.kind == "unstamped"


def test_foreign_flow_stamp_detected():
    layer = fresh_layer()
    pdu = write_pdu()
    layer.stamp(pdu, "iqn.2016-01.org.repro:other", "upstream", "initiator")
    detection = layer.verify(pdu, FLOW, "upstream", "target")
    assert detection is not None and detection.kind == "unstamped"


def test_payload_tamper_detected():
    layer = fresh_layer()
    pdu = write_pdu()
    layer.stamp(pdu, FLOW, "upstream", "initiator")
    pdu.data = b"Z" + pdu.data[1:]
    detection = layer.verify(pdu, FLOW, "upstream", "target")
    assert detection is not None and detection.kind == "tamper"
    assert detection.seq == 1 and detection.flow == FLOW


def test_replay_and_reorder_distinguished():
    layer = fresh_layer()
    first, second = write_pdu(), write_pdu(offset=4096)
    layer.stamp(first, FLOW, "upstream", "initiator")
    layer.stamp(second, FLOW, "upstream", "initiator")
    # seq 2 lands first, so seq 1 is a late never-seen arrival: reorder
    assert layer.verify(second, FLOW, "upstream", "target") is None
    reorder = layer.verify(first, FLOW, "upstream", "target")
    assert reorder is not None and reorder.kind == "reorder"
    # the same seq 2 again has been seen: replay
    replay = layer.verify(second, FLOW, "upstream", "target")
    assert replay is not None and replay.kind == "replay"


def test_replay_window_trims_bounded():
    layer = fresh_layer(replay_window=8)
    for i in range(50):
        pdu = write_pdu(tag_num=i + 1)
        layer.stamp(pdu, FLOW, "upstream", "initiator")
        assert layer.verify(pdu, FLOW, "upstream", "target") is None
    state = layer._flows[FLOW].rx["upstream"]
    assert state.high == 50
    assert len(state.seen) <= 8


# -- traversal proof ---------------------------------------------------


def test_registered_chain_verifies_in_order():
    layer = fresh_layer()
    layer.register_chain(FLOW, ["enc", "mon"])
    pdu = write_pdu()
    layer.stamp(pdu, FLOW, "upstream", "initiator")
    layer.hop_process(pdu, "enc")
    layer.hop_process(pdu, "mon")
    assert layer.verify(pdu, FLOW, "upstream", "target") is None


def test_missing_hop_is_chain_violation():
    layer = fresh_layer()
    layer.register_chain(FLOW, ["enc", "mon"])
    pdu = write_pdu()
    layer.stamp(pdu, FLOW, "upstream", "initiator")
    layer.hop_process(pdu, "enc")  # "mon" bypassed
    detection = layer.verify(pdu, FLOW, "upstream", "target")
    assert detection is not None and detection.kind == "chain-violation"


def test_wrong_hop_order_is_chain_violation():
    layer = fresh_layer()
    layer.register_chain(FLOW, ["enc", "mon"])
    pdu = write_pdu()
    layer.stamp(pdu, FLOW, "upstream", "initiator")
    layer.hop_process(pdu, "mon")
    layer.hop_process(pdu, "enc")
    detection = layer.verify(pdu, FLOW, "upstream", "target")
    assert detection is not None and detection.kind == "chain-violation"


def test_forged_hop_mark_is_chain_violation():
    layer = fresh_layer()
    layer.register_chain(FLOW, ["enc"])
    pdu = write_pdu()
    layer.stamp(pdu, FLOW, "upstream", "initiator")
    layer.hop_process(pdu, "enc")
    pdu.tag.hops[0].mac = b"\x00" * MAC_SIZE  # attacker can't key this
    detection = layer.verify(pdu, FLOW, "upstream", "target")
    assert detection is not None and detection.kind == "chain-violation"


def test_downstream_chain_expected_reversed():
    layer = fresh_layer()
    layer.register_chain(FLOW, ["enc", "mon"])
    pdu = DataInPdu(9, 4096, b"d" * 4096)
    layer.stamp(pdu, FLOW, "downstream", "target")
    layer.hop_process(pdu, "mon")
    layer.hop_process(pdu, "enc")
    assert layer.verify(pdu, FLOW, "downstream", "initiator") is None


def test_transforming_hop_restamps_payload_mac():
    layer = fresh_layer()
    layer.register_chain(FLOW, ["enc"])
    pdu = write_pdu()
    layer.stamp(pdu, FLOW, "upstream", "initiator")
    pdu.data = bytes(b ^ 0x5A for b in pdu.data)  # the cipher rewrote it
    layer.hop_process(pdu, "enc", transformed=True)
    assert pdu.tag.hops[0].restamped
    assert layer.verify(pdu, FLOW, "upstream", "target") is None
    # tampering *after* the re-stamp is still caught
    pdu2 = write_pdu(offset=4096)
    layer.stamp(pdu2, FLOW, "upstream", "initiator")
    pdu2.data = bytes(b ^ 0x5A for b in pdu2.data)
    layer.hop_process(pdu2, "enc", transformed=True)
    pdu2.data = b"Z" + pdu2.data[1:]
    detection = layer.verify(pdu2, FLOW, "upstream", "target")
    assert detection is not None and detection.kind == "tamper"


def test_hop_marks_ignore_unstamped_pdus():
    layer = fresh_layer()
    pdu = write_pdu()
    layer.hop_process(pdu, "enc")  # integrity off for this flow: no-op
    assert pdu.tag is None


# -- the tamper breaker ------------------------------------------------


def test_breaker_trips_on_burst_and_cools_down():
    breaker = TamperBreaker(threshold=3, window=1.0, cooldown=2.0)
    assert not breaker.note(FLOW, 0.1)
    assert not breaker.note(FLOW, 0.2)
    assert breaker.note(FLOW, 0.3)  # third in window: newly tripped
    assert breaker.tripped(FLOW, 0.4)
    assert breaker.trips == 1
    # still tripped inside the cooldown, clear after
    assert breaker.tripped(FLOW, 2.2)
    assert not breaker.tripped(FLOW, 2.4)


def test_breaker_sparse_detections_never_trip():
    breaker = TamperBreaker(threshold=3, window=1.0, cooldown=2.0)
    for i in range(10):
        assert not breaker.note(FLOW, float(i) * 2.0)
    assert breaker.trips == 0


def test_breaker_is_per_flow():
    breaker = TamperBreaker(threshold=2, window=1.0, cooldown=2.0)
    breaker.note("flow-a", 0.1)
    breaker.note("flow-b", 0.2)
    assert not breaker.tripped("flow-a", 0.3)
    breaker.note("flow-a", 0.4)
    assert breaker.tripped("flow-a", 0.5)
    assert not breaker.tripped("flow-b", 0.5)


def test_detection_ledger_and_counters():
    layer = fresh_layer()
    pdu = write_pdu()
    layer.stamp(pdu, FLOW, "upstream", "initiator")
    pdu.data = b"Z" + pdu.data[1:]
    layer.verify(pdu, FLOW, "upstream", "target")
    assert [d.kind for d in layer.detections_for(FLOW)] == ["tamper"]
    assert layer.detections_for("iqn.2016-01.org.repro:other") == []
    assert isinstance(layer.stamp(write_pdu(), FLOW, "upstream", "initiator"), IntegrityTag)


def test_replay_window_evicts_in_place_one_per_pdu():
    window = 64
    layer = fresh_layer(replay_window=window)
    pdus = [write_pdu(data=b"w", offset=i, tag_num=i + 1) for i in range(3 * window)]
    first = None
    previous = 0
    for pdu in pdus:
        layer.stamp(pdu, FLOW, "upstream", "initiator")
        assert layer.verify(pdu, FLOW, "upstream", "target") is None
        seen = layer._flows[FLOW].rx["upstream"].seen
        first = seen if first is None else first
        assert seen is first  # trimmed in place, never rebuilt
        assert len(seen) <= window
        assert len(seen) >= previous  # one accepted, at most one evicted
        previous = len(seen)
    assert list(seen) == list(range(2 * window + 1, 3 * window + 1))
    # the window's edge: its oldest member replays, the one just
    # evicted before it reads as a never-seen late arrival
    replay = layer.verify(pdus[2 * window], FLOW, "upstream", "target")
    reorder = layer.verify(pdus[2 * window - 1], FLOW, "upstream", "target")
    assert (replay.kind, replay.seq) == ("replay", 2 * window + 1)
    assert (reorder.kind, reorder.seq) == ("reorder", 2 * window)


def test_forget_flow_leaves_other_flows_intact():
    other = "iqn.2016-01.org.repro:vol2"
    layer = fresh_layer()
    layer.register_chain(other, ["enc"])
    sent = []
    for flow in (FLOW, other, FLOW, other):
        pdu = write_pdu(offset=4096 * len(sent))
        layer.stamp(pdu, flow, "upstream", "initiator")
        if flow == other:
            layer.hop_process(pdu, "enc")
        assert layer.verify(pdu, flow, "upstream", "target") is None
        sent.append(pdu)
    in_flight = write_pdu(offset=1 << 20)
    layer.stamp(in_flight, other, "upstream", "initiator")
    layer.hop_process(in_flight, "enc")

    layer.forget_flow(FLOW)

    assert FLOW not in layer._flows
    # the other flow's keys verify what it stamped before the detach...
    assert layer.verify(in_flight, other, "upstream", "target") is None
    # ...its window still knows what it accepted...
    replay = layer.verify(sent[3], other, "upstream", "target")
    assert replay is not None and replay.kind == "replay"
    # ...and its sequence counter carries on, while the forgotten flow
    # starts again from 1
    assert layer.stamp(write_pdu(), other, "upstream", "initiator").seq == 4
    assert layer.stamp(write_pdu(), FLOW, "upstream", "initiator").seq == 1


def payload_mac_of(layer, pdu, *, origin="initiator", seq=1, nonce=None):
    """The payload MAC of ``pdu`` under FLOW's data key, optionally with
    the flow's nonce replaced."""
    state = layer._flows.get(FLOW) or layer._open_flow(FLOW)
    if nonce is not None:
        state.nonce = nonce
        state.headers.clear()
    return layer._payload_mac(state, state.data_key, origin, pdu, seq)


def test_payload_mac_covers_every_field():
    base_data = b"p" * 4096
    base = payload_mac_of(fresh_layer(), write_pdu(base_data))
    assert len(base) == MAC_SIZE
    assert payload_mac_of(fresh_layer(), write_pdu(base_data)) == base
    variants = {
        "payload byte": payload_mac_of(fresh_layer(), write_pdu(base_data[:-1] + b"q")),
        "offset": payload_mac_of(fresh_layer(), write_pdu(base_data, offset=512)),
        "length": payload_mac_of(
            fresh_layer(), ScsiCommandPdu("write", 0, 4095, 1, base_data)
        ),
        "seq": payload_mac_of(fresh_layer(), write_pdu(base_data), seq=2),
        "origin": payload_mac_of(fresh_layer(), write_pdu(base_data), origin="target"),
        "op": payload_mac_of(
            fresh_layer(), ScsiCommandPdu("read", 0, 4096, 1, base_data)
        ),
        "nonce": payload_mac_of(
            fresh_layer(), write_pdu(base_data), nonce=b"\x01" * 8
        ),
    }
    for field_name, mac in variants.items():
        assert mac != base, field_name
    assert len(set(variants.values())) == len(variants)


def test_ticket_and_hop_marks_are_the_framed_keyed_mac():
    """The one-buffer ticket and hop-mark MACs equal :func:`keyed_mac`
    over the same length-prefixed parts."""
    layer = fresh_layer()
    layer.register_chain(FLOW, ["enc"])
    pdu = write_pdu()
    tag = layer.stamp(pdu, FLOW, "upstream", "initiator")
    layer.hop_process(pdu, "enc")
    master = layer.master_key
    data_key = derive_key(master, "data", FLOW)
    nonce = derive_key(master, "nonce", FLOW)[:8]
    seq = tag.seq.to_bytes(8, "big")
    assert tag.ticket == keyed_mac(data_key, b"tkt", nonce, seq)
    hop_key = derive_key(master, "hop", FLOW, "enc")
    assert tag.hops[0].mac == keyed_mac(hop_key, tag.ticket, seq)
