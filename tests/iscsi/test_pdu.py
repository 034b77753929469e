"""PDU wire-size accounting and helpers."""

from repro.iscsi.pdu import (
    BHS_SIZE,
    DataInPdu,
    LoginRequestPdu,
    LoginResponsePdu,
    ScsiCommandPdu,
    ScsiResponsePdu,
    volume_iqn,
)
from repro.sim import Simulator


def test_write_command_carries_data_on_the_wire():
    write = ScsiCommandPdu("write", 0, 8192, 1)
    assert write.wire_size == BHS_SIZE + 8192


def test_read_command_is_header_only():
    read = ScsiCommandPdu("read", 0, 8192, 2)
    assert read.wire_size == BHS_SIZE


def test_data_in_carries_payload():
    assert DataInPdu(3, 4096).wire_size == BHS_SIZE + 4096


def test_response_is_header_only():
    assert ScsiResponsePdu(4, "good").wire_size == BHS_SIZE


def test_login_sizes_scale_with_names():
    short = LoginRequestPdu("a", "b")
    long = LoginRequestPdu("a" * 50, "b" * 50)
    assert long.wire_size > short.wire_size
    assert LoginResponsePdu("x", "success").wire_size == BHS_SIZE


def test_task_tags_monotone():
    sim = Simulator()
    first, second = next(sim.task_tags), next(sim.task_tags)
    assert second == first + 1
    assert next(Simulator().task_tags) == first  # each run starts over


def test_volume_iqn_format():
    assert volume_iqn("vol1") == "iqn.2016-01.org.repro:vol1"
