"""Every pinned scenario still produces its recorded result, exactly.

This is the one place simulated results are compared with a recording:
kernel fast paths, default-off recovery machinery, passive obs hooks
and control-plane journaling must all leave the loss-free event stream
and every simulated-time figure bit-identical to ``pinned.json``.  The
scenarios, the golden file and the comparison live in
``tests/determinism/pinned.py``; its command line runs the same
``check`` (and the ``SLOW`` fleet tiers this file skips).
"""

import copy

import pytest

from tests.determinism.pinned import PINNED, SCENARIOS, SLOW, check


def test_every_scenario_is_pinned_and_every_pin_has_a_scenario():
    assert sorted(PINNED) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", [n for n in SCENARIOS if n not in SLOW])
def test_matches_pinned(name):
    assert check(name, SCENARIOS[name]()) == []


@pytest.mark.parametrize("name", [n for n in SCENARIOS if n.endswith("_express")])
def test_express_equals_packet_mode_at_the_application_level(name):
    """The fast path may only remove events: every other recorded field
    of ``X_express`` equals packet-mode ``X``.  Since a switch pass is
    one occurrence in packet mode too, a flow with no software forward
    (``tcp_transfer``) costs both modes the same count."""
    packet = PINNED[name.removesuffix("_express")]
    express = PINNED[name]
    app_fields = packet.keys() - {"events"}
    assert {f: express[f] for f in app_fields} == {f: packet[f] for f in app_fields}
    assert express["events"] <= packet["events"]
    assert express["promotions"] > 0


def test_mb_active_fio_run_twice_identical():
    """A fresh testbed is exactly repeatable within one process."""
    run = SCENARIOS["MB-ACTIVE-RELAY/16k/1t"]
    assert run() == run()


def test_check_names_the_scenario_and_field_that_moved():
    perturbed = copy.deepcopy(PINNED)
    perturbed["election"]["events"] += 1
    (line,) = check("election", SCENARIOS["election"](), perturbed)
    assert "election" in line and "events" in line
    assert str(PINNED["election"]["events"]) in line

    assert check("no-such-scenario", {}, PINNED) != []
