"""Per-rule fixtures: a positive hit, a suppressed hit, and clean code
for every census rule, and the suppression semantics."""

from __future__ import annotations

import textwrap

from tests.lint.census import RULES, Module, check, control_clocks, retired_switches
from tests.lint.conftest import hits, suppressed

# ---------------------------------------------------------------- wall-clock


def test_wall_clock_hits(lint):
    findings = lint(
        """
        import time
        import datetime

        def stamp():
            a = time.time()
            b = time.perf_counter_ns()
            c = datetime.datetime.now()
            return a, b, c
        """
    )
    assert len(hits(findings, "wall-clock")) == 3


def test_wall_clock_suppressed_and_clean(lint):
    findings = lint(
        """
        import time

        def stamp(sim):
            t = time.time()  # stormlint: ignore[wall-clock]
            return sim.now
        """
    )
    assert not hits(findings, "wall-clock")
    assert len(suppressed(findings, "wall-clock")) == 1


def test_sim_now_is_clean(lint):
    findings = lint("def f(sim):\n    return sim.now + 1.5\n")
    assert not hits(findings, "wall-clock")


# ------------------------------------------------------------- global-random


def test_global_random_import_hits(lint):
    findings = lint("import random\nfrom random import choice\n")
    assert len(hits(findings, "global-random")) == 2


def test_global_random_allowed_in_rng_module(lint):
    findings = lint("import random\n", path="src/repro/sim/rng.py")
    assert not hits(findings, "global-random")


def test_seeded_rng_is_clean(lint):
    findings = lint(
        "from repro.sim.rng import SeededRNG\n\nrng = SeededRNG(7).child('nat')\n"
    )
    assert not hits(findings, "global-random")


# ------------------------------------------------------------ entropy-source


def test_entropy_source_hits(lint):
    findings = lint(
        """
        import os
        import uuid
        import secrets

        def name():
            return uuid.uuid4().hex + os.urandom(4).hex()
        """
    )
    # import secrets + uuid4 call + urandom call
    assert len(hits(findings, "entropy-source")) == 3


def test_entropy_source_suppressed(lint):
    findings = lint(
        """
        import os

        # stormlint: ignore[entropy-source]
        salt = os.urandom(16)
        """
    )
    assert not hits(findings, "entropy-source")
    assert len(suppressed(findings, "entropy-source")) == 1


# ------------------------------------------------------------- set-iteration


def test_set_iteration_hits(lint):
    findings = lint(
        """
        def f(items):
            for x in set(items):
                print(x)
            out = [y for y in {1, 2, 3}]
            return list(set(items)), out
        """
    )
    assert len(hits(findings, "set-iteration")) == 3


def test_set_iteration_clean_forms(lint):
    findings = lint(
        """
        def f(items, s):
            for x in sorted(set(items)):
                print(x)
            ok = 3 in s
            return sorted({1, 2}), ok
        """
    )
    assert not hits(findings, "set-iteration")


# -------------------------------------------------------------- id-sort-key


def test_id_sort_key_hits(lint):
    findings = lint(
        """
        def f(events):
            events.sort(key=id)
            return sorted(events, key=lambda e: (e.t, id(e)))
        """
    )
    assert len(hits(findings, "id-sort-key")) == 2


def test_id_sort_key_clean(lint):
    findings = lint("def f(events):\n    return sorted(events, key=len)\n")
    assert not hits(findings, "id-sort-key")


# ------------------------------------------------------------ unstable-hash


def test_unstable_hash_hit_and_suppression(lint):
    findings = lint(
        """
        def bucket(cookie, n):
            a = hash(cookie) % n
            b = hash(cookie) % n  # stormlint: ignore[unstable-hash]
            return a, b
        """
    )
    assert len(hits(findings, "unstable-hash")) == 1
    assert len(suppressed(findings, "unstable-hash")) == 1


def test_unstable_hash_suppressed_line_above(lint):
    findings = lint(
        """
        def bucket(cookie, n):
            # stormlint: ignore[unstable-hash]
            return hash(cookie) % n
        """
    )
    assert not hits(findings, "unstable-hash")
    assert len(suppressed(findings, "unstable-hash")) == 1


def test_method_named_hash_is_clean(lint):
    findings = lint("def f(obj, x):\n    return obj.hash(x)\n")
    assert not hits(findings, "unstable-hash")


# ------------------------------------------------------------ float-time-eq


def test_float_time_eq_hits(lint):
    findings = lint(
        """
        def f(pkt, flow, now):
            if pkt.timestamp == flow.deadline:
                return 1
            if now != flow.t:
                return 2
            return 0
        """
    )
    assert len(hits(findings, "float-time-eq")) == 2


def test_float_time_eq_sentinel_and_ordering_clean(lint):
    findings = lint(
        """
        def f(pkt, flow):
            never_set = pkt.timestamp == 0.0
            due = pkt.timestamp >= flow.deadline
            same_seq = pkt.seq == flow.seq
            return never_set, due, same_seq
        """
    )
    assert not hits(findings, "float-time-eq")


# ----------------------------------------------------------- assert-control


def test_assert_flagged_in_control_plane(lint):
    source = "def f(x):\n    assert x > 0, 'bad'\n    return x\n"
    control = lint(source, path="src/repro/core/_fixture.py")
    assert len(hits(control, "assert-control")) == 1


def test_assert_allowed_outside_control_plane(lint):
    source = "def f(x):\n    assert x > 0\n    return x\n"
    data_plane = lint(source, path="src/repro/crypto/_fixture.py")
    assert not hits(data_plane, "assert-control")


# ----------------------------------------------------- unkernelled-process


def test_unkernelled_process_hit(lint):
    findings = lint(
        """
        def worker(sim):
            yield sim.timeout(1)

        def main(sim):
            worker(sim)
        """
    )
    assert len(hits(findings, "unkernelled-process")) == 1


def test_kernelled_process_clean(lint):
    findings = lint(
        """
        def worker(sim):
            yield sim.timeout(1)

        def main(sim):
            sim.process(worker(sim))
            proc = worker(sim)
            yield from worker(sim)
            return proc
        """
    )
    assert not hits(findings, "unkernelled-process")


def test_unkernelled_method_and_sim_attr_receiver(lint):
    findings = lint(
        """
        class Relay:
            def run_io(self):
                yield self.sim.timeout(1)

            def start(self):
                self.run_io()

            def start_ok(self):
                self.sim.process(self.run_io())
        """
    )
    flagged = hits(findings, "unkernelled-process")
    assert len(flagged) == 1
    assert "run_io" in flagged[0].message


# ------------------------------------------------------------ registry meta


def test_registry_has_documented_rules():
    assert len(RULES) == 13
    for rule_id, rule in RULES.items():
        assert "Failure scenario" in (rule.__doc__ or ""), f"{rule_id} docstring lacks scenario"


def test_stale_suppression_ids_are_reported():
    """An id that shields no finding is stale, and so is one that names
    no census rule (``*`` included: there is no wildcard)."""
    source = textwrap.dedent(
        """\
        import time


        def f(x):
            t = time.time()  # stormlint: ignore[wall-clock, global-random]
            return x + t  # stormlint: ignore[unstable-hash]
            # stormlint: ignore[*, no-such-rule]
            return hash(x)
        """
    )
    findings, stale = check(Module("src/repro/mod.py", source))
    assert len([f for f in findings if f.suppressed]) == 1
    assert len(hits(findings, "unstable-hash")) == 1
    assert stale == [
        ("src/repro/mod.py", 5, "global-random"),
        ("src/repro/mod.py", 6, "unstable-hash"),
        ("src/repro/mod.py", 7, "*"),
        ("src/repro/mod.py", 7, "no-such-rule"),
    ]


# ------------------------------------------------------------ control-clocks


def test_control_clock_found_in_core_only():
    source = textwrap.dedent(
        """
        class Scaler:
            def run(self):
                while not self.stopped:
                    yield self.sim.timeout(0.5)
                    self.scale()

        class Once:
            def run(self, sim):
                while self.pending:
                    yield sim.timeout(0.5)

        class Flagged:
            def drain(self):
                while not self.stopped:
                    self.step()
        """
    )
    assert list(control_clocks(Module("src/repro/core/x.py", source))) == ["Scaler"]
    assert list(control_clocks(Module("src/repro/net/x.py", source))) == []


# ----------------------------------------------------------- retired-switches


def test_retired_switch_reads_and_keywords_found():
    source = textwrap.dedent(
        """
        from dataclasses import dataclass

        @dataclass
        class CloudParams:
            tcp_reliable: bool = True

        def build(params, sim, stack):
            socket = TcpSocket(sim, stack, reliable=params.tcp_reliable)
            initiator = IscsiInitiator(sim, stack, recover=True)
            relay = ActiveRelay(sim, recover=True)
            return CloudParams(evict_detached=True), socket, initiator, relay
        """
    )
    found = list(retired_switches(Module("src/repro/x.py", source)))
    assert sorted(line for line, _message in found) == [9, 9, 10, 12]
