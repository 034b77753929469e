"""Per-rule fixtures: a positive hit, a suppressed hit, and clean code
for every registered rule."""

from __future__ import annotations

import subprocess

from repro.lint.findings import all_rules
from repro.lint.rules_hygiene import TrackedBytecodeRule

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


# ----------------------------------------------------------- mutable-default


def test_mutable_default_hits(lint):
    findings = lint(
        """
        def attach(volume, services=[], opts={}):
            return volume, services, opts

        def spawn(*, queue=list()):
            return queue
        """
    )
    assert len(hits(findings, "mutable-default")) == 3


def test_mutable_default_clean(lint):
    findings = lint(
        """
        def attach(volume, services=None, n=3, name="relay"):
            services = list(services or [])
            return volume, services, n, name
        """
    )
    assert not hits(findings, "mutable-default")


# -------------------------------------------------------------- bare-except


def test_bare_except_hit_and_clean(lint):
    findings = lint(
        """
        def f():
            try:
                g()
            except:
                pass
            try:
                g()
            except ValueError:
                pass
        """
    )
    assert len(hits(findings, "bare-except")) == 1


def test_bare_except_suppressed_line_above(lint):
    findings = lint(
        """
        def f():
            try:
                g()
            # stormlint: ignore[bare-except]
            except:
                pass
        """
    )
    assert not hits(findings, "bare-except")
    assert len(suppressed(findings, "bare-except")) == 1


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


# ---------------------------------------------------------- tracked-bytecode


def test_tracked_bytecode_in_git_repo(tmp_path):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    pyc = tmp_path / "mod.pyc"
    pyc.write_bytes(b"\x00")
    subprocess.run(["git", "add", "-f", "mod.pyc"], cwd=tmp_path, check=True)
    found = list(TrackedBytecodeRule().check_repo(str(tmp_path)))
    assert len(found) == 1
    assert found[0].path == "mod.pyc"
    assert found[0].fingerprint


def test_tracked_bytecode_skips_non_repo(tmp_path):
    (tmp_path / "mod.pyc").write_bytes(b"\x00")
    assert list(TrackedBytecodeRule().check_repo(str(tmp_path))) == []


# ----------------------------------------------------------- direct-eventlog


def test_direct_eventlog_hits(lint):
    findings = lint(
        """
        from repro.obs import EventLog
        import repro.obs.eventlog as ev

        log = EventLog()
        other = ev.EventLog(bus=None)
        """
    )
    assert len(hits(findings, "direct-eventlog")) == 2


def test_direct_eventlog_allows_factory_and_obs_package(lint):
    findings = lint(
        """
        from repro.obs import make_event_log

        log = make_event_log()
        """
    )
    assert not hits(findings, "direct-eventlog")
    inside = lint(
        "log = EventLog(bus=None)\n", path="src/repro/obs/eventlog.py"
    )
    assert not hits(inside, "direct-eventlog")


def test_direct_eventlog_suppression(lint):
    findings = lint(
        "log = EventLog()  # stormlint: ignore[direct-eventlog]\n"
    )
    assert not hits(findings, "direct-eventlog")
    assert len(suppressed(findings, "direct-eventlog")) == 1


# ------------------------------------------------------------ registry meta


def test_registry_has_documented_rules():
    registry = all_rules()
    assert len(registry) >= 18
    families = {cls.family for cls in registry.values()}
    assert families == {"determinism", "safety", "hygiene", "flow", "contract"}
    for rule_id, cls in registry.items():
        assert cls.summary, f"{rule_id} has no summary"
        doc = cls.__doc__ or ""
        assert "Failure scenario" in doc, f"{rule_id} docstring lacks scenario"


def test_wildcard_suppression(lint):
    findings = lint(
        "x = hash('a')  # stormlint: ignore[*]\n"
    )
    assert not hits(findings, "unstable-hash")
    assert len(suppressed(findings, "unstable-hash")) == 1
