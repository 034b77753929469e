"""Call-site classification: which calls the census counts as a
wall-clock read, a global-RNG or OS-entropy draw, a kernel-schedule
call or an ``rng`` draw.  Import aliases are resolved, so a renamed
``time`` or a ``from``-imported ``uuid4`` is still seen."""

from __future__ import annotations

from tests.lint.conftest import hits

OBS = "src/repro/obs/_fixture.py"


def test_wall_clock_via_receiver(lint):
    findings = lint(
        """
        import time
        import datetime

        def stamp():
            return time.time(), time.monotonic(), datetime.now(), datetime.date.today()
        """
    )
    assert len(hits(findings, "wall-clock")) == 4


def test_wall_clock_via_from_import(lint):
    findings = lint(
        """
        import time as _t
        from time import perf_counter as pc
        from time import time
        from datetime import datetime

        def stamp():
            a = _t.time()
            b = pc()
            c = time()
            return a, b, c, datetime.now()
        """
    )
    assert [f.line for f in hits(findings, "wall-clock")] == [8, 9, 10, 11]


def test_sim_clock_is_not_wall_clock(lint):
    findings = lint(
        """
        def f(self, sim):
            return sim.now, self.sim.now, self.clock.time_of(sim)
        """
    )
    assert findings == []


def test_global_rng(lint):
    findings = lint(
        """
        import random
        import random as r
        from random import randint

        def draw(xs):
            random.shuffle(xs)
            return random.random() + r.random() + randint(0, 1)
        """
    )
    assert [f.line for f in hits(findings, "global-random")] == [2, 3, 4]


def test_os_entropy(lint):
    findings = lint(
        """
        import os
        import uuid
        from os import urandom
        from uuid import uuid4
        from secrets import token_bytes

        def name():
            return os.urandom(4), uuid.uuid1(), uuid4(), urandom(2), token_bytes(2)
        """
    )
    # four entropy calls and the secrets import
    assert len(hits(findings, "entropy-source")) == 5


def test_kernel_schedule(lint):
    findings = lint(
        """
        def f(self, sim, evt, proc, other):
            sim.timeout(1)
            self.sim.process(None)
            self._sim.disarm_calls(None)
            self.sim.call_at(1.0, print)
            evt.succeed()
            proc.interrupt()
            other.timeout(1)
        """,
        path=OBS,
    )
    assert [f.line for f in hits(findings, "obs-passive")] == [3, 4, 5, 6, 7, 8]


def test_sim_rng_and_obs(lint):
    findings = lint(
        """
        def f(self, bus):
            self.rng.random()
            self._rng.randint(0, 1)
            bus.event("x")
            self.obs.span("y")
        """,
        path=OBS,
    )
    # rng draws break passivity; emitting on the bus is what obs is for
    assert [f.line for f in hits(findings, "obs-passive")] == [3, 4]


def test_unknown_calls_have_no_effects(lint):
    findings = lint(
        """
        def f(self, helper):
            helper()
            self.step_impl()
            return sorted([3, 1])
        """,
        path=OBS,
    )
    assert findings == []
