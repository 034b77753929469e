"""Hazards in a helper that the simulation domain calls.

These were the fixtures of the deleted whole-program flow rules
(``transitive-wall-clock``, ``transitive-global-rng``,
``unordered-escape``).  Every module the census reads is under
``src/repro``, where the per-file rules already run, so each hazard is
flagged in the helper where it is written; no call chain is needed."""

from __future__ import annotations

from tests.lint.conftest import hits, suppressed

HELPER = "src/repro/util.py"
DOMAIN = "src/repro/sim/core.py"


def test_wall_clock_in_helper_is_flagged_where_written(lint):
    helper = lint(
        """
        import time


        def stamp():
            return time.time()
        """,
        path=HELPER,
    )
    caller = lint(
        """
        from repro.util import stamp


        def kernel_step():
            return stamp()
        """,
        path=DOMAIN,
    )
    assert [f.line for f in hits(helper, "wall-clock")] == [6]
    assert caller == []


def test_wall_clock_direct_in_domain_is_the_per_file_rules_job(lint):
    findings = lint(
        """
        import time


        def kernel_step():
            return time.time()
        """,
        path=DOMAIN,
    )
    assert [f.rule_id for f in findings] == ["wall-clock"]


def test_wall_clock_alias_suppression_at_leaf(lint):
    findings = lint(
        """
        import time


        def stamp():
            return time.time()  # stormlint: ignore[wall-clock]
        """,
        path=HELPER,
    )
    assert hits(findings, "wall-clock") == []
    assert len(suppressed(findings, "wall-clock")) == 1


def test_clean_tree_has_no_flow_findings(lint):
    helper = lint(
        """
        def fmt(x):
            return f"{x:.3f}"
        """,
        path=HELPER,
    )
    caller = lint(
        """
        from repro.util import fmt


        def kernel_step(sim):
            return fmt(sim.now)
        """,
        path=DOMAIN,
    )
    assert helper == caller == []


def test_global_rng_reachable_from_domain(lint):
    findings = lint(
        """
        import random


        def jitter():
            return random.random()
        """,
        path=HELPER,
    )
    assert [f.line for f in hits(findings, "global-random")] == [2]


def test_os_entropy_in_helper_is_flagged(lint):
    findings = lint(
        """
        import uuid


        def token():
            return uuid.uuid4()
        """,
        path=HELPER,
    )
    assert [f.line for f in hits(findings, "entropy-source")] == [6]


def test_rng_module_is_exempt_leaf(lint):
    """The SeededRNG wrapper is the sanctioned home of stdlib random."""
    findings = lint(
        """
        import random


        class SeededRNG:
            def __init__(self, seed):
                self._r = random.Random(seed)
        """,
        path="src/repro/sim/rng.py",
    )
    assert findings == []


def test_set_iteration_reachable_from_domain(lint):
    findings = lint(
        """
        def order(items):
            return list(set(items))
        """,
        path=HELPER,
    )
    assert [f.line for f in hits(findings, "set-iteration")] == [3]
