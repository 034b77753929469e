"""Contract rules: positive / suppressed / clean fixtures for the
subsystem-invariant checks."""

from __future__ import annotations

from tests.lint.conftest import hits, suppressed

OBS_BUS = "src/repro/obs/bus.py"
PLATFORM = "src/repro/core/_fixture.py"


# -- obs-passive -------------------------------------------------------


def test_obs_module_scheduling_events_is_flagged(lint):
    findings = hits(
        lint(
            """
            class Bus:
                def __init__(self, sim):
                    self.sim = sim

                def flush_later(self):
                    self.sim.timeout(0.1)
            """,
            path=OBS_BUS,
        ),
        "obs-passive",
    )
    assert [f.line for f in findings] == [7]
    assert "kernel-schedule" in findings[0].message


def test_obs_runtime_import_outside_obs_is_flagged(lint):
    """Nothing outside ``repro.obs`` is reachable from it, because it
    imports nothing outside itself at runtime."""
    findings = hits(
        lint(
            """
            from repro.obs.metrics import MetricsRegistry
            from repro.sim.rng import SeededRNG
            from ..sim import core
            from . import sinks


            def decide(rng):
                import repro.net.tcp
                return SeededRNG(7)
            """,
            path="src/repro/obs/sampler.py",
        ),
        "obs-passive",
    )
    assert [f.line for f in findings] == [3, 4, 9]
    assert "repro.sim.rng.SeededRNG" in findings[0].message


def test_passive_obs_module_is_clean(lint):
    findings = lint(
        """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.sim import Simulator


        class Bus:
            def __init__(self, sim: "Simulator"):
                self.sim = sim

            def now(self):
                return self.sim.now
        """,
        path=OBS_BUS,
    )
    assert hits(findings, "obs-passive") == []


def test_obs_test_modules_are_exempt(lint):
    findings = lint(
        """
        def test_flush(sim, rng):
            sim.timeout(1)
            rng.random()
        """,
        path="tests/obs/test_bus.py",
    )
    assert hits(findings, "obs-passive") == []


# -- saga-compensated --------------------------------------------------


def test_pre_pivot_step_without_undo_is_flagged(lint):
    findings = hits(
        lint(
            """
            def attach(log):
                return log.begin("attach", "c", [
                    SagaStep("alloc", do_alloc),
                    SagaStep("commit", do_commit, pivot=True),
                ])
            """
        ),
        "saga-compensated",
    )
    assert len(findings) == 1
    assert "'alloc'" in findings[0].message
    assert "undo=" in findings[0].message


def test_compensated_forward_only_and_post_pivot_steps_are_clean(lint):
    findings = lint(
        """
        def attach(log):
            return log.begin("attach", "c", [
                SagaStep("alloc", do_alloc, undo=undo_alloc),
                SagaStep("teardown", do_td, forward_only=True),
                SagaStep("commit", do_commit, pivot=True),
                SagaStep("announce", do_announce),
            ])
        """
    )
    assert hits(findings, "saga-compensated") == []


def test_saga_steps_after_pivot_are_marked(lint):
    """Only a list literal orders steps: a step built on its own is
    before any pivot."""
    findings = lint(
        """
        def build(log):
            late = SagaStep("late", do_d)
            return log.begin("op", "c", [
                SagaStep("alloc", do_a, undo=undo_a),
                SagaStep("commit", do_b, pivot=True),
                SagaStep("announce", do_c),
                late,
            ])
        """
    )
    assert [f.line for f in hits(findings, "saga-compensated")] == [3]


def test_saga_step_forward_only_and_none_undo(lint):
    findings = lint(
        """
        def build():
            return [
                SagaStep("teardown", do_a, forward_only=True),
                SagaStep("shaky", do_b, undo=None),
            ]
        """
    )
    flagged = hits(findings, "saga-compensated")
    assert len(flagged) == 1
    assert "'shaky'" in flagged[0].message  # undo=None is not a compensator


def test_saga_step_suppression(lint):
    findings = lint(
        """
        def attach(log):
            return log.begin("attach", "c", [
                SagaStep("alloc", do_alloc),  # stormlint: ignore[saga-compensated]
            ])
        """
    )
    assert hits(findings, "saga-compensated") == []
    assert len(suppressed(findings, "saga-compensated")) == 1


# -- integrity-chain-registered ---------------------------------------


def test_register_without_unregister_is_flagged(lint):
    findings = hits(
        lint(
            """
            def attach(integrity, flow, chain):
                integrity.register_chain(flow, chain)
            """,
            path=PLATFORM,
        ),
        "integrity-chain-registered",
    )
    assert [f.line for f in findings] == [3]
    assert "unregister_chain" in findings[0].message


def test_register_with_matching_unregister_is_clean(lint):
    findings = lint(
        """
        def attach(integrity, flow, chain):
            integrity.register_chain(flow, chain)


        def detach(integrity, flow):
            integrity.unregister_chain(flow)
        """,
        path=PLATFORM,
    )
    assert hits(findings, "integrity-chain-registered") == []


# -- bounded-tenant-registry ------------------------------------------


def test_tenant_keyed_store_without_evict_is_flagged(lint):
    findings = hits(
        lint(
            """
            class Registry:
                def __init__(self):
                    self._by_tenant = {}

                def attach(self, tenant_id, flow):
                    self._by_tenant[tenant_id] = flow
            """,
            path=PLATFORM,
        ),
        "bounded-tenant-registry",
    )
    assert len(findings) == 1
    assert "_by_tenant" in findings[0].message
    assert "O(ever-attached)" in findings[0].message


def test_store_with_matching_pop_is_clean(lint):
    findings = lint(
        """
        class Registry:
            def __init__(self):
                self._by_tenant = {}

            def attach(self, tenant_id, flow):
                self._by_tenant[tenant_id] = flow

            def detach(self, tenant_id):
                self._by_tenant.pop(tenant_id, None)
        """,
        path=PLATFORM,
    )
    assert hits(findings, "bounded-tenant-registry") == []


def test_del_statement_counts_as_evict(lint):
    findings = lint(
        """
        class Table:
            def __init__(self):
                self._flow_state = {}

            def install(self, flow_id, entry):
                self._flow_state[flow_id] = entry

            def remove(self, flow_id):
                del self._flow_state[flow_id]
        """,
        path=PLATFORM,
    )
    assert hits(findings, "bounded-tenant-registry") == []


def test_evict_through_local_alias_is_clean(lint):
    findings = lint(
        """
        class Saga:
            def __init__(self):
                self._tenant_pending = {}

            def begin(self, tenant_id):
                self._tenant_pending[tenant_id] = object()

            def settle(self, tenant_id):
                pending = self._tenant_pending
                pending.pop(tenant_id, None)
        """,
        path=PLATFORM,
    )
    assert hits(findings, "bounded-tenant-registry") == []


def test_unhinted_containers_are_ignored(lint):
    findings = lint(
        """
        class Config:
            def __init__(self):
                self._options = {}

            def set(self, key, value):
                self._options[key] = value
        """,
        path=PLATFORM,
    )
    assert hits(findings, "bounded-tenant-registry") == []


def test_suppressed_registry_is_reported_as_suppressed(lint):
    findings = lint(
        """
        class Exports:
            def __init__(self):
                self._by_iqn = {}

            def publish(self, iqn, volume):
                # stormlint: ignore[bounded-tenant-registry]
                self._by_iqn[iqn] = volume
        """,
        path=PLATFORM,
    )
    assert hits(findings, "bounded-tenant-registry") == []
    assert len(suppressed(findings, "bounded-tenant-registry")) == 1
