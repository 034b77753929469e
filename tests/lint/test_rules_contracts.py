"""Contract rules: positive / suppressed / clean fixtures for the
subsystem-invariant checks."""

from __future__ import annotations


def new(result, rule_id):
    return [f for f in result.new if f.rule_id == rule_id]


def suppressed(result, rule_id):
    return [f for f in result.suppressed if f.rule_id == rule_id]


# -- obs-passive -------------------------------------------------------


def test_obs_module_scheduling_events_is_flagged(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/obs/__init__.py": "",
            "src/pkg/obs/bus.py": """\
                class Bus:
                    def __init__(self, sim):
                        self.sim = sim

                    def flush_later(self):
                        self.sim.timeout(0.1)
                """,
        }
    )
    findings = new(result, "obs-passive")
    assert len(findings) == 1
    assert findings[0].path == "src/pkg/obs/bus.py"
    assert "kernel-schedule" in findings[0].message


def test_obs_reaching_sim_rng_through_helper_is_flagged(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/obs/__init__.py": "",
            "src/pkg/util.py": """\
                def salt(rng):
                    return rng.random()
                """,
            "src/pkg/obs/sampler.py": """\
                from pkg.util import salt


                def decide(rng):
                    return salt(rng)
                """,
        },
        select=["obs-passive"],
    )
    findings = new(result, "obs-passive")
    assert len(findings) == 1
    assert findings[0].chain == ("pkg.obs.sampler.decide", "pkg.util.salt")


def test_passive_obs_module_is_clean(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/obs/__init__.py": "",
            "src/pkg/obs/bus.py": """\
                class Bus:
                    def __init__(self, sim):
                        self.sim = sim

                    def now(self):
                        return self.sim.now
                """,
        }
    )
    assert new(result, "obs-passive") == []


def test_obs_test_modules_are_exempt(run_tree):
    result = run_tree(
        {
            "tests/obs/__init__.py": "",
            "tests/obs/test_bus.py": """\
                def test_flush(sim, rng):
                    sim.timeout(1)
                    rng.random()
                """,
        },
        paths=("tests",),
    )
    assert new(result, "obs-passive") == []


# -- saga-compensated --------------------------------------------------


def test_pre_pivot_step_without_undo_is_flagged(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/ops.py": """\
                def attach(log):
                    return log.begin("attach", "c", [
                        SagaStep("alloc", do_alloc),
                        SagaStep("commit", do_commit, pivot=True),
                    ])
                """,
        }
    )
    findings = new(result, "saga-compensated")
    assert len(findings) == 1
    assert "'alloc'" in findings[0].message
    assert "undo=" in findings[0].message


def test_compensated_forward_only_and_post_pivot_steps_are_clean(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/ops.py": """\
                def attach(log):
                    return log.begin("attach", "c", [
                        SagaStep("alloc", do_alloc, undo=undo_alloc),
                        SagaStep("teardown", do_td, forward_only=True),
                        SagaStep("commit", do_commit, pivot=True),
                        SagaStep("announce", do_announce),
                    ])
                """,
        }
    )
    assert new(result, "saga-compensated") == []


def test_saga_step_suppression(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/ops.py": """\
                def attach(log):
                    return log.begin("attach", "c", [
                        SagaStep("alloc", do_alloc),  # stormlint: ignore[saga-compensated]
                    ])
                """,
        }
    )
    assert new(result, "saga-compensated") == []
    assert len(suppressed(result, "saga-compensated")) == 1


# -- integrity-chain-registered ---------------------------------------


def test_register_without_unregister_is_flagged(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/plat.py": """\
                def attach(integrity, flow, chain):
                    integrity.register_chain(flow, chain)
                """,
        }
    )
    findings = new(result, "integrity-chain-registered")
    assert len(findings) == 1
    assert "unregister_chain" in findings[0].message
    assert findings[0].snippet == "integrity.register_chain(flow, chain)"


def test_register_with_matching_unregister_is_clean(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/plat.py": """\
                def attach(integrity, flow, chain):
                    integrity.register_chain(flow, chain)


                def detach(integrity, flow):
                    integrity.unregister_chain(flow)
                """,
        }
    )
    assert new(result, "integrity-chain-registered") == []


def test_integrity_test_modules_are_exempt(run_tree):
    result = run_tree(
        {
            "tests/integrity/__init__.py": "",
            "tests/integrity/test_layer.py": """\
                def test_register(layer):
                    layer.register_chain("f", ["mb"])
                """,
        },
        paths=("tests",),
    )
    assert new(result, "integrity-chain-registered") == []


# -- bounded-tenant-registry ------------------------------------------


def test_tenant_keyed_store_without_evict_is_flagged(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/plat.py": """\
                class Registry:
                    def __init__(self):
                        self._by_tenant = {}

                    def attach(self, tenant_id, flow):
                        self._by_tenant[tenant_id] = flow
                """,
        },
        select=["bounded-tenant-registry"],
    )
    findings = new(result, "bounded-tenant-registry")
    assert len(findings) == 1
    assert "_by_tenant" in findings[0].message
    assert "O(ever-attached)" in findings[0].message


def test_store_with_matching_pop_is_clean(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/plat.py": """\
                class Registry:
                    def __init__(self):
                        self._by_tenant = {}

                    def attach(self, tenant_id, flow):
                        self._by_tenant[tenant_id] = flow

                    def detach(self, tenant_id):
                        self._by_tenant.pop(tenant_id, None)
                """,
        },
        select=["bounded-tenant-registry"],
    )
    assert new(result, "bounded-tenant-registry") == []


def test_del_statement_counts_as_evict(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/plat.py": """\
                class Table:
                    def __init__(self):
                        self._flow_state = {}

                    def install(self, flow_id, entry):
                        self._flow_state[flow_id] = entry

                    def remove(self, flow_id):
                        del self._flow_state[flow_id]
                """,
        },
        select=["bounded-tenant-registry"],
    )
    assert new(result, "bounded-tenant-registry") == []


def test_evict_through_local_alias_is_clean(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/plat.py": """\
                class Saga:
                    def __init__(self):
                        self._tenant_pending = {}

                    def begin(self, tenant_id):
                        self._tenant_pending[tenant_id] = object()

                    def settle(self, tenant_id):
                        pending = self._tenant_pending
                        pending.pop(tenant_id, None)
                """,
        },
        select=["bounded-tenant-registry"],
    )
    assert new(result, "bounded-tenant-registry") == []


def test_unhinted_containers_are_ignored(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/plat.py": """\
                class Config:
                    def __init__(self):
                        self._options = {}

                    def set(self, key, value):
                        self._options[key] = value
                """,
        },
        select=["bounded-tenant-registry"],
    )
    assert new(result, "bounded-tenant-registry") == []


def test_suppressed_registry_is_reported_as_suppressed(run_tree):
    result = run_tree(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/plat.py": """\
                class Exports:
                    def __init__(self):
                        self._by_iqn = {}

                    def publish(self, iqn, volume):
                        # stormlint: ignore[bounded-tenant-registry]
                        self._by_iqn[iqn] = volume
                """,
        },
        select=["bounded-tenant-registry"],
    )
    assert new(result, "bounded-tenant-registry") == []
    assert len(suppressed(result, "bounded-tenant-registry")) == 1


def test_registry_rule_skips_test_modules(run_tree):
    result = run_tree(
        {
            "tests/fleet/__init__.py": "",
            "tests/fleet/test_gen.py": """\
                def test_sessions():
                    by_conn = {}
                    by_conn["c1"] = object()
                """,
        },
        paths=("tests",),
        select=["bounded-tenant-registry"],
    )
    assert new(result, "bounded-tenant-registry") == []
