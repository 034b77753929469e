"""Fleet generator: determinism, domain independence and the fold,
O(active) state, HA latency charging."""

import hashlib
import json

import pytest

from repro.core.saga import COMMITTED
from repro.fleet import FleetConfig, FleetRun
from repro.fleet.generator import FleetRunError, run_fleet
from repro.obs.metrics import S
from repro.sim import ShardedKernel, SimulationError
from repro.testbed import assert_at_rest
from repro.workloads.stats import percentile


def _config(**overrides):
    base = dict(
        seed=7,
        shards=3,
        tenants=30,
        sessions=1000,
        arrival_rate=300.0,
        mean_hold=1.0,
        min_hold=0.1,
        ios_per_session=2,
        churn_storms=1,
        storm_size=40,
        ha=True,
    )
    base.update(overrides)
    return FleetConfig(**base)


def test_run_twice_is_byte_identical_at_1k_sessions():
    first = FleetRun(_config())
    first_report = first.run()
    second = FleetRun(_config())
    second_report = second.run()
    assert first.trace_jsonl() == second.trace_jsonl()
    assert first_report == second_report
    for domain in first.domains:
        assert_at_rest(domain.storm)


def test_trace_digest_is_the_folded_traces():
    """The digest is hashed once, from the folded trace; a digest read
    before ``run()`` is the empty trace's and is not kept."""
    run = FleetRun(_config(sessions=100, churn_storms=0))
    early = run.trace_digest()
    assert early == hashlib.blake2s(b"\n").hexdigest()
    report = run.run()
    assert run.trace_digest() == report["trace_digest"] != early
    jsonl = "".join(json.dumps(record, sort_keys=True) + "\n" for record in run.trace)
    assert len(run.trace) == 100 and run.trace_jsonl() == jsonl
    assert report["trace_digest"] == hashlib.blake2s(jsonl.encode("utf-8")).hexdigest()


def test_heavy_tail_and_diurnal_run_twice_identical():
    config = dict(
        arrival="pareto",
        pareto_alpha=1.4,
        diurnal_amplitude=0.6,
        diurnal_period=2.0,
        sessions=400,
    )
    assert run_fleet(_config(**config)) == run_fleet(_config(**config))


def _saga_totals(storm):
    log = storm.intent_log
    resolved = [saga for saga in log.sagas if not saga.incomplete]
    committed = sum(saga.status == COMMITTED for saga in resolved)
    return (
        log.compacted_committed + committed,
        log.compacted_aborted + len(resolved) - committed,
    )


def test_a_domain_alone_produces_what_it_produced_among_siblings():
    """Independence: a domain's records are a function of ``(config,
    domain id)`` alone, so running it without its siblings changes
    nothing it produces."""
    together = FleetRun(_config(sessions=300))
    together.run()
    for i, sibling in enumerate(together.domains):
        fresh = FleetRun(_config(sessions=300))
        alone = fresh.domains[i]
        alone.start(p for p in fresh.plan if p.tenant % 3 == i)
        alone.sim.run()
        assert alone.trace == sibling.trace != []
        assert alone.marks == sibling.marks
        assert alone.sim._sequence == sibling.sim._sequence
        assert _saga_totals(alone.storm) == _saga_totals(sibling.storm)
        assert _saga_totals(alone.storm)[0] >= 2 * alone.completed


def test_all_sessions_complete_and_trace_covers_them():
    run = FleetRun(_config(sessions=300, churn_storms=0))
    report = run.run()
    assert report["sessions"] == 300 == len(run.trace)
    assert report["io_ops"] == sum(p.ios for p in run.plan)
    assert report["events"] == sum(d.sim._sequence for d in run.domains)

    # a session is live over [start, finish); the peak is reached at
    # some start instant
    marks = [mark for domain in run.domains for mark in domain.marks]
    starts = [t for t, step in marks if step > 0]
    finishes = [t for t, step in marks if step < 0]
    assert len(starts) == len(finishes) == 300
    assert report["peak_concurrent"] == max(
        sum(s <= t for s in starts) - sum(f <= t for f in finishes) for t in starts
    )

    # the trace is ordered by attach-completion instant, and every
    # planned session appears in it exactly once
    done = {rec["i"]: t for domain in run.domains for t, rec in domain.trace}
    instants = [done[rec["i"]] for rec in run.trace]
    assert instants == sorted(instants)
    assert sorted(rec["i"] for rec in run.trace) == [p.index for p in run.plan]


def test_detached_fleet_leaves_no_per_session_state():
    """The O(active) guarantee at its fixed point: once every session
    has detached and every tenant gone idle, the churn-scaled
    registries — flows, gateway pairs, NAT/conntrack entries, switch
    rules, SDN journal, per-tenant metric scopes — are all empty."""
    run = FleetRun(_config(sessions=400, mean_hold=0.3))
    run.run()
    for domain in run.domains:
        storm = domain.storm
        assert_at_rest(storm)
        assert storm.flows == {}
        assert storm.gateway_pairs == {}
        assert storm._tenant_flows == {}
        assert storm._mb_refs == {}
        assert storm._tenant_pending == {}
        for host in domain.cloud.compute_hosts.values():
            assert host.stack.nat.cookies() == set()
            assert len(host.stack.nat.conntrack) == 0
        # O(active) closures too: every saga the intent log or a replica
        # log still holds is settled and keeps only its record
        sagas = list(storm.intent_log.sagas)
        for log in storm.ha.logs.values():
            sagas.extend(record.saga for record in log.records.values())
        assert sagas
        for saga in sagas:
            assert not saga.incomplete
            assert saga.steps == [] and saga.state == {} and saga.results == {}
        for name in list(run.metrics._metrics):
            # only unscoped fleet-wide metrics survive; every tenant
            # scope was evicted when its last session detached
            assert name[2] == ""


def test_ha_shipping_rtt_lands_in_attach_latency():
    ha = FleetRun(_config(sessions=200, churn_storms=0, ha=True))
    ha.run()
    plain = FleetRun(_config(sessions=200, churn_storms=0, ha=False))
    plain.run()
    ha_hist = ha.metrics.histogram("fleet.attach.latency")
    plain_hist = plain.metrics.histogram("fleet.attach.latency")
    assert ha_hist.count == plain_hist.count == 200
    # quorum shipping adds a strictly positive round trip to every attach
    assert ha_hist.min > plain_hist.min
    assert ha_hist.mean > plain_hist.mean


def test_attach_percentiles_bound_the_exact_ones():
    """The report's bucketed attach percentiles sit within the
    histogram's error bound of the exact nearest-rank values over the
    trace (both sides rounded as the report rounds)."""
    run = FleetRun(_config(sessions=400))
    report = run.run()
    latencies = [t["lat"] for t in run.trace]
    for p in (50, 99):
        exact = percentile(latencies, p)
        got = report[f"attach_p{p}"]
        assert round(exact, 9) <= got <= round(exact * (1 + 1 / S), 9)


def test_incomplete_run_is_an_error(monkeypatch):
    run = FleetRun(_config(sessions=50, churn_storms=0))
    # a domain that silently drops its plans drains with sessions
    # missing — run() must refuse to report, and say which domain
    monkeypatch.setattr(run.domains[1], "start", lambda plans: None)
    planned = sum(p.tenant % 3 == 1 for p in run.plan)
    with pytest.raises(FleetRunError, match=rf"^drained short, domain 1: 0/{planned} sessions$"):
        run.run()
    # the other domains still ran, and the fold still happened
    assert run.completed == 50 - planned == len(run.trace)
    # a second run() is refused before it re-dispatches anything
    events = run.kernel.events
    with pytest.raises(FleetRunError, match="^already run$"):
        run.run()
    assert run.kernel.events == events


def test_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(shards=0).validate()
    with pytest.raises(SimulationError):
        ShardedKernel(0)
    with pytest.raises(ValueError):
        FleetConfig(arrival="burst").validate()
    with pytest.raises(ValueError):
        FleetConfig(arrival="pareto", pareto_alpha=1.0).validate()
    with pytest.raises(ValueError):
        FleetConfig(diurnal_amplitude=1.5).validate()
    with pytest.raises(ValueError):
        # 300 tenants on one shard exceeds the /16-per-domain cap
        FleetConfig(tenants=300, shards=1).validate()
    FleetConfig(tenants=300, shards=2).validate()
