"""Fleet scale: churn a thousand sessions through independent domains.

Runs the open-loop fleet generator (DESIGN.md §15) — heavy-tailed
arrivals, Zipf tenant skew, a diurnal curve, and two churn storms —
across four independent simulation domains with HA control planes, then
shows the two properties the fleet work pins:

- **determinism**: a second identical run produces a byte-identical
  session trace (same blake2s digest);
- **O(active) state**: once the last session detaches, every
  churn-scaled registry — flows, gateway pairs, NAT/conntrack,
  per-tenant metric scopes — is empty on every domain.

Run:  PYTHONPATH=src python examples/fleet_storm.py
"""

from repro.fleet import FleetConfig, FleetRun


def make_config():
    return FleetConfig(
        seed=11,
        shards=4,
        tenants=48,
        sessions=1000,
        arrival="pareto",          # heavy-tailed inter-arrivals
        pareto_alpha=1.5,
        arrival_rate=250.0,
        zipf_s=1.2,                # a few hot tenants dominate
        diurnal_amplitude=0.5,
        diurnal_period=2.0,
        churn_storms=2,
        storm_size=60,
        mean_hold=1.0,
        min_hold=0.1,
        ios_per_session=2,
        ha=True,                   # attach latency includes quorum RTTs
    )


def main():
    run = FleetRun(make_config())
    report = run.run()

    print("-- fleet report ------------------------------------------")
    print(f"  sessions      {report['sessions']:>8d}  "
          f"across {report['tenants']} tenants on {report['shards']} shards")
    print(f"  peak active   {report['peak_concurrent']:>8d}  concurrent sessions")
    print(f"  kernel events {report['events']:>8d}  "
          f"over {report['sim_elapsed']:.2f} simulated seconds")
    print(f"  attach p50    {report['attach_p50'] * 1e3:8.2f}  ms "
          "(incl. HA quorum shipping)")
    print(f"  attach p99    {report['attach_p99'] * 1e3:8.2f}  ms")
    print(f"  io ops        {report['io_ops']:>8d}")
    print(f"  trace digest  {report['trace_digest'][:16]}…")

    # Zipf skew: sessions per tenant, hottest first.
    counts = {}
    for record in run.trace:
        counts[record["t"]] = counts.get(record["t"], 0) + 1
    top = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
    print("-- hottest tenants ---------------------------------------")
    for tenant, sessions in top:
        print(f"  {tenant:>10s}  {sessions:>4d} sessions")

    # O(active) at its fixed point: everything churn-scaled is gone.
    print("-- post-run state (O(active) fixed point) ----------------")
    for domain in run.domains:
        conntrack = sum(
            len(host.stack.nat.conntrack)
            for host in domain.cloud.compute_hosts.values()
        )
        assert domain.storm.flows == {}
        assert domain.storm.gateway_pairs == {}
        assert conntrack == 0
        print(f"  domain {domain.domain_id}: 0 flows, 0 gateway pairs, "
              "0 conntrack entries")
    scoped = [name for name in run.metrics._metrics if name[2] != ""]
    assert scoped == []
    print("  metric scopes: every tenant scope evicted")

    # Determinism: the run is a pure function of the config.
    again = FleetRun(make_config())
    again.run()
    assert again.trace_jsonl() == run.trace_jsonl()
    print("-- determinism -------------------------------------------")
    print(f"  second run byte-identical (digest {run.trace_digest()[:16]}…)")
    print("OK: fleet churn deterministic, post-run state O(active)")


if __name__ == "__main__":
    main()
