"""A run is a function of its arguments.

The same bed and scenario, built twice back to back in one process,
produce the same timeline with every id in it: the ephemeral port a
re-login reports and the task tag a write carries come from the run's
own allocators, not from whatever ran before it in the process.
"""

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.testbed import Testbed


def relogin_run():
    """A direct attach whose storage link is cut long enough to kill the
    session, so it re-logs in; returns the first write's task tag and
    the whole timeline."""
    bed = Testbed(CloudParams(tcp_rto=0.02, iscsi_relogin_backoff=0.02), obs=True)

    def attach():
        return (yield bed.sim.process(bed.cloud.attach_volume(bed.vm, "vol1")))

    session = bed.run(attach())

    def scenario():
        first = session.write(0, BLOCK_SIZE, b"a" * BLOCK_SIZE)
        tag = next(reversed(session._pending))
        yield first
        bed.injector.flap_link(bed.storage.storage_iface.link, bed.sim.now, 2.0)
        yield session.write(BLOCK_SIZE, BLOCK_SIZE, b"b" * BLOCK_SIZE)
        return tag

    return bed.run(scenario()), bed.events()


def test_a_bed_built_twice_in_one_process_runs_identically():
    first_tag, first = relogin_run()
    second_tag, second = relogin_run()
    relogins = [event for event in first if event["kind"] == "recover.relogin"]
    assert len(relogins) == 1 and "port" in relogins[0]["attrs"]
    assert second == first
    assert second_tag == first_tag
