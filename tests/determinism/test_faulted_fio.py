"""Loss-enabled determinism: a *faulted* fio run is run-twice identical.

PR 1 pinned the lossless kernel bit-for-bit; the fault layer must keep
that contract with the chaos switched on.  A fio workload through an
active-relay chain over a storage link that probabilistically drops
packets — forcing real retransmissions — produces the exact same
results, final volume bytes, and fault/recovery timeline on repeat
runs, and a different injector seed produces a different run.
"""

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.workloads import FioConfig, FioJob

from tests.faults.conftest import fault_env

REGION = 512 * BLOCK_SIZE


def faulted_fio(fault_seed):
    """One lossy fio run; returns a bit-comparable snapshot."""
    env = fault_env(seed=fault_seed, params=CloudParams(tcp_rto=0.02))
    flow, _mbs = env.attach([env.spec(placement="compute3")])
    faults = env.injector.lossy_link(env.storage.storage_iface.link, drop=0.03)

    config = FioConfig(
        io_size=2 * BLOCK_SIZE,
        num_threads=2,
        ios_per_thread=30,
        read_fraction=0.25,
        region_size=REGION,
        seed=5,
        carry_data=True,
    )
    job = FioJob(env.sim, flow.session, config)
    result = env.run(job.run())
    return {
        "completed": result.completed,
        "elapsed": result.elapsed,
        "mean_latency": result.latency.mean,
        "p99_latency": result.latency.p(99),
        "dropped": faults.dropped,
        "end": env.sim.now,
        "volume": env.volume.read_sync(0, REGION),
        "timeline": env.events(),
    }


def test_faulted_fio_run_twice_identical():
    first = faulted_fio(fault_seed=21)
    second = faulted_fio(fault_seed=21)
    assert first["dropped"] > 0, "loss never fired; the check proves nothing"
    assert first["completed"] == 60, "fio did not survive the loss"
    assert first == second


def test_faulted_fio_seed_changes_run():
    assert faulted_fio(fault_seed=21) != faulted_fio(fault_seed=22)
