"""Run-twice determinism under attack: an adversarial scenario is a
pure function of its seed — detection ledgers, ground truth, event
timelines, and final simulated time are all byte-identical."""

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams

from tests.faults.conftest import fault_env
from tests.integrity.conftest import integrity_env


def block(value):
    return bytes([value]) * BLOCK_SIZE


def campaign(env):
    """One run of a mixed adversarial campaign; returns its signature."""
    flow, mbs = env.attach(
        [env.spec(name="p", relay="passive"), env.spec(name="a", relay="active")]
    )
    session = flow.session
    passive, active = mbs

    def scenario():
        for i in range(4):
            yield session.write(i * BLOCK_SIZE, BLOCK_SIZE, block(i + 1))
        env.injector.tamper_payload(active, count=1)
        yield session.write(4 * BLOCK_SIZE, BLOCK_SIZE, block(5))
        env.injector.replay_pdu(active, count=1)
        yield session.read(0, BLOCK_SIZE)
        yield session.read(BLOCK_SIZE, BLOCK_SIZE)
        env.injector.reorder_pdus(active, count=1)
        pending = [session.read(0, BLOCK_SIZE), session.read(2 * BLOCK_SIZE, BLOCK_SIZE)]
        for event in pending:
            yield event

    env.run(scenario())
    layer = env.cloud.integrity
    return {
        "now": env.sim.now,
        "detections": [
            (d.when, d.kind, d.flow, d.direction, d.where, d.op, d.offset, d.seq)
            for d in layer.detections
        ],
        "truth": [tuple(sorted(row.items())) for row in env.injector.adversarial],
        "counters": (layer.stamped, layer.verified, layer.retries),
        "trips": layer.breaker.trips,
        "timeline": env.events(),
    }


def test_adversarial_campaign_run_twice_identical():
    first = campaign(integrity_env())
    second = campaign(integrity_env())
    assert first == second
    assert first["detections"], "campaign produced no detections to compare"


def test_different_seed_different_tamper_sites():
    """The seeded byte-flip index must come from the injector's RNG:
    two seeds tamper different bytes (same detection count, different
    bytes on the wire is invisible here, but the timeline's recorded
    flip index differs)."""

    def flip_index(seed):
        env = fault_env(CloudParams(integrity=True), seed=seed)
        flow, (mb,) = env.attach([env.spec(name="noop", relay="passive")])

        def scenario():
            env.injector.tamper_payload(mb, count=1)
            yield flow.session.write(0, BLOCK_SIZE, block(1))

        env.run(scenario())
        (record,) = env.events("tamper.payload")
        return record["attrs"]["index"]

    indexes = {flip_index(seed) for seed in (1, 2, 3, 4)}
    assert len(indexes) > 1


def test_fuzz_corpus_is_reproducible():
    from repro.workloads import hostile_dirent_corpus

    assert hostile_dirent_corpus(seed=11, count=32) == hostile_dirent_corpus(
        seed=11, count=32
    )
    assert hostile_dirent_corpus(seed=11, count=32) != hostile_dirent_corpus(
        seed=12, count=32
    )
