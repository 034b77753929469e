"""Fixture helpers shared by every test package."""

from repro.testbed import assert_at_rest


def at_rest(bed):
    """Yield ``bed`` to the test, then check it ended at rest: a fixture
    body of ``yield from at_rest(bed)`` gives every bed the teardown."""
    yield bed
    assert_at_rest(bed.storm)
