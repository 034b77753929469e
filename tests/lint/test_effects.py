"""Unit tests for the effect lattice: leaf classification and the
inter-procedural fixpoint."""

from __future__ import annotations

from repro.lint import effects as fx


def classify(chain, name, imports=None):
    return fx.classify_call(tuple(chain), name, imports or {})


# -- leaf classification ----------------------------------------------


def test_wall_clock_via_receiver():
    assert classify(("time",), "time") == {fx.WALL_CLOCK}
    assert classify(("time",), "monotonic") == {fx.WALL_CLOCK}
    assert classify(("datetime",), "now") == {fx.WALL_CLOCK}


def test_wall_clock_via_from_import():
    assert classify((), "time", {"time": "time.time"}) == {fx.WALL_CLOCK}
    assert classify((), "now", {"now": "datetime.datetime.now"}) == {fx.WALL_CLOCK}


def test_sim_clock_is_not_wall_clock():
    assert classify(("sim",), "now") == frozenset()
    assert classify(("self", "sim"), "now") == frozenset()


def test_global_rng():
    assert classify(("random",), "random") == {fx.GLOBAL_RNG}
    assert classify(("random",), "shuffle") == {fx.GLOBAL_RNG}
    assert classify((), "randint", {"randint": "random.randint"}) == {fx.GLOBAL_RNG}


def test_os_entropy():
    assert classify(("os",), "urandom") == {fx.OS_ENTROPY}
    assert classify(("uuid",), "uuid4") == {fx.OS_ENTROPY}
    assert classify(("secrets",), "token_bytes") == {fx.OS_ENTROPY}
    assert classify((), "urandom", {"urandom": "os.urandom"}) == {fx.OS_ENTROPY}


def test_kernel_schedule():
    assert classify(("sim",), "timeout") == {fx.KERNEL_SCHEDULE}
    assert classify(("self", "sim"), "process") == {fx.KERNEL_SCHEDULE}
    assert classify(("_sim",), "disarm_calls") == {fx.KERNEL_SCHEDULE}
    # the one-occurrence-per-element primitive every net element uses
    assert classify(("self", "sim"), "call_at") == {fx.KERNEL_SCHEDULE}
    # Event.succeed / Process.interrupt schedule regardless of receiver
    assert classify(("evt",), "succeed") == {fx.KERNEL_SCHEDULE}
    assert classify(("proc",), "interrupt") == {fx.KERNEL_SCHEDULE}
    # reading sim attributes does not
    assert classify(("other",), "timeout") == frozenset()


def test_sim_rng_and_obs():
    assert classify(("self", "rng"), "random") == {fx.SIM_RNG}
    assert classify(("_rng",), "randint") == {fx.SIM_RNG}
    assert classify(("bus",), "event") == {fx.OBS_EMIT}
    assert classify(("self", "obs"), "span") == {fx.OBS_EMIT}


def test_unknown_calls_have_no_effects():
    assert classify((), "helper") == frozenset()
    assert classify(("self",), "step_impl") == frozenset()


# -- fixpoint ---------------------------------------------------------


def test_propagate_transitive_union():
    leaf = {
        "a": frozenset(),
        "b": frozenset(),
        "c": frozenset({fx.SIM_RNG}),
        "d": frozenset({fx.WALL_CLOCK}),
    }
    edges = {"a": ["b", "c"], "b": ["d"], "c": ["d"]}
    out = fx.propagate(leaf, edges)
    assert out["d"] == {fx.WALL_CLOCK}
    assert out["c"] == {fx.SIM_RNG, fx.WALL_CLOCK}
    assert out["a"] == {fx.SIM_RNG, fx.WALL_CLOCK}


def test_propagate_terminates_on_cycles():
    leaf = {"a": frozenset({fx.GLOBAL_RNG}), "b": frozenset()}
    edges = {"a": ["b"], "b": ["a"]}
    out = fx.propagate(leaf, edges)
    assert out["a"] == out["b"] == {fx.GLOBAL_RNG}


def test_propagate_ignores_unknown_callees():
    leaf = {"a": frozenset()}
    edges = {"a": ["not.in.program"], "also.unknown": ["a"]}
    assert fx.propagate(leaf, edges) == {"a": frozenset()}


def test_propagate_is_deterministic():
    leaf = {f"f{i}": frozenset({fx.WALL_CLOCK} if i == 9 else set()) for i in range(10)}
    edges = {f"f{i}": [f"f{i + 1}"] for i in range(9)}
    runs = [fx.propagate(leaf, edges) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["f0"] == {fx.WALL_CLOCK}
