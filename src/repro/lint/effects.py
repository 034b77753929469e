"""The effect lattice and the inter-procedural effect fixpoint.

Stormlint v2 models nondeterminism as *effects*: a small powerset
lattice over the sources that can make two runs of the same seed
diverge (wall-clock reads, the process-global RNG, OS entropy,
hash-order escapes) plus the simulation-side effects the subsystem
contracts reason about (scheduling kernel events, drawing from
``sim.rng``, emitting observability records).

Each function gets a *leaf* effect set from its own body (computed
here from the call records :mod:`repro.lint.callgraph` collects), and
the whole-program pass propagates leaf effects along the call graph to
a fixpoint: ``effects(f) = leaf(f) ∪ ⋃ effects(g) for g called by f``.
The lattice is finite and propagation is monotone, so the worklist
terminates.

Soundness limits (documented in DESIGN.md §10): calls through values
whose type is unknown (``x = make_thing(); x.run()``), ``getattr``
dispatch, and callbacks stored in data structures are not resolved to
edges; receiver-*name* patterns (``*.rng.draw()``, ``sim.process``)
catch the repo's idioms for the simulation-side effects instead.
"""

from __future__ import annotations

from typing import Iterable, Mapping

# -- the lattice -------------------------------------------------------

WALL_CLOCK = "wall-clock"
GLOBAL_RNG = "global-rng"
OS_ENTROPY = "os-entropy"
UNORDERED_ITER = "unordered-iteration-escape"
KERNEL_SCHEDULE = "kernel-schedule"
SIM_RNG = "sim-rng"
OBS_EMIT = "obs-emit"

#: every effect, in lattice (display) order
ALL_EFFECTS: tuple[str, ...] = (
    WALL_CLOCK,
    GLOBAL_RNG,
    OS_ENTROPY,
    UNORDERED_ITER,
    KERNEL_SCHEDULE,
    SIM_RNG,
    OBS_EMIT,
)

#: the effects that are nondeterminism *sources* (flow rules ban these
#: from being reachable out of the simulation domains)
NONDETERMINISM: frozenset[str] = frozenset({WALL_CLOCK, GLOBAL_RNG, OS_ENTROPY})

# -- leaf classification ----------------------------------------------

#: ``(receiver, method)`` pairs that read the host clock.  The
#: per-file ``wall-clock`` rule and the transitive flow rule share this
#: table so the two can never drift apart.
WALL_CLOCK_CALLS: frozenset[tuple[str, str]] = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("time", "localtime"),
        ("time", "gmtime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: fully-qualified targets a ``from``-import can bind a bare name to
_WALL_CLOCK_DOTTED: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY_CALLS: frozenset[tuple[str, str]] = frozenset(
    {("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}
)
_ENTROPY_DOTTED: frozenset[str] = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
)

#: Simulator methods that schedule or drive kernel events when called
#: on a receiver named ``sim`` / ``_sim``.
_KERNEL_METHODS: frozenset[str] = frozenset(
    {
        "disarm_calls",
        "call_at",
        "_schedule",
        "timeout",
        "process",
        "event",
        "all_of",
        "any_of",
        "run",
        "step",
        "_defer_resume",
        "_defer_interrupt",
    }
)
#: methods that trigger kernel events regardless of receiver name
#: (``Event.succeed`` / ``Process.interrupt`` are unambiguous idioms)
_KERNEL_ANY_RECEIVER: frozenset[str] = frozenset({"succeed", "interrupt"})

_RNG_RECEIVERS: frozenset[str] = frozenset({"rng", "_rng"})
_OBS_RECEIVERS: frozenset[str] = frozenset(
    {"obs", "bus", "_bus", "metrics", "_metrics", "span", "_span"}
)


def classify_call(
    chain: tuple[str, ...], name: str, imports: Mapping[str, str]
) -> frozenset[str]:
    """The leaf effects of one call site.

    ``chain`` is the dotted receiver (``self.sim.process(...)`` →
    ``("self", "sim")``, name ``process``; a bare ``foo(...)`` has an
    empty chain), and ``imports`` maps the module's local aliases to
    their dotted import targets so ``from time import time`` is seen.
    """
    effects: set[str] = set()
    base = chain[-1] if chain else ""
    root = imports.get(chain[0], chain[0]) if chain else ""
    dotted = imports.get(name, "") if not chain else ""

    if (base, name) in WALL_CLOCK_CALLS or dotted in _WALL_CLOCK_DOTTED:
        effects.add(WALL_CLOCK)
    if chain:
        if chain[0] == "random" or root == "random" or root.startswith("random."):
            effects.add(GLOBAL_RNG)
    elif dotted.startswith("random."):
        effects.add(GLOBAL_RNG)
    if (
        (base, name) in _ENTROPY_CALLS
        or dotted in _ENTROPY_DOTTED
        or (chain and (chain[0] == "secrets" or root == "secrets"))
        or dotted.startswith("secrets.")
    ):
        effects.add(OS_ENTROPY)
    if chain and base in ("sim", "_sim") and name in _KERNEL_METHODS:
        effects.add(KERNEL_SCHEDULE)
    if chain and name in _KERNEL_ANY_RECEIVER:
        effects.add(KERNEL_SCHEDULE)
    if chain and base in _RNG_RECEIVERS:
        effects.add(SIM_RNG)
    if chain and (base in _OBS_RECEIVERS or name == "emit"):
        effects.add(OBS_EMIT)
    return frozenset(effects)


# -- fixpoint ----------------------------------------------------------


def propagate(
    leaf: Mapping[str, frozenset[str]],
    callees: Mapping[str, Iterable[str]],
) -> dict[str, frozenset[str]]:
    """Propagate leaf effects along the call graph to a fixpoint.

    ``leaf`` maps function qualnames to their own-body effects and
    ``callees`` maps qualnames to the qualnames they call (edges into
    functions absent from ``leaf`` are ignored).  Returns the full
    transitive effect set per function.
    """
    effects: dict[str, set[str]] = {fn: set(fx) for fn, fx in leaf.items()}
    callers: dict[str, list[str]] = {fn: [] for fn in leaf}
    edges: dict[str, list[str]] = {}
    for fn, outs in callees.items():
        if fn not in effects:
            continue
        resolved = sorted({c for c in outs if c in effects})
        edges[fn] = resolved
        for callee in resolved:
            callers[callee].append(fn)

    worklist: list[str] = sorted(effects)
    queued: set[str] = set(worklist)
    while worklist:
        fn = worklist.pop()
        queued.discard(fn)
        merged = set(effects[fn])
        for callee in edges.get(fn, ()):
            merged |= effects[callee]
        if merged != effects[fn]:
            effects[fn] = merged
            for caller in callers.get(fn, ()):
                if caller not in queued:
                    queued.add(caller)
                    worklist.append(caller)
    return {fn: frozenset(fx) for fn, fx in effects.items()}
