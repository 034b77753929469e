"""Determinism rules.

Every experiment claim in this repo — the kernel speedup, zero-overhead
fault machinery, the chaos matrix's two-outcome guarantees — is checked
by *bit-identical replay*: run the simulation twice (or against
``tests/determinism/pinned.json``) and require the exact same event
stream.  Each rule here bans one way real PRs have historically
smuggled run-to-run variance into such simulations.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.effects import WALL_CLOCK_CALLS as _WALL_CLOCK_CALLS
from repro.lint.findings import FileContext, Finding, Rule, rule

#: The one module allowed to touch stdlib ``random`` — everything else
#: must take a SeededRNG stream.
RNG_MODULE = "src/repro/sim/rng.py"


def _call_target(node: ast.Call) -> tuple[str, str] | None:
    """Resolve ``mod.attr(...)`` / ``attr(...)`` to a (base, attr) pair."""
    func = node.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            return (base.id, func.attr)
        if isinstance(base, ast.Attribute):
            return (base.attr, func.attr)
        return ("", func.attr)
    if isinstance(func, ast.Name):
        return ("", func.id)
    return None


@rule
class WallClockRule(Rule):
    """Ban wall-clock reads inside the simulation tree.

    Failure scenario: a middle-box stamps a journal entry with
    ``time.time()``; two replays of the same seed produce different
    timestamps, event payloads diverge, and the run-twice identity test
    (and ``pinned.json`` comparison) fails only on the machine
    where scheduling jitter changed the interleaving.  Simulated code
    must read ``sim.now`` — the virtual clock — never the host's.
    """

    id = "wall-clock"
    summary = "no time.time()/datetime.now() etc. in simulated code; use sim.now"
    family = "determinism"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        target = _call_target(node)
        if target in _WALL_CLOCK_CALLS:
            base, attr = target
            name = f"{base}.{attr}" if base else attr
            yield self.finding(
                ctx, node, f"wall-clock read {name}() in simulated code; use sim.now"
            )


@rule
class GlobalRandomRule(Rule):
    """Ban the process-global ``random`` module outside ``repro/sim/rng.py``.

    Failure scenario: a service calls ``random.random()``.  The global
    Mersenne Twister is shared mutable state — any unrelated import that
    also draws from it (or a test ordering change) shifts every
    subsequent draw, so the "same seed" no longer pins the run.  All
    stochastic components must take a :class:`repro.sim.rng.SeededRNG`
    (or a named child stream) so a simulation is a pure function of its
    seed.
    """

    id = "global-random"
    summary = "stdlib random only inside repro/sim/rng.py; use SeededRNG streams"
    family = "determinism"
    node_types = (ast.Import, ast.ImportFrom)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path == RNG_MODULE:
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield self.finding(
                        ctx, node,
                        "import of global 'random' outside repro/sim/rng.py; "
                        "take a SeededRNG stream instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield self.finding(
                    ctx, node,
                    "import from global 'random' outside repro/sim/rng.py; "
                    "take a SeededRNG stream instead",
                )


@rule
class EntropySourceRule(Rule):
    """Ban OS entropy sources (``os.urandom``, ``uuid.uuid4``, ``secrets``).

    Failure scenario: an object-store client names an upload with
    ``uuid.uuid4()``.  The name differs every run, flows hash to
    different NAT buckets, and packet traces can never be compared
    across runs.  Identifiers must come from a SeededRNG stream or a
    deterministic counter.
    """

    id = "entropy-source"
    summary = "no os.urandom/uuid.uuid4/secrets in simulated code"
    family = "determinism"
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    _CALLS = {("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            target = _call_target(node)
            if target in self._CALLS:
                base, attr = target
                yield self.finding(
                    ctx, node,
                    f"OS entropy source {base}.{attr}() in simulated code; "
                    "derive ids from a SeededRNG stream or a counter",
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "secrets":
                    yield self.finding(
                        ctx, node, "import of 'secrets' in simulated code"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "secrets" and node.level == 0:
                yield self.finding(
                    ctx, node, "import from 'secrets' in simulated code"
                )


def _is_set_expr(node: ast.expr) -> bool:
    """A set display or a bare set()/frozenset() call."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@rule
class SetIterationRule(Rule):
    """Ban iterating a set expression where element *order* escapes.

    Failure scenario: ``for flow in set(self.flows): steer(flow)``
    installs steering rules in set-iteration order.  For ints that
    order is value-dependent but for strings it depends on
    ``PYTHONHASHSEED``, so two runs install rules in different order,
    the SDN switch assigns different rule ids, and the event streams
    diverge.  Iterate the underlying ordered container, or wrap in
    ``sorted(...)`` — membership tests (``x in s``) are fine and are not
    flagged.
    """

    id = "set-iteration"
    summary = "no for/list()/tuple() over set expressions; sort first"
    family = "determinism"
    node_types = (ast.For, ast.Call, ast.comprehension)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.For) and _is_set_expr(node.iter):
            yield self.finding(
                ctx, node.iter,
                "iterating a set: element order is hash-dependent; "
                "wrap in sorted(...) or iterate the source container",
            )
        elif isinstance(node, ast.comprehension) and _is_set_expr(node.iter):
            yield self.finding(
                ctx, node.iter,
                "comprehension over a set: order is hash-dependent; "
                "wrap in sorted(...)",
            )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple")
                and node.args
                and _is_set_expr(node.args[0])
            ):
                yield self.finding(
                    ctx, node,
                    f"{func.id}() materializes a set in hash order; "
                    "use sorted(...) instead",
                )


@rule
class IdSortKeyRule(Rule):
    """Ban ``key=id`` (or ``id(x)`` inside a sort key) in ordering calls.

    Failure scenario: ``sorted(events, key=id)`` breaks ties by CPython
    heap address.  Addresses vary run to run (ASLR, allocation history),
    so the "same" simulation schedules tied events in different order.
    Use an explicit sequence number — the kernel already threads one
    through every queue.
    """

    id = "id-sort-key"
    summary = "no sorted/min/max/.sort with key=id (address-order ties)"
    family = "determinism"
    node_types = (ast.Call,)

    _ORDERING = {"sorted", "min", "max", "sort"}

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in self._ORDERING:
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            uses_id = (isinstance(value, ast.Name) and value.id == "id") or any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
                for sub in ast.walk(value)
            )
            if uses_id:
                yield self.finding(
                    ctx, node,
                    f"{name}(..., key=id): object addresses are not stable "
                    "across runs; key on an explicit sequence number",
                )


@rule
class UnstableHashRule(Rule):
    """Ban the builtin ``hash()`` in simulated code.

    Failure scenario: a switch buckets flows by ``hash(cookie) % n``.
    ``hash(str)`` is salted per process (PYTHONHASHSEED), so the bucket
    assignment — and therefore queueing order — changes every run.
    Use a stable digest (e.g. the FNV-1a in ``repro.sim.rng``) or key
    on the value itself.
    """

    id = "unstable-hash"
    summary = "no builtin hash(): salted per process; use a stable digest"
    family = "determinism"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            yield self.finding(
                ctx, node,
                "builtin hash() is PYTHONHASHSEED-salted; use a stable "
                "digest (repro.sim.rng._stable_hash) or the value itself",
            )


#: Names that, appearing as an identifier or attribute in a comparison,
#: mark the operand as a simulated timestamp.
_TIME_NAMES = {
    "now", "sim_time", "timestamp", "deadline", "expiry", "expires_at",
    "wall_time", "arrival_time", "departure_time",
}


def _time_operand(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name) and node.id in _TIME_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in _TIME_NAMES:
        return node.attr
    return None


def _is_zero_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value in (0, 0.0)


@rule
class FloatTimeEqRule(Rule):
    """Ban ``==``/``!=`` against simulated-timestamp floats.

    Failure scenario: ``if pkt.timestamp == flow.deadline:`` — both are
    sums of float delays, and whether they compare equal depends on the
    *order* the additions happened in (float addition is not
    associative).  A harmless refactor that reorders arithmetic flips
    the branch and the replay diverges.  Compare with ``<=``/``>=`` or
    an explicit epsilon.  Comparisons against the exact sentinels
    ``0``/``0.0`` are allowed (a never-set timestamp), as is ``is
    None``.
    """

    id = "float-time-eq"
    summary = "no ==/!= on simulated timestamps; use <=/>= or an epsilon"
    family = "determinism"
    node_types = (ast.Compare,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            name = _time_operand(left) or _time_operand(right)
            if name is None:
                continue
            if _is_zero_literal(left) or _is_zero_literal(right):
                continue  # exact sentinel for "never set"
            yield self.finding(
                ctx, node,
                f"float equality on timestamp {name!r}: accumulated float "
                "time is order-sensitive; use <=/>= or an epsilon",
            )
