"""stormlint: the determinism, safety and contract census over ``src/repro``.

The repo's experiment claims rest on bit-identical deterministic replay
(DESIGN.md §6); each rule below turns one convention that protects it
into an AST check.  A rule is a function ``(Module) -> (line, message)
pairs`` whose docstring states the failure scenario it prevents, and
:data:`RULES` maps rule ids to rules.  :func:`check` runs every rule on
one module and applies the module's suppressions:
``# stormlint: ignore[rule-id, ...]`` shields its own line, or the next
line when the comment stands alone.  An id that shields no finding is
stale, and so is one that names no rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Iterator, NamedTuple

Hits = Iterator[tuple[int, str]]

#: the one module allowed to touch stdlib ``random``
RNG_MODULE = "src/repro/sim/rng.py"
#: modules where ``assert`` may not validate control-plane input
CONTROL_PLANE = ("src/repro/core/", "src/repro/cloud/")
OBS_PACKAGE = "src/repro/obs/"

#: ``(module or class, function)`` pairs that read the host clock
WALL_CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("time", "localtime"), ("time", "gmtime"), ("datetime", "now"),
    ("datetime", "utcnow"), ("datetime", "today"), ("date", "today"),
})
ENTROPY_CALLS = frozenset({("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")})
#: Simulator methods that schedule or drive kernel events
KERNEL_METHODS = frozenset({
    "disarm_calls", "call_at", "_schedule", "timeout", "process", "event",
    "all_of", "any_of", "run", "step", "_defer_resume", "_defer_interrupt",
})
#: identifier fragments marking a container as keyed per session
REGISTRY_HINTS = ("tenant", "flow", "iqn", "conn", "sess")
EVICT_METHODS = frozenset({"pop", "popitem", "clear", "discard", "remove"})
STORE_METHODS = frozenset({"setdefault", "add"})
TIME_NAMES = frozenset({
    "now", "sim_time", "timestamp", "deadline", "expiry", "expires_at",
    "wall_time", "arrival_time", "departure_time",
})

_SUPPRESS = re.compile(r"#\s*stormlint:\s*ignore\[([^\]]*)\]")


class Module:
    """One parsed source file: its nodes by type and its import aliases."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.nodes: dict[type, list[ast.AST]] = {}
        for node in ast.walk(self.tree):
            self.nodes.setdefault(type(node), []).append(node)
        parts = path.removeprefix("src/").removesuffix(".py").split("/")
        self.package = parts[:-1]
        #: local name -> dotted name it is bound to, relative imports resolved
        self.aliases: dict[str, str] = {}
        for node in self.of(ast.Import, ast.ImportFrom):
            for local, target in self.imported(node):
                # `import a.b` binds `a`; `import a.b as c` binds `a.b`
                plain = isinstance(node, ast.Import) and target.partition(".")[0] == local
                self.aliases[local] = local if plain else target

    def of(self, *types: type) -> list:
        return [node for t in types for node in self.nodes.get(t, ())]

    def imported(self, node: ast.Import | ast.ImportFrom) -> Iterator[tuple[str, str]]:
        """(bound name, dotted target) for each name an import binds."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name
            return
        base = node.module or ""
        if node.level:
            prefix = self.package[: len(self.package) - node.level + 1]
            base = ".".join([*prefix, base] if base else prefix)
        for alias in node.names:
            yield alias.asname or alias.name, f"{base}.{alias.name}"


class Finding(NamedTuple):
    path: str
    line: int
    rule_id: str
    message: str
    suppressed: bool


def _dotted(node: ast.expr, aliases: dict[str, str]) -> str:
    """``a.b.c`` with ``a`` resolved through the module's imports."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _callee(call: ast.Call) -> tuple[str | None, str | None]:
    """(immediate receiver name, called name) of ``recv.name(...)`` or
    ``name(...)``; the receiver is None unless it is a name or attribute."""
    func = call.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id, func.attr
        if isinstance(value, ast.Attribute):
            return value.attr, func.attr
        return None, func.attr
    return None, None


def _resolved_pair(call: ast.Call, module: Module) -> tuple[str, ...]:
    return tuple(_dotted(call.func, module.aliases).split(".")[-2:])


# -- determinism ---------------------------------------------------------


def wall_clock(module: Module) -> Hits:
    """No wall-clock reads in simulated code; use ``sim.now``.

    Failure scenario: a middle-box stamps a journal entry with
    ``time.time()``; two replays of the same seed produce different
    timestamps and the run-twice and ``pinned.json`` checks fail only on
    the machine where scheduling jitter moved.  Import aliases are
    resolved, so ``import time as t; t.time()`` and ``from time import
    perf_counter as pc; pc()`` are reads too.
    """
    for call in module.of(ast.Call):
        pair = _resolved_pair(call, module)
        if pair in WALL_CLOCK_CALLS:
            yield call.lineno, f"wall-clock read {'.'.join(pair)}() in simulated code; use sim.now"


def global_random(module: Module) -> Hits:
    """stdlib ``random`` only inside ``repro/sim/rng.py``.

    Failure scenario: a service calls ``random.random()``.  The global
    Mersenne Twister is shared mutable state, so any unrelated draw
    shifts every later one and the same seed no longer pins the run.
    Take a :class:`repro.sim.rng.SeededRNG` stream instead.
    """
    if module.path == RNG_MODULE:
        return
    for node in module.of(ast.Import, ast.ImportFrom):
        if any(target.partition(".")[0] == "random" for _, target in module.imported(node)):
            yield node.lineno, "global 'random' outside repro/sim/rng.py; take a SeededRNG stream"


def entropy_source(module: Module) -> Hits:
    """No ``os.urandom``, ``uuid.uuid1``/``uuid4`` or ``secrets``.

    Failure scenario: an object-store client names an upload with
    ``uuid.uuid4()``; the name differs every run, flows hash to
    different NAT buckets, and packet traces never compare across runs.
    Derive ids from a SeededRNG stream or a counter.  Import aliases are
    resolved, so ``from uuid import uuid4; uuid4()`` is a draw too.
    """
    for call in module.of(ast.Call):
        pair = _resolved_pair(call, module)
        if pair in ENTROPY_CALLS:
            yield call.lineno, f"OS entropy source {'.'.join(pair)}() in simulated code"
    for node in module.of(ast.Import, ast.ImportFrom):
        if any(target.partition(".")[0] == "secrets" for _, target in module.imported(node)):
            yield node.lineno, "import of 'secrets' in simulated code"


def _is_set(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    func = getattr(node, "func", None)
    return isinstance(func, ast.Name) and func.id in ("set", "frozenset")


def set_iteration(module: Module) -> Hits:
    """No ``for``/comprehension/``list()``/``tuple()`` over a set expression.

    Failure scenario: ``for flow in set(self.flows): steer(flow)``
    installs steering rules in hash order, which for strings depends on
    ``PYTHONHASHSEED``; the switch assigns different rule ids and the
    event streams diverge.  Sort first; membership tests are fine.
    """
    for node in module.of(ast.For, ast.comprehension):
        if _is_set(node.iter):
            yield node.iter.lineno, "iterating a set: order is hash-dependent; wrap in sorted(...)"
    for call in module.of(ast.Call):
        name = call.func.id if isinstance(call.func, ast.Name) else None
        if name in ("list", "tuple") and call.args and _is_set(call.args[0]):
            yield call.lineno, f"{name}() materializes a set in hash order; use sorted(...)"


def id_sort_key(module: Module) -> Hits:
    """No ``key=id`` (or ``id(x)`` in a key) in sorted/min/max/.sort.

    Failure scenario: ``sorted(events, key=id)`` breaks ties by heap
    address, which varies per run (ASLR, allocation history), so tied
    events run in a different order.  Key on an explicit sequence number.
    """
    for call in module.of(ast.Call):
        name = _callee(call)[1]
        if name not in ("sorted", "min", "max", "sort"):
            continue
        for kw in call.keywords:
            if kw.arg != "key":
                continue
            key = kw.value
            if (isinstance(key, ast.Name) and key.id == "id") or any(
                isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "id"
                for sub in ast.walk(key)
            ):
                yield call.lineno, f"{name}(..., key=id): addresses are not stable across runs"


def unstable_hash(module: Module) -> Hits:
    """No builtin ``hash()``: it is salted per process.

    Failure scenario: a switch buckets flows by ``hash(cookie) % n``;
    ``hash(str)`` follows PYTHONHASHSEED, so bucket assignment and
    queueing order change every run.  Use a stable digest.
    """
    for call in module.of(ast.Call):
        if isinstance(call.func, ast.Name) and call.func.id == "hash":
            yield call.lineno, "builtin hash() is PYTHONHASHSEED-salted; use a stable digest"


def _time_name(node: ast.expr) -> str | None:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in TIME_NAMES else None


def float_time_eq(module: Module) -> Hits:
    """No ``==``/``!=`` on simulated timestamps.

    Failure scenario: ``if pkt.timestamp == flow.deadline:`` compares two
    float sums whose equality depends on the order the additions ran; a
    harmless refactor flips the branch.  Use ``<=``/``>=``; the exact
    sentinels ``0``/``0.0`` (never set) are allowed.
    """
    for cmp in module.of(ast.Compare):
        operands = [cmp.left, *cmp.comparators]
        for op, left, right in zip(cmp.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            name = _time_name(left) or _time_name(right)
            zero = any(isinstance(x, ast.Constant) and x.value in (0, 0.0) for x in (left, right))
            if name and not zero:
                yield cmp.lineno, f"float equality on timestamp {name!r}; use <=/>= or an epsilon"


# -- simulation safety ---------------------------------------------------


def assert_control(module: Module) -> Hits:
    """No ``assert`` for validation in ``repro/core`` and ``repro/cloud``.

    Failure scenario: saga preconditions written as ``assert`` vanish
    under ``python -O``, so an optimized run accepts an attach the
    development run rejects.  Raise a typed error instead.
    """
    if module.path.startswith(CONTROL_PLANE):
        for node in module.of(ast.Assert):
            yield node.lineno, "assert is stripped under python -O; raise a typed error"


def _yields(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``fn``'s own body (nested defs excluded) yields."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def unkernelled_process(module: Module) -> Hits:
    """No process generator called as a bare statement.

    Failure scenario: ``self._run_relay(conn)`` on its own line builds a
    generator and drops it: nothing runs, nothing raises, and I/O stalls
    three layers up.  Wrap it in ``sim.process(...)`` or ``yield from``;
    a call on ``sim``/``*.sim`` is the kernel spawning, not a bare call.
    """
    defs = module.of(ast.FunctionDef, ast.AsyncFunctionDef)
    generators = {fn.name for fn in defs if _yields(fn)}
    for stmt in module.of(ast.Expr):
        if not isinstance(stmt.value, ast.Call):
            continue
        receiver, name = _callee(stmt.value)
        if name in generators and receiver != "sim":
            yield stmt.lineno, f"{name}() is a generator: as a statement it runs nothing"


# -- subsystem contracts -------------------------------------------------


def obs_passive(module: Module) -> Hits:
    """``repro.obs`` schedules nothing, draws nothing and imports no simulator.

    Failure scenario: a sink schedules a flush with ``sim.timeout(...)``
    or salts a sampling decision with ``sim.rng``; attaching the bus now
    perturbs the event stream and obs-on runs stop matching
    ``pinned.json`` (DESIGN.md §11).  Two clauses: no call in an obs
    module schedules kernel events or draws from an ``rng``, and no obs
    module imports a ``repro`` module outside ``repro.obs`` at runtime
    (an ``if TYPE_CHECKING:`` import is fine), so nothing outside the
    package is reachable from it.
    """
    if not module.path.startswith(OBS_PACKAGE):
        return
    for call in module.of(ast.Call):
        receiver, name = _callee(call)
        on_sim = receiver in ("sim", "_sim") and name in KERNEL_METHODS
        if on_sim or (receiver and name in ("succeed", "interrupt")):
            yield call.lineno, f"obs passivity contract: kernel-schedule call {name}()"
        elif receiver in ("rng", "_rng"):
            yield call.lineno, f"obs passivity contract: sim-rng draw {receiver}.{name}()"
    typing_only = {
        id(node)
        for guard in module.of(ast.If)
        if _dotted(guard.test, {}).endswith("TYPE_CHECKING")
        for stmt in guard.body
        for node in ast.walk(stmt)
    }
    for node in module.of(ast.Import, ast.ImportFrom):
        if id(node) in typing_only:
            continue
        for _, target in module.imported(node):
            if target.partition(".")[0] == "repro" and not (target + ".").startswith("repro.obs."):
                yield node.lineno, f"obs passivity contract: runtime import of {target}"


def _is_saga_step(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _callee(node)[1] == "SagaStep"


def _true(call: ast.Call, arg: str) -> bool:
    return any(
        kw.arg == arg and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in call.keywords
    )


def saga_compensated(module: Module) -> Hits:
    """Every pre-pivot ``SagaStep`` registers ``undo=`` or ``forward_only=True``.

    Failure scenario: an attach saga grows a step that allocates a NAT
    binding with no undo; a crash after it compensates the other steps
    and leaks the binding, and the drift audit later reports a rule
    nobody owns.  The pivot and the steps after it in a list literal are
    rolled forward by recovery and need no undo; ``undo=None`` counts as
    none.
    """
    after_pivot: set[int] = set()
    for literal in module.of(ast.List):
        pivot_seen = False
        for step in filter(_is_saga_step, literal.elts):
            if pivot_seen:
                after_pivot.add(id(step))
            pivot_seen = pivot_seen or _true(step, "pivot")
    for step in filter(_is_saga_step, module.of(ast.Call)):
        undo = any(
            kw.arg == "undo" and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
            for kw in step.keywords
        )
        if undo or _true(step, "forward_only") or _true(step, "pivot") or id(step) in after_pivot:
            continue
        first = step.args[0] if step.args else None
        label = f" {first.value!r}" if isinstance(getattr(first, "value", None), str) else ""
        yield step.lineno, (
            f"saga step{label} has no compensator: pass undo=..., mark forward_only=True, "
            "or move it past the pivot"
        )


def integrity_chain_registered(module: Module) -> Hits:
    """A module that calls ``register_chain`` also calls ``unregister_chain``.

    Failure scenario: an attach path registers a chain with the
    integrity layer and no detach path tears it down; the monitor keeps
    verifying a dead flow's hop marks, the next tenant on that IQN fails
    with a stale proof, and per-flow state grows O(ever-attached)
    (DESIGN.md §14).
    """
    calls = module.of(ast.Call)
    names = {_callee(call)[1] for call in calls}
    if "unregister_chain" not in names:
        for call in calls:
            if _callee(call)[1] == "register_chain":
                yield call.lineno, "register_chain has no matching unregister_chain in this module"


def _container(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The final name of a container reference; a bare local is
    resolved through the enclosing function's ``local = self._x``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    return node.attr if isinstance(node, ast.Attribute) else None


def _hinted(names: list[str]) -> bool:
    return any(hint in name.lower() for name in names for hint in REGISTRY_HINTS)


def _idents(node: ast.AST) -> list[str]:
    return [
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    ]


def _registry_sites(node: ast.AST, aliases: dict[str, str], in_function: bool, out: list) -> None:
    """Append ``(line, container, "store" | "evict")`` in source order.
    Stores count only when the container or key names a session hint."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_function:
        aliases, in_function = {}, True
    elif isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if isinstance(node, ast.Assign) and len(targets) == 1 and isinstance(targets[0], ast.Name):
            name = _container(node.value, aliases)
            if name is not None:
                aliases[targets[0].id] = name
        for target in targets:
            if isinstance(target, ast.Subscript):
                name = _container(target.value, aliases)
                if name is not None and _hinted([name, *_idents(target.slice)]):
                    out.append((target.lineno, name, "store"))
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            name = _container(target.value, aliases) if isinstance(target, ast.Subscript) else None
            if name is not None:
                out.append((target.lineno, name, "evict"))
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        method, name = node.func.attr, _container(node.func.value, aliases)
        if name is not None and method in EVICT_METHODS:
            out.append((node.lineno, name, "evict"))
        elif name is not None and method in STORE_METHODS:
            if _hinted([name, *(ident for arg in node.args for ident in _idents(arg))]):
                out.append((node.lineno, name, "store"))
    for child in ast.iter_child_nodes(node):
        _registry_sites(child, aliases, in_function, out)


def bounded_tenant_registry(module: Module) -> Hits:
    """A container keyed per session has an eviction in the same module.

    Failure scenario: a module grows ``self._by_tenant[tenant.name] =
    ...`` on attach and never cleans it.  Tests pass (a few tenants),
    but at fleet scale the process holds every session ever attached,
    memory is O(ever-attached) instead of O(active), and the
    ``peak_rss_mb`` gate on ``fleet_churn`` trips (DESIGN.md §15).  A
    store into a container whose name or key mentions tenant, flow,
    iqn, conn or sess needs a ``pop``/``del``/``clear``/``discard``/
    ``remove`` of the same container; registries bounded by
    configuration suppress with a reason.
    """
    sites: list[tuple[int, str, str]] = []
    _registry_sites(module.tree, {}, False, sites)
    evicted = {name for _, name, kind in sites if kind == "evict"}
    for line, name, kind in sites:
        if kind == "store" and name not in evicted:
            evicted.add(name)  # report each container once, at its first store
            yield line, (
                f"registry {name!r} is keyed by a session identifier but this module never "
                "evicts from it: state grows O(ever-attached), not O(active)"
            )


#: the classes in ``repro/core`` allowed a control clock of their own
CONTROL_CLOCKS = frozenset({"HaCluster", "Reconciler"})
CORE_PACKAGE = "src/repro/core/"


def _clock_loop(loop: ast.While) -> bool:
    """A ``while`` whose test reads a ``stopped`` flag and whose body
    waits on a ``timeout``."""
    flag = any(isinstance(n, ast.Attribute) and n.attr == "stopped" for n in ast.walk(loop.test))
    return flag and any(
        isinstance(n, ast.Yield)
        and isinstance(n.value, ast.Call)
        and _callee(n.value)[1] == "timeout"
        for n in ast.walk(loop)
    )


def control_clocks(module: Module) -> Iterator[str]:
    """Classes in ``repro/core`` that run a periodic control loop: a
    ``stopped``-flag ``while`` that wakes on ``sim.timeout``.

    Failure scenario: a subsystem grows its own loop beside the chain
    control loop, with its own clock and its own view of which box
    carries which flow.  The two loops then fight
    over the same flows: one heals a chain onto a clone, the other
    quiesces it because its desired state still names the dead box,
    and I/O stalls.  Only :data:`CONTROL_CLOCKS` may keep one; a
    periodic concern becomes a policy in ``Reconciler.tick``.
    """
    if not module.path.startswith(CORE_PACKAGE):
        return
    for cls in module.of(ast.ClassDef):
        if any(isinstance(node, ast.While) and _clock_loop(node) for node in ast.walk(cls)):
            yield cls.name


#: always-on recovery: the ``CloudParams`` fields that once switched it
#: off, and the constructor keywords that once carried them
RETIRED_FIELDS = frozenset({"tcp_reliable", "iscsi_session_recovery", "evict_detached"})
RETIRED_KEYWORDS = frozenset({"reliable", "recover"})
RECOVERY_CLASSES = frozenset({
    "TcpSocket", "TcpListener", "IscsiTarget", "IscsiInitiator", "IscsiSession",
})


def retired_switches(module: Module) -> Hits:
    """No ``src/repro`` code reads or passes a retired recovery switch.

    Failure scenario: a module reads ``params.tcp_reliable`` (or passes
    ``reliable=`` to a socket) and grows back an off-branch: a lossless
    TCP that silently accepts the segments a live chain change reorders,
    a session that fails its I/O instead of re-logging-in, or a detach
    that leaks conntrack and gateways.  The fields stay declared in
    ``CloudParams`` (a dataclass field is a name, not an attribute), and
    nothing may look at them.
    """
    for node in module.of(ast.Attribute):
        if node.attr in RETIRED_FIELDS:
            yield node.lineno, f"reads the retired switch .{node.attr}"
    for call in module.of(ast.Call):
        called = _callee(call)[1]
        for keyword in call.keywords:
            if keyword.arg in RETIRED_FIELDS or (
                called in RECOVERY_CLASSES and keyword.arg in RETIRED_KEYWORDS
            ):
                yield call.lineno, f"passes the retired switch {keyword.arg}= to {called}"


RULES = {
    "wall-clock": wall_clock,
    "global-random": global_random,
    "entropy-source": entropy_source,
    "set-iteration": set_iteration,
    "id-sort-key": id_sort_key,
    "unstable-hash": unstable_hash,
    "float-time-eq": float_time_eq,
    "assert-control": assert_control,
    "unkernelled-process": unkernelled_process,
    "obs-passive": obs_passive,
    "saga-compensated": saga_compensated,
    "integrity-chain-registered": integrity_chain_registered,
    "bounded-tenant-registry": bounded_tenant_registry,
}


def suppressions(source: str) -> list[tuple[int, int, list[str]]]:
    """(comment line, shielded line, ids) per suppression comment; a
    marker inside a string literal is not a comment."""
    found = []
    if "stormlint:" not in source:
        return found
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        match = _SUPPRESS.search(tok.string) if tok.type == tokenize.COMMENT else None
        if match is None:
            continue
        ids = [part.strip() for part in match.group(1).split(",") if part.strip()]
        row, col = tok.start
        inline = tok.line[:col].strip() != ""
        found.append((row, row if inline else row + 1, ids))
    return found


def check(module: Module) -> tuple[list[Finding], list[tuple[str, int, str]]]:
    """Every rule's findings on ``module``, each marked suppressed or
    not, and the stale suppression ids as (path, comment line, id)."""
    shields = suppressions(module.source)
    shielded: dict[int, set[str]] = {}
    for _, target, ids in shields:
        shielded.setdefault(target, set()).update(ids)
    findings = sorted(
        Finding(module.path, line, rule_id, message, rule_id in shielded.get(line, ()))
        for rule_id, rule in RULES.items()
        for line, message in rule(module)
    )
    fired = {(f.line, f.rule_id) for f in findings}
    stale = [
        (module.path, row, rule_id)
        for row, target, ids in shields
        for rule_id in ids
        if (target, rule_id) not in fired
    ]
    return findings, stale
