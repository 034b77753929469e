"""Flow rules: transitive nondeterminism reachable from the kernel.

The per-file determinism rules catch a ``time.time()`` where it is
written; these rules catch the one *three modules away* — a helper the
simulation reaches through an innocent-looking call chain.  Each rule
walks the whole-program call graph (:mod:`repro.lint.callgraph`) from
every function defined in the simulation domains (``*.sim``,
``*.core``, ``*.net``) and reports any reachable leaf whose effect set
contains the banned nondeterminism source, with the full call chain in
the finding (the text output prints it).

A leaf *directly inside* a domain function is the per-file sibling
rule's job and is not re-reported here (the chain would have length
one); suppressing the sibling rule on the leaf line also suppresses
the flow rule there (``suppression_aliases``), so one reviewed
``# stormlint: ignore[...]`` never needs to be written twice.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint import effects as fx
from repro.lint.callgraph import FunctionInfo, Program
from repro.lint.findings import Finding, Rule, rule

#: second-level package names that form the simulation domain: any
#: function defined under ``<top>.sim``, ``<top>.core`` or ``<top>.net``
#: is a root for reachability (fixture packages link the same way the
#: real ``repro`` tree does).
DOMAIN_SEGMENTS: frozenset[str] = frozenset({"sim", "core", "net"})

#: top-level packages that are *drivers* of the simulation, not part of
#: it — test suites and harnesses call kernels, clocks, and RNGs by
#: design, so they are neither roots nor subjects for program rules
HARNESS_PACKAGES: frozenset[str] = frozenset({"tests", "benchmarks", "examples"})


def is_harness_module(module: str) -> bool:
    return module.split(".", 1)[0] in HARNESS_PACKAGES


def in_simulation_domain(module: str) -> bool:
    parts = module.split(".")
    if is_harness_module(module):
        return False
    if parts and parts[0] in DOMAIN_SEGMENTS:
        return True
    return len(parts) >= 2 and parts[1] in DOMAIN_SEGMENTS


def _module_last(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class _FlowRule(Rule):
    """Shared machinery: BFS from the domain roots, report banned
    leaves with their shortest call chain."""

    family = "flow"
    needs_program = True
    #: effects this rule bans from being transitively reachable
    banned: frozenset[str] = frozenset()
    #: leaf modules (by last dotted segment) where the effect is the
    #: sanctioned implementation (e.g. the SeededRNG wrapper)
    exempt_leaf_modules: frozenset[str] = frozenset()

    def check_program(self, program: Program) -> Iterator[Finding]:
        roots = [
            f.qual
            for mod in sorted(program.modules)
            if in_simulation_domain(mod)
            for f in program.modules[mod].functions
        ]
        chains = program.reachable_chains(roots)
        for qual in sorted(chains):
            chain = chains[qual]
            if len(chain) < 2:
                continue  # direct use: the per-file sibling rule reports it
            fn = program.functions[qual]
            module = qual.rsplit(".", 2)[0] if fn.cls else qual.rsplit(".", 1)[0]
            if is_harness_module(module):
                continue
            if _module_last(module) in self.exempt_leaf_modules:
                continue
            yield from self._report(program, fn, module, chain)

    def _report(
        self, program: Program, fn: FunctionInfo, module: str, chain: list[str]
    ) -> Iterator[Finding]:
        path = program.modules[module].path
        for site in fn.effect_sites:
            if site.effect not in self.banned:
                continue
            yield Finding(
                rule_id=self.id,
                path=path,
                line=site.line,
                col=1,
                message=(
                    f"{site.effect} reachable from the simulation domain: "
                    + " -> ".join(chain)
                ),
                snippet=site.snippet,
                chain=tuple(chain),
            )


@rule
class TransitiveWallClockRule(_FlowRule):
    """Ban wall-clock reads anywhere the simulation can reach.

    Failure scenario: the kernel calls a formatting helper that calls
    ``time.time()`` three modules away.  The per-file rule sees only
    one file at a time and the helper's module looks like plumbing —
    but every replay stamps different values, and the
    ``pinned.json`` comparison fails on exactly one machine.
    The call chain in the finding shows how the kernel reaches it.
    """

    id = "transitive-wall-clock"
    summary = "no wall-clock reads reachable from *.sim/*.core/*.net call chains"
    banned = frozenset({fx.WALL_CLOCK})
    suppression_aliases = ("wall-clock",)


@rule
class TransitiveGlobalRngRule(_FlowRule):
    """Ban global-RNG / OS-entropy draws anywhere the simulation reaches.

    Failure scenario: a domain function calls a helper that draws from
    the process-global ``random`` (or ``uuid.uuid4``/``os.urandom``).
    The per-file import ban only fires in the helper's own file — which
    may be grandfathered, or sit outside the reviewer's diff.  The
    transitive rule pins the *chain* from kernel code to the draw, so
    the reachability itself becomes the reviewable fact.  The
    ``*.rng`` module (the SeededRNG wrapper) is the sanctioned home of
    stdlib ``random`` and is exempt as a leaf.
    """

    id = "transitive-global-rng"
    summary = "no global random/os-entropy reachable from simulation call chains"
    banned = frozenset({fx.GLOBAL_RNG, fx.OS_ENTROPY})
    exempt_leaf_modules = frozenset({"rng"})
    suppression_aliases = ("global-random", "entropy-source")


@rule
class UnorderedEscapeRule(_FlowRule):
    """Ban hash-order escapes anywhere the simulation can reach.

    Failure scenario: a helper returns ``list({...})`` — the per-file
    ``set-iteration`` rule flags the helper's file, but when that file
    is a utility module nobody associates it with the kernel; meanwhile
    the order escapes *into the event stream* because a ``*.net``
    function installs steering rules from the returned list.  This rule
    reports the escape together with the chain that carries it into the
    simulation domains.
    """

    id = "unordered-escape"
    summary = "no set-iteration order escaping into simulation call chains"
    banned = frozenset({fx.UNORDERED_ITER})
    suppression_aliases = ("set-iteration",)
