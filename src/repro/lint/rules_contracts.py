"""Contract rules: subsystem invariants DESIGN.md §11–§14 promise.

Until now these contracts were enforced only by prose — obs passivity,
saga compensation pairing, integrity chain registration symmetry.
Each rule here turns one of them into a whole-program check over the
call graph and effect fixpoint, so a PR that silently violates a
sibling subsystem's contract fails CI with the offending call chain in
the finding.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint import effects as fx
from repro.lint.callgraph import ModuleSummary, Program
from repro.lint.findings import Finding, Rule, rule
from repro.lint.rules_flow import is_harness_module


def _leaf_findings(
    program: Program,
    rule_obj: Rule,
    chains: dict[str, list[str]],
    banned: frozenset[str],
    contract: str,
) -> Iterator[Finding]:
    """Report every banned leaf effect reachable via ``chains``."""
    for qual in sorted(chains):
        fn = program.functions[qual]
        module = qual.rsplit(".", 2)[0] if fn.cls else qual.rsplit(".", 1)[0]
        summary = program.modules.get(module)
        if summary is None:
            continue
        chain = chains[qual]
        for site in fn.effect_sites:
            if site.effect not in banned:
                continue
            yield Finding(
                rule_id=rule_obj.id,
                path=summary.path,
                line=site.line,
                col=1,
                message=(
                    f"{contract}: {site.effect} via " + " -> ".join(chain)
                ),
                snippet=site.snippet,
                chain=tuple(chain),
            )


@rule
class ObsPassiveRule(Rule):
    """The observability bus must stay purely passive.

    Failure scenario: a sink "helpfully" schedules a flush with
    ``sim.timeout(...)`` or salts a sampling decision with ``sim.rng``.
    Attaching the bus now perturbs the event stream, and the
    obs-off-equals-``pinned.json`` guarantee (DESIGN.md §11)
    breaks only in instrumented runs — the worst place to debug.
    Nothing reachable from a function defined in an ``obs`` package
    may schedule kernel events or draw from ``sim.rng``.
    """

    id = "obs-passive"
    summary = "nothing reachable from repro.obs may schedule events or touch sim.rng"
    family = "contract"
    needs_program = True

    _BANNED = frozenset({fx.KERNEL_SCHEDULE, fx.SIM_RNG})

    def check_program(self, program: Program) -> Iterator[Finding]:
        roots = [
            f.qual
            for mod in sorted(program.modules)
            if "obs" in mod.split(".") and not is_harness_module(mod)
            for f in program.modules[mod].functions
        ]
        chains = program.reachable_chains(roots)
        yield from _leaf_findings(
            program, self, chains, self._BANNED, "obs passivity contract"
        )


@rule
class SagaCompensatedRule(Rule):
    """Every pre-pivot saga step needs a compensator (or an explicit
    forward-only marker).

    Failure scenario: an attach saga grows a new step that allocates a
    NAT binding but registers no ``undo``.  A crash after that step
    compensates the *other* steps and leaks the binding — the drift
    reconciler later reports a rule nobody owns.  Steps listed after
    the ``pivot=True`` barrier are rolled forward by recovery and are
    implicitly forward-only, as is the pivot itself (it is the
    irreversible step by definition); anything earlier must pass
    ``undo=...`` or declare ``forward_only=True`` (with a
    justification comment).
    """

    id = "saga-compensated"
    summary = "pre-pivot SagaSteps must register undo= or forward_only=True"
    family = "contract"
    needs_program = True

    def check_program(self, program: Program) -> Iterator[Finding]:
        for mod in sorted(program.modules):
            if is_harness_module(mod):
                continue
            summary = program.modules[mod]
            for site in summary.saga_steps:
                if site.has_undo or site.forward_only or site.pivot or site.after_pivot:
                    continue
                label = f" {site.step_name!r}" if site.step_name else ""
                yield Finding(
                    rule_id=self.id,
                    path=summary.path,
                    line=site.line,
                    col=1,
                    message=(
                        f"saga step{label} has no compensator: pass undo=..., "
                        "mark forward_only=True, or move it past the pivot"
                    ),
                    snippet=site.snippet,
                )


@rule
class IntegrityChainRegisteredRule(Rule):
    """Chain registration must have a matching detach-path unregister.

    Failure scenario: a new control-plane path calls
    ``register_chain(...)`` on attach but nobody unregisters on detach.
    The integrity layer keeps verifying hop marks against a chain that
    no longer exists; the next tenant to reuse the IQN fails
    verification with a *stale* traversal proof, and per-flow state
    grows O(ever-attached) — exactly the leak the fleet-scale roadmap
    item bans.  Every module that registers chains must also contain
    the unregister call its detach path runs.
    """

    id = "integrity-chain-registered"
    summary = "register_chain call sites need a matching unregister_chain in-module"
    family = "contract"
    needs_program = True

    def check_program(self, program: Program) -> Iterator[Finding]:
        for mod in sorted(program.modules):
            if is_harness_module(mod):
                continue
            summary = program.modules[mod]
            registers = self._sites(summary, "register_chain")
            if not registers:
                continue
            if self._sites(summary, "unregister_chain"):
                continue
            for line in registers:
                yield Finding(
                    rule_id=self.id,
                    path=summary.path,
                    line=line,
                    col=1,
                    message=(
                        "register_chain has no matching unregister_chain in "
                        "this module: the detach path must tear the chain down"
                    ),
                    # snippet backfilled by the engine from the source line
                )

    @staticmethod
    def _sites(summary: ModuleSummary, name: str) -> list[int]:
        return sorted(
            call.line
            for f in summary.functions
            for call in f.calls
            if call.name == name
        )


@rule
class BoundedTenantRegistryRule(Rule):
    """Every per-tenant/per-flow keyed container needs an evict path.

    Failure scenario: a module grows a convenience cache —
    ``self._by_tenant[tenant.name] = ...`` — populated on attach and
    never cleaned.  Nothing breaks in tests (a few tenants, short
    runs), but at fleet scale the process holds an entry for every
    session *ever attached*: memory is O(ever-attached) instead of
    O(active), and the ``peak_rss_mb`` gate on ``fleet_churn`` trips
    (``benchmarks/e2e``, DESIGN.md §15).  Any module that stores into a container
    whose name or key mentions a session identifier (tenant / flow /
    iqn / conn / sess) must also contain an eviction for that same
    container (``pop`` / ``del`` / ``clear`` / ``discard`` /
    ``remove``), wired into the detach path.  Registries bounded by
    configuration rather than by churn can suppress with a reason.
    """

    id = "bounded-tenant-registry"
    summary = "tenant/flow-keyed containers need a matching evict path in-module"
    family = "contract"
    needs_program = True

    def check_program(self, program: Program) -> Iterator[Finding]:
        for mod in sorted(program.modules):
            if is_harness_module(mod):
                continue
            summary = program.modules[mod]
            evicted = {
                r.name for r in summary.registries if r.kind == "evict"
            }
            flagged: set[str] = set()
            for site in summary.registries:
                if site.kind != "store" or site.name in evicted:
                    continue
                if site.name in flagged:
                    continue
                flagged.add(site.name)
                yield Finding(
                    rule_id=self.id,
                    path=summary.path,
                    line=site.line,
                    col=1,
                    message=(
                        f"registry {site.name!r} is keyed by a session "
                        "identifier but this module never evicts from it: "
                        "state grows O(ever-attached), not O(active) — "
                        "pop entries on the detach path"
                    ),
                    snippet=site.snippet,
                )
