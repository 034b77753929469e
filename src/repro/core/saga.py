"""The control plane's saga engine: intent log, sagas, the one step
loop, and the controller node.

Every multi-step control operation — the atomic volume attach (paper
§III-A), object-session splicing, detach, chain reconfiguration,
middle-box (de)provisioning — is a :class:`Saga`: an ordered list of
idempotent :class:`SagaStep`\\ s, each with a compensating ``undo``,
journaled in a write-ahead :class:`IntentLog`.  There is no
non-journaled mode.  :class:`SagaEngine` holds the only loop over a
saga's steps; it serves three callers:

- a fresh operation that may wait (the attach: holds the attach mutex
  over the ``locked`` step prefix, runs yielding steps as child
  processes);
- a fresh operation that must not wait (detach, reconfigure,
  provisioning): a step that yields is a :class:`SagaError` and the
  saga is compensated;
- a journaled saga being resumed after a controller crash or an HA
  leader change: steps already journaled ``done`` are skipped.

Crash semantics mirror the active relay's NVM journal: the log
*survives* a controller crash (it models journaled controller state),
while the in-flight orchestration dies — :class:`ControllerCrashed` is
raised at the next step boundary once the executor has lost its
authority (:attr:`SagaEngine.authority`: the single node is up, or the
HA leadership that began the saga still stands).
:meth:`SagaEngine.resolve` — called by ``StorM.recover`` on restart
and by ``HaCluster._takeover`` on election — then settles every
in-flight saga to exactly one of two audited states:

- the **pivot** step (commit barrier) completed → *roll forward*:
  resume the remaining steps (all idempotent and synchronous by
  construction);
- otherwise → *roll back*: run the compensations of every started
  step in reverse order.

Either way no wildcard steering rule, transient NAT entry, or
half-spliced flow outlives recovery — the invariant the
:class:`repro.core.reconcile.Reconciler` audits.  A settled saga keeps
its record and drops its step closures at once
(:meth:`SagaEngine.settle`); the records are snapshotted out of the
log every :data:`COMPACT_EVERY` settlements, so the journal stays
O(active operations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

from repro.net.link import Interface
from repro.net.packet import Packet
from repro.net.stack import Node
from repro.obs.eventlog import EventLog
from repro.sim import Resource, Simulator

#: Saga lifecycle states.
IN_FLIGHT = "in-flight"
COMMITTED = "committed"
ABORTED = "aborted"

#: Resolved (committed or aborted) sagas between two log compactions.
COMPACT_EVERY = 64


class SagaError(Exception):
    """Misuse of the saga machinery (a step yields where the executor
    may not wait)."""


class ControllerCrashed(Exception):
    """The control-plane node died mid-operation; recovery will finish
    or compensate the saga when the controller restarts."""

    def __init__(self, op: str, step: str = "") -> None:
        super().__init__(f"controller crashed during {op!r} (step {step or '<pre>'})")
        self.op = op
        self.step = step


class QuorumLost(ControllerCrashed):
    """The HA leader could not replicate a journal entry to a quorum
    of control-plane replicas (or lost its leadership): the entry does
    not commit and the saga is left in-flight for the next leader's
    takeover.  A subclass of :class:`ControllerCrashed` so the
    engine's crash handling applies unchanged."""


@dataclass
class SagaStep:
    """One idempotent unit of a control operation.

    ``do`` either returns a value (synchronous step) or a generator
    (the engine runs it as a child process — only allowed *before*
    the pivot, so crash recovery never needs to resume a yield).
    ``undo`` compensates a started-but-unfinished or rolled-back step
    and must tolerate the step having only partially applied.
    """

    name: str
    do: Callable[[], Any]
    undo: Optional[Callable[[], None]] = None
    #: commit barrier: once this step's completion is journaled, crash
    #: recovery rolls the saga *forward* instead of compensating.
    pivot: bool = False
    #: run while holding the attach mutex (the engine releases the
    #: mutex before the first non-locked step).
    locked: bool = True
    #: stash the step result under this key in the saga's shared state.
    store: Optional[str] = None
    #: declares that this step intentionally has no compensator: it is
    #: idempotent teardown that recovery re-drives forward rather than
    #: undoing.  Purely declarative (an absent ``undo`` already runs
    #: nothing) — but stormlint's ``saga-compensated`` contract rule
    #: requires every pre-pivot step to carry either an ``undo`` or
    #: this marker, so the "no compensator" decision is always explicit
    #: and reviewable at the call site.
    forward_only: bool = False


class Saga:
    """A journaled control operation: steps + append-only journal."""

    def __init__(
        self,
        saga_id: int,
        op: str,
        cookie: str,
        steps: list[SagaStep],
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        self.saga_id = saga_id
        self.op = op
        self.cookie = cookie
        self.steps = steps
        self.detail = detail or {}
        self.status = IN_FLIGHT
        self.pivoted = False
        #: append-only journal: "begin", "start:<step>", "done:<step>",
        #: "pivot", "commit", "abort"
        self.journal: list[str] = ["begin"]
        #: per-step results (survive the crash alongside the journal,
        #: like the relay's NVM payloads)
        self.results: dict[str, Any] = {}
        #: shared mutable state the step closures read/write
        self.state: dict[str, Any] = {}
        #: HA provenance (:mod:`repro.core.ha`): the leadership term
        #: and leader node that began (or adopted) this saga.  Zero /
        #: empty on the single-node controller.
        self.term = 0
        self.origin = ""
        #: HA hook: when set, :meth:`mark` forwards every journal
        #: entry through it (``shipper(saga, entry)``) so the entry is
        #: quorum-replicated *before* the step it records executes.
        #: The hook may raise :class:`QuorumLost`; the entry stays in
        #: the local journal either way (append-then-ship — exactly
        #: what compensation closures must tolerate).
        self.shipper: Optional[Callable[["Saga", str], None]] = None
        #: cumulative replication round-trip time this saga's journal
        #: entries spent on the HA shipping mesh (seconds of simulated
        #: link latency; the slowest acked peer per entry).  Zero on
        #: the single-node controller.  The fleet harness charges this
        #: into the ``fleet.attach.latency`` histogram so attach p99
        #: reflects quorum shipping, not just data-plane connect time.
        self.ship_rtt = 0.0

    def mark(self, entry: str) -> None:
        self.journal.append(entry)
        if self.shipper is not None:
            self.shipper(self, entry)

    def started(self, step_name: str) -> bool:
        return f"start:{step_name}" in self.journal

    def done(self, step_name: str) -> bool:
        return f"done:{step_name}" in self.journal

    @property
    def incomplete(self) -> bool:
        return self.status == IN_FLIGHT

    def __repr__(self) -> str:
        return f"Saga#{self.saga_id}({self.op}, {self.cookie}, {self.status})"


class IntentLog:
    """Write-ahead journal of control operations (controller NVM).

    Purely passive storage: :class:`SagaEngine` appends sagas and
    journal entries; recovery and the reconciler read them back.
    """

    def __init__(self) -> None:
        self.sagas: list[Saga] = []
        self._ids = itertools.count(1)
        #: HA hook (:class:`repro.core.ha.HaCluster`): when set, every
        #: new saga is quorum-replicated at creation (``ship_begin``),
        #: its journal entries ship through :attr:`Saga.shipper`, and
        #: :meth:`compact` compacts the replica logs too.
        self.shipper: Optional[Any] = None
        #: sagas snapshotted away by :meth:`compact`, by final status
        self.compacted_committed = 0
        self.compacted_aborted = 0

    def begin(
        self,
        op: str,
        cookie: str,
        steps: list[SagaStep],
        detail: Optional[dict[str, Any]] = None,
    ) -> Saga:
        saga = Saga(next(self._ids), op, cookie, steps, detail)
        self.sagas.append(saga)
        if self.shipper is not None:
            self.shipper.ship_begin(saga)  # may raise QuorumLost
        return saga

    def incomplete(self) -> list[Saga]:
        """Sagas with neither a commit nor an abort record."""
        return [s for s in self.sagas if s.incomplete]

    def in_flight_cookies(self) -> set[str]:
        """Cookies of live operations — the reconciler must not treat
        their transient rules as drift.  Assumes recovery has already
        resolved any crash-orphaned sagas."""
        return {s.cookie for s in self.sagas if s.incomplete}

    def by_op(self, op: str) -> list[Saga]:
        return [s for s in self.sagas if s.op == op]

    def compact(self) -> int:
        """Snapshot resolved sagas out of the log (and, under HA, out
        of every replica log), so crash replay (recovery iterates
        :meth:`incomplete`) and HA log-shipping catch-up stay
        O(active sagas) instead of O(all history).  Only counters
        remain for the dropped sagas; in-flight sagas — the only ones
        recovery can act on — are untouched, so replay after
        compaction resolves exactly what replay without it would."""
        if self.shipper is not None:
            self.shipper.compact()
        resolved = [s for s in self.sagas if not s.incomplete]
        for saga in resolved:
            if saga.status == COMMITTED:
                self.compacted_committed += 1
            else:
                self.compacted_aborted += 1
        self.sagas = [s for s in self.sagas if s.incomplete]
        return len(resolved)

    @property
    def compacted(self) -> int:
        return self.compacted_committed + self.compacted_aborted

    def __len__(self) -> int:
        return len(self.sagas)


class SagaEngine:
    """Begins, runs, resumes and resolves sagas against one
    :class:`IntentLog`.

    The owner (``StorM``) wires :attr:`authority` to its controller;
    :attr:`obs`, :attr:`probe` and :attr:`on_commit` are optional hooks
    that cost nothing while unset.
    """

    def __init__(self, sim: Simulator, event_log: Optional[EventLog] = None) -> None:
        self.sim = sim
        self.log = IntentLog()
        #: serializes the ``locked`` step prefixes (the attach's
        #: wildcard-rule window) platform-wide
        self.mutex = Resource(sim, capacity=1)
        #: may the executor of this saga still act?  Checked at every
        #: step boundary; ``False`` raises :class:`ControllerCrashed`.
        #: ``StorM`` points it at ``not node.crashed`` or at
        #: ``HaCluster.has_authority``.
        self.authority: Callable[[Saga], bool] = lambda saga: True
        #: recovery timeline (shared with the fault injector in chaos
        #: runs); None records nothing.
        self.event_log = event_log
        #: observability bus (set by ``repro.obs.instrument``): when
        #: non-None every saga runs under a span with step events.
        self.obs: Any = None
        #: test/chaos hook: called as ``probe(saga, step, "before"|"after")``
        #: around every step — the control-plane chaos matrices use it
        #: to crash the controller at exact saga points.
        self.probe: Optional[Callable[[Saga, SagaStep, str], None]] = None
        #: post-commit hook called as ``on_commit(saga)``; the fleet
        #: generator reads per-saga shipping RTT through it.
        self.on_commit: Optional[Callable[[Saga], None]] = None
        self._resolved = 0

    def _record(self, kind: str, target: str, **detail: Any) -> None:
        if self.event_log is not None:
            self.event_log.record(self.sim.now, kind, target, **detail)

    def begin(
        self,
        op: str,
        cookie: str,
        steps: list[SagaStep],
        state: Optional[dict[str, Any]] = None,
        **detail: Any,
    ) -> Saga:
        """Journal a new saga (quorum-shipped under HA; may raise
        :class:`QuorumLost`).  ``state`` is the dict the step closures
        were built over, so ``store``d results land where they read."""
        saga = self.log.begin(op, cookie, steps, detail)
        self._record("saga.begin", cookie, op=op)
        if state is not None:
            saga.state = state
        return saga

    def run(
        self, saga: Saga, may_yield: bool = True, resume: bool = False
    ) -> Generator[Any, Any, Any]:
        """Process: the one loop over a saga's steps.

        With ``may_yield`` the attach mutex is held across the
        ``locked`` step prefix and a step returning a generator runs as
        a child process; without it such a step is a
        :class:`SagaError`.  ``resume`` skips steps already journaled
        as done.  On an ordinary exception the started steps are
        compensated immediately; on :class:`ControllerCrashed` the saga
        stays in flight in the intent log for :meth:`resolve`.
        """
        span = None
        if self.obs is not None:
            span = self.obs.span(f"saga.{saga.op}", cookie=saga.cookie)
        # a concurrent recovery may settle the saga while this run waits
        # (for the mutex, or on a yielding step), which rebinds its
        # steps and state; the run keeps the list and dict it began with
        steps, state = saga.steps, saga.state
        outcome = "aborted"
        grant = None
        if may_yield and any(step.locked for step in steps):
            grant = self.mutex.request()
            yield grant
        try:
            for step in steps:
                if resume and saga.done(step.name):
                    continue
                if grant is not None and not step.locked:
                    self.mutex.release(grant)
                    grant = None
                self._boundary(saga, step, "before")
                saga.mark(f"start:{step.name}")
                result = step.do()
                if isinstance(result, GeneratorType):
                    if not may_yield:
                        raise SagaError(
                            f"step {step.name!r} of {saga.op!r} yields where "
                            "the engine may not wait"
                        )
                    result = yield self.sim.process(result)
                self._finish_step(saga, step, result, state)
                if span is not None:
                    span.event("saga.step", target=step.name)
                self._boundary(saga, step, "after")
            value = saga.results.get(steps[-1].name) if steps else None
            self._commit(saga)
            outcome = "committed"
            return value
        except ControllerCrashed:
            outcome = "crashed"
            raise
        except BaseException:
            self._rollback(saga)
            raise
        finally:
            if span is not None:
                span.finish(outcome)
            if grant is not None:
                self.mutex.release(grant)

    def run_now(self, saga: Saga, resume: bool = False) -> Any:
        """Run (or resume) a saga that must not wait — detach,
        reconfigure, provisioning, and every recovery replay."""
        try:
            self.run(saga, may_yield=False, resume=resume).send(None)
        except StopIteration as finished:
            return finished.value
        raise AssertionError("a saga that may not yield yielded")

    def resolve(self, sagas: Iterable[Saga]) -> dict[str, int]:
        """Settle in-flight sagas after a controller crash or an HA
        leader change: resume forward when the pivot step was
        journaled, compensate otherwise.  Stops early if authority is
        lost mid-way (the next recovery finishes); safe to repeat."""
        summary = {"replayed": 0, "rolled_back": 0}
        for saga in sagas:
            try:
                if saga.pivoted:
                    self.run_now(saga, resume=True)
                    summary["replayed"] += 1
                    self._record("saga.replay", saga.cookie, op=saga.op)
                else:
                    self._rollback(saga)
                    summary["rolled_back"] += 1
            except ControllerCrashed:
                break
        return summary

    def _boundary(self, saga: Saga, step: SagaStep, when: str) -> None:
        if self.probe is not None:
            self.probe(saga, step, when)
        if not self.authority(saga):
            raise ControllerCrashed(saga.op, step.name)

    def _finish_step(
        self, saga: Saga, step: SagaStep, result: Any, state: dict[str, Any]
    ) -> None:
        if step.store is not None:
            state[step.store] = result
        if saga.status == ABORTED:
            # a concurrent recovery (controller restarted while this
            # step's child process was still in flight) already rolled
            # the saga back — compensate this straggler result too.
            if step.undo is not None:
                step.undo()
            raise ControllerCrashed(saga.op, step.name)
        saga.results[step.name] = result
        saga.mark(f"done:{step.name}")
        if step.pivot:
            saga.pivoted = True
            saga.mark("pivot")

    def _commit(self, saga: Saga) -> None:
        self.settle(saga, COMMITTED)
        self._record("saga.commit", saga.cookie, op=saga.op)
        if self.on_commit is not None:
            self.on_commit(saga)

    def _rollback(self, saga: Saga) -> None:
        """Run compensations, newest started step first.  Undo closures
        are idempotent and tolerate partially-applied steps."""
        if saga.status != IN_FLIGHT:
            return
        for step in reversed(saga.steps):
            if not saga.started(step.name) or step.undo is None:
                continue
            step.undo()
            self._record("saga.undo", saga.cookie, op=saga.op, step=step.name)
        self.settle(saga, ABORTED)
        self._record("saga.rollback", saga.cookie, op=saga.op)

    def settle(self, saga: Saga, status: str) -> None:
        """Resolve ``saga`` for good as :data:`COMMITTED` or
        :data:`ABORTED`: journal the outcome and count it towards the
        one compaction trigger (every :data:`COMPACT_EVERY`
        settlements).

        A settled saga keeps its record — journal, status, op, cookie,
        detail, HA provenance, ship RTT — and drops its steps, state
        and results: their closures pin the operation's whole object
        graph, and nothing runs them again (:meth:`resolve` touches
        only in-flight sagas).  The three are rebound, not cleared,
        because a caller's ``state`` dict is the one its closures were
        built over and may still be read after :meth:`run_now`.
        The engine's commit and rollback settle here, and so does an
        HA ``ship_begin`` whose first entry found no quorum."""
        saga.status = status
        saga.steps, saga.state, saga.results = [], {}, {}
        saga.mark("commit" if status == COMMITTED else "abort")
        self._resolved += 1
        if self._resolved >= COMPACT_EVERY:
            self._resolved = 0
            self.log.compact()


class ControlPlaneNode(Node):
    """The StorM controller as a crashable node.

    On the single-node platform it has no NICs (the simulated control
    channel is direct method calls), but being a
    :class:`~repro.net.stack.Node` means
    :meth:`repro.faults.FaultInjector.crash` /
    :meth:`~repro.faults.FaultInjector.restart` treat it exactly like
    any other machine.  The engine's authority check reads
    :attr:`crashed` at every step boundary; the injector invokes
    :attr:`on_restart` (wired to ``StorM.recover``, or to the HA
    cluster's rejoin) when the node comes back.

    With :mod:`repro.core.ha` the replicas additionally get real NICs
    on real replication links; :attr:`on_message` intercepts their
    election/heartbeat traffic before the TCP stack (which would drop
    the non-TCP payloads).
    """

    def __init__(self, sim: Simulator, name: str = "storm-controller") -> None:
        super().__init__(sim, name)
        #: called by the fault injector after a restart re-plugs the
        #: node; StorM points this at its crash-recovery routine (the
        #: HA cluster points it at the replica's rejoin handler).
        self.on_restart: Optional[Callable[[], Any]] = None
        #: HA control-message handler; when set, every frame addressed
        #: to this node's NICs is delivered here instead of the stack.
        self.on_message: Optional[Callable[[Any], None]] = None

    def receive(self, packet: Packet, iface: Interface) -> None:
        handler = self.on_message
        if handler is None:
            super().receive(packet, iface)
            return
        if self.crashed or packet.dst_mac != iface.mac:
            return
        packet.record_hop(self.name)
        handler(packet.payload)
