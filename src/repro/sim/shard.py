"""Sharded simulation domains with a deterministic merge.

Fleet-scale runs partition *non-interacting* work (per-tenant spliced
flows, or whole per-domain mini-clouds) across K
:class:`ShardSimulator` shards.  Each shard owns a private clock, heap,
and deferred FIFO — exactly a :class:`~repro.sim.core.Simulator` —
while every occurrence across all shards draws its sequence number
from ONE kernel-wide counter.  :class:`ShardedKernel` then interleaves
the shards by repeatedly stepping the shard whose next occurrence has
the globally smallest ``(time, seq)`` key.

Determinism argument (DESIGN.md §15):

- within a shard, occurrences are processed in ``(time, seq)`` order
  (the base kernel's invariant, untouched here);
- a shard's next-occurrence key never decreases: processing an entry
  at key ``(t, s)`` can only enqueue entries at ``(t, s')`` with
  ``s' > s`` (the shared counter is monotone) or at later times;
- therefore the merged stream — always popping the globally minimal
  key — is the unique ``(time, seq)``-sorted interleaving, independent
  of anything but the schedule calls themselves.

With ``shards=1`` the single shard allocates the same sequence numbers
a plain :class:`Simulator` would (one counter, starting at zero) and
the merge loop degenerates to the base run loop, so a one-shard kernel
is bit-identical to an unsharded run — the property
``tests/sim/test_shard.py`` pins.

Partition rule: simulation objects (nodes, links, sockets, platforms)
must live entirely within one shard; processes only ever schedule onto
their own shard's queues.  Cross-shard interaction is not detected —
it is excluded by construction (the fleet generator builds one
self-contained cloud per shard).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.sim.core import (
    _DEFERRED_EVENT,
    _DEFERRED_INTERRUPT,
    _DEFERRED_RESUME,
    Event,
    Process,
    SimulationError,
    Simulator,
)


class ShardSimulator(Simulator):
    """A :class:`Simulator` whose sequence numbers come from the
    owning :class:`ShardedKernel`'s shared counter.

    Only the four seq-allocating entry points are overridden; the step
    loop, process machinery, and every simulation object on top are
    the stock kernel's — a shard *is* a Simulator, so full testbeds
    (clouds, platforms, workloads) build on it unchanged.
    """

    __slots__ = ("kernel", "shard_id")

    def __init__(self, kernel: "ShardedKernel", shard_id: int) -> None:
        super().__init__()
        self.kernel = kernel
        self.shard_id = shard_id

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        kernel = self.kernel
        seq = kernel._sequence
        kernel._sequence = seq + 1
        if delay == 0.0:
            self._deferred.append((seq, _DEFERRED_EVENT, event))
        else:
            heapq.heappush(self._heap, (self.now + delay, seq, event))

    def _defer_resume(self, process: Process, value: Any, ok: bool, epoch: int) -> None:
        kernel = self.kernel
        seq = kernel._sequence
        kernel._sequence = seq + 1
        self._deferred.append((seq, _DEFERRED_RESUME, process, value, ok, epoch))

    def _defer_interrupt(self, process: Process, cause: Any) -> None:
        kernel = self.kernel
        seq = kernel._sequence
        kernel._sequence = seq + 1
        self._deferred.append((seq, _DEFERRED_INTERRUPT, process, cause))

    def schedule_abs(self, when: float, event: Event) -> None:
        if when < self.now:
            raise SimulationError("schedule_abs into the past")
        kernel = self.kernel
        seq = kernel._sequence
        kernel._sequence = seq + 1
        heapq.heappush(self._heap, (when, seq, event))


def _peek_key(shard: ShardSimulator) -> Optional[tuple[float, int]]:
    """The ``(time, seq)`` key of the shard's next occurrence, or None.

    Mirrors :meth:`Simulator.step`'s deferred-vs-heap arbitration:
    deferred entries sit at the shard's current time; a heap event
    outranks them only when it fires now with an older sequence.
    """
    deferred = shard._deferred
    heap = shard._heap
    if deferred:
        first: int = deferred[0][0]
        if heap and heap[0][0] <= shard.now and heap[0][1] < first:
            return (heap[0][0], heap[0][1])
        return (shard.now, first)
    if heap:
        return (heap[0][0], heap[0][1])
    return None


class ShardedKernel:
    """K shard-local event queues merged by global ``(time, seq)``."""

    __slots__ = ("shards", "_sequence", "_keys")

    def __init__(self, shards: int = 1) -> None:
        if shards < 1:
            raise SimulationError(f"need at least one shard, got {shards}")
        self._sequence = 0
        self.shards: list[ShardSimulator] = [
            ShardSimulator(self, i) for i in range(shards)
        ]
        #: cached per-shard peek keys; only the stepped shard's entry
        #: is recomputed between steps, so the merge loop costs one
        #: ``min`` over K cached tuples per occurrence.
        self._keys: list[Optional[tuple[float, int]]] = [None] * shards

    # -- bookkeeping --------------------------------------------------

    @property
    def events(self) -> int:
        """Total occurrences allocated across all shards (the fleet
        benchmarks' machine-independent event count)."""
        return self._sequence

    @property
    def now(self) -> float:
        """The merged frontier: the furthest shard clock."""
        return max(shard.now for shard in self.shards)

    def shard_for(self, index: int) -> ShardSimulator:
        """Deterministic placement: item ``index`` → shard ``index % K``."""
        return self.shards[index % len(self.shards)]

    # -- execution ----------------------------------------------------

    def _refresh(self) -> None:
        for i, shard in enumerate(self.shards):
            self._keys[i] = _peek_key(shard)

    def _min_shard(self) -> int:
        best = -1
        best_key: Optional[tuple[float, int]] = None
        for i, key in enumerate(self._keys):
            if key is not None and (best_key is None or key < best_key):
                best = i
                best_key = key
        return best

    def step(self) -> bool:
        """Process the globally next occurrence; False when drained."""
        self._refresh()
        i = self._min_shard()
        if i < 0:
            return False
        self.shards[i].step()
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Merge-run all shards until every queue drains or the time
        horizon passes.  With a horizon every shard clock is advanced
        to it, exactly like :meth:`Simulator.run`."""
        self._refresh()
        keys = self._keys
        shards = self.shards
        while True:
            i = self._min_shard()
            if i < 0:
                break
            key = keys[i]
            assert key is not None
            if until is not None and key[0] > until:
                break
            shards[i].step()
            keys[i] = _peek_key(shards[i])
        if until is not None:
            for shard in shards:
                if until > shard.now:
                    shard.now = until

    def run_until(self, event: Event) -> Any:
        """Merge-run until ``event`` has been processed (on any shard)."""
        while not event._processed:
            if not self.step():
                raise SimulationError(
                    "sharded kernel ran out of events before the awaited event fired"
                )
        if not event.ok:
            raise event.value
        return event.value
