"""Shared-resource primitives built on the event kernel.

:class:`Slots` models FIFO servers held for a time known up front;
:class:`Resource` a pool held until released (the saga mutex).
:class:`Store` is an unbounded FIFO of items with blocking ``get`` —
the building block for mailboxes, NIC queues, and socket receive
buffers.

Grant/release bookkeeping is O(1) amortized: requests carry their own
state instead of being searched for in lists, and a request released
while still queued is cancelled *lazily* — it stays in the deque and
is skipped when it reaches the front.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque

from repro.sim.core import Event, SimulationError, Simulator

#: Request lifecycle states.
_QUEUED = 0
_GRANTED = 1
_RELEASED = 2
_CANCELLED = 3


class Slots:
    """``k`` FIFO servers as a min-heap of busy-until instants (a k-slot
    :class:`repro.net.link.Horizon`): a claim commits when made, at
    ``max(min(busy), now)``, in a FIFO :class:`Resource`'s grant order."""

    __slots__ = ("busy",)

    def __init__(self, k: int) -> None:
        if k < 1:
            raise SimulationError(f"slot count must be >= 1, got {k}")
        self.busy = [0.0] * k

    def commit(self, now: float, seconds: float) -> float:
        """Claim the earliest-free slot for ``seconds``; return its end."""
        free = self.busy[0]
        end = (free if free > now else now) + seconds
        heapq.heapreplace(self.busy, end)
        return end


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("_state",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self._state = _QUEUED


class Resource:
    """``capacity`` interchangeable slots, granted FIFO."""

    __slots__ = ("sim", "capacity", "count", "queue")

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        #: number of slots currently held
        self.count = 0
        self.queue: Deque[Request] = deque()

    @property
    def waiting(self) -> int:
        """Number of requests still queued (cancelled ones excluded)."""
        return sum(request._state == _QUEUED for request in self.queue)

    def request(self) -> Request:
        req = Request(self)
        if self.count < self.capacity:
            req._state = _GRANTED
            self.count += 1
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        state = request._state
        if state == _GRANTED:
            request._state = _RELEASED
            self.count -= 1
            queue = self.queue
            while queue and self.count < self.capacity:
                nxt = queue.popleft()
                if nxt._state != _QUEUED:
                    continue  # released while waiting: lazily dropped here
                nxt._state = _GRANTED
                self.count += 1
                nxt.succeed()
        elif state == _QUEUED:
            # cancel-in-place; the entry is skipped when it surfaces
            request._state = _CANCELLED
        else:
            raise SimulationError("releasing a request that was never granted")


class Store:
    """Unbounded FIFO of items; ``get`` blocks until an item exists."""

    __slots__ = ("sim", "items", "_getters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek_all(self) -> list[Any]:
        """Non-destructive snapshot (for introspection/tests)."""
        return list(self.items)
