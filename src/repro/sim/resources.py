"""Shared-resource primitives built on the event kernel.

:class:`Slots` models FIFO servers held for a time known up front.
:class:`Store` is an unbounded FIFO of items with blocking ``get``,
for a consumer process that really blocks: a socket's receive queue, a
listener's accept queue, the passive relay's hook queue.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque

from repro.sim.core import Event, SimulationError, Simulator


class Slots:
    """``k`` FIFO servers as a min-heap of busy-until instants (a k-slot
    :class:`repro.net.link.Horizon`): a claim commits when made, at
    ``max(min(busy), now)``, in the order a FIFO queue of ``k``
    servers would grant it."""

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
