"""``Resource``: a pool of ``capacity`` slots held until released,
granted FIFO.  The oracle for the code that replaced it in ``repro``.

The kernel's CPU meters and disks once claimed a ``Resource`` grant per
charge or access (``Slots`` replaced that), and the saga engine's attach
mutex was a capacity-1 ``Resource`` (a FIFO of grant events replaced
that).  ``tests/sim/test_slots.py`` and ``tests/core/test_saga_engine.py``
run the replacements against this code; only the tests import it.

Grant/release bookkeeping is O(1) amortized: requests carry their own
state instead of being searched for in lists, and a request released
while still queued is cancelled *lazily* — it stays in the deque and is
skipped when it reaches the front.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim import Event, SimulationError, Simulator

#: Request lifecycle states.
_QUEUED = 0
_GRANTED = 1
_RELEASED = 2
_CANCELLED = 3


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
