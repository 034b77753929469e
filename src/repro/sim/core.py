"""Event loop, events, and generator-based processes.

Time is a float in **seconds**.  Timed occurrences are scheduled onto a
heap keyed by ``(time, sequence)``; *same-time* occurrences (an event
``succeed()``-ed now, a process resume, a zero-delay timeout) go onto
a deferred FIFO ``deque`` instead, bypassing the heap entirely — only
true timeouts pay ``heapq`` cost.  One global sequence counter spans
both queues, so the execution order is the exact FIFO order a pure
heap would produce and runs stay reproducible.

Both queues hold one entry shape.  A heap entry is a plain tuple
``(when, seq, fn, args)`` and a deferred entry the same without the
``when``: a call (:meth:`Simulator.call_at`, a process bootstrap or a
resume off an already-processed event) fires as ``fn(*args)``, and an
event entry has ``fn`` None and the event in place of ``args`` and
fires the event's callbacks.  A call is therefore no object at all, and
the ``seq`` is unique, so heap comparisons never reach ``fn``.

A process waits on one event at a time and nothing cancels a wait, so
every trigger it receives is the one it is waiting for.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable

_UNSET = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* by :meth:`succeed` or :meth:`fail`; the
    simulator then runs its callbacks at the current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "ok", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = _UNSET
        self.ok: bool = True
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once a value/exception is assigned (the event will fire)."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have run; late waiters must not subscribe."""
        return self._processed

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _UNSET:
            raise SimulationError("event already triggered")
        self._value = value
        self.ok = True
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _UNSET:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._value = exception
        self.ok = False
        self.sim._schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self._value = value
        self.ok = True
        sim._schedule(self, delay)


class AnyOf(Event):
    """Fires once any constituent event has fired (at once when there
    are none), with the values of those that fired by then; fails with
    the first failure it sees."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        fired = not self.events
        for event in self.events:
            if event._processed:
                if not event.ok:
                    self.fail(event._value)
                    return
                fired = True
            else:
                event.callbacks.append(self._observe)
        if fired:
            self.succeed(self._results())

    def _observe(self, event: Event) -> None:
        if self._value is not _UNSET:
            return
        if event.ok:
            self.succeed(self._results())
        else:
            self.fail(event._value)

    def _results(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._processed and e.ok}


class Process(Event):
    """A running generator; completes when the generator returns.

    The generator yields :class:`Event` objects; the process resumes
    when the yielded event triggers, receiving the event's value (or
    having the event's exception thrown in, if it failed).
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self, sim: "Simulator", generator: Generator[Event, Any, Any], name: str | None = None
    ) -> None:
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off on the next tick of the loop at the current time.
        sim._defer_resume(self, None, True)

    def _resume(self, trigger: Event) -> None:
        self._step(trigger._value, trigger.ok)

    def _step(self, value: Any, ok: bool) -> None:
        try:
            if ok:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            if self.callbacks:
                self.fail(exc)
                return
            raise
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an Event"
            )
        if target._processed:
            # Already-processed event: resume at the current time via the
            # deferred queue — no throwaway Event allocation.
            self.sim._defer_resume(self, target._value, target.ok)
            return
        target.callbacks.append(self._resume)


def _noop() -> None:
    """What a disarmed call runs (:meth:`Simulator.disarm_calls`)."""


class Simulator:
    """The event loop: virtual clock, a deferred FIFO for same-time
    occurrences, and a time-ordered heap for true timeouts and calls."""

    __slots__ = (
        "now", "_heap", "_deferred", "_sequence", "express",
        "ports", "task_tags", "message_ids",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        #: ``(when, seq, fn, args)`` calls and ``(when, seq, None, event)``
        #: timed events; :attr:`_deferred` holds the same without ``when``
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._deferred: deque[tuple[int, Any, Any]] = deque()
        self._sequence = 0
        #: flow-level fast path (:class:`repro.net.express.ExpressManager`)
        #: — installed by the cloud controller when express mode is on;
        #: ``None`` keeps every hook in the packet path branch-free.
        self.express: Any = None
        #: this run's allocators for the ids looked up across owners:
        #: ephemeral ports (gateways and steering rules identify a flow by
        #: its source port cloud-wide), iSCSI task tags (a relay keys its
        #: journal by tag over every session crossing it) and TCP message
        #: ids.  A new Simulator starts them over, so a run never sees
        #: another run's history.
        self.ports = itertools.count(49152)
        self.task_tags = itertools.count(1)
        self.message_ids = itertools.count(1)

    # -- scheduling --------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        seq = self._sequence
        self._sequence = seq + 1
        if delay == 0.0:
            self._deferred.append((seq, None, event))
        else:
            heapq.heappush(self._heap, (self.now + delay, seq, None, event))

    def _defer_resume(self, process: Process, value: Any, ok: bool) -> None:
        seq = self._sequence
        self._sequence = seq + 1
        # the unbound function: queueing a resume allocates no bound method
        self._deferred.append((seq, Process._step, (process, value, ok)))

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at the absolute time ``when``: the one
        scheduled occurrence a packet pays per network element, one heap
        tuple and nothing else.  The network elements compute occurrence
        times analytically, and pushing the absolute time avoids the
        ``now + (when - now)`` float round-trip of a relative timeout.
        ``when`` must not precede ``now``; a call at ``now`` keeps its
        sequence order among deferred entries, like a zero-delay timeout.
        """
        if when < self.now:
            raise SimulationError("call_at into the past")
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._heap, (when, seq, fn, args))

    def wake_at(self, when: float) -> Event:
        """An event firing at ``when >= now``: a :class:`Timeout`'s seq and
        heap tuple, with no ``now + (when - now)`` round trip."""
        if when < self.now:
            raise SimulationError("wake_at into the past")
        event = Event(self)
        event._value = None
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._heap, (when, seq, None, event))
        return event

    def disarm_calls(
        self,
        fn: Callable[..., Any] | tuple[Callable[..., Any], ...],
        match: Callable[[tuple[Any, ...]], bool],
    ) -> list[tuple[Any, ...]]:
        """Disarm the pending ``call_at`` calls of ``fn`` (or of any of a
        tuple of functions) whose ``args`` satisfy ``match`` and return
        those ``args`` in firing order.

        Each entry is swapped in place for a no-op with the same ``(when,
        seq)``, so the heap stays valid and a disarmed call still
        advances the clock when its time comes.  A heap scan: for rare
        reconfiguration (a fault injector arriving mid-transfer), never
        per packet."""
        fns = fn if isinstance(fn, tuple) else (fn,)
        heap = self._heap
        hits = []
        for i, entry in enumerate(heap):
            if entry[2] in fns and match(entry[3]):
                heap[i] = (entry[0], entry[1], _noop, ())
                hits.append(entry)
        hits.sort()  # (when, seq) is unique: never compares fn
        return [args for _when, _seq, _fn, args in hits]

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------

    def step(self) -> None:
        """Process the single next occurrence (deferred entry or heap
        entry), in global ``sequence`` order for same-time entries.
        The reference for one iteration of :meth:`run`'s loop."""
        deferred = self._deferred
        heap = self._heap
        # Deferred entries always sit at the current time; a heap entry
        # only goes first if it fires now with an older seq.
        if deferred and not (heap and heap[0][0] <= self.now and heap[0][1] < deferred[0][0]):
            _seq, fn, arg = deferred.popleft()
        else:
            when, _seq, fn, arg = heapq.heappop(heap)
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
        if fn is not None:
            fn(*arg)
            return
        arg._processed = True
        callbacks, arg.callbacks = arg.callbacks, []
        for callback in callbacks:
            callback(arg)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until both queues drain, ``until`` seconds, or an event
        fires.  Returns the event's value when ``until`` is an Event.

        One loop serves all three modes: :meth:`step`'s body inlined,
        stopping when ``stop`` is processed (a fresh, never-triggered
        event unless ``until`` is one) or the next heap entry lies past
        ``horizon`` (infinite unless ``until`` is a time).
        """
        if isinstance(until, Event):
            stop, horizon = until, math.inf
        else:
            stop = Event(self)
            horizon = math.inf if until is None else float(until)
        heap = self._heap
        deferred = self._deferred
        popleft = deferred.popleft
        heappop = heapq.heappop
        now = self.now
        while not stop._processed:
            if deferred and not (heap and heap[0][0] <= now and heap[0][1] < deferred[0][0]):
                _seq, fn, arg = popleft()
            elif deferred or (heap and heap[0][0] <= horizon):
                when, _seq, fn, arg = heappop(heap)
                self.now = now = when
            else:
                break
            if fn is not None:
                fn(*arg)
                continue
            arg._processed = True
            callbacks, arg.callbacks = arg.callbacks, []
            for callback in callbacks:
                callback(arg)
        if stop is until:
            if not stop._processed:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            if not stop.ok:
                raise stop.value
            return stop.value
        if until is not None and horizon > self.now:
            self.now = horizon
        return None
