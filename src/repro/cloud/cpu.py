"""vCPU metering.

Each VM (and host-side service) owns a :class:`CpuMeter`: FIFO cores
(one :class:`~repro.sim.Slots` horizon) whose busy time is accounted
per window, so the benchmarks can report utilization breakdowns like
the paper's Figure 10.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim import Simulator, Slots


class CpuMeter:
    """``cores`` parallel execution slots with busy-time accounting."""

    def __init__(self, sim: Simulator, name: str, cores: int = 2):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.sim = sim
        self.name = name
        self.cores = cores
        self._cores = Slots(cores)
        self.busy_time = 0.0
        self._window_start = 0.0
        self._window_busy = 0.0

    def consume(self, seconds: float):
        """Process generator: hold one core for ``seconds``, FIFO behind earlier charges."""
        if seconds <= 0:
            return
        yield self.sim.wake_at(self._cores.commit(self.sim.now, seconds))
        self.busy_time += seconds
        self._window_busy += seconds

    def charge(self, seconds: float, fn: Callable[..., None], *args: Any) -> None:
        """Callback form of :meth:`consume` for ``seconds > 0``: claim the
        core now, FIFO behind earlier charges, and call ``fn(*args)`` when
        the claim ends (one ``call_at``, no process)."""
        end = self._cores.commit(self.sim.now, seconds)
        self.sim.call_at(end, self._charged, seconds, fn, args)

    def _charged(self, seconds: float, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.busy_time += seconds
        self._window_busy += seconds
        fn(*args)

    def begin_window(self) -> None:
        """Start a fresh measurement window at the current time."""
        self._window_start = self.sim.now
        self._window_busy = 0.0

    def utilization(self) -> float:
        """Busy fraction of the current window across all cores."""
        elapsed = self.sim.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._window_busy / (self.cores * elapsed))

    def __repr__(self) -> str:
        return f"CpuMeter({self.name}, cores={self.cores}, busy={self.busy_time:.4f}s)"
