"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: simulations are
built from generator *processes* that ``yield`` events (timeouts, other
processes, an :class:`~repro.sim.core.AnyOf`, store gets), and from
plain callbacks scheduled with ``call_at``.  The
:class:`~repro.sim.core.Simulator` owns the virtual clock, a heap of
timed occurrences and a FIFO of same-time ones.  Nothing interrupts a
process or cancels its wait.

Everything in :mod:`repro` that has a notion of time (links, disks,
CPUs, TCP connections, workloads) runs on this kernel, which keeps the
whole reproduction deterministic and laptop-scale.  Work that never
interacts (the fleet's per-tenant domains) gets one ``Simulator`` each;
:class:`~repro.sim.shard.ShardedKernel` is just the list of them.
"""

from repro.sim.core import (
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Slots, Store
from repro.sim.rng import SeededRNG
from repro.sim.shard import ShardedKernel

__all__ = [
    "AnyOf",
    "Event",
    "Process",
    "SeededRNG",
    "ShardedKernel",
    "SimulationError",
    "Simulator",
    "Slots",
    "Store",
    "Timeout",
]
