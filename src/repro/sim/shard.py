"""K independent simulators, one per fleet domain (DESIGN.md §15).

Simulation objects (nodes, links, sockets, platforms) live entirely
within one shard and processes only ever schedule onto their own
shard's queues, so the shards never need a common event order: each is
a plain :class:`~repro.sim.core.Simulator` run to completion on its
own, and whoever owns the kernel folds the per-shard results afterwards.
"""

from __future__ import annotations

from repro.sim.core import SimulationError, Simulator


class ShardedKernel:
    """K plain :class:`Simulator` instances run one after another."""

    __slots__ = ("shards",)

    def __init__(self, shards: int = 1) -> None:
        if shards < 1:
            raise SimulationError(f"need at least one shard, got {shards}")
        self.shards: list[Simulator] = [Simulator() for _ in range(shards)]

    @property
    def events(self) -> int:
        """Total occurrences allocated across all shards (the fleet
        tiers' machine-independent event count)."""
        return sum(shard._sequence for shard in self.shards)

    @property
    def now(self) -> float:
        """The furthest shard clock."""
        return max(shard.now for shard in self.shards)

    def run(self) -> None:
        """Run every shard until its queues drain, in shard order."""
        for shard in self.shards:
            shard.run()
