"""Fio-like I/O micro-benchmark (paper §V-A).

Replicates the knobs the paper sweeps: I/O request size (4 KB – 256
KB), thread count (parallel issuers against one volume/session), and
a 50% read / 50% write random-access mix.  Latency is measured per
request; IOPS over the whole run.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Optional

from repro.fs.layout import BLOCK_SIZE
from repro.sim import SeededRNG, Simulator
from repro.workloads.stats import LatencyStats


@dataclass
class FioConfig:
    io_size: int = 4096
    num_threads: int = 1
    read_fraction: float = 0.5
    pattern: str = "random"  # "random" | "sequential"
    ios_per_thread: int = 100
    region_size: int = 64 * 1024 * 1024
    seed: int = 42
    carry_data: bool = False  # real payload bytes (slower, for services)

    def __post_init__(self):
        if self.io_size % BLOCK_SIZE:
            raise ValueError(f"io_size must be a multiple of {BLOCK_SIZE}")
        if not 0 <= self.read_fraction <= 1:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.pattern not in ("random", "sequential"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.region_size < self.io_size:
            raise ValueError("region smaller than one I/O")


@dataclass
class FioResult:
    completed: int
    elapsed: float
    latency: LatencyStats
    errors: int = 0

    @property
    def iops(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def bandwidth(self) -> float:
        """Not meaningful on mixed sizes; callers know their io_size."""
        return self.iops


def issue_io(device, op: str, offset: int, length: int, data: Optional[bytes] = None):
    """Run one I/O against either an event-style device (IscsiSession)
    or a generator-style one (TenantSideEncryption)."""
    if op == "read":
        result = device.read(offset, length)
    else:
        result = device.write(offset, length, data)
    if inspect.isgenerator(result):
        value = yield from result
    else:
        value = yield result
    return value


class FioJob:
    """One Fio invocation against one device."""

    def __init__(
        self,
        sim: Simulator,
        device,
        config: FioConfig,
        vm=None,
        params=None,
    ):
        self.sim = sim
        self.device = device
        self.config = config
        self.vm = vm  # charge app-side CPU if provided
        self.params = params
        self.rng = SeededRNG(config.seed, name="fio")
        self._payload = (
            bytes(range(256)) * (config.io_size // 256) if config.carry_data else None
        )

    def run(self):
        """Process: run all threads to completion; returns FioResult."""
        config = self.config
        result = FioResult(completed=0, elapsed=0.0, latency=LatencyStats())
        start = self.sim.now
        threads = [
            self.sim.process(self._thread(t, result), name=f"fio-{t}")
            for t in range(config.num_threads)
        ]
        for thread in threads:
            yield thread
        result.elapsed = self.sim.now - start
        return result

    def _thread(self, thread_id: int, result: FioResult):
        config = self.config
        rng = self.rng.child(f"thread-{thread_id}")
        max_slot = config.region_size // config.io_size
        cursor = (thread_id * 7919) % max_slot
        for _ in range(config.ios_per_thread):
            if config.pattern == "random":
                slot = rng.randint(0, max_slot - 1)
            else:
                slot = cursor
                cursor = (cursor + 1) % max_slot
            offset = slot * config.io_size
            op = "read" if rng.random() < config.read_fraction else "write"
            if self.vm is not None and self.params is not None:
                cost = (
                    self.params.app_cpu_per_io
                    + self.params.app_cpu_per_byte * config.io_size
                )
                yield from self.vm.cpu.consume(cost)
            issued_at = self.sim.now
            try:
                yield from issue_io(
                    self.device,
                    op,
                    offset,
                    config.io_size,
                    self._payload if op == "write" else None,
                )
            except Exception:
                result.errors += 1
                continue
            result.latency.add(self.sim.now - issued_at)
            result.completed += 1
