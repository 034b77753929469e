"""A simulated direct-attached disk.

Service time = fixed access latency (+ a seek penalty when the request
is not sequential with the previous one) + transfer at the device's
bandwidth.  A queue-depth :class:`~repro.sim.Slots` horizon serializes
requests like a real device queue.  Contents are stored sparsely at
:data:`BLOCK_SIZE` granularity; unwritten space reads back as zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Simulator, Slots

BLOCK_SIZE = 4096

#: Calibrated to the paper's 1 TB SATA disk: ~150 MB/s streaming,
#: short access latency once the request is at the head of the queue.
DEFAULT_BANDWIDTH = 150_000_000
DEFAULT_ACCESS_LATENCY = 100e-6
DEFAULT_SEEK_PENALTY = 400e-6


class DiskIOError(Exception):
    """A medium error: the device failed the request after the access
    attempt (injected by :mod:`repro.faults`)."""


@dataclass
class DiskStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    errors: int = 0


class Disk:
    """One spindle with a FIFO device queue."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: int,
        bandwidth: float = DEFAULT_BANDWIDTH,
        access_latency: float = DEFAULT_ACCESS_LATENCY,
        seek_penalty: float = DEFAULT_SEEK_PENALTY,
        queue_depth: int = 1,
    ):
        if capacity % BLOCK_SIZE:
            raise ValueError(f"capacity must be a multiple of {BLOCK_SIZE}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.bandwidth = bandwidth
        self.access_latency = access_latency
        self.seek_penalty = seek_penalty
        self.queue_depth = queue_depth
        self._queue = Slots(queue_depth)
        self._blocks: dict[int, bytes] = {}
        self._last_end_offset = 0
        self.stats = DiskStats()
        #: fault-injection hook: ``hook(op, offset, length) -> bool``;
        #: True fails the I/O with :class:`DiskIOError` after the
        #: simulated access time.  ``None`` (the default) is free.
        self.fault_hook = None
        #: observability bus hook: records a per-I/O service-time
        #: histogram scoped by disk name.  ``None`` (the default) is free.
        self.obs = None

    def set_queue_depth(self, depth: int) -> None:
        """Replace the device queue (only while idle) — used to model a
        cache-backed target that services requests in parallel."""
        if max(self._queue.busy) > self.sim.now:
            raise RuntimeError("cannot resize a busy device queue")
        self.queue_depth = depth
        self._queue = Slots(depth)

    # -- simulated I/O ---------------------------------------------------

    def submit(self, op: str, offset: int, length: int, data: bytes | None = None):
        """Generator process performing one I/O, committed when made; returns bytes for reads."""
        self._check_bounds(op, offset, length, data)
        service = self.access_latency + length / self.bandwidth
        if offset != self._last_end_offset:
            service += self.seek_penalty
        self._last_end_offset = offset + length
        self.stats.busy_time += service
        if self.obs is not None:
            self.obs.metrics.histogram("disk.service_time", self.name).observe(service)
        yield self.sim.wake_at(self._queue.commit(self.sim.now, service))
        if self.fault_hook is not None and self.fault_hook(op, offset, length):
            self.stats.errors += 1
            raise DiskIOError(f"{op} error at offset {offset} on {self.name}")
        if op == "write":
            self.stats.writes += 1
            self.stats.bytes_written += length
            if data is not None:
                self._store(offset, data)
            return None
        self.stats.reads += 1
        self.stats.bytes_read += length
        return self._load(offset, length)

    # -- synchronous content access (no simulated time; used by tooling
    # like mkfs and the dumpe2fs-style layout dump) ------------------------

    def read_sync(self, offset: int, length: int) -> bytes:
        self._check_bounds("read", offset, length, None)
        return self._load(offset, length)

    def write_sync(self, offset: int, data: bytes) -> None:
        self._check_bounds("write", offset, len(data), data)
        self._store(offset, data)

    # -- internals ------------------------------------------------------

    def _check_bounds(self, op: str, offset: int, length: int, data: bytes | None) -> None:
        if op not in ("read", "write"):
            raise ValueError(f"unknown op {op!r}")
        if offset % BLOCK_SIZE or length % BLOCK_SIZE:
            raise ValueError(
                f"unaligned I/O (offset={offset}, length={length}); "
                f"must be {BLOCK_SIZE}-aligned"
            )
        if length <= 0:
            raise ValueError("length must be positive")
        if offset < 0 or offset + length > self.capacity:
            raise ValueError(f"I/O beyond device end ({offset}+{length} > {self.capacity})")
        if data is not None and len(data) != length:
            raise ValueError("data length mismatch")

    def _store(self, offset: int, data: bytes) -> None:
        first = offset // BLOCK_SIZE
        for i in range(len(data) // BLOCK_SIZE):
            self._blocks[first + i] = bytes(data[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])

    def _load(self, offset: int, length: int) -> bytes:
        first = offset // BLOCK_SIZE
        zero = bytes(BLOCK_SIZE)
        return b"".join(
            self._blocks.get(first + i, zero) for i in range(length // BLOCK_SIZE)
        )
