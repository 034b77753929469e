"""Volumes and LVM-like volume groups.

A :class:`VolumeGroup` carves a physical :class:`~repro.blockdev.disk.
Disk` into logical :class:`Volume` extents, the way the paper's Cinder
deployment creates volume groups from one 1 TB physical volume.
"""

from __future__ import annotations

import itertools

from repro.blockdev.disk import BLOCK_SIZE, Disk

_volume_ids = itertools.count(1)


class Volume:
    """A contiguous logical extent of a disk."""

    def __init__(self, disk: Disk, name: str, base_offset: int, size: int):
        if base_offset % BLOCK_SIZE or size % BLOCK_SIZE:
            raise ValueError("volume geometry must be block-aligned")
        self.disk = disk
        self.name = name
        self.base_offset = base_offset
        self.size = size
        self.volume_id = next(_volume_ids)
        #: iSCSI qualified name, assigned when exported by a target.
        self.iqn: str | None = None

    def _translate(self, offset: int, length: int) -> int:
        if offset < 0 or offset + length > self.size:
            raise ValueError(
                f"I/O beyond volume {self.name} end ({offset}+{length} > {self.size})"
            )
        return self.base_offset + offset

    def read(self, offset: int, length: int):
        """Simulated read (generator); returns the bytes."""
        return self.disk.submit("read", self._translate(offset, length), length)

    def write(self, offset: int, length: int, data: bytes | None = None):
        """Simulated write (generator)."""
        return self.disk.submit("write", self._translate(offset, length), length, data)

    def read_sync(self, offset: int, length: int) -> bytes:
        return self.disk.read_sync(self._translate(offset, length), length)

    def write_sync(self, offset: int, data: bytes) -> None:
        self.disk.write_sync(self._translate(offset, len(data)), data)

    def transform_sync(self, fn) -> int:
        """Rewrite every *materialized* block as ``fn(volume_offset,
        data) -> data`` (offline re-encryption of an existing image;
        untouched/sparse space is left alone).  Returns blocks changed."""
        first = self.base_offset // BLOCK_SIZE
        last = (self.base_offset + self.size) // BLOCK_SIZE
        changed = 0
        for block_index in sorted(self.disk._blocks):
            if first <= block_index < last:
                volume_offset = block_index * BLOCK_SIZE - self.base_offset
                data = self.disk._blocks[block_index]
                self.disk._blocks[block_index] = bytes(fn(volume_offset, data))
                changed += 1
        return changed

    def __repr__(self) -> str:
        return f"Volume({self.name}, {self.size // (1024 * 1024)} MiB)"


class VolumeGroup:
    """Sequential extent allocator over one physical disk."""

    def __init__(self, name: str, disk: Disk):
        self.name = name
        self.disk = disk
        self._next_offset = 0
        self.volumes: dict[str, Volume] = {}

    @property
    def free_bytes(self) -> int:
        return self.disk.capacity - self._next_offset

    def create_volume(self, name: str, size: int) -> Volume:
        if name in self.volumes:
            raise ValueError(f"volume {name!r} already exists in group {self.name!r}")
        if size % BLOCK_SIZE:
            raise ValueError(f"volume size must be a multiple of {BLOCK_SIZE}")
        if size > self.free_bytes:
            raise ValueError(
                f"volume group {self.name!r} out of space "
                f"({size} requested, {self.free_bytes} free)"
            )
        volume = Volume(self.disk, name, self._next_offset, size)
        self._next_offset += size
        self.volumes[name] = volume
        return volume
