"""Copy-on-write volume snapshots (the Cinder feature).

A :class:`SnapshotVolume` captures a volume's state at creation time:
reads hit the snapshot's private copies for blocks the origin has
since overwritten, and fall through to the origin otherwise.  The
origin volume is wrapped so its writes preserve old block contents
into every active snapshot first (copy-on-write).

Snapshots present the same read interface as volumes, so they can be
exported over iSCSI, fsck'd, or mounted read-only — e.g. to let a
monitor middle-box do forensics on a point-in-time image while the
tenant VM keeps writing.
"""

from __future__ import annotations

from typing import Optional

from repro.blockdev.disk import BLOCK_SIZE
from repro.blockdev.volume import Volume


class SnapshotVolume:
    """A read-only, point-in-time image of an origin volume."""

    def __init__(self, origin: "SnapshottableVolume", name: str):
        self.origin = origin
        self.name = name
        self.size = origin.size
        self.iqn: Optional[str] = None
        #: private copies of origin blocks overwritten after the snapshot
        self._cow_blocks: dict[int, bytes] = {}

    @property
    def cow_bytes(self) -> int:
        return len(self._cow_blocks) * BLOCK_SIZE

    def preserve(self, block_index: int, data: bytes) -> None:
        """Record the pre-overwrite content of one block (first write wins)."""
        if block_index not in self._cow_blocks:
            self._cow_blocks[block_index] = bytes(data)

    # -- volume-compatible read interface --------------------------------

    def _compose(self, offset: int, length: int, underlying: bytes) -> bytes:
        out = bytearray(underlying)
        first = offset // BLOCK_SIZE
        for i in range(length // BLOCK_SIZE):
            preserved = self._cow_blocks.get(first + i)
            if preserved is not None:
                out[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE] = preserved
        return bytes(out)

    def read(self, offset: int, length: int):
        """Simulated read (generator), like :meth:`Volume.read`."""
        underlying = yield from self.origin.read(offset, length)
        return self._compose(offset, length, underlying or bytes(length))

    def read_sync(self, offset: int, length: int) -> bytes:
        return self._compose(offset, length, self.origin.read_sync(offset, length))

    def write(self, offset: int, length: int, data: Optional[bytes] = None):
        raise PermissionError(f"snapshot {self.name!r} is read-only")

    def write_sync(self, offset: int, data: bytes) -> None:
        raise PermissionError(f"snapshot {self.name!r} is read-only")

    def __repr__(self) -> str:
        return f"SnapshotVolume({self.name}, of={self.origin.name}, cow={self.cow_bytes}B)"


class SnapshottableVolume:
    """Wraps a :class:`Volume`, copy-on-writing into active snapshots."""

    def __init__(self, volume: Volume):
        self._volume = volume
        self.snapshots: list[SnapshotVolume] = []

    # -- delegation ------------------------------------------------------

    @property
    def name(self) -> str:
        return self._volume.name

    @property
    def size(self) -> int:
        return self._volume.size

    @property
    def iqn(self):
        return self._volume.iqn

    @iqn.setter
    def iqn(self, value):
        self._volume.iqn = value

    def read(self, offset: int, length: int):
        return self._volume.read(offset, length)

    def read_sync(self, offset: int, length: int) -> bytes:
        return self._volume.read_sync(offset, length)

    def transform_sync(self, fn) -> int:
        return self._volume.transform_sync(fn)

    # -- copy-on-write paths -----------------------------------------------

    def _preserve_into_snapshots(self, offset: int, length: int) -> None:
        if not self.snapshots:
            return
        old = self._volume.read_sync(offset, length)
        first = offset // BLOCK_SIZE
        for i in range(length // BLOCK_SIZE):
            chunk = old[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
            for snapshot in self.snapshots:
                snapshot.preserve(first + i, chunk)

    def write(self, offset: int, length: int, data: Optional[bytes] = None):
        self._preserve_into_snapshots(offset, length)
        return self._volume.write(offset, length, data)

    def write_sync(self, offset: int, data: bytes) -> None:
        self._preserve_into_snapshots(offset, len(data))
        self._volume.write_sync(offset, data)

    # -- snapshot lifecycle ---------------------------------------------------

    def create_snapshot(self, name: str) -> SnapshotVolume:
        if any(s.name == name for s in self.snapshots):
            raise ValueError(f"snapshot {name!r} already exists")
        snapshot = SnapshotVolume(self, name)
        self.snapshots.append(snapshot)
        return snapshot

    def delete_snapshot(self, name: str) -> None:
        before = len(self.snapshots)
        self.snapshots = [s for s in self.snapshots if s.name != name]
        if len(self.snapshots) == before:
            raise ValueError(f"no snapshot named {name!r}")
