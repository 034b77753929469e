"""Inode serialization.

256-byte on-disk inodes with 12 direct block pointers and one single
indirect pointer (max file size ≈ 4.2 MiB at 4 KiB blocks — ample for
the paper's workloads).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.fs.layout import BLOCK_SIZE, INODE_SIZE

MODE_FREE = 0
MODE_FILE = 1
MODE_DIR = 2
MODE_SYMLINK = 3

DIRECT_POINTERS = 12
POINTERS_PER_BLOCK = BLOCK_SIZE // 4  # 1024

_INODE_FORMAT = "<HHQd12II"
_INODE_STRUCT = struct.Struct(_INODE_FORMAT)

MAX_FILE_SIZE = (DIRECT_POINTERS + POINTERS_PER_BLOCK) * BLOCK_SIZE


@dataclass
class Inode:
    mode: int = MODE_FREE
    links: int = 0
    size: int = 0
    mtime: float = 0.0
    direct: list[int] = field(default_factory=lambda: [0] * DIRECT_POINTERS)
    indirect: int = 0

    def pack(self) -> bytes:
        raw = _INODE_STRUCT.pack(
            self.mode, self.links, self.size, self.mtime, *self.direct, self.indirect
        )
        return raw.ljust(INODE_SIZE, b"\x00")

    @classmethod
    def unpack(cls, raw: bytes) -> "Inode":
        if len(raw) < _INODE_STRUCT.size:
            raise ValueError("short inode record")
        fields = _INODE_STRUCT.unpack_from(raw)
        mode, links, size, mtime = fields[:4]
        direct = list(fields[4 : 4 + DIRECT_POINTERS])
        indirect = fields[4 + DIRECT_POINTERS]
        return cls(mode, links, size, mtime, direct, indirect)

    @property
    def is_dir(self) -> bool:
        return self.mode == MODE_DIR

    @property
    def is_file(self) -> bool:
        return self.mode == MODE_FILE

    @property
    def is_symlink(self) -> bool:
        return self.mode == MODE_SYMLINK

    @property
    def block_count(self) -> int:
        return (self.size + BLOCK_SIZE - 1) // BLOCK_SIZE



def unpack_inode_table_block(raw: bytes) -> list[Inode]:
    """Parse all 16 inodes in one inode-table block."""
    return [
        Inode.unpack(raw[i * INODE_SIZE : (i + 1) * INODE_SIZE])
        for i in range(len(raw) // INODE_SIZE)
    ]


def unpack_indirect_block(raw: bytes) -> list[int]:
    """Parse an indirect block into its block-pointer array."""
    return [p for p in struct.unpack(f"<{POINTERS_PER_BLOCK}I", raw)]


def pack_indirect_block(pointers: list[int]) -> bytes:
    padded = pointers + [0] * (POINTERS_PER_BLOCK - len(pointers))
    return struct.pack(f"<{POINTERS_PER_BLOCK}I", *padded)
