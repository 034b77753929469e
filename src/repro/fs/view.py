"""The ``dumpe2fs`` equivalent: an initial high-level filesystem view.

StorM "generates an initial high-level system view of a file-system
and supplies it to the middle-boxes when the block device is attached"
(paper §III-C).  :func:`dump_layout` walks a volume offline and builds
a :class:`FilesystemView`: geometry-derived classifications for every
metadata block plus the live block→file ownership map.  The semantics
engine (:mod:`repro.core.semantics`) keeps the view current from
intercepted metadata writes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.fs.directory import unpack_dirents
from repro.fs.inode import (
    DIRECT_POINTERS,
    Inode,
    MODE_DIR,
    unpack_indirect_block,
)
from repro.fs.layout import BLOCK_SIZE, ROOT_INODE, SuperBlock


class BlockClass(enum.Enum):
    SUPERBLOCK = "superblock"
    BLOCK_BITMAP = "block_bitmap"
    INODE_BITMAP = "inode_bitmap"
    INODE_TABLE = "inode_table"
    DIRECTORY = "directory"
    INDIRECT = "indirect"
    DATA = "data"
    UNKNOWN = "unknown"


@dataclass
class BlockOwner:
    """Which inode a data/directory/indirect block belongs to."""

    ino: int
    kind: str  # "data" | "dir" | "indirect"
    index: int  # block index within the file (0 for indirect)


class FilesystemView:
    """Mutable high-level view: paths, inodes, and block ownership."""

    def __init__(self, sb: SuperBlock, mount_point: str = ""):
        self.sb = sb
        self.mount_point = mount_point.rstrip("/")
        self.inode_paths: dict[int, str] = {ROOT_INODE: "/"}
        self.inodes: dict[int, Inode] = {}
        self.block_owners: dict[int, BlockOwner] = {}
        #: children of each directory inode: name -> ino
        self.children: dict[int, dict[str, int]] = {}

    # -- classification ------------------------------------------------

    def classify(self, block_no: int) -> BlockClass:
        sb = self.sb
        if block_no == 0:
            return BlockClass.SUPERBLOCK
        group = sb.group_of_block(block_no)
        if group >= sb.num_groups:
            return BlockClass.UNKNOWN
        offset = block_no - sb.group_start(group)
        if offset == 0:
            return BlockClass.BLOCK_BITMAP
        if offset == 1:
            return BlockClass.INODE_BITMAP
        if offset < 2 + sb.inode_table_blocks:
            return BlockClass.INODE_TABLE
        owner = self.block_owners.get(block_no)
        if owner is None:
            return BlockClass.UNKNOWN
        if owner.kind == "dir":
            return BlockClass.DIRECTORY
        if owner.kind == "indirect":
            return BlockClass.INDIRECT
        return BlockClass.DATA

    def owner_of(self, block_no: int) -> Optional[BlockOwner]:
        return self.block_owners.get(block_no)

    # -- path helpers -----------------------------------------------------

    def path_of(self, ino: int) -> Optional[str]:
        return self.inode_paths.get(ino)

    def display_path(self, ino: int) -> str:
        path = self.inode_paths.get(ino)
        if path is None:
            return f"inode#{ino}"
        return f"{self.mount_point}{path}" if path != "/" else f"{self.mount_point}/"

    # -- mutation (used by dump and by the live semantics engine) --------

    def record_inode(self, ino: int, inode: Inode) -> None:
        """(Re)bind an inode's blocks in the ownership map."""
        previous = self.inodes.get(ino)
        if previous is not None:
            for block in previous.direct:
                if block and self.block_owners.get(block, BlockOwner(0, "", 0)).ino == ino:
                    self.block_owners.pop(block, None)
            if previous.indirect:
                self.block_owners.pop(previous.indirect, None)
        self.inodes[ino] = inode
        kind = "dir" if inode.mode == MODE_DIR else "data"
        for index, block in enumerate(inode.direct):
            if block:
                self.block_owners[block] = BlockOwner(ino, kind, index)
        if inode.indirect:
            self.block_owners[inode.indirect] = BlockOwner(ino, "indirect", 0)

    def record_indirect_pointers(self, ino: int, pointers: list[int]) -> None:
        inode = self.inodes.get(ino)
        kind = "dir" if inode is not None and inode.mode == MODE_DIR else "data"
        for i, block in enumerate(pointers):
            if block:
                self.block_owners[block] = BlockOwner(ino, kind, DIRECT_POINTERS + i)

    def record_child(self, parent_ino: int, name: str, child_ino: int) -> None:
        self.children.setdefault(parent_ino, {})[name] = child_ino
        parent_path = self.inode_paths.get(parent_ino)
        if parent_path is not None:
            base = "" if parent_path == "/" else parent_path
            self.inode_paths[child_ino] = f"{base}/{name}"

    def set_directory_entries(self, dir_ino: int, entries: list[tuple[str, int]]) -> None:
        """Replace a directory's children (from an observed dirent write)."""
        old = self.children.get(dir_ino, {})
        new = dict((name, ino) for name, ino in entries)
        removed = {ino for name, ino in old.items() if name not in new or new[name] != ino}
        kept_inos = set(new.values())
        for ino in removed:
            if ino not in kept_inos:
                self.inode_paths.pop(ino, None)
        self.children[dir_ino] = {}
        for name, ino in entries:
            self.record_child(dir_ino, name, ino)

    def forget_inode(self, ino: int) -> None:
        inode = self.inodes.pop(ino, None)
        if inode is not None:
            for block in inode.direct:
                if block:
                    self.block_owners.pop(block, None)
            if inode.indirect:
                self.block_owners.pop(inode.indirect, None)
        self.inode_paths.pop(ino, None)
        self.children.pop(ino, None)


def dump_layout(volume, mount_point: str = "") -> FilesystemView:
    """Offline walk of a formatted volume (the dumpe2fs step)."""
    sb = SuperBlock.unpack(volume.read_sync(0, BLOCK_SIZE))
    view = FilesystemView(sb, mount_point=mount_point)

    def read_inode(ino: int) -> Inode:
        block_no, offset = sb.inode_location(ino)
        raw = volume.read_sync(block_no * BLOCK_SIZE, BLOCK_SIZE)
        return Inode.unpack(raw[offset : offset + 256])

    def walk(ino: int) -> None:
        inode = read_inode(ino)
        view.record_inode(ino, inode)
        if inode.indirect:
            raw = volume.read_sync(inode.indirect * BLOCK_SIZE, BLOCK_SIZE)
            view.record_indirect_pointers(ino, unpack_indirect_block(raw))
        if inode.mode != MODE_DIR:
            return
        for block_no in [b for b in inode.direct if b]:
            raw = volume.read_sync(block_no * BLOCK_SIZE, BLOCK_SIZE)
            for name, child_ino in unpack_dirents(raw):
                view.record_child(ino, name, child_ino)
                walk(child_ino)

    walk(ROOT_INODE)
    return view
