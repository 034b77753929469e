"""Semantics reconstruction (paper §III-C).

Middle-boxes observe raw block-level accesses; tenants think in files
and directories.  The :class:`SemanticsEngine` bridges the gap: it
starts from the dumpe2fs-style :class:`~repro.fs.view.FilesystemView`
taken at attach time, and keeps it current by parsing every metadata
*write* it sees (inode tables, directory blocks, indirect blocks).
Data accesses are then reported against the live block→file map.

Blocks written before their owning inode is known (data flushed ahead
of metadata) are remembered and *reconciled* retroactively once
ownership appears — so the log converges to the correct file
attribution, like the paper's monitoring engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.fs.directory import unpack_dirents
from repro.fs.inode import MODE_DIR, MODE_FREE, unpack_indirect_block, unpack_inode_table_block
from repro.fs.layout import BLOCK_SIZE
from repro.fs.view import BlockClass, FilesystemView

#: cap on each side cache below: a hostile tenant spraying writes over
#: never-classified blocks must not grow the engine without bound.
#: Oldest-inserted entries are evicted first (dict order); an evicted
#: block simply stays "unknown" if its metadata shows up much later.
CACHE_CAP = 1024


def _evict_oldest(cache: dict, cap: int = CACHE_CAP) -> None:
    while len(cache) > cap:
        del cache[next(iter(cache))]


@dataclass
class AccessRecord:
    """One reconstructed access, shaped like a Table I row."""

    access_id: int
    op: str  # "read" | "write"
    block_no: int
    block_count: int
    length: int
    category: str  # "file" | "directory" | "metadata" | "unknown"
    description: str
    ino: Optional[int] = None
    when: float = 0.0

    def as_row(self) -> tuple:
        return (self.access_id, self.op, self.description, self.length)


class SemanticsEngine:
    """Classification → Update → (record) pipeline over block accesses."""

    def __init__(self, view: FilesystemView):
        self.view = view
        self.records: list[AccessRecord] = []
        self._ids = itertools.count(1)
        #: last payload written to still-unclassified blocks, so they can
        #: be parsed once their role becomes known
        self._unclassified_writes: dict[int, bytes] = {}
        #: records waiting for ownership information, by block number
        self._pending_records: dict[int, list[AccessRecord]] = {}
        #: last seen dirent content per directory block
        self._dir_block_cache: dict[int, list] = {}
        #: called with each record whose classification was fixed up
        #: retroactively — consumers (e.g. the monitor's analysis
        #: phase) re-examine it against their policies
        self.reconcile_hooks: list = []

    # -- main entry point ---------------------------------------------------

    def observe(
        self,
        op: str,
        offset: int,
        length: int,
        data: Optional[bytes] = None,
        when: float = 0.0,
    ) -> list[AccessRecord]:
        """Feed one block-level access; returns the records it produced."""
        if offset % BLOCK_SIZE or length % BLOCK_SIZE:
            raise ValueError("block accesses must be 4 KiB aligned")
        first_block = offset // BLOCK_SIZE
        block_count = length // BLOCK_SIZE
        if op == "write":
            for i in range(block_count):
                chunk = None
                if data is not None:
                    chunk = data[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
                self._update_phase(first_block + i, chunk)
        produced = self._classify_and_record(op, first_block, block_count, when)
        self.records.extend(produced)
        return produced

    # -- update phase: parse metadata writes into the view ---------------------

    def _update_phase(self, block_no: int, data: Optional[bytes]) -> None:
        block_class = self.view.classify(block_no)
        if data is None:
            return
        if block_class is BlockClass.INODE_TABLE:
            self._apply_inode_table_write(block_no, data)
        elif block_class is BlockClass.DIRECTORY:
            owner = self.view.owner_of(block_no)
            if owner is not None:
                self.view.set_directory_entries(owner.ino, self._all_dir_entries(owner.ino, block_no, data))
        elif block_class is BlockClass.INDIRECT:
            owner = self.view.owner_of(block_no)
            if owner is not None:
                self.view.record_indirect_pointers(owner.ino, unpack_indirect_block(data))
                self._reconcile()
        elif block_class is BlockClass.UNKNOWN:
            # might turn out to be a new directory/indirect/data block —
            # keep the payload for later reconciliation
            self._unclassified_writes[block_no] = data
            _evict_oldest(self._unclassified_writes)

    def _all_dir_entries(self, dir_ino: int, written_block: int, data: bytes) -> list:
        """Entries of the whole directory, with one block's new content."""
        inode = self.view.inodes.get(dir_ino)
        entries = []
        blocks = []
        if inode is not None:
            blocks = [b for b in inode.direct if b]
        if written_block not in blocks:
            blocks.append(written_block)
        for block in blocks:
            if block == written_block:
                entries.extend(unpack_dirents(data, best_effort=True))
            else:
                cached = self._dir_block_cache.get(block)
                if cached is not None:
                    entries.extend(cached)
        self._dir_block_cache[written_block] = unpack_dirents(data, best_effort=True)
        _evict_oldest(self._dir_block_cache)
        return entries

    def _apply_inode_table_write(self, block_no: int, data: bytes) -> None:
        first_ino = self.view.sb.first_inode_of_table_block(block_no)
        for index, inode in enumerate(unpack_inode_table_block(data)):
            ino = first_ino + index
            previous = self.view.inodes.get(ino)
            if inode.mode == MODE_FREE:
                if previous is not None:
                    self.view.forget_inode(ino)
                continue
            if previous is not None and previous.pack() == inode.pack():
                continue
            self.view.record_inode(ino, inode)
            # a block we saw written blind may now be this inode's
            if inode.mode == MODE_DIR:
                for block in inode.direct:
                    raw = self._unclassified_writes.pop(block, None)
                    if raw is not None:
                        self.view.set_directory_entries(
                            ino, self._all_dir_entries(ino, block, raw)
                        )
            if inode.indirect:
                raw = self._unclassified_writes.pop(inode.indirect, None)
                if raw is not None:
                    self.view.record_indirect_pointers(ino, unpack_indirect_block(raw))
        self._reconcile()

    # -- classification phase ----------------------------------------------------

    def _classify_and_record(
        self, op: str, first_block: int, block_count: int, when: float
    ) -> list[AccessRecord]:
        records: list[AccessRecord] = []
        run_start = None
        run_key = None

        def flush_run(end_block: int) -> None:
            nonlocal run_start, run_key
            if run_start is None:
                return
            count = end_block - run_start
            category, description, ino = run_key
            record = AccessRecord(
                access_id=next(self._ids),
                op=op,
                block_no=run_start,
                block_count=count,
                length=count * BLOCK_SIZE,
                category=category,
                description=description,
                ino=ino,
                when=when,
            )
            if category == "unknown":
                self._pending_records.setdefault(run_start, []).append(record)
                _evict_oldest(self._pending_records)
            records.append(record)
            run_start = None
            run_key = None

        for block in range(first_block, first_block + block_count):
            key = self._describe_block(block)
            if run_key is None:
                run_start, run_key = block, key
            elif key != run_key:
                flush_run(block)
                run_start, run_key = block, key
        flush_run(first_block + block_count)
        return records

    def _describe_block(self, block_no: int) -> tuple[str, str, Optional[int]]:
        block_class = self.view.classify(block_no)
        sb = self.view.sb
        if block_class is BlockClass.SUPERBLOCK:
            return ("metadata", "META: superblock", None)
        if block_class is BlockClass.BLOCK_BITMAP:
            return ("metadata", f"META: block_bitmap_{sb.group_of_block(block_no)}", None)
        if block_class is BlockClass.INODE_BITMAP:
            return ("metadata", f"META: inode_bitmap_{sb.group_of_block(block_no)}", None)
        if block_class is BlockClass.INODE_TABLE:
            group = sb.group_of_block(block_no)
            index = block_no - sb.inode_table_start(group)
            table_id = group * sb.inode_table_blocks + index
            return ("metadata", f"META: inode_group_{table_id}", None)
        if block_class is BlockClass.INDIRECT:
            owner = self.view.owner_of(block_no)
            path = self.view.display_path(owner.ino) if owner else "?"
            return ("metadata", f"META: indirect_of_{path}", owner.ino if owner else None)
        if block_class is BlockClass.DIRECTORY:
            owner = self.view.owner_of(block_no)
            path = self.view.display_path(owner.ino)
            suffix = "/." if not path.endswith("/") else "."
            return ("directory", f"{path}{suffix}", owner.ino)
        if block_class is BlockClass.DATA:
            owner = self.view.owner_of(block_no)
            return ("file", self.view.display_path(owner.ino), owner.ino)
        return ("unknown", f"UNKNOWN: block_{block_no}", None)

    # -- reconciliation ------------------------------------------------------------

    def _reconcile(self) -> None:
        """Re-describe previously unknown accesses once ownership appears."""
        for block_no in list(self._pending_records):
            category, description, ino = self._describe_block(block_no)
            if category == "unknown":
                continue
            for record in self._pending_records.pop(block_no):
                record.category = category
                record.description = description
                record.ino = ino
                for hook in self.reconcile_hooks:
                    hook(record)
