"""SoundFS: a small journaling file system over the simulated block device.

Layout (4096-byte blocks): superblock, inode bitmap, block bitmap, inode
table, physical redo journal, data blocks. Every layout field follows from
the device size, so a mount accepts only the superblock mkfs writes for it.
Inode records are encoded and decoded only by ``_encode_inode`` and
``_decode_inode``, directory entries only by ``_pack_dir`` and
``_unpack_dir``; their pad bytes are written as zero and never read, so a
v1 image with other bytes there mounts the same. File data is written in
place (ordered mode); metadata reaches disk only through journal
transactions committed at persistence points. Recovery replays committed
transactions and then structurally validates the tree; validation failure
surfaces as an un-mountable image.

Buggy variants override the narrow policy hooks marked below and keep
their own bookkeeping; SoundFS itself tracks only what its commits write.
Their bugs manifest across crash recovery, and in bugfs-b3's case also
survive a clean unmount (see ``variants``).
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import NamedTuple

from ..blockdev import BLOCK_SIZE, Device, DiskImage
from ..fsops import FallocFlag, FsOp, FsOpKind, PersistKind, pattern_bytes
from .base import FsError, FsStateView, Unmountable, ViewEntry

MAGIC = b"SOUNDFS1"
FORMAT_VERSION = 1

INODE_SIZE = 512
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE
INODE_COUNT = 64
INODE_TABLE_BLOCKS = INODE_COUNT // INODES_PER_BLOCK

KIND_FREE, KIND_FILE, KIND_DIR, KIND_SYMLINK = 0, 1, 2, 3

ROOT_INO = 1
MAX_PTRS = 166
MAX_TARGET = 62
MAX_XATTR_BLOB = 92
SECTORS_PER_BLOCK = BLOCK_SIZE // 512

JOURNAL_HDR_MAGIC = b"SLJHDR01"
JOURNAL_COMMIT_MAGIC = b"SLJCMT01"

_SB = struct.Struct("<8sIIIIIIIIIII")
# kind, pad, link count, size, 8 pad bytes, target, xattr blob, block pointers
_INODE = struct.Struct(f"<BxHQ8xH{MAX_TARGET}sH{MAX_XATTR_BLOB}sH{MAX_PTRS}H")
_DIRENT = struct.Struct("<HxB")  # ino, pad, name length; the name follows
_JHDR = struct.Struct("<8sQII")
_JCOMMIT = struct.Struct("<8sQ32s")

# what a malformed image raises while it is recovered or loaded
_MOUNT_ERRORS = (ValueError, FsError, struct.error, IndexError, UnicodeDecodeError)

class Geometry:
    """The layout of a device of ``total_blocks`` blocks and the superblock
    mkfs writes for it, packed once; one per device size is shared by every
    mount (``for_blocks``)."""

    def __init__(self, total_blocks: int):
        journal = max(16, min(256, total_blocks // 4))
        self.total_blocks = total_blocks
        self.inode_bitmap_block = 1
        self.block_bitmap_block = 2
        self.itable_start = 3
        self.itable_blocks = INODE_TABLE_BLOCKS
        self.journal_start = self.itable_start + self.itable_blocks
        self.journal_blocks = journal
        self.data_start = self.journal_start + journal
        self.superblock = _SB.pack(
            MAGIC,
            FORMAT_VERSION,
            self.total_blocks,
            INODE_COUNT,
            self.itable_start,
            self.itable_blocks,
            self.inode_bitmap_block,
            self.block_bitmap_block,
            self.journal_start,
            self.journal_blocks,
            self.data_start,
            ROOT_INO,
        ).ljust(BLOCK_SIZE, b"\0")

    @staticmethod
    @functools.lru_cache(maxsize=8)
    def for_blocks(total_blocks: int) -> "Geometry":
        return Geometry(total_blocks)

    @classmethod
    def parse_superblock(cls, raw: bytes) -> "Geometry":
        """Every layout field follows from the total block count, so a
        superblock is valid only as the exact block mkfs writes for it."""
        magic, version, total, *_layout = _SB.unpack_from(raw)
        if magic != MAGIC:
            raise ValueError("bad superblock magic")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        geo = cls.for_blocks(total)
        if raw != geo.superblock or geo.data_start >= total:
            raise ValueError("inconsistent superblock geometry")
        return geo


class Inode:
    """In-memory inode; authoritative while mounted."""

    __slots__ = (
        "ino",
        "kind",
        "nlink",
        "size",
        "target",
        "xattrs",
        "blocks",
        "entries",
        "content",
    )

    def __init__(self, ino: int, kind: int):
        self.ino = ino
        self.kind = kind
        self.nlink = 1
        self.size = 0
        self.target = ""
        self.xattrs: dict[str, str] = {}
        self.blocks: list[int] = []  # per 4K file block; 0 = hole
        self.entries: dict[str, int] = {}  # dirs: name -> ino
        self.content: bytearray | None = bytearray() if kind == KIND_FILE else None

    def copy(self) -> "Inode":
        """An independent copy: the containers and the content are copied."""
        node = Inode.__new__(Inode)
        node.ino = self.ino
        node.kind = self.kind
        node.nlink = self.nlink
        node.size = self.size
        node.target = self.target
        node.xattrs = dict(self.xattrs)
        node.blocks = list(self.blocks)
        node.entries = dict(self.entries)
        node.content = None if self.content is None else bytearray(self.content)
        return node


def _pack_xattrs(xattrs: dict[str, str]) -> bytes:
    blob = bytearray()
    for name in sorted(xattrs):
        nb, vb = name.encode(), xattrs[name].encode()
        blob += bytes([len(nb)]) + nb + bytes([len(vb)]) + vb
    if len(blob) > MAX_XATTR_BLOB:
        raise FsError("ENOSPC", "xattr blob too large")
    return bytes(blob)


def _unpack_xattrs(blob: bytes) -> dict[str, str]:
    out: dict[str, str] = {}
    pos = 0
    while pos < len(blob):
        nl = blob[pos]
        name = blob[pos + 1 : pos + 1 + nl].decode()
        pos += 1 + nl
        vl = blob[pos]
        out[name] = blob[pos + 1 : pos + 1 + vl].decode()
        pos += 1 + vl
    return out


def _encode_inode(kind, nlink, size, target, xattrs, blocks) -> bytes:
    """The 512-byte inode record; the pad bytes are written as zero."""
    tgt = target.encode()
    if len(tgt) > MAX_TARGET:
        raise FsError("ENAMETOOLONG", "symlink target too long")
    blob = _pack_xattrs(xattrs)
    ptrs = list(blocks)[:MAX_PTRS] + [0] * (MAX_PTRS - len(blocks))
    return _INODE.pack(kind, nlink, size, len(tgt), tgt, len(blob), blob, len(blocks), *ptrs)


def _decode_inode(ino: int, raw: bytes) -> Inode:
    """The inode a record describes; file content and directory entries stay
    on disk (``content`` None, ``entries`` empty)."""
    kind, nlink, size, tl, tgt, xl, blob, nptr, *ptrs = _INODE.unpack(raw)
    node = Inode(ino, kind)
    node.nlink = nlink
    node.size = size
    node.target = tgt[:tl].decode()
    node.xattrs = _unpack_xattrs(blob[:xl])
    node.blocks = list(ptrs[:nptr])
    node.content = None
    return node


def _unpack_bitmap(raw: bytes, nbits: int) -> int:
    """Bit n set means inode or block n is in use; bits from ``nbits`` on
    are ignored, and so are the bytes past the ones that hold them.
    ``int.to_bytes(BLOCK_SIZE, "little")`` packs it back."""
    return int.from_bytes(raw[: (nbits + 7) // 8], "little") & ((1 << nbits) - 1)


def _lowest_clear_bit(bits: int, lo: int, hi: int) -> int | None:
    """The lowest n in [lo, hi) whose bit is clear, or None."""
    free = ~bits & ((1 << hi) - (1 << lo))
    return (free & -free).bit_length() - 1 if free else None


def _check_pointer(geo: Geometry, ino: int, block: int) -> None:
    if not geo.data_start <= block < geo.total_blocks:
        raise ValueError(
            f"inode {ino} block pointer {block} lies outside the data region "
            f"[{geo.data_start}, {geo.total_blocks})"
        )


def _pack_dir(entries: dict[str, int]) -> bytes:
    blob = bytearray()
    for name in sorted(entries):
        nb = name.encode()
        blob += _DIRENT.pack(entries[name], len(nb)) + nb
    if len(blob) > BLOCK_SIZE:
        raise FsError("ENOSPC", "directory full")
    return bytes(blob)


def _unpack_dir(raw: bytes, length: int) -> dict[str, int]:
    out: dict[str, int] = {}
    pos = 0
    while pos < length:
        ino, nl = _DIRENT.unpack_from(raw, pos)
        pos += _DIRENT.size
        out[raw[pos : pos + nl].decode()] = ino
        pos += nl
    return out


class SoundFs:
    """One mounted instance, confined to a single worker."""

    NAME = "soundfs"
    BUG_SEED = None
    FORMAT_VERSION = FORMAT_VERSION

    # Variants set this to buffer ordinary writes until a commit flushes
    # them (delayed allocation); dwrite always bypasses the delay.
    DELAYED_DATA = False

    # The persistence calls whose commit a variant breaks (``commit_key``).
    BUGGY_TRIGGERS: frozenset[str] = frozenset()

    # A memo mount's record (``mount``); a live file system has none.
    memo_record = None

    # -- formatting ----------------------------------------------------------

    @classmethod
    def mkfs(cls, device: Device) -> None:
        """Format a zeroed device: only the superblock, the two bitmaps and
        the root's inode-table block hold non-zero bytes, so only they are
        written. The root directory's entry block is the first data block."""
        total = device.size_bytes // BLOCK_SIZE
        geo = Geometry.for_blocks(total)
        if total < geo.data_start + 8:
            raise FsError("ENOSPC", "device too small for this file system")
        device.write_block(0, geo.superblock)

        # ino 0 invalid, ino 1 root; the metadata region and the root dir block
        root_data_block = geo.data_start
        device.write_block(geo.inode_bitmap_block, (0b11).to_bytes(BLOCK_SIZE, "little"))
        used = (1 << (root_data_block + 1)) - 1
        device.write_block(geo.block_bitmap_block, used.to_bytes(BLOCK_SIZE, "little"))

        table = bytearray(BLOCK_SIZE)
        table[INODE_SIZE : 2 * INODE_SIZE] = _encode_inode(
            KIND_DIR, 1, 0, "", {}, [root_data_block]
        )
        device.write_block(geo.itable_start, bytes(table))

    # -- mounting ------------------------------------------------------------

    @classmethod
    def mount(cls, image: DiskImage, memo: "MountMemo | None" = None) -> "SoundFs | Unmountable":
        """Mount a crash image: without a ``memo``, recovery runs on a
        private device, then the state is loaded and validated from it
        (``mount_device``). A mount is a pure function of the target and
        the image's bytes, and after recovery nothing reads the journal
        (``_load_state``). So with a ``memo``, each distinct image is
        mounted once (``_memo_entry``): its journal is scanned once per
        distinct journal and replayed once for each image, and the load,
        validation and view run once per distinct recovered state (the
        blocks outside the journal, the journal position and the next
        transaction id), on that recovered image. Every mount of one image
        through the memo returns one object, which is never changed: the
        ``Unmountable``, or a memo mount that holds only its
        ``memo_record`` and the image's journal blocks. It answers only
        ``state_view``; ``thaw`` gives a live file system."""
        if memo is None:
            return cls.mount_device(Device(image.size_bytes, base=image))
        mounted = memo.states.get((cls, image.content_key()))
        if mounted is None:
            if len(memo.states) >= MountMemo.LIMIT:
                memo.clear()
            # key the interned copy, so the entry holds no block twice: the
            # lookup key holds the image's own block objects, equal to the
            # interned ones but not the same
            image = image.interned(memo.values)
            mounted = memo.states[(cls, image.content_key())] = cls._memo_entry(image, memo)
        return mounted

    def thaw(self) -> "SoundFs":
        """A new live file system equal to a plain mount of this memo mount's
        image: a fork of the record's file system onto the record's image
        with this image's journal blocks grafted back. It is an explicit
        call, not a ``__getattr__`` hook, which would stop CPython from
        specializing attribute reads on every instance of the class."""
        record = self.memo_record
        image = record.image.with_blocks(self._journal)
        return record.fs.fork(Device(image.size_bytes, base=image))

    @classmethod
    def _memo_entry(cls, image: DiskImage, memo: "MountMemo") -> "SoundFs | Unmountable":
        """The memo mount of a new, interned image, on a record that is
        loaded now if no earlier image recovered to the same state.

        The journal scan comes from ``memo.plans`` when an image with the
        same superblock and journal blocks was scanned before. Its replay
        reads this image and gives the blocks recovery writes, none of them
        in the journal (``_replay``): laid over this image outside the
        journal, they are the recovered image that keys the record. A new
        record is loaded from that image (``_load``), so no block is
        written and the journal is replayed once."""
        geo = Geometry.for_blocks(image.size_bytes // BLOCK_SIZE)
        rest, journal = image.split(geo.journal_start, geo.data_start)
        plan_key = (cls, image.read_block(0), image.part_key(journal))
        plan = memo.plans.get(plan_key)
        if plan is None:
            plan = memo.plans[plan_key] = cls._scan(image)
        if isinstance(plan, Unmountable):
            return plan
        blocks = cls._replay(plan, image.read_block)
        if isinstance(blocks, Unmountable):
            return blocks
        for n, b in blocks.items():
            blocks[n] = memo.values.setdefault(b, b)
        rest = rest.with_blocks(blocks)
        key = (cls, rest.content_key(), plan.journal_pos, plan.next_txn)
        record = memo.records.get(key)
        if record is None:
            fs = cls._load(Device(image.size_bytes, base=rest), plan)
            record = fs if isinstance(fs, Unmountable) else _MountedState(fs, rest)
            memo.records[key] = record
        if isinstance(record, Unmountable):
            return record
        mounted = cls.__new__(cls)
        mounted.memo_record, mounted._journal = record, journal
        return mounted

    @classmethod
    def mount_device(cls, device: Device) -> "SoundFs | Unmountable":
        """Mount the image ``device`` holds: the journal scanned
        (``_scan``) and replayed (``_replay``), the replay's block map
        written onto ``device``, then the state loaded from it (``_load``)."""
        plan = cls._scan(device)
        blocks = plan if isinstance(plan, Unmountable) else cls._replay(plan, device.read_block)
        if isinstance(blocks, Unmountable):
            return blocks
        for home, blk in blocks.items():
            device.write_block(home, blk)
        return cls._load(device, plan)

    @classmethod
    def _load(cls, device: Device, plan: "_Plan") -> "SoundFs | Unmountable":
        """A new file system over ``device``, which holds the image that
        recovery by ``plan`` leaves: the bitmaps and the tree loaded and
        validated, or the ``Unmountable`` either gives. The homes of the
        transactions still in the journal are kept, so that allocation
        skips them (``_alloc_block``)."""
        fs = cls.__new__(cls)
        fs.device, fs.geo = device, plan.geo
        fs._journal_pos, fs._next_txn = plan.journal_pos, plan.next_txn
        homes = {home for writes, _tombstones in plan.txns for home, _blk in writes}
        fs._journal_homes = sum(1 << home for home in homes)
        try:
            fs._load_state()
        except _MOUNT_ERRORS as e:
            return Unmountable(str(e))
        problem = fs._validate()
        if problem is not None:
            return Unmountable(problem)
        fs._reset_pending()
        return fs

    def _reset_pending(self) -> None:
        """Start with nothing pending; variants add their bookkeeping here."""
        # inodes and directory entry blocks the next commit writes
        self._dirty_inodes: set[int] = set()
        self._bitmap_dirty = False
        self._pending_data: dict[int, set[int]] = {}

    # -- journal recovery ----------------------------------------------------

    @classmethod
    def _scan(cls, source: "Device | DiskImage") -> "_Plan | Unmountable":
        """The first step of recovery, which only reads ``source``: the
        geometry from the superblock, then the committed transactions in
        order, or the ``Unmountable`` either gives. A header's home list and
        tombstones are parsed only once its commit block and checksum match:
        an uncommitted header may hold anything. A committed home must lie
        in the metadata or the data region, as a block pointer must lie in
        the data region (``_check_pointer``): recovery never writes block 0
        or the journal."""
        read = source.read_block
        txns = []
        last_txn = 0
        try:
            geo = Geometry.parse_superblock(read(0))
            if geo.total_blocks * BLOCK_SIZE != source.size_bytes:
                raise ValueError("superblock size does not match device")
            journal = range(geo.journal_start, geo.data_start)
            pos, end = journal.start, journal.stop
            while pos + 2 <= end:
                hdr_raw = read(pos)
                magic, txn_id, n_entries, n_tomb = _JHDR.unpack_from(hdr_raw)
                if magic != JOURNAL_HDR_MAGIC or txn_id <= last_txn:
                    break
                if pos + 1 + n_entries + 1 > end:
                    break
                entry_blocks = [read(n) for n in range(pos + 1, pos + 1 + n_entries)]
                cmagic, ctxn, csum = _JCOMMIT.unpack_from(read(pos + 1 + n_entries))
                if cmagic != JOURNAL_COMMIT_MAGIC or ctxn != txn_id:
                    break
                h = hashlib.sha256(hdr_raw)
                for eb in entry_blocks:
                    h.update(eb)
                if h.digest() != csum:
                    break
                targets = struct.unpack_from(f"<{n_entries}I", hdr_raw, _JHDR.size)
                for home in targets:
                    if home == 0 or home in journal or home >= geo.total_blocks:
                        raise ValueError(
                            f"transaction {txn_id} home block {home} lies outside "
                            "the metadata and data regions"
                        )
                tombstones = cls._unpack_tombstones(hdr_raw, _JHDR.size + 4 * n_entries, n_tomb)
                txns.append((list(zip(targets, entry_blocks)), tombstones))
                last_txn = txn_id
                pos += 1 + n_entries + 1
        except _MOUNT_ERRORS as e:
            return Unmountable(str(e))
        return _Plan(geo, txns, pos, last_txn + 1)

    @staticmethod
    def _replay(plan: "_Plan", read) -> "dict[int, bytes] | Unmountable":
        """The second step of recovery, which only reads too: each committed
        transaction's home writes, then its tombstones, applied in order to
        a map of block number to the bytes recovery leaves there, read
        through ``read`` where the map has none; or the ``Unmountable`` a
        tombstone gives. The recovered image is the scanned one with the
        map laid over it. A tombstone removes a name from its directory's
        entry block, which must lie in the data region, and from its size
        in the inode table."""
        geo = plan.geo
        blocks: dict[int, bytes] = {}
        try:
            for writes, tombstones in plan.txns:
                blocks.update(writes)
                for dir_ino, name in tombstones:
                    table = geo.itable_start + dir_ino // INODES_PER_BLOCK
                    off = (dir_ino % INODES_PER_BLOCK) * INODE_SIZE
                    raw = bytearray(blocks.get(table) or read(table))
                    node = _decode_inode(dir_ino, raw[off : off + INODE_SIZE])
                    if node.kind != KIND_DIR or not node.blocks:
                        continue
                    block = node.blocks[0]
                    entries = _unpack_dir(blocks.get(block) or read(block), node.size)
                    if name not in entries:
                        continue
                    _check_pointer(geo, dir_ino, block)
                    del entries[name]
                    packed = _pack_dir(entries)
                    blocks[block] = packed.ljust(BLOCK_SIZE, b"\0")
                    raw[off : off + INODE_SIZE] = _encode_inode(
                        node.kind, node.nlink, len(packed), node.target, node.xattrs, node.blocks
                    )
                    blocks[table] = bytes(raw)
        except _MOUNT_ERRORS as e:
            return Unmountable(str(e))
        return blocks

    @staticmethod
    def _unpack_tombstones(raw: bytes, offset: int, count: int):
        out = []
        pos = offset
        for _ in range(count):
            dir_ino, nl = struct.unpack_from("<HB", raw, pos)
            if dir_ino >= INODE_COUNT:
                raise ValueError(f"tombstone inode {dir_ino} lies outside the inode table")
            pos += 3
            out.append((dir_ino, raw[pos : pos + nl].decode()))
            pos += nl
        return out

    def _read_inode_raw(self, ino: int) -> bytes:
        blk = self.geo.itable_start + ino // INODES_PER_BLOCK
        off = (ino % INODES_PER_BLOCK) * INODE_SIZE
        return self.device.read_block(blk)[off : off + INODE_SIZE]

    # -- state loading -------------------------------------------------------

    def _load_state(self) -> None:
        """Load the bitmaps and the inodes, with each directory's entries.
        The entry block of a directory that has entries, and every non-zero
        file block, must lie in the data region, so nothing after recovery
        reads the journal (an empty directory's entry block is never read)."""
        geo = self.geo
        self.alloc_inos = _unpack_bitmap(
            self.device.read_block(geo.inode_bitmap_block), INODE_COUNT
        )
        self.alloc_blocks = _unpack_bitmap(
            self.device.read_block(geo.block_bitmap_block), geo.total_blocks
        )
        self.inodes: dict[int, Inode] = {}
        for ino in range(1, INODE_COUNT):
            if not self.alloc_inos >> ino & 1:
                continue
            node = _decode_inode(ino, self._read_inode_raw(ino))
            if node.kind == KIND_FREE:
                raise ValueError(f"allocated inode {ino} has free kind")
            if node.kind == KIND_DIR and node.size:
                block = node.blocks[0] if node.blocks else 0
                _check_pointer(geo, ino, block)
                node.entries = _unpack_dir(self.device.read_block(block), node.size)
            elif node.kind == KIND_FILE:
                for block in node.blocks:
                    if block:
                        _check_pointer(geo, ino, block)
            self.inodes[ino] = node
        if ROOT_INO not in self.inodes or self.inodes[ROOT_INO].kind != KIND_DIR:
            raise ValueError("missing root directory")

    def _validate(self) -> str | None:
        """Structural consistency of the recovered tree; None when sound."""
        refs: dict[int, int] = {}
        err = self._walk_tree(ROOT_INO, 0, refs, set())
        if err:
            return err
        for ino, node in self.inodes.items():
            expect = refs.get(ino, 0)
            if ino == ROOT_INO:
                continue
            if node.nlink != expect:
                return (
                    f"inode {ino} link count {node.nlink} does not match "
                    f"{expect} directory references"
                )
        return None

    def _walk_tree(
        self, ino: int, depth: int, refs: dict[int, int], seen_dirs: set[int]
    ) -> str | None:
        """Count directory references below ``ino`` into ``refs``; the first
        structural problem found, or None."""
        if depth > 16:
            return "directory tree too deep or cyclic"
        node = self.inodes.get(ino)
        if node is None:
            return f"dangling directory inode {ino}"
        if ino in seen_dirs:
            return None
        seen_dirs.add(ino)
        for name, child in sorted(node.entries.items()):
            if not self.alloc_inos >> child & 1 or child not in self.inodes:
                return f"entry {name!r} points to unallocated inode {child}"
            refs[child] = refs.get(child, 0) + 1
            if self.inodes[child].kind == KIND_DIR:
                err = self._walk_tree(child, depth + 1, refs, seen_dirs)
                if err:
                    return err
        return None

    # -- path resolution -----------------------------------------------------

    def _resolve(self, path: str, *, follow: bool, depth: int = 0) -> tuple[int, str, int | None]:
        """Return (parent_ino, name, ino or None). Root is ('', '/', ROOT_INO)."""
        if depth > 8:
            raise FsError("ELOOP", f"too many symlinks resolving {path}")
        if path in ("/", ""):
            return (0, "/", ROOT_INO)
        parts = [p for p in path.split("/") if p]
        cur = ROOT_INO
        for comp in parts[:-1]:
            node = self.inodes[cur]
            nxt = node.entries.get(comp)
            if nxt is None:
                raise FsError("ENOENT", f"missing component {comp!r} in {path}")
            if self.inodes[nxt].kind != KIND_DIR:
                raise FsError("ENOTDIR", f"{comp!r} is not a directory")
            cur = nxt
        name = parts[-1]
        ino = self.inodes[cur].entries.get(name)
        if ino is not None and follow and self.inodes[ino].kind == KIND_SYMLINK:
            target = self.inodes[ino].target
            resolved = target if "/" in target or cur == ROOT_INO else self._join(cur, target)
            return self._resolve(resolved, follow=True, depth=depth + 1)
        return (cur, name, ino)

    def _join(self, dir_ino: int, rel: str) -> str:
        # Symlink targets resolve relative to the link's directory.
        return f"{self._path_of_dir(dir_ino)}/{rel}" if dir_ino != ROOT_INO else rel

    def _path_of_dir(self, ino: int) -> str:
        for path, entry_ino in self._walk_paths():
            if entry_ino == ino:
                return path
        raise FsError("ENOENT", f"directory inode {ino} unreachable")

    def _walk_paths(self):
        stack = [("", ROOT_INO, 0)]
        while stack:
            prefix, ino, depth = stack.pop()
            if depth > 16:
                continue
            node = self.inodes[ino]
            for name in sorted(node.entries, reverse=True):
                child = node.entries[name]
                path = f"{prefix}/{name}" if prefix else name
                yield path, child
                if self.inodes[child].kind == KIND_DIR:
                    stack.append((path, child, depth + 1))

    def _require_parent_dir(self, parent_ino: int, path: str) -> Inode:
        if parent_ino == 0:
            raise FsError("ENOENT", f"no parent for {path}")
        node = self.inodes.get(parent_ino)
        if node is None or node.kind != KIND_DIR:
            raise FsError("ENOTDIR", f"parent of {path} is not a directory")
        return node

    # -- allocation ----------------------------------------------------------

    def _alloc_ino(self, kind: int) -> Inode:
        ino = _lowest_clear_bit(self.alloc_inos, 1, INODE_COUNT)
        if ino is None:
            raise FsError("ENOSPC", "out of inodes")
        self.alloc_inos |= 1 << ino
        self._bitmap_dirty = True
        node = Inode(ino, kind)
        self.inodes[ino] = node
        self._dirty_inodes.add(ino)
        return node

    def _alloc_block(self) -> int:
        """The lowest free data block that is not the home of a transaction
        still in the journal: recovery would write that transaction's old
        bytes over whatever the block holds next."""
        used = self.alloc_blocks | self._journal_homes
        b = _lowest_clear_bit(used, self.geo.data_start, self.geo.total_blocks)
        if b is None:
            raise FsError("ENOSPC", "out of data blocks")
        self.alloc_blocks |= 1 << b
        self._bitmap_dirty = True
        return b

    def _free_block(self, b: int) -> None:
        if b:
            self.alloc_blocks &= ~(1 << b)
            self._bitmap_dirty = True

    def _free_inode(self, node: Inode) -> None:
        for b in node.blocks:
            self._free_block(b)
        self.alloc_inos &= ~(1 << node.ino)
        self.inodes.pop(node.ino, None)
        self._dirty_inodes.add(node.ino)
        self._bitmap_dirty = True
        self._pending_data.pop(node.ino, None)

    # -- content helpers -----------------------------------------------------

    def _content(self, node: Inode) -> bytearray:
        if node.content is None:
            buf = bytearray(node.size)
            for i, blk in enumerate(node.blocks):
                if blk == 0:
                    continue
                lo = i * BLOCK_SIZE
                if lo >= node.size:
                    continue
                chunk = self.device.read_block(blk)
                take = min(BLOCK_SIZE, node.size - lo)
                buf[lo : lo + take] = chunk[:take]
            node.content = buf
        return node.content

    def _write_range(self, node: Inode, start: int, data: bytes, *, buffered: bool) -> None:
        """Buffered writes leave their blocks pending until the next commit;
        the rest go to the device now."""
        content = self._content(node)
        end = start + len(data)
        if end > len(content):
            content.extend(bytes(end - len(content)))
        content[start:end] = data
        if end > node.size:
            node.size = end
        self._dirty_inodes.add(node.ino)
        first = start // BLOCK_SIZE
        last = (end - 1) // BLOCK_SIZE if end else first
        touched = set(range(first, last + 1))
        if buffered:
            self._pending_data.setdefault(node.ino, set()).update(touched)
        else:
            self._submit_file_blocks(node, touched)

    def _submit_file_blocks(self, node: Inode, indices: set[int]) -> None:
        content = self._content(node)
        for idx in sorted(indices):
            while len(node.blocks) <= idx:
                node.blocks.append(0)
            if node.blocks[idx] == 0:
                node.blocks[idx] = self._alloc_block()
                self._dirty_inodes.add(node.ino)
            chunk = bytes(content[idx * BLOCK_SIZE : (idx + 1) * BLOCK_SIZE])
            self.device.write_block(node.blocks[idx], chunk.ljust(BLOCK_SIZE, b"\0"))

    # -- operations ----------------------------------------------------------

    def apply(self, op: FsOp, op_index: int = 0) -> None:
        kind = op.kind
        if kind is FsOpKind.CREAT:
            self._op_creat(op.path)
        elif kind is FsOpKind.MKDIR:
            self._op_mkdir(op.path)
        elif kind is FsOpKind.FALLOC:
            self._op_falloc(op.path, op.flag, op.start, op.end)
        elif kind in (FsOpKind.WRITE, FsOpKind.DWRITE, FsOpKind.MWRITE):
            data = pattern_bytes(op_index, op.start, op.end)
            self._op_write(op.path, op.start, data, kind)
        elif kind is FsOpKind.LINK:
            self._op_link(op.path, op.path2)
        elif kind is FsOpKind.SYMLINK:
            self._op_symlink(op.path, op.path2)
        elif kind is FsOpKind.RENAME:
            self._op_rename(op.path, op.path2)
        elif kind is FsOpKind.UNLINK:
            self._op_unlink(op.path)
        elif kind is FsOpKind.REMOVE:
            self._op_remove(op.path)
        elif kind is FsOpKind.RMDIR:
            self._op_rmdir(op.path)
        elif kind is FsOpKind.TRUNCATE:
            self._op_truncate(op.path, op.end)
        elif kind is FsOpKind.XATTR:
            if op.variant == "setxattr":
                self._op_setxattr(op.path, op.attr, op.value)
            else:
                self._op_removexattr(op.path, op.attr)
        else:
            raise FsError("EINVAL", f"unsupported op {kind}")

    def _op_creat(self, path: str) -> None:
        self._ensure_file(path, truncate=True)

    def _op_mkdir(self, path: str) -> None:
        parent, name, ino = self._resolve(path, follow=False)
        if ino is not None:
            raise FsError("EEXIST", f"{path} exists")
        dirn = self._require_parent_dir(parent, path)
        node = self._alloc_ino(KIND_DIR)
        node.blocks = [self._alloc_block()]
        node.content = None
        dirn.entries[name] = node.ino
        self._dirty_inodes.add(dirn.ino)

    def _ensure_file(self, path: str, truncate: bool = False) -> Inode:
        """The file at ``path``, created when missing; creat truncates."""
        parent, name, ino = self._resolve(path, follow=True)
        if ino is None or truncate:
            dirn = self._require_parent_dir(parent, path)
        if ino is None:
            node = self._alloc_ino(KIND_FILE)
            dirn.entries[name] = node.ino
            self._dirty_inodes.add(dirn.ino)
            return node
        node = self.inodes[ino]
        if node.kind == KIND_DIR:
            raise FsError("EISDIR", f"{path} is a directory")
        if truncate:
            self._truncate_node(node, 0)
        return node

    def _op_falloc(self, path: str, flag: FallocFlag, start: int, end: int) -> None:
        node = self._ensure_file(path)
        first = start // BLOCK_SIZE
        last = max(first, (end - 1) // BLOCK_SIZE if end > start else first)
        if flag in (FallocFlag.PUNCH_HOLE, FallocFlag.PUNCH_HOLE_KEEP_SIZE):
            # Whole blocks inside the range become holes; partial edge blocks
            # are zeroed in place.
            content = self._content(node)
            zero_end = min(end, node.size)
            if start < zero_end:
                content[start:zero_end] = bytes(zero_end - start)
            lo_blk = (start + BLOCK_SIZE - 1) // BLOCK_SIZE
            hi_blk = end // BLOCK_SIZE
            resubmit = set()
            for idx in range(lo_blk, min(hi_blk, len(node.blocks))):
                self._free_block(node.blocks[idx])
                node.blocks[idx] = 0
            for edge in (start // BLOCK_SIZE, end // BLOCK_SIZE):
                if (
                    edge < len(node.blocks)
                    and node.blocks[edge]
                    and edge * BLOCK_SIZE < node.size
                ):
                    resubmit.add(edge)
            if resubmit:
                self._submit_file_blocks(node, resubmit)
            self._dirty_inodes.add(node.ino)
            return
        # allocating flavors
        content = self._content(node)
        if end > len(content):
            content.extend(bytes(end - len(content)))
        if flag is FallocFlag.ZERO_RANGE:
            content[start:end] = bytes(end - start)
        while len(node.blocks) <= last:
            node.blocks.append(0)
        touched = {i for i in range(first, last + 1)}
        self._submit_file_blocks(node, touched)
        if flag is FallocFlag.NONE and end > node.size:
            node.size = end
        self._dirty_inodes.add(node.ino)

    def _op_write(self, path: str, start: int, data: bytes, kind: FsOpKind) -> None:
        node = self._ensure_file(path)
        # mwrite dirties page-cache pages only; plain writes do too when data
        # writeback is delayed
        buffered = kind is FsOpKind.MWRITE or (kind is FsOpKind.WRITE and self.DELAYED_DATA)
        self._write_range(node, start, data, buffered=buffered)

    def _op_link(self, src: str, dst: str) -> None:
        _, _, sino = self._resolve(src, follow=False)
        if sino is None:
            raise FsError("ENOENT", f"link source {src} missing")
        snode = self.inodes[sino]
        if snode.kind == KIND_DIR:
            raise FsError("EPERM", "hard links to directories are not allowed")
        dparent, dname, dino = self._resolve(dst, follow=False)
        if dino is not None:
            raise FsError("EEXIST", f"{dst} exists")
        dirn = self._require_parent_dir(dparent, dst)
        dirn.entries[dname] = sino
        snode.nlink += 1
        self._dirty_inodes.update((dirn.ino, sino))

    def _op_symlink(self, target: str, linkpath: str) -> None:
        parent, name, ino = self._resolve(linkpath, follow=False)
        if ino is not None:
            raise FsError("EEXIST", f"{linkpath} exists")
        dirn = self._require_parent_dir(parent, linkpath)
        node = self._alloc_ino(KIND_SYMLINK)
        node.target = target
        node.size = len(target.encode())
        dirn.entries[name] = node.ino
        self._dirty_inodes.add(dirn.ino)

    def _op_rename(self, src: str, dst: str) -> None:
        sparent, sname, sino = self._resolve(src, follow=False)
        if sino is None:
            raise FsError("ENOENT", f"rename source {src} missing")
        snode = self.inodes[sino]
        dparent, dname, dino = self._resolve(dst, follow=False)
        dirn = self._require_parent_dir(dparent, dst)
        if snode.kind == KIND_DIR and self._is_descendant(sino, dparent):
            raise FsError("EINVAL", "cannot move a directory into itself")
        if dino is not None:
            if dino == sino:
                return
            victim = self.inodes[dino]
            if victim.kind == KIND_DIR:
                if snode.kind != KIND_DIR:
                    raise FsError("EISDIR", f"{dst} is a directory")
                if victim.entries:
                    raise FsError("ENOTEMPTY", f"{dst} is not empty")
                self._free_inode(victim)
            else:
                if snode.kind == KIND_DIR:
                    raise FsError("ENOTDIR", f"{dst} is not a directory")
                victim.nlink -= 1
                self._dirty_inodes.add(dino)
                if victim.nlink == 0:
                    self._free_inode(victim)
        srcdir = self.inodes[sparent]
        del srcdir.entries[sname]
        dirn.entries[dname] = sino
        self._dirty_inodes.update((sparent, dirn.ino, sino))

    def _is_descendant(self, dir_ino: int, ancestor: int) -> bool:
        if dir_ino == ancestor:
            return True
        node = self.inodes.get(dir_ino)
        if node is None:
            return False
        for child in node.entries.values():
            if self.inodes[child].kind == KIND_DIR and self._is_descendant(
                child, ancestor
            ):
                return True
        return False

    def _op_unlink(self, path: str) -> None:
        parent, name, ino = self._resolve(path, follow=False)
        if ino is None:
            raise FsError("ENOENT", f"{path} missing")
        node = self.inodes[ino]
        if node.kind == KIND_DIR:
            raise FsError("EISDIR", f"{path} is a directory")
        dirn = self.inodes[parent]
        del dirn.entries[name]
        node.nlink -= 1
        self._dirty_inodes.update((parent, ino))
        if node.nlink == 0:
            self._free_inode(node)

    def _op_remove(self, path: str) -> None:
        _, _, ino = self._resolve(path, follow=False)
        if ino is None:
            raise FsError("ENOENT", f"{path} missing")
        if self.inodes[ino].kind == KIND_DIR:
            self._op_rmdir(path)
        else:
            self._op_unlink(path)

    def _op_rmdir(self, path: str) -> None:
        parent, name, ino = self._resolve(path, follow=False)
        if ino is None:
            raise FsError("ENOENT", f"{path} missing")
        node = self.inodes[ino]
        if node.kind != KIND_DIR:
            raise FsError("ENOTDIR", f"{path} is not a directory")
        if node.entries:
            raise FsError("ENOTEMPTY", f"{path} is not empty")
        if ino == ROOT_INO:
            raise FsError("EBUSY", "cannot remove the root directory")
        dirn = self.inodes[parent]
        del dirn.entries[name]
        self._dirty_inodes.add(parent)
        self._free_inode(node)

    def _op_truncate(self, path: str, size: int) -> None:
        _, _, ino = self._resolve(path, follow=True)
        if ino is None:
            raise FsError("ENOENT", f"{path} missing")
        node = self.inodes[ino]
        if node.kind == KIND_DIR:
            raise FsError("EISDIR", f"{path} is a directory")
        self._truncate_node(node, size)

    def _truncate_node(self, node: Inode, size: int) -> None:
        content = self._content(node)
        if size < node.size:
            del content[size:]
            keep = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
            for idx in range(keep, len(node.blocks)):
                self._free_block(node.blocks[idx])
            del node.blocks[keep:]
            pend = self._pending_data.get(node.ino)
            if pend:
                self._pending_data[node.ino] = {i for i in pend if i < keep}
            if size % BLOCK_SIZE and size // BLOCK_SIZE < len(node.blocks):
                if node.blocks[size // BLOCK_SIZE]:
                    self._submit_file_blocks(node, {size // BLOCK_SIZE})
        elif size > len(content):
            # content may already extend past EOF (keep-size allocations)
            content.extend(bytes(size - len(content)))
        node.size = size
        self._dirty_inodes.add(node.ino)

    def _op_setxattr(self, path: str, name: str, value: str) -> None:
        _, _, ino = self._resolve(path, follow=True)
        if ino is None:
            raise FsError("ENOENT", f"{path} missing")
        node = self.inodes[ino]
        node.xattrs[name] = value
        self._dirty_inodes.add(ino)

    def _op_removexattr(self, path: str, name: str) -> None:
        _, _, ino = self._resolve(path, follow=True)
        if ino is None:
            raise FsError("ENOENT", f"{path} missing")
        node = self.inodes[ino]
        if name not in node.xattrs:
            raise FsError("ENODATA", f"{path} has no xattr {name!r}")
        del node.xattrs[name]
        self._dirty_inodes.add(ino)

    # -- persistence ---------------------------------------------------------

    def persist(
        self, kind: PersistKind, target: str | None = None, key: tuple | None = None
    ) -> None:
        """Commit for one persistence call; ``key`` is its ``commit_key``
        when the caller has resolved it already."""
        self._commit(*(self.commit_key(kind, target) if key is None else key))

    def commit_key(self, kind: PersistKind, target: str | None) -> tuple[bool, int | None]:
        """All that a commit reads of its persistence call: whether the call
        is one of ``BUGGY_TRIGGERS``. A variant whose commit also reads the
        target inode (bugfs-b3) keeps it in the key. From one state, two
        calls with one key leave the same device and file system. Raises the
        FsError that ``persist`` raises when the target does not resolve."""
        if kind is not PersistKind.SYNC:
            self._persist_target(target)
        return kind.value in self.BUGGY_TRIGGERS, None

    def _persist_target(self, target: str) -> int:
        _, _, ino = self._resolve(target, follow=True)
        if ino is None:
            raise FsError("ENOENT", f"persistence target {target} missing")
        return ino

    def unmount_clean(self) -> DiskImage:
        """Flush everything pending and return the quiesced image."""
        self._commit(False, None)
        return self.device.snapshot()

    def fork(self, device: Device) -> "SoundFs":
        """An independent copy of this file system on ``device``, which holds
        its image. Inodes and the pending-data sets are copied; every other
        list, set or dict attribute is copied one level deep, as the
        variants' bookkeeping holds only immutable items. The geometry and
        the ints are shared."""
        fs = type(self).__new__(type(self))
        fs.__dict__ = {
            name: value.copy() if isinstance(value, (list, set, dict)) else value
            for name, value in vars(self).items()
        }
        fs.device = device
        fs.inodes = {ino: node.copy() for ino, node in self.inodes.items()}
        fs._pending_data = {ino: set(idx) for ino, idx in self._pending_data.items()}
        return fs

    def replicate(self) -> "SoundFs":
        """A fork on a copy of the device; ``clean_view`` unmounts one when
        a commit deferred data."""
        return self.fork(self.device.copy())

    def clean_view(self) -> FsStateView:
        """The view a clean unmount would leave, without unmounting.

        The unmount commit has one in-memory effect: ``_submit_file_blocks``
        on pending data, which allocates blocks and so changes
        ``block_count``. Every other part of ``_commit``, and every
        variant's ``_after_commit(False)``, writes only to the device,
        the dirty sets or the variant's own bookkeeping, none of which the
        view reads. So with no data pending the live view is that view.

        After a commit, data stays pending only where a variant skipped its
        flush (bugfs-b5's ``_skip_data_flush_inos``); then a replica is
        unmounted and viewed instead."""
        if not self._pending_data:
            return self.state_view()
        replica = self.replicate()
        replica.unmount_clean()
        return replica.state_view()

    # Policy hooks the buggy variants override. -------------------------------
    # Each reads of the persistence call only its key (``commit_key``).

    def _skip_data_flush_inos(self, buggy: bool) -> set[int]:
        return set()

    def _adjust_effective(self, eff: "_EffectiveState", buggy: bool, target_ino):
        pass

    def _tombstones_for_commit(self, buggy: bool) -> list[tuple[int, str]]:
        return []

    def _after_commit(self, buggy: bool) -> None:
        """Baseline: a commit makes everything pending durable. Variants keep
        or clear their own bookkeeping here."""

    # -- the commit pipeline ---------------------------------------------------

    def _commit(self, buggy: bool, target_ino: int | None) -> None:
        skip = self._skip_data_flush_inos(buggy)
        deferred: dict[int, set[int]] = {}
        for ino, blocks in sorted(self._pending_data.items()):
            if ino in skip:
                deferred[ino] = blocks
                continue
            node = self.inodes.get(ino)
            if node is not None:
                self._submit_file_blocks(node, blocks)
        self._pending_data = deferred

        eff = _EffectiveState(self)
        self._adjust_effective(eff, buggy, target_ino)
        tombstones = self._tombstones_for_commit(buggy)
        images = eff.block_images()

        if images or tombstones:
            self._write_txn(images, tombstones)
        else:
            self.device.flush()
        self._dirty_inodes.clear()
        self._bitmap_dirty = False
        self._after_commit(buggy)

    def _write_txn(self, images: list[tuple[int, bytes]], tombstones) -> None:
        geo = self.geo
        n = len(images)
        needed = 1 + n + 1
        if needed > geo.journal_blocks:
            raise FsError(
                "ENOSPC",
                f"transaction of {needed} blocks exceeds the {geo.journal_blocks}-block journal",
            )
        if self._journal_pos + needed > geo.journal_start + geo.journal_blocks:
            # Wrap: FLUSH makes every earlier transaction's home writes durable
            # before the journal head is overwritten. Recovery stops at the
            # first transaction id that does not increase, so the stale ones
            # left after the new head are never replayed.
            self.device.flush()
            self._journal_pos = geo.journal_start
            self._journal_homes = 0
        hdr = bytearray(
            _JHDR.pack(JOURNAL_HDR_MAGIC, self._next_txn, n, len(tombstones))
        )
        hdr += struct.pack(f"<{n}I", *(home for home, _ in images))
        for dir_ino, name in tombstones:
            nb = name.encode()
            hdr += struct.pack("<HB", dir_ino, len(nb)) + nb
        hdr_block = bytes(hdr).ljust(BLOCK_SIZE, b"\0")

        h = hashlib.sha256()
        h.update(hdr_block)
        for _home, img in images:
            h.update(img)
        commit_block = _JCOMMIT.pack(
            JOURNAL_COMMIT_MAGIC, self._next_txn, h.digest()
        ).ljust(BLOCK_SIZE, b"\0")

        pos = self._journal_pos
        self.device.write_block(pos, hdr_block)
        for i, (_home, img) in enumerate(images):
            self.device.write_block(pos + 1 + i, img)
        self.device.flush()
        self.device.write_block(pos + 1 + n, commit_block, fua=True)
        for home, img in images:
            self.device.write_block(home, img)
            self._journal_homes |= 1 << home
        self._journal_pos = pos + needed
        self._next_txn += 1

    # -- views ---------------------------------------------------------------

    def _entry_for(self, node: Inode) -> ViewEntry:
        if node.kind == KIND_FILE:
            content = self._content(node)
            return ViewEntry(
                kind="file",
                size=node.size,
                link_count=node.nlink,
                block_count=SECTORS_PER_BLOCK * sum(1 for b in node.blocks if b),
                data_hash=hashlib.sha256(bytes(content[: node.size])).hexdigest(),
                xattrs=tuple(sorted(node.xattrs.items())),
            )
        if node.kind == KIND_DIR:
            return ViewEntry(
                kind="dir",
                size=len(node.entries),
                link_count=1,
                block_count=SECTORS_PER_BLOCK * sum(1 for b in node.blocks if b),
                xattrs=tuple(sorted(node.xattrs.items())),
            )
        return ViewEntry(
            kind="symlink",
            size=node.size,
            link_count=node.nlink,
            symlink_target=node.target,
        )

    def state_view(self) -> FsStateView:
        """The logical listing; read-only, as a memo mount shares it."""
        if self.memo_record is not None:
            return self.memo_record.view
        return self._build_view()

    def _build_view(self) -> FsStateView:
        view = FsStateView()
        view.entries["/"] = self._entry_for(self.inodes[ROOT_INO])
        for path, ino in self._walk_paths():
            view.entries[path] = self._entry_for(self.inodes[ino])
        return view

    def paths_of_ino(self, ino: int) -> list[str]:
        return sorted(p for p, i in self._walk_paths() if i == ino)

    def resolve_ino(self, path: str) -> int | None:
        try:
            _, _, ino = self._resolve(path, follow=True)
        except FsError:
            return None
        return ino

    # -- offline structural check (fsck analogue) ------------------------------

    @classmethod
    def fsck(cls, failed: Unmountable) -> dict:
        """Advisory structural-check report on a crash state whose mount
        failed with ``failed``."""
        return {
            "mountable": False,
            "repairable": "link count" in failed.reason,  # orphan-style damage only
            "issues": [failed.reason],
        }


class _Plan(NamedTuple):
    """What a journal scan finds (``SoundFs._scan``): the geometry, each
    committed transaction's ``(home, block)`` writes and tombstones in
    replay order (``SoundFs._replay``), the journal slot after the last one
    and the next transaction id."""

    geo: Geometry
    txns: list
    journal_pos: int
    next_txn: int


class MountMemo:
    """What mounting crash images gave, for one campaign partition, in four
    tables. ``states`` maps target class and exact image content to the
    image's memo mount (``SoundFs.mount``), or the ``Unmountable`` when
    recovery failed. ``plans`` maps target class, superblock and journal
    blocks (with the image size and base) to the journal scan's ``_Plan``
    or ``Unmountable``; images that differ only outside the journal share
    one. ``records`` maps target class, recovered content outside the
    journal, journal position and next transaction id to a
    ``_MountedState`` or the ``Unmountable``; images that differ only in
    journal blocks recovery ignores share one. ``values`` interns block
    contents, the images' and those their replays give, so the memo holds
    each once (distinct images share most of
    their blocks). It empties itself when ``states`` reaches ``LIMIT``
    entries."""

    # A benchmark campaign, run as one partition, holds at most 288 images
    # and 114 plans (seq1-subset) and 88 records (bughunt), for seeds 0-10;
    # at this bound an in-process run of the full seq-1 --subset tier peaks
    # at 25 MB ru_maxrss (Python 3.11, 2-core x86-64).
    LIMIT = 1024

    def __init__(self):
        self.states: dict[tuple, "SoundFs | Unmountable"] = {}
        self.plans: dict[tuple, "_Plan | Unmountable"] = {}
        self.records: dict[tuple, "_MountedState | Unmountable"] = {}
        self.values: dict = {}

    def clear(self) -> None:
        self.states.clear()
        self.plans.clear()
        self.records.clear()
        self.values.clear()


class _MountedState:
    """A frozen mounted file system: the loaded file system, the recovered
    image without its journal blocks (recovery copies the journal's blocks
    home, so it shares their interned bytes), the view, which a memo mount
    answers ``state_view`` from, and ``probes``, the harness's write-probe
    outcomes on it, keyed by the probed directories. Nothing changes the
    file system after this: a thaw forks it onto a device of its own and
    reads file data from there, so it keeps no device and no file
    content."""

    __slots__ = ("fs", "image", "view", "probes")

    def __init__(self, fs: SoundFs, image: DiskImage):
        self.view = fs._build_view()
        for node in fs.inodes.values():
            node.content = None
        fs.device = None
        self.fs = fs
        self.image = image
        self.probes: dict[tuple[str, ...], tuple] = {}


class _EffectiveState:
    """Snapshot of the metadata that a commit is about to make durable.

    Variants mutate the copies here; the in-memory truth is untouched, so
    the oracle shows a correct commit. An inode a variant leaves clean keeps
    its wrong on-disk copy even across a clean unmount (bugfs-b3).
    """

    def __init__(self, fs: SoundFs):
        self.fs = fs
        self.nlink: dict[int, int] = {}
        self.sizes: dict[int, int] = {}
        self.blocks: dict[int, list[int]] = {}
        self.dir_entries: dict[int, dict[str, int]] = {}
        for ino in sorted(fs._dirty_inodes):
            node = fs.inodes.get(ino)
            if node is None:
                continue
            if node.kind == KIND_DIR and node.blocks == [0]:
                # bugfs-b3 can leave an empty directory's entry-block pointer
                # at 0, the superblock: give it a block before its entries
                # are written
                node.blocks[0] = fs._alloc_block()
            self.nlink[ino] = node.nlink
            self.sizes[ino] = node.size
            self.blocks[ino] = list(node.blocks)
            if node.kind == KIND_DIR:
                self.dir_entries[ino] = dict(node.entries)

    def block_images(self) -> list[tuple[int, bytes]]:
        fs = self.fs
        images: list[tuple[int, bytes]] = []

        for ino, entries in sorted(self.dir_entries.items()):
            node = fs.inodes[ino]
            if not node.blocks:
                continue
            packed = _pack_dir(entries)
            self.sizes[ino] = len(packed)
            images.append((node.blocks[0], packed.ljust(BLOCK_SIZE, b"\0")))

        # Only dirty slots are repacked; clean inodes keep their last committed
        # on-disk bytes (in-memory dir sizes are not maintained between commits).
        table_blocks = sorted({ino // INODES_PER_BLOCK for ino in fs._dirty_inodes})
        for tb in table_blocks:
            raw = bytearray(fs.device.read_block(fs.geo.itable_start + tb))
            for slot in range(INODES_PER_BLOCK):
                ino = tb * INODES_PER_BLOCK + slot
                if ino not in fs._dirty_inodes:
                    continue
                node = fs.inodes.get(ino)
                if not fs.alloc_inos >> ino & 1 or node is None:
                    raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = bytes(INODE_SIZE)
                    continue
                packed = _encode_inode(
                    node.kind,
                    self.nlink.get(ino, node.nlink),
                    self.sizes.get(ino, node.size),
                    node.target,
                    node.xattrs,
                    self.blocks.get(ino, node.blocks),
                )
                raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = packed
            images.append((fs.geo.itable_start + tb, bytes(raw)))

        if fs._bitmap_dirty:
            # ino 0 and the metadata region stay reserved
            inos = fs.alloc_inos | 1
            blocks = fs.alloc_blocks | ((1 << fs.geo.data_start) - 1)
            images.append((fs.geo.inode_bitmap_block, inos.to_bytes(BLOCK_SIZE, "little")))
            images.append((fs.geo.block_bitmap_block, blocks.to_bytes(BLOCK_SIZE, "little")))
        return images
