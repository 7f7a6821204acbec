"""SoundFS: a small journaling file system over the simulated block device.

Layout (4096-byte blocks): superblock, inode bitmap, block bitmap, inode
table, physical redo journal, data blocks. File data is written in place
(ordered mode); metadata reaches disk only through journal transactions
committed at persistence points. Recovery replays committed transactions
and then structurally validates the tree; validation failure surfaces as
an un-mountable image.

Buggy variants override the narrow policy hooks marked below; everything
else (clean unmount, sync, recovery replay itself) stays correct, so bugs
manifest only across crash recovery.
"""

from __future__ import annotations

import copy
import hashlib
import struct

from ..blockdev import BLOCK_SIZE, Device, DiskImage
from ..fsops import FallocFlag, FsOp, FsOpKind, PersistKind
from .base import FsError, FsStateView, PersistenceGuarantees, Unmountable, ViewEntry

MAGIC = b"SOUNDFS1"
FORMAT_VERSION = 1

INODE_SIZE = 512
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE
INODE_COUNT = 64
INODE_TABLE_BLOCKS = INODE_COUNT // INODES_PER_BLOCK

KIND_FREE, KIND_FILE, KIND_DIR, KIND_SYMLINK = 0, 1, 2, 3
_KIND_NAMES = {KIND_FILE: "file", KIND_DIR: "dir", KIND_SYMLINK: "symlink"}

ROOT_INO = 1
MAX_PTRS = 166
MAX_TARGET = 62
MAX_XATTR_BLOB = 92
SECTORS_PER_BLOCK = BLOCK_SIZE // 512

JOURNAL_HDR_MAGIC = b"SLJHDR01"
JOURNAL_COMMIT_MAGIC = b"SLJCMT01"

_SB = struct.Struct("<8sIIIIIIIIIII")
_INODE = struct.Struct(f"<BBHQQH{MAX_TARGET}sH{MAX_XATTR_BLOB}sH{MAX_PTRS}H")
_JHDR = struct.Struct("<8sQII")
_JCOMMIT = struct.Struct("<8sQ32s")


class Geometry:
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

    def pack_superblock(self) -> bytes:
        raw = _SB.pack(
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
        )
        return raw.ljust(BLOCK_SIZE, b"\0")

    @classmethod
    def parse_superblock(cls, raw: bytes) -> "Geometry":
        (
            magic,
            version,
            total,
            icount,
            itable_start,
            itable_blocks,
            ibmp,
            bbmp,
            jstart,
            jblocks,
            dstart,
            root,
        ) = _SB.unpack_from(raw)
        if magic != MAGIC:
            raise ValueError("bad superblock magic")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        geo = cls.__new__(cls)
        geo.total_blocks = total
        geo.inode_bitmap_block = ibmp
        geo.block_bitmap_block = bbmp
        geo.itable_start = itable_start
        geo.itable_blocks = itable_blocks
        geo.journal_start = jstart
        geo.journal_blocks = jblocks
        geo.data_start = dstart
        if (
            icount != INODE_COUNT
            or root != ROOT_INO
            or itable_start != 3
            or dstart != jstart + jblocks
            or dstart >= total
        ):
            raise ValueError("inconsistent superblock geometry")
        return geo


class Inode:
    """In-memory inode; authoritative while mounted."""

    __slots__ = (
        "ino",
        "kind",
        "nlink",
        "size",
        "mtime",
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
        self.mtime = 0
        self.target = ""
        self.xattrs: dict[str, str] = {}
        self.blocks: list[int] = []  # per 4K file block; 0 = hole
        self.entries: dict[str, int] = {}  # dirs: name -> ino
        self.content: bytearray | None = bytearray() if kind == KIND_FILE else None


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


def _pack_dir(entries: dict[str, int], kinds: dict[int, int]) -> bytes:
    blob = bytearray()
    for name in sorted(entries):
        ino = entries[name]
        nb = name.encode()
        blob += struct.pack("<HBB", ino, kinds.get(ino, 0), len(nb)) + nb
    if len(blob) > BLOCK_SIZE:
        raise FsError("ENOSPC", "directory full")
    return bytes(blob)


def _unpack_dir(raw: bytes, length: int) -> dict[str, int]:
    out: dict[str, int] = {}
    pos = 0
    while pos < length:
        ino, _kind, nl = struct.unpack_from("<HBB", raw, pos)
        pos += 4
        out[raw[pos : pos + nl].decode()] = ino
        pos += nl
    return out


class SoundFs:
    """One mounted instance, confined to a single worker."""

    NAME = "soundfs"
    GUARANTEES = PersistenceGuarantees()
    BUG_SEED = None
    FORMAT_VERSION = FORMAT_VERSION

    # Variants set this to buffer ordinary writes until a commit flushes
    # them (delayed allocation); dwrite always bypasses the delay.
    DELAYED_DATA = False

    # -- formatting ----------------------------------------------------------

    @classmethod
    def mkfs(cls, device: Device) -> None:
        total = device.size_bytes // BLOCK_SIZE
        geo = Geometry(total)
        if total < geo.data_start + 8:
            raise FsError("ENOSPC", "device too small for this file system")
        device.write_block(0, geo.pack_superblock())

        ibmp = bytearray(BLOCK_SIZE)
        ibmp[0] |= 0b11  # ino 0 invalid, ino 1 root
        device.write_block(geo.inode_bitmap_block, bytes(ibmp))

        root_data_block = geo.data_start
        bbmp = bytearray(BLOCK_SIZE)
        for b in range(geo.data_start + 1):  # metadata region + root dir block
            bbmp[b // 8] |= 1 << (b % 8)
        device.write_block(geo.block_bitmap_block, bytes(bbmp))

        root = Inode(ROOT_INO, KIND_DIR)
        root.blocks = [root_data_block]
        table = bytearray(BLOCK_SIZE)
        table[INODE_SIZE : 2 * INODE_SIZE] = cls._pack_inode_struct(
            KIND_DIR, 1, 0, 0, "", {}, [root_data_block]
        )
        device.write_block(geo.itable_start, bytes(table))
        for b in range(geo.itable_start + 1, geo.itable_start + geo.itable_blocks):
            device.write_block(b, bytes(BLOCK_SIZE))
        for b in range(geo.journal_start, geo.journal_start + geo.journal_blocks):
            device.write_block(b, bytes(BLOCK_SIZE))
        device.write_block(root_data_block, bytes(BLOCK_SIZE))

    @staticmethod
    def _pack_inode_struct(kind, nlink, size, mtime, target, xattrs, blocks) -> bytes:
        tgt = target.encode()
        if len(tgt) > MAX_TARGET:
            raise FsError("ENAMETOOLONG", "symlink target too long")
        blob = _pack_xattrs(xattrs)
        ptrs = list(blocks)[:MAX_PTRS] + [0] * (MAX_PTRS - len(blocks))
        return _INODE.pack(
            kind,
            0,
            nlink,
            size,
            mtime,
            len(tgt),
            tgt.ljust(MAX_TARGET, b"\0"),
            len(blob),
            blob.ljust(MAX_XATTR_BLOB, b"\0"),
            len(blocks),
            *ptrs,
        )

    # -- mounting ------------------------------------------------------------

    @classmethod
    def mount(cls, image: DiskImage) -> "SoundFs | Unmountable":
        dev = Device(image.size_bytes, base=image, log_io=False)
        return cls.mount_device(dev)

    @classmethod
    def mount_device(cls, device: Device) -> "SoundFs | Unmountable":
        fs = cls.__new__(cls)
        try:
            fs._init_from_device(device)
        except (ValueError, FsError, struct.error, IndexError, UnicodeDecodeError) as e:
            return Unmountable(str(e))
        problem = fs._validate()
        if problem is not None:
            return Unmountable(problem)
        return fs

    def _init_from_device(self, device: Device) -> None:
        self.device = device
        self.geo = Geometry.parse_superblock(device.read_block(0))
        if self.geo.total_blocks * BLOCK_SIZE != device.size_bytes:
            raise ValueError("superblock size does not match device")
        self._journal_pos, self._next_txn = self._recover()
        self._load_state()
        self._reset_pending()
        self._mtime = max((i.mtime for i in self.inodes.values()), default=0)

    def _reset_pending(self) -> None:
        self._dirty_inodes: set[int] = set()
        self._dirty_dirs: set[int] = set()
        self._bitmap_dirty = False
        self._pending_data: dict[int, set[int]] = {}
        self._link_pending: list[tuple[int, str, int]] = []
        self._rename_pending: list[tuple[int, str, int, str, int]] = []
        self._renamed_inodes: set[int] = set()
        self._unlink_window: set[tuple[int, str]] = set()
        self._reused_names: list[tuple[int, str]] = []
        self._durable_size = {ino: n.size for ino, n in self.inodes.items()}
        self._dwrite_extended: set[int] = set()

    # -- journal recovery ----------------------------------------------------

    def _recover(self) -> tuple[int, int]:
        """Replay committed transactions in order; returns (next slot, next id)."""
        geo = self.geo
        pos = geo.journal_start
        end = geo.journal_start + geo.journal_blocks
        last_txn = 0
        while pos + 2 <= end:
            hdr_raw = self.device.read_block(pos)
            try:
                magic, txn_id, n_entries, n_tomb = _JHDR.unpack_from(hdr_raw)
            except struct.error:
                break
            if magic != JOURNAL_HDR_MAGIC or txn_id <= last_txn:
                break
            if pos + 1 + n_entries + 1 > end:
                break
            homes = list(
                struct.unpack_from(f"<{n_entries}I", hdr_raw, _JHDR.size)
            )
            tombstones = self._unpack_tombstones(
                hdr_raw, _JHDR.size + 4 * n_entries, n_tomb
            )
            entry_blocks = [
                self.device.read_block(pos + 1 + i) for i in range(n_entries)
            ]
            commit_raw = self.device.read_block(pos + 1 + n_entries)
            cmagic, ctxn, csum = _JCOMMIT.unpack_from(commit_raw)
            if cmagic != JOURNAL_COMMIT_MAGIC or ctxn != txn_id:
                break
            h = hashlib.sha256()
            h.update(hdr_raw)
            for eb in entry_blocks:
                h.update(eb)
            if h.digest() != csum:
                break
            for home, blk in zip(homes, entry_blocks):
                self.device.write_block(home, blk)
            for dir_ino, name in tombstones:
                self._recovery_remove_entry(dir_ino, name)
            last_txn = txn_id
            pos += 1 + n_entries + 1
        return pos, last_txn + 1

    @staticmethod
    def _unpack_tombstones(raw: bytes, offset: int, count: int):
        out = []
        pos = offset
        for _ in range(count):
            dir_ino, nl = struct.unpack_from("<HB", raw, pos)
            pos += 3
            out.append((dir_ino, raw[pos : pos + nl].decode()))
            pos += nl
        return out

    def _recovery_remove_entry(self, dir_ino: int, name: str) -> None:
        # Double-processing path: edits the already-replayed directory block.
        raw = self._read_inode_raw(dir_ino)
        kind, _f, nlink, size, mtime, tl, tgt, xl, blob, nptr, *ptrs = _INODE.unpack(raw)
        if kind != KIND_DIR or nptr == 0:
            return
        block = ptrs[0]
        entries = _unpack_dir(self.device.read_block(block), size)
        if name not in entries:
            return
        del entries[name]
        kinds = {ino: self._read_inode_kind(ino) for ino in entries.values()}
        packed = _pack_dir(entries, kinds)
        self.device.write_block(block, packed.ljust(BLOCK_SIZE, b"\0"))
        raw2 = _INODE.pack(
            kind, 0, nlink, len(packed), mtime, tl, tgt, xl, blob, nptr, *ptrs
        )
        self._write_inode_raw(dir_ino, raw2)

    def _read_inode_raw(self, ino: int) -> bytes:
        blk = self.geo.itable_start + ino // INODES_PER_BLOCK
        off = (ino % INODES_PER_BLOCK) * INODE_SIZE
        return self.device.read_block(blk)[off : off + INODE_SIZE]

    def _read_inode_kind(self, ino: int) -> int:
        return self._read_inode_raw(ino)[0]

    def _write_inode_raw(self, ino: int, raw: bytes) -> None:
        blk = self.geo.itable_start + ino // INODES_PER_BLOCK
        off = (ino % INODES_PER_BLOCK) * INODE_SIZE
        cur = bytearray(self.device.read_block(blk))
        cur[off : off + INODE_SIZE] = raw
        self.device.write_block(blk, bytes(cur))

    # -- state loading -------------------------------------------------------

    def _load_state(self) -> None:
        geo = self.geo
        ibmp = self.device.read_block(geo.inode_bitmap_block)
        bbmp = self.device.read_block(geo.block_bitmap_block)
        self.alloc_inos = {
            i for i in range(INODE_COUNT) if ibmp[i // 8] >> (i % 8) & 1
        }
        self.alloc_blocks = {
            b for b in range(geo.total_blocks) if bbmp[b // 8] >> (b % 8) & 1
        }
        self.inodes: dict[int, Inode] = {}
        for ino in sorted(self.alloc_inos):
            if ino == 0:
                continue
            raw = self._read_inode_raw(ino)
            kind, _f, nlink, size, mtime, tl, tgt, xl, blob, nptr, *ptrs = _INODE.unpack(
                raw
            )
            if kind == KIND_FREE:
                raise ValueError(f"allocated inode {ino} has free kind")
            node = Inode(ino, kind)
            node.nlink = nlink
            node.size = size
            node.mtime = mtime
            node.target = tgt[:tl].decode()
            node.xattrs = _unpack_xattrs(blob[:xl])
            node.blocks = list(ptrs[:nptr])
            if kind == KIND_DIR:
                data = self.device.read_block(node.blocks[0]) if node.blocks else b""
                node.entries = _unpack_dir(data, size)
                node.content = None
            elif kind == KIND_FILE:
                node.content = None  # lazily materialized from data blocks
            self.inodes[ino] = node
        if ROOT_INO not in self.inodes or self.inodes[ROOT_INO].kind != KIND_DIR:
            raise ValueError("missing root directory")

    def _validate(self) -> str | None:
        """Structural consistency of the recovered tree; None when sound."""
        refs: dict[int, int] = {}
        seen_dirs: set[int] = set()

        def walk(ino: int, depth: int) -> str | None:
            if depth > 16:
                return "directory tree too deep or cyclic"
            node = self.inodes.get(ino)
            if node is None:
                return f"dangling directory inode {ino}"
            if ino in seen_dirs:
                return None
            seen_dirs.add(ino)
            for name, child in sorted(node.entries.items()):
                if child not in self.alloc_inos or child not in self.inodes:
                    return f"entry {name!r} points to unallocated inode {child}"
                refs[child] = refs.get(child, 0) + 1
                if self.inodes[child].kind == KIND_DIR:
                    err = walk(child, depth + 1)
                    if err:
                        return err
            return None

        err = walk(ROOT_INO, 0)
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
        for ino in range(1, INODE_COUNT):
            if ino not in self.alloc_inos:
                self.alloc_inos.add(ino)
                self._bitmap_dirty = True
                node = Inode(ino, kind)
                node.mtime = self._tick()
                self.inodes[ino] = node
                self._dirty_inodes.add(ino)
                return node
        raise FsError("ENOSPC", "out of inodes")

    def _alloc_block(self) -> int:
        for b in range(self.geo.data_start, self.geo.total_blocks):
            if b not in self.alloc_blocks:
                self.alloc_blocks.add(b)
                self._bitmap_dirty = True
                return b
        raise FsError("ENOSPC", "out of data blocks")

    def _free_block(self, b: int) -> None:
        if b:
            self.alloc_blocks.discard(b)
            self._bitmap_dirty = True

    def _free_inode(self, node: Inode) -> None:
        for b in node.blocks:
            self._free_block(b)
        self.alloc_inos.discard(node.ino)
        self.inodes.pop(node.ino, None)
        self._dirty_inodes.add(node.ino)
        self._bitmap_dirty = True
        self._pending_data.pop(node.ino, None)
        self._renamed_inodes.discard(node.ino)

    def _tick(self) -> int:
        self._mtime += 1
        return self._mtime

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
        node.mtime = self._tick()
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
        from ..fsops import pattern_bytes

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
        parent, name, ino = self._resolve(path, follow=True)
        dirn = self._require_parent_dir(parent, path)
        if ino is not None:
            node = self.inodes[ino]
            if node.kind == KIND_DIR:
                raise FsError("EISDIR", f"{path} is a directory")
            self._truncate_node(node, 0)
            return
        node = self._alloc_ino(KIND_FILE)
        dirn.entries[name] = node.ino
        dirn.mtime = self._tick()
        self._dirty_dirs.add(dirn.ino)
        if (dirn.ino, name) in self._unlink_window:
            self._reused_names.append((dirn.ino, name))

    def _op_mkdir(self, path: str) -> None:
        parent, name, ino = self._resolve(path, follow=False)
        if ino is not None:
            raise FsError("EEXIST", f"{path} exists")
        dirn = self._require_parent_dir(parent, path)
        node = self._alloc_ino(KIND_DIR)
        node.blocks = [self._alloc_block()]
        node.content = None
        dirn.entries[name] = node.ino
        dirn.mtime = self._tick()
        self._dirty_dirs.add(dirn.ino)
        self._dirty_dirs.add(node.ino)

    def _ensure_file(self, path: str) -> Inode:
        parent, name, ino = self._resolve(path, follow=True)
        if ino is None:
            dirn = self._require_parent_dir(parent, path)
            node = self._alloc_ino(KIND_FILE)
            dirn.entries[name] = node.ino
            dirn.mtime = self._tick()
            self._dirty_dirs.add(dirn.ino)
            if (dirn.ino, name) in self._unlink_window:
                self._reused_names.append((dirn.ino, name))
            return node
        node = self.inodes[ino]
        if node.kind == KIND_DIR:
            raise FsError("EISDIR", f"{path} is a directory")
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
            node.mtime = self._tick()
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
        node.mtime = self._tick()
        self._dirty_inodes.add(node.ino)

    def _op_write(self, path: str, start: int, data: bytes, kind: FsOpKind) -> None:
        node = self._ensure_file(path)
        if kind is FsOpKind.DWRITE:
            self._note_dwrite(node, start + len(data))
        # mwrite dirties page-cache pages only; plain writes do too when data
        # writeback is delayed
        buffered = kind is FsOpKind.MWRITE or (kind is FsOpKind.WRITE and self.DELAYED_DATA)
        self._write_range(node, start, data, buffered=buffered)

    def _note_dwrite(self, node: Inode, new_end: int) -> None:
        if new_end > self._durable_size.get(node.ino, 0):
            self._dwrite_extended.add(node.ino)

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
        dirn.mtime = self._tick()
        snode.nlink += 1
        snode.mtime = self._tick()
        self._dirty_dirs.add(dirn.ino)
        self._dirty_inodes.add(sino)
        self._link_pending.append((dirn.ino, dname, sino))

    def _op_symlink(self, target: str, linkpath: str) -> None:
        parent, name, ino = self._resolve(linkpath, follow=False)
        if ino is not None:
            raise FsError("EEXIST", f"{linkpath} exists")
        dirn = self._require_parent_dir(parent, linkpath)
        node = self._alloc_ino(KIND_SYMLINK)
        node.target = target
        node.size = len(target.encode())
        dirn.entries[name] = node.ino
        dirn.mtime = self._tick()
        self._dirty_dirs.add(dirn.ino)

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
        srcdir.mtime = self._tick()
        dirn.mtime = self._tick()
        snode.mtime = self._tick()
        self._dirty_dirs.add(sparent)
        self._dirty_dirs.add(dirn.ino)
        self._dirty_inodes.add(sino)
        self._rename_pending.append((sparent, sname, dirn.ino, dname, sino))
        self._renamed_inodes.add(sino)

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
        dirn.mtime = self._tick()
        self._dirty_dirs.add(parent)
        node.nlink -= 1
        self._dirty_inodes.add(ino)
        if node.nlink == 0:
            self._free_inode(node)
        self._unlink_window.add((parent, name))

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
        dirn.mtime = self._tick()
        self._dirty_dirs.add(parent)
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
        node.mtime = self._tick()
        self._dirty_inodes.add(node.ino)

    def _op_setxattr(self, path: str, name: str, value: str) -> None:
        _, _, ino = self._resolve(path, follow=True)
        if ino is None:
            raise FsError("ENOENT", f"{path} missing")
        node = self.inodes[ino]
        node.xattrs[name] = value
        node.mtime = self._tick()
        self._dirty_inodes.add(ino)

    def _op_removexattr(self, path: str, name: str) -> None:
        _, _, ino = self._resolve(path, follow=True)
        if ino is None:
            raise FsError("ENOENT", f"{path} missing")
        node = self.inodes[ino]
        if name not in node.xattrs:
            raise FsError("ENODATA", f"{path} has no xattr {name!r}")
        del node.xattrs[name]
        node.mtime = self._tick()
        self._dirty_inodes.add(ino)

    # -- persistence ---------------------------------------------------------

    def persist(self, kind: PersistKind, target: str | None = None) -> None:
        target_ino = None
        if kind is not PersistKind.SYNC:
            _, _, target_ino = self._resolve(target, follow=True)
            if target_ino is None:
                raise FsError("ENOENT", f"persistence target {target} missing")
        self._commit(kind.value, target_ino)

    def unmount_clean(self) -> DiskImage:
        """Flush everything pending and return the quiesced image."""
        self._commit("unmount", None)
        return self.device.snapshot()

    def replicate(self) -> "SoundFs":
        fs = self.__class__.__new__(self.__class__)
        fs.device = self.device.fork(log_io=False)
        fs.geo = self.geo
        fs._journal_pos = self._journal_pos
        fs._next_txn = self._next_txn
        fs._mtime = self._mtime
        fs.alloc_inos = set(self.alloc_inos)
        fs.alloc_blocks = set(self.alloc_blocks)
        fs.inodes = copy.deepcopy(self.inodes)
        fs._dirty_inodes = set(self._dirty_inodes)
        fs._dirty_dirs = set(self._dirty_dirs)
        fs._bitmap_dirty = self._bitmap_dirty
        fs._pending_data = {k: set(v) for k, v in self._pending_data.items()}
        fs._link_pending = list(self._link_pending)
        fs._rename_pending = list(self._rename_pending)
        fs._renamed_inodes = set(self._renamed_inodes)
        fs._unlink_window = set(self._unlink_window)
        fs._reused_names = list(self._reused_names)
        fs._durable_size = dict(self._durable_size)
        fs._dwrite_extended = set(self._dwrite_extended)
        return fs

    # Policy hooks the buggy variants override. -------------------------------

    def _skip_data_flush_inos(self, trigger: str) -> set[int]:
        return set()

    def _adjust_effective(self, eff: "_EffectiveState", trigger: str, target_ino):
        pass

    def _tombstones_for_commit(self, trigger: str) -> list[tuple[int, str]]:
        return []

    def _after_commit(self, trigger: str) -> None:
        """Baseline: a commit makes everything pending durable."""
        self._link_pending.clear()
        self._rename_pending.clear()
        self._renamed_inodes.clear()
        self._unlink_window.clear()
        self._reused_names.clear()
        for ino, node in self.inodes.items():
            self._durable_size[ino] = node.size
        self._dwrite_extended.clear()

    # -- the commit pipeline ---------------------------------------------------

    def _commit(self, trigger: str, target_ino: int | None) -> None:
        skip = self._skip_data_flush_inos(trigger) if trigger not in ("sync", "unmount") else set()
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
        self._adjust_effective(eff, trigger, target_ino)
        tombstones = (
            self._tombstones_for_commit(trigger)
            if trigger not in ("sync", "unmount")
            else []
        )
        images = eff.block_images()

        if images or tombstones:
            self._write_txn(images, tombstones)
        else:
            self.device.flush()
        self._dirty_inodes.clear()
        self._dirty_dirs.clear()
        self._bitmap_dirty = False
        self._after_commit(trigger)

    def _write_txn(self, images: list[tuple[int, bytes]], tombstones) -> None:
        geo = self.geo
        n = len(images)
        needed = 1 + n + 1
        if self._journal_pos + needed > geo.journal_start + geo.journal_blocks:
            raise FsError("ENOSPC", "journal full")
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
                ino=node.ino,
            )
        if node.kind == KIND_DIR:
            return ViewEntry(
                kind="dir",
                size=len(node.entries),
                link_count=1,
                block_count=SECTORS_PER_BLOCK * sum(1 for b in node.blocks if b),
                xattrs=tuple(sorted(node.xattrs.items())),
                ino=node.ino,
            )
        return ViewEntry(
            kind="symlink",
            size=node.size,
            link_count=node.nlink,
            symlink_target=node.target,
            ino=node.ino,
        )

    def state_view(self) -> FsStateView:
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
    def fsck(cls, image: DiskImage) -> dict:
        """Run only when a crash state is un-mountable; advisory output."""
        fs = cls.__new__(cls)
        dev = Device(image.size_bytes, base=image, log_io=False)
        try:
            fs._init_from_device(dev)
        except Exception as e:  # structural parse failure
            return {"mountable": False, "repairable": False, "issues": [str(e)]}
        problem = fs._validate()
        if problem is None:
            return {"mountable": True, "repairable": True, "issues": []}
        repairable = "link count" in problem  # orphan-style damage only
        return {"mountable": False, "repairable": repairable, "issues": [problem]}


class _EffectiveState:
    """Snapshot of the metadata that a commit is about to make durable.

    Variants mutate the copies here; the in-memory truth is untouched, so
    clean unmount and the oracle stay correct.
    """

    def __init__(self, fs: SoundFs):
        self.fs = fs
        self.nlink: dict[int, int] = {}
        self.sizes: dict[int, int] = {}
        self.blocks: dict[int, list[int]] = {}
        self.dir_entries: dict[int, dict[str, int]] = {}
        for ino in sorted(fs._dirty_inodes | fs._dirty_dirs):
            node = fs.inodes.get(ino)
            if node is None:
                continue
            self.nlink[ino] = node.nlink
            self.sizes[ino] = node.size
            self.blocks[ino] = list(node.blocks)
            if node.kind == KIND_DIR:
                self.dir_entries[ino] = dict(node.entries)

    def block_images(self) -> list[tuple[int, bytes]]:
        fs = self.fs
        images: list[tuple[int, bytes]] = []
        kinds = {ino: node.kind for ino, node in fs.inodes.items()}

        dirty_dir_inos = sorted(
            ino for ino in (fs._dirty_dirs | set(self.dir_entries)) if ino in fs.inodes
        )
        for ino in dirty_dir_inos:
            node = fs.inodes[ino]
            if node.kind != KIND_DIR or not node.blocks:
                continue
            entries = self.dir_entries.get(ino, dict(node.entries))
            packed = _pack_dir(entries, kinds)
            self.sizes[ino] = len(packed)
            images.append((node.blocks[0], packed.ljust(BLOCK_SIZE, b"\0")))

        # Only dirty slots are repacked; clean inodes keep their last committed
        # on-disk bytes (in-memory dir sizes are not maintained between commits).
        dirty_inos = fs._dirty_inodes | fs._dirty_dirs | set(self.dir_entries)
        table_blocks = sorted({ino // INODES_PER_BLOCK for ino in dirty_inos})
        for tb in table_blocks:
            raw = bytearray(fs.device.read_block(fs.geo.itable_start + tb))
            for slot in range(INODES_PER_BLOCK):
                ino = tb * INODES_PER_BLOCK + slot
                if ino not in dirty_inos:
                    continue
                node = fs.inodes.get(ino)
                if ino not in fs.alloc_inos or node is None:
                    raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = bytes(INODE_SIZE)
                    continue
                packed = SoundFs._pack_inode_struct(
                    node.kind,
                    self.nlink.get(ino, node.nlink),
                    self.sizes.get(ino, node.size),
                    node.mtime,
                    node.target,
                    node.xattrs,
                    self.blocks.get(ino, node.blocks),
                )
                raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = packed
            images.append((fs.geo.itable_start + tb, bytes(raw)))

        if fs._bitmap_dirty:
            ibmp = bytearray(BLOCK_SIZE)
            for ino in fs.alloc_inos:
                ibmp[ino // 8] |= 1 << (ino % 8)
            ibmp[0] |= 1  # ino 0 stays reserved
            images.append((fs.geo.inode_bitmap_block, bytes(ibmp)))
            bbmp = bytearray(BLOCK_SIZE)
            for b in range(fs.geo.data_start):
                bbmp[b // 8] |= 1 << (b % 8)
            for b in fs.alloc_blocks:
                bbmp[b // 8] |= 1 << (b % 8)
            images.append((fs.geo.block_bitmap_block, bytes(bbmp)))
        return images
