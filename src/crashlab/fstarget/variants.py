"""Deliberately buggy SoundFS variants, one seeded crash-consistency bug each.

Every variant is a thin policy override of the commit pipeline or the
recovery path. A variant keeps its own bookkeeping: it creates it at mount
(``_reset_pending``), records events by extending the ops it watches, and
keeps or clears it in its ``_after_commit``. Its commit hooks read of the
persistence call only whether it is one of the variant's
``BUGGY_TRIGGERS`` (``SoundFs.commit_key``); bugfs-b3's also read the
target inode of those calls, and its key holds it. Siblings whose final
calls share a key share the commit. Commits by
other calls, sync among them, stay correct in all of them, and so does a
clean unmount except on bugfs-b3, whose dropped extents are never written
back. The checker applies the same persistence rules to every target; the
variants break them.
"""

from __future__ import annotations

from ..fsops import FsOpKind
from .base import BugSeed
from .soundfs import SoundFs


def _renamed(fs: SoundFs, src: str, dst: str):
    """After a successful rename: (src dir, src name, dst dir, dst name,
    ino), or None for the no-op rename onto the same inode, which leaves the
    source name in place."""
    src_dir, src_name, left = fs._resolve(src, follow=False)
    dst_dir, dst_name, ino = fs._resolve(dst, follow=False)
    return None if left == ino else (src_dir, src_name, dst_dir, dst_name, ino)


class LinkLossFs(SoundFs):
    """B1: fsync, fdatasync and msync commits omit hard-link dirents added
    since the last commit (and the matching link-count bumps, keeping
    recovery able to mount). The entries stay pending until a sync or clean
    unmount."""

    NAME = "bugfs-b1"
    BUG_SEED = BugSeed(
        id="B1",
        description="new hard-link directory entries are not journaled by fsync",
        trigger="link followed by fsync/fdatasync/msync",
        consequence_class="file_missing",
        min_seq=1,
    )
    BUGGY_TRIGGERS = frozenset({"fsync", "fdatasync", "msync"})

    def _reset_pending(self):
        super()._reset_pending()
        self._link_pending: list[tuple[int, str, int]] = []

    def _op_link(self, src, dst):
        super()._op_link(src, dst)
        self._link_pending.append(self._resolve(dst, follow=False))

    def _adjust_effective(self, eff, buggy, target_ino):
        if not buggy:
            return
        for dir_ino, name, ino in self._link_pending:
            entries = eff.dir_entries.get(dir_ino)
            if entries is not None and entries.get(name) == ino:
                del entries[name]
                if ino in eff.nlink:
                    eff.nlink[ino] -= 1

    def _after_commit(self, buggy):
        self._link_pending = [p for p in self._link_pending if buggy and p[2] in self.inodes]
        for dir_ino, _name, ino in self._link_pending:
            self._dirty_inodes.update((dir_ino, ino))


class RenameNonAtomicFs(SoundFs):
    """B2: fsync, fdatasync and msync commits journal a rename's dirent-add
    but defer the dirent-remove, so a crash shows the file in both
    locations. Link counts are journaled to match the doubled view, so the
    state mounts."""

    NAME = "bugfs-b2"
    BUG_SEED = BugSeed(
        id="B2",
        description="rename's source entry removal is deferred past the commit",
        trigger="rename followed by fsync/fdatasync/msync",
        consequence_class="spurious_entry",
        min_seq=1,
    )
    BUGGY_TRIGGERS = frozenset({"fsync", "fdatasync", "msync"})

    def _reset_pending(self):
        super()._reset_pending()
        self._rename_pending: list[tuple[int, str, int, str, int]] = []

    def _op_rename(self, src, dst):
        super()._op_rename(src, dst)
        moved = _renamed(self, src, dst)
        if moved is not None:
            self._rename_pending.append(moved)

    def _adjust_effective(self, eff, buggy, target_ino):
        if not buggy:
            return
        for src_dir, src_name, _dst_dir, _dst_name, ino in self._rename_pending:
            if ino not in self.inodes:
                continue
            entries = eff.dir_entries.get(src_dir)
            if entries is None or src_name in entries:
                continue
            entries[src_name] = ino
            if ino in eff.nlink:
                eff.nlink[ino] += 1
            else:
                eff.nlink[ino] = self.inodes[ino].nlink + 1

    def _after_commit(self, buggy):
        self._rename_pending = [p for p in self._rename_pending if buggy and p[4] in self.inodes]
        for src_dir, _sn, dst_dir, _dn, ino in self._rename_pending:
            self._dirty_inodes.update(i for i in (src_dir, dst_dir, ino) if i in self.inodes)


class FallocBeyondEofLossFs(SoundFs):
    """B3: fdatasync journals the target inode without block pointers past
    EOF, losing fallocated keep-size extents across a crash."""

    NAME = "bugfs-b3"
    BUG_SEED = BugSeed(
        id="B3",
        description="fdatasync drops allocated extents beyond EOF",
        trigger="falloc keep_size beyond EOF followed by fdatasync",
        consequence_class="metadata_mismatch(block_count)",
        min_seq=1,
    )
    BUGGY_TRIGGERS = frozenset({"fdatasync"})

    def commit_key(self, kind, target):
        # the one variant whose commit reads the target inode
        if kind.value in self.BUGGY_TRIGGERS:
            return True, self._persist_target(target)
        return super().commit_key(kind, target)

    def _adjust_effective(self, eff, buggy, target_ino):
        if not buggy:
            return
        blocks = eff.blocks.get(target_ino)
        if blocks is None:
            return
        size = eff.sizes.get(target_ino, 0)
        keep = (size + 4095) // 4096
        for idx in range(keep, len(blocks)):
            blocks[idx] = 0


class DirectWriteSizeZeroFs(SoundFs):
    """B4: when a direct write extended a file, fsync/fdatasync journal the
    stale pre-dwrite size (blocks stay allocated, size does not grow)."""

    NAME = "bugfs-b4"
    BUG_SEED = BugSeed(
        id="B4",
        description="direct writes allocate blocks but the old size is journaled",
        trigger="size-extending dwrite followed by fsync/fdatasync",
        consequence_class="metadata_mismatch(size)",
        min_seq=1,
    )
    BUGGY_TRIGGERS = frozenset({"fsync", "fdatasync"})

    def _reset_pending(self):
        super()._reset_pending()
        # size as of the last commit; a new file has none
        self._durable_size = {ino: n.size for ino, n in self.inodes.items()}
        self._dwrite_extended: set[int] = set()

    def _op_write(self, path, start, data, kind):
        super()._op_write(path, start, data, kind)
        if kind is FsOpKind.DWRITE:
            _, _, ino = self._resolve(path, follow=True)
            if start + len(data) > self._durable_size.get(ino, 0):
                self._dwrite_extended.add(ino)

    def _free_inode(self, node):
        super()._free_inode(node)
        self._durable_size.pop(node.ino, None)
        self._dwrite_extended.discard(node.ino)

    def _adjust_effective(self, eff, buggy, target_ino):
        if not buggy:
            return
        for ino in self._dwrite_extended:
            if ino in eff.sizes:
                eff.sizes[ino] = self._durable_size.get(ino, 0)

    def _after_commit(self, buggy):
        kept = self._dwrite_extended if buggy else ()
        flagged = {ino: self._durable_size.get(ino, 0) for ino in kept if ino in self.inodes}
        for ino, node in self.inodes.items():
            self._durable_size[ino] = node.size
        self._durable_size.update(flagged)
        self._dwrite_extended = set(flagged)
        self._dirty_inodes.update(flagged)


class RenameBeforeDataFs(SoundFs):
    """B5: delayed allocation plus a commit that journals rename dirents but
    skips flushing the renamed file's buffered data. A crash recovers the
    new name with the journaled size and no data blocks."""

    NAME = "bugfs-b5"
    BUG_SEED = BugSeed(
        id="B5",
        description="rename metadata commits before the file's delayed data",
        trigger="buffered write and rename of the same file, then fsync/fdatasync/msync",
        consequence_class="data_mismatch",
        min_seq=2,
    )
    BUGGY_TRIGGERS = frozenset({"fsync", "fdatasync", "msync"})
    DELAYED_DATA = True

    def _reset_pending(self):
        super()._reset_pending()
        self._renamed_inodes: set[int] = set()

    def _op_rename(self, src, dst):
        super()._op_rename(src, dst)
        moved = _renamed(self, src, dst)
        if moved is not None:
            self._renamed_inodes.add(moved[4])

    def _free_inode(self, node):
        super()._free_inode(node)
        self._renamed_inodes.discard(node.ino)

    def _skip_data_flush_inos(self, buggy):
        return set(self._renamed_inodes) if buggy else set()

    def _after_commit(self, buggy):
        self._renamed_inodes = set()
        self._dirty_inodes.update(i for i in self._pending_data if i in self.inodes)


class UnlinkReplayBrickFs(SoundFs):
    """B6: when a name is unlinked and recreated inside one transaction
    window, the commit journals a tombstone that recovery applies after the
    block images, double-processing the unlink and orphaning the new inode,
    which fails structural validation (un-mountable)."""

    NAME = "bugfs-b6"
    BUG_SEED = BugSeed(
        id="B6",
        description="recovery double-processes an unlink of a reused name",
        trigger="unlink then creat of the same name, then fsync/fdatasync",
        consequence_class="unmountable",
        min_seq=2,
    )
    BUGGY_TRIGGERS = frozenset({"fsync", "fdatasync"})

    def _reset_pending(self):
        super()._reset_pending()
        self._unlink_window: set[tuple[int, str]] = set()
        self._reused_names: list[tuple[int, str]] = []

    def _op_unlink(self, path):
        super()._op_unlink(path)
        parent, name, _ = self._resolve(path, follow=False)
        self._unlink_window.add((parent, name))

    def _ensure_file(self, path, truncate=False):
        parent, name, ino = self._resolve(path, follow=True)
        node = super()._ensure_file(path, truncate)
        if ino is None and (parent, name) in self._unlink_window:
            self._reused_names.append((parent, name))
        return node

    def _tombstones_for_commit(self, buggy):
        return list(self._reused_names) if buggy else []

    def _after_commit(self, buggy):
        self._unlink_window = set()
        self._reused_names = []


VARIANTS = (
    LinkLossFs,
    RenameNonAtomicFs,
    FallocBeyondEofLossFs,
    DirectWriteSizeZeroFs,
    RenameBeforeDataFs,
    UnlinkReplayBrickFs,
)

BUG_SEEDS = tuple(v.BUG_SEED for v in VARIANTS)
