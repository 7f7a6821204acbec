"""File systems under test: format, recovery, op semantics, seeded bugs."""

import copy
import hashlib
import re
import struct

import pytest

from crashlab import ace
from crashlab.blockdev import BLOCK_SIZE, Device, DiskImage, replay
from crashlab.fsops import FallocFlag, FsOp, FsOpKind, PersistKind
from crashlab.fstarget import (
    BUG_SEEDS,
    FsError,
    MountMemo,
    SoundFs,
    TARGETS,
    Unmountable,
    VARIANTS,
    get_target,
)
from crashlab.fstarget.soundfs import (
    JOURNAL_COMMIT_MAGIC,
    JOURNAL_HDR_MAGIC,
    _JCOMMIT,
    _JHDR,
    INODE_COUNT,
    INODE_SIZE,
    INODES_PER_BLOCK,
    Geometry,
    Inode,
    _decode_inode,
    _encode_inode,
)
from image_helper import crash_states, fs_state, image_bytes

MiB = 1024 * 1024
DEV = 4 * MiB


def fresh_fs(target=SoundFs, size=DEV):
    dev = Device(size)
    target.mkfs(dev)
    fs = target.mount_device(dev)
    assert not isinstance(fs, Unmountable)
    return fs


def op(kind, **kw):
    return FsOp(FsOpKind[kind.upper()], **kw)


# -- mkfs / mount ------------------------------------------------------------------


def test_mkfs_mount_empty_root():
    fs = fresh_fs()
    view = fs.state_view()
    assert list(view.entries) == ["/"]
    assert view.entries["/"].kind == "dir"
    assert view.entries["/"].size == 0


def test_mkfs_deterministic():
    dev1 = Device(DEV)
    dev2 = Device(DEV)
    SoundFs.mkfs(dev1)
    SoundFs.mkfs(dev2)
    assert image_bytes(dev1.snapshot()) == image_bytes(dev2.snapshot())


def test_mkfs_too_small():
    from crashlab.fstarget import FsError

    with pytest.raises(FsError):
        SoundFs.mkfs(Device(3 * 4096))


def test_mount_garbage_is_unmountable():
    garbage = DiskImage(DEV, b"\x5a" * DEV, {})
    assert isinstance(SoundFs.mount(garbage), Unmountable)


_LAYOUT_FIELDS = (
    "inode_count",
    "itable_start",
    "itable_blocks",
    "inode_bitmap_block",
    "block_bitmap_block",
    "journal_start",
    "journal_blocks",
    "data_start",
    "root_ino",
)


@pytest.mark.parametrize("field", _LAYOUT_FIELDS)
def test_superblock_differing_from_mkfs_is_unmountable(field):
    from crashlab.fstarget.soundfs import _SB

    dev = Device(DEV)
    SoundFs.mkfs(dev)
    # magic, version and total blocks come first, then the layout fields
    values = list(_SB.unpack_from(dev.read_block(0)))
    values[3 + _LAYOUT_FIELDS.index(field)] += 1
    dev.write_block(0, _SB.pack(*values).ljust(BLOCK_SIZE, b"\0"))
    failed = SoundFs.mount(dev.snapshot())
    assert isinstance(failed, Unmountable)
    assert failed.reason == "inconsistent superblock geometry"


def test_v1_pad_bytes_are_never_read():
    """Images written before the pad bytes were zeroed hold inode flags,
    mtimes and directory entry kinds there. They must mount to the same
    view, which is why the format version is still 1."""
    from crashlab.fstarget.soundfs import INODE_SIZE, INODES_PER_BLOCK, KIND_DIR

    fs = fresh_fs()
    ops = [
        op("mkdir", path="A"),
        op("creat", path="A/foo"),
        op("write", path="A/foo", start=0, end=8192),
        op("link", path="A/foo", path2="bar"),
        op("symlink", path="A/foo", path2="A/sym"),
        FsOp(FsOpKind.XATTR, path="bar", attr="u1", value="v1", variant="setxattr"),
    ]
    for i, o in enumerate(ops):
        fs.apply(o, i)
    fs.persist(PersistKind.SYNC)
    image = fs.device.snapshot()
    mounted = SoundFs.mount(image)
    view = mounted.state_view().entries

    dev = Device(DEV, image)
    scribbled_entries = 0
    for ino, node in mounted.inodes.items():
        blk = mounted.geo.itable_start + ino // INODES_PER_BLOCK
        off = ino % INODES_PER_BLOCK * INODE_SIZE
        raw = bytearray(dev.read_block(blk))
        raw[off + 1] = 0xA5  # flags
        raw[off + 12 : off + 20] = b"\xa5" * 8  # mtime
        dev.write_block(blk, bytes(raw))
        if node.kind == KIND_DIR:
            raw = bytearray(dev.read_block(node.blocks[0]))
            pos = 0
            while pos < node.size:  # ino (2 bytes), pad, name length, name
                raw[pos + 2] = 0xA5
                pos += 4 + raw[pos + 3]
                scribbled_entries += 1
            dev.write_block(node.blocks[0], bytes(raw))
    assert scribbled_entries == 4  # A, bar, A/foo, A/sym

    scribbled = dev.snapshot()
    assert image_bytes(scribbled) != image_bytes(image)
    remounted = SoundFs.mount(scribbled)
    assert not isinstance(remounted, Unmountable)
    assert remounted.state_view().entries == view


def test_mounted_fs_is_freed_by_reference_counting():
    """A crash state's file system must not wait for the cyclic collector."""
    import gc
    import weakref

    fs = fresh_fs()
    fs.apply(op("mkdir", path="A"), 0)
    fs.apply(op("creat", path="A/foo"), 1)
    fs.persist(PersistKind.SYNC, "")
    image = fs.device.snapshot()
    gc.disable()
    try:
        mounted = SoundFs.mount(image)
        assert not isinstance(mounted, Unmountable)
        assert "A/foo" in mounted.state_view().entries
        ref = weakref.ref(mounted)
        del mounted
        assert ref() is None
    finally:
        gc.enable()


def test_clean_unmount_roundtrip_view():
    fs = fresh_fs()
    fs.apply(op("mkdir", path="A"), 0)
    fs.apply(op("creat", path="A/foo"), 1)
    fs.apply(op("write", path="A/foo", start=0, end=8192), 2)
    before = fs.state_view().entries
    image = fs.unmount_clean()
    fs2 = SoundFs.mount(image)
    assert not isinstance(fs2, Unmountable)
    after = fs2.state_view().entries
    assert set(before) == set(after)
    for path in before:
        a, b = before[path], after[path]
        assert (a.kind, a.size, a.link_count, a.block_count, a.data_hash, a.xattrs) == (
            b.kind,
            b.size,
            b.link_count,
            b.block_count,
            b.data_hash,
            b.xattrs,
        )


def test_unmount_of_fresh_fs_equals_mkfs_output():
    dev = Device(DEV)
    SoundFs.mkfs(dev)
    formatted = dev.snapshot()
    fs = SoundFs.mount_device(Device(DEV, formatted))
    assert image_bytes(fs.unmount_clean()) == image_bytes(formatted)


def test_mount_crash_state_at_any_checkpoint_succeeds():
    dev = Device(DEV)
    SoundFs.mkfs(dev)
    base = dev.snapshot()
    live = Device(DEV, base)
    fs = SoundFs.mount_device(live)
    fs.apply(op("creat", path="foo"), 0)
    fs.persist(PersistKind.FSYNC, "foo")
    positions = [len(live.log)]
    fs.apply(op("write", path="foo", start=0, end=4096), 1)
    fs.persist(PersistKind.SYNC)
    positions.append(len(live.log))
    for position in positions:
        image = replay(base, live.log, 0, position)
        assert not isinstance(SoundFs.mount(image), Unmountable)


# -- op semantics ------------------------------------------------------------------


def test_creat_view_fields():
    fs = fresh_fs()
    fs.apply(op("creat", path="foo"), 0)
    entry = fs.state_view().entries["foo"]
    assert entry.kind == "file" and entry.size == 0 and entry.link_count == 1


def test_creat_truncates_existing():
    fs = fresh_fs()
    fs.apply(op("write", path="foo", start=0, end=8192), 0)
    fs.apply(op("creat", path="foo"), 1)
    assert fs.state_view().entries["foo"].size == 0


def test_write_sets_size_and_hash():
    import hashlib

    from crashlab.fsops import pattern_bytes

    fs = fresh_fs()
    fs.apply(op("write", path="foo", start=0, end=4096), 3)
    entry = fs.state_view().entries["foo"]
    assert entry.size == 4096
    assert entry.data_hash == hashlib.sha256(pattern_bytes(3, 0, 4096)).hexdigest()


def test_falloc_keep_size_grows_blocks_not_size():
    fs = fresh_fs()
    fs.apply(op("write", path="foo", start=0, end=16384), 0)
    before = fs.state_view().entries["foo"]
    fs.apply(
        op("falloc", path="foo", start=16384, end=20480, flag=FallocFlag.KEEP_SIZE), 1
    )
    after = fs.state_view().entries["foo"]
    assert after.size == 16384
    assert after.block_count > before.block_count


def test_punch_hole_keeps_size_reduces_blocks():
    fs = fresh_fs()
    fs.apply(op("write", path="foo", start=0, end=16384), 0)
    before = fs.state_view().entries["foo"]
    fs.apply(
        op("falloc", path="foo", start=4096, end=12288, flag=FallocFlag.PUNCH_HOLE), 1
    )
    after = fs.state_view().entries["foo"]
    assert after.size == before.size
    assert after.block_count == before.block_count - 16
    assert after.data_hash != before.data_hash  # hole reads zeros


def test_rename_moves_entry():
    fs = fresh_fs()
    fs.apply(op("mkdir", path="A"), 0)
    fs.apply(op("creat", path="A/foo"), 1)
    fs.apply(op("rename", path="A/foo", path2="A/bar"), 2)
    view = fs.state_view().entries
    assert "A/bar" in view and "A/foo" not in view


def test_rename_replaces_file():
    fs = fresh_fs()
    fs.apply(op("write", path="foo", start=0, end=4096), 0)
    fs.apply(op("creat", path="bar"), 1)
    fs.apply(op("rename", path="foo", path2="bar"), 2)
    view = fs.state_view().entries
    assert "foo" not in view
    assert view["bar"].size == 4096


def test_rename_directory_over_empty_directory():
    fs = fresh_fs()
    fs.apply(op("mkdir", path="A"), 0)
    fs.apply(op("mkdir", path="B"), 1)
    fs.apply(op("creat", path="A/x"), 2)
    fs.apply(op("rename", path="A", path2="B"), 3)
    view = fs.state_view().entries
    assert "A" not in view and "B/x" in view


def test_link_and_unlink_counts():
    fs = fresh_fs()
    fs.apply(op("creat", path="foo"), 0)
    fs.apply(op("link", path="foo", path2="bar"), 1)
    view = fs.state_view().entries
    assert view["foo"].link_count == 2 and view["bar"].link_count == 2
    fs.apply(op("unlink", path="bar"), 2)
    view = fs.state_view().entries
    assert "bar" not in view and view["foo"].link_count == 1


def test_symlink_entry_and_write_through():
    fs = fresh_fs()
    fs.apply(op("symlink", path="foo", path2="bar"), 0)
    entry = fs.state_view().entries["bar"]
    assert entry.kind == "symlink" and entry.symlink_target == "foo"
    fs.apply(op("write", path="bar", start=0, end=4096), 1)  # follows to foo
    view = fs.state_view().entries
    assert view["foo"].kind == "file" and view["foo"].size == 4096


def test_xattr_set_and_remove():
    fs = fresh_fs()
    fs.apply(op("creat", path="foo"), 0)
    fs.apply(FsOp(FsOpKind.XATTR, path="foo", attr="u1", value="v1", variant="setxattr"), 1)
    assert fs.state_view().entries["foo"].xattrs == (("u1", "v1"),)
    fs.apply(FsOp(FsOpKind.XATTR, path="foo", attr="u1", variant="removexattr"), 2)
    assert fs.state_view().entries["foo"].xattrs == ()


def test_errors_surface_as_values():
    from crashlab.fstarget import FsError

    fs = fresh_fs()
    with pytest.raises(FsError) as e:
        fs.apply(op("unlink", path="nope"), 0)
    assert e.value.code == "ENOENT"
    fs.apply(op("mkdir", path="A"), 1)
    with pytest.raises(FsError) as e:
        fs.apply(op("mkdir", path="A"), 2)
    assert e.value.code == "EEXIST"
    with pytest.raises(FsError) as e:
        fs.apply(op("unlink", path="A"), 3)
    assert e.value.code == "EISDIR"
    with pytest.raises(FsError) as e:
        fs.apply(op("creat", path="/"), 4)
    assert e.value.code == "ENOENT"
    for kind in ("creat", "write"):
        with pytest.raises(FsError) as e:
            fs.apply(op(kind, path="A", start=0, end=4096), 5)
        assert e.value.code == "EISDIR"
    with pytest.raises(FsError) as e:
        fs.apply(op("write", path="/", start=0, end=4096), 6)
    assert e.value.code == "EISDIR"


def test_truncate_shrink_and_grow():
    fs = fresh_fs()
    fs.apply(op("write", path="foo", start=0, end=8192), 0)
    fs.apply(op("truncate", path="foo", end=2500), 1)
    entry = fs.state_view().entries["foo"]
    assert entry.size == 2500 and entry.block_count == 8
    fs.apply(op("truncate", path="foo", end=10000), 2)
    assert fs.state_view().entries["foo"].size == 10000


def test_truncate_grow_after_keep_size_falloc():
    # the content buffer already extends past EOF; growth must not shrink it
    fs = fresh_fs()
    fs.apply(op("falloc", path="foo", start=0, end=4096, flag=FallocFlag.KEEP_SIZE), 0)
    fs.apply(op("truncate", path="foo", end=2500), 1)
    entry = fs.state_view().entries["foo"]
    assert entry.size == 2500 and entry.block_count == 8


def test_remove_dispatches_on_kind():
    fs = fresh_fs()
    fs.apply(op("mkdir", path="A"), 0)
    fs.apply(op("creat", path="foo"), 1)
    fs.apply(op("remove", path="foo"), 2)
    fs.apply(op("remove", path="A"), 3)
    assert list(fs.state_view().entries) == ["/"]


# -- journal recovery ---------------------------------------------------------------


def test_recovery_replays_committed_transactions():
    dev = Device(DEV)
    SoundFs.mkfs(dev)
    base = dev.snapshot()
    live = Device(DEV, base)
    fs = SoundFs.mount_device(live)
    fs.apply(op("creat", path="foo"), 0)
    fs.persist(PersistKind.FSYNC, "foo")
    # crash image: everything in the log, no clean unmount
    image = live.snapshot()
    fs2 = SoundFs.mount(image)
    assert not isinstance(fs2, Unmountable)
    assert "foo" in fs2.state_view().entries


def test_uncommitted_metadata_invisible_after_crash():
    dev = Device(DEV)
    SoundFs.mkfs(dev)
    base = dev.snapshot()
    live = Device(DEV, base)
    fs = SoundFs.mount_device(live)
    fs.apply(op("creat", path="foo"), 0)
    fs.persist(PersistKind.FSYNC, "foo")
    fs.apply(op("creat", path="bar"), 1)  # never committed
    image = live.snapshot()
    fs2 = SoundFs.mount(image)
    view = fs2.state_view().entries
    assert "foo" in view and "bar" not in view


def test_recovery_idempotent_across_remounts():
    dev = Device(DEV)
    SoundFs.mkfs(dev)
    live = Device(DEV, dev.snapshot())
    fs = SoundFs.mount_device(live)
    fs.apply(op("creat", path="foo"), 0)
    fs.persist(PersistKind.SYNC)
    image = live.snapshot()
    fs_a = SoundFs.mount(image)
    img_a = fs_a.device.snapshot()
    fs_b = SoundFs.mount(img_a)
    assert sorted(fs_b.state_view().entries) == sorted(fs_a.state_view().entries)


@pytest.mark.parametrize(
    "tombstone", [b"\x01\x00\x02\xff\xfe", b"\x01\x00\x02fo"], ids=["non-utf8", "ascii"]
)
def test_an_uncommitted_header_is_never_parsed(tombstone):
    """A transaction header with no commit block after it is ignored
    whatever its tombstones hold: the image mounts to the mkfs image's
    view. Recovery parses a header's tombstones only once its commit and
    checksum match."""
    dev = Device(DEV)
    SoundFs.mkfs(dev)
    image = dev.snapshot()
    header = _JHDR.pack(JOURNAL_HDR_MAGIC, 1, 0, 1) + tombstone  # txn 1, 0 entries, 1 tombstone
    crafted = write_block(image, geometry(image).journal_start, header.ljust(BLOCK_SIZE, b"\0"))
    fs = SoundFs.mount(crafted)
    assert not isinstance(fs, Unmountable), fs
    assert fs.state_view().entries == SoundFs.mount(image).state_view().entries


@pytest.mark.parametrize(
    "dsl, commits",
    [
        ("creat foo\n" + "write (0-4K) foo\nfsync foo\n" * 200, 200),
        ("".join(f"creat f{i}\nfsync f{i}\n" for i in range(60)), 60),
    ],
    ids=["200-write-fsync", "60-creat-fsync"],
)
def test_journal_wraps_at_its_end(dsl, commits):
    """Each commit journals at least three blocks, so these fill the
    256-block journal and restart at its head; every checkpoint crash state
    still recovers to its oracle."""
    from crashlab import ace
    from crashlab.harness import RunFlags, run_workload

    verdicts = run_workload(ace.parse(dsl), "soundfs", RunFlags(all_checkpoints=True))
    assert len(verdicts) == commits
    assert [v for v in verdicts if v.outcome != "pass"] == []


def test_transaction_larger_than_the_journal_is_enospc():
    fs = fresh_fs(size=64 * BLOCK_SIZE)
    assert fs.geo.journal_blocks == 16
    for i in range(10):  # ten entry blocks, the root's, two table blocks, two bitmaps
        fs.apply(op("mkdir", path=f"d{i}"), i)
    with pytest.raises(FsError, match="transaction of 17 blocks exceeds the 16-block journal") as e:
        fs.persist(PersistKind.SYNC)
    assert e.value.code == "ENOSPC"


# -- mount memo ------------------------------------------------------------------------


def crash_image(target=SoundFs):
    """A crash state holding committed journal transactions and one
    uncommitted file."""
    fs = fresh_fs(target)
    fs.apply(op("mkdir", path="A"), 0)
    fs.apply(op("creat", path="A/foo"), 1)
    fs.apply(op("write", path="A/foo", start=0, end=8192), 2)
    fs.apply(op("link", path="A/foo", path2="bar"), 3)
    fs.persist(PersistKind.FSYNC, "A/foo")
    fs.apply(FsOp(FsOpKind.XATTR, path="bar", attr="user.k", value="v", variant="setxattr"), 4)
    fs.persist(PersistKind.SYNC)
    fs.apply(op("creat", path="lost"), 5)
    return fs.device.snapshot()


# Arms every variant's bookkeeping on a crash_image mount: a hard link (b1),
# renames (b2, b5), a size-extending dwrite (b4), an unlink and recreate of
# one name (b6), and buffered data.
_ARMING = """
link A/foo A/l
rename A/l A/m
dwrite (8-16K) A/foo
unlink A/m
creat A/m
mwrite (0-4K) A/m
"""


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_memo_mounts_of_one_image_are_independent(target):
    """File systems thawed from one image's memo mount share nothing an op
    changes, the variants' bookkeeping included."""
    image = crash_image(target)
    memo = MountMemo()
    mounted = target.mount(image, memo)
    first, second = mounted.thaw(), target.mount(image, memo).thaw()
    assert len(memo.states) == 1
    before = second.state_view().entries
    assert first.state_view().entries == before

    first.apply(op("creat", path="A/probe_chk"), 9)
    first.apply(FsOp(FsOpKind.XATTR, path="bar", attr="user.k", variant="removexattr"), 9)
    for i, step in enumerate(ace.parse(_ARMING).steps):
        first.apply(step, 10 + i)
    assert "A/probe_chk" in first.state_view().entries
    assert second.state_view().entries == before
    second.apply(op("write", path="A/other", start=0, end=4096), 20)  # rebuilds its view
    assert "A/probe_chk" not in second.state_view().entries
    assert second.state_view().entries["bar"] == before["bar"]
    assert "A/other" not in first.state_view().entries

    # a third thaw, while the others hold uncommitted changes
    assert mounted.state_view().entries == before
    # the memo mount holds no device; each thaw gets its own
    assert "device" not in vars(mounted)
    third = assert_like_a_plain_mount(mounted, image)
    first.persist(PersistKind.SYNC)
    assert "A/probe_chk" in target.mount(first.device.snapshot()).state_view().entries
    assert "A/probe_chk" not in target.mount(third.unmount_clean()).state_view().entries
    # and a fourth, after the others committed
    assert_like_a_plain_mount(target.mount(image, memo), image)


def test_memo_keys_hold_the_interned_blocks():
    """Two images with equal blocks in distinct objects: each stored key
    holds the memo's interned blocks, so no entry holds a block twice."""
    memo = MountMemo()
    last_block = DEV // BLOCK_SIZE - 1
    second = crash_image().with_writes([(last_block * BLOCK_SIZE // 512, b"x" * BLOCK_SIZE)])
    for image in (crash_image(), second):
        SoundFs.mount(image, memo)
    assert len(memo.states) == len(memo.records) == 2
    assert len(memo.plans) == 1  # the images differ outside the journal only
    keys = [key for _cls, key in memo.states]
    keys += [key for _cls, key, _journal_pos, _next_txn in memo.records]
    keys += [journal for _cls, _superblock, journal in memo.plans]
    blocks = [x for key in keys for x in key[2:] if type(x) is bytes]
    blocks += [superblock for _cls, superblock, _journal in memo.plans]
    assert len(blocks) > 4 and all(memo.values[b] is b for b in blocks)


def mount_state(fs) -> dict:
    """What a mount gives, as plain values: every attribute, with the inodes
    without the file contents read so far, and the device as its bytes and
    log."""
    out = dict(vars(fs))
    slots = [a for a in Inode.__slots__ if a != "content"]
    out["inodes"] = {i: tuple(getattr(n, a) for a in slots) for i, n in fs.inodes.items()}
    out["device"] = (image_bytes(fs.device.snapshot()), fs.device.log)
    out["geo"] = vars(fs.geo)
    return out


def plain_mount(cls, image):
    """A plain mount of ``image`` whose device log holds no recovery write,
    as a thawed file system's does: a thaw starts on the recovered image."""
    fs = cls.mount(image)
    fs.device.log.clear()
    return fs


def assert_like_a_plain_mount(mounted, image):
    """``mounted``, the memo mount of ``image``, shows a plain mount's view,
    and a file system thawed from it is what a plain mount of ``image`` is:
    in its view, and in its attributes and device bytes after the same
    write and after a commit. The memo mount stays as it was; the thawed
    file system is returned."""
    plain = plain_mount(type(mounted), image)
    assert mounted.state_view() == plain.state_view()
    fs = mounted.thaw()
    assert fs.state_view() == plain.state_view()
    for live in (fs, plain):
        live.apply(op("write", path="bar", start=8192, end=12288), 10)
    assert mount_state(fs) == mount_state(plain)
    for live in (fs, plain):
        live.persist(PersistKind.FSYNC, "bar")
    assert mount_state(fs) == mount_state(plain)
    assert fs.state_view() == plain.state_view()
    assert set(vars(mounted)) == {"memo_record", "_journal"}
    assert mounted.state_view() == type(mounted).mount(image).state_view()
    return fs


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_memo_hit_equals_a_plain_mount(target):
    image = crash_image(target)
    memo = MountMemo()
    target.mount(image, memo)
    hit = target.mount(image, memo)
    assert type(hit) is target
    assert_like_a_plain_mount(hit, image)


class _ReplayEndFs(SoundFs):
    """SoundFS that keeps, from recovery, the journal slot its replay
    stopped at."""

    @classmethod
    def _recovered(cls, device, plan):
        fs = super()._recovered(device, plan)
        fs.replay_end = fs._journal_pos
        return fs


def test_a_memo_mount_keeps_what_recovery_sets():
    """State a target sets while it recovers is on a file system thawed
    from a memo mount too, as it is on a plain mount."""
    image = crash_image(_ReplayEndFs)
    memo = MountMemo()
    _ReplayEndFs.mount(image, memo)
    hit = _ReplayEndFs.mount(image, memo)
    assert_like_a_plain_mount(hit, image)
    assert hit.thaw().replay_end == _ReplayEndFs.mount(image).replay_end
    assert hit.thaw().replay_end > geometry(image).journal_start


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_a_viewed_memo_mount_builds_no_file_system(monkeypatch, target):
    """A memo hit whose probe outcome is stored is checked without a single
    ``Inode`` or ``Device`` being made, and gives the plain mount's
    verdict; ``check`` reads only its view and its record."""
    from crashlab import harness
    from crashlab.fstarget import soundfs

    prof = harness.profile(
        ace.parse("mkdir A\ncreat A/foo\nwrite (0-8K) A/foo\nfsync A/foo\n"), target.NAME
    )
    state = harness._checkpoint_state(prof, len(prof.checkpoints) - 1)
    memo = MountMemo()
    first = harness.check(prof, state, memo)
    assert len(target.mount(state.image, memo).memo_record.probes) == 1
    made = []
    for module, name in ((soundfs, "Inode"), (soundfs, "Device")):
        cls = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _cls=cls, _n=name, **kw: made.append(_n) or _cls(*a, **kw)
        )
    hit = target.mount(state.image, memo)
    view = hit.state_view()
    again = harness.check(prof, state, memo)
    assert made == [] and set(vars(hit)) == {"memo_record", "_journal"}
    monkeypatch.undo()
    assert again == first == harness.check(prof, state)
    assert view == target.mount(state.image).state_view()


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_a_memo_mount_is_one_read_only_object(target):
    """Every mount of one image through a memo returns one object, which a
    check that probes leaves as it was; each thaw of it is a file system of
    its own."""
    from crashlab import harness

    prof = harness.profile(
        ace.parse("mkdir A\ncreat A/foo\nwrite (0-8K) A/foo\nfsync A/foo\n"), target.NAME
    )
    state = harness._checkpoint_state(prof, len(prof.checkpoints) - 1)
    memo = MountMemo()
    mounted = target.mount(state.image, memo)
    assert target.mount(state.image, memo) is mounted
    assert set(vars(mounted)) == {"memo_record", "_journal"}
    harness.check(prof, state, memo)
    assert list(mounted.memo_record.probes) == [("/", "A")]
    assert set(vars(mounted)) == {"memo_record", "_journal"}
    assert target.mount(state.image, memo) is mounted

    first, second = mounted.thaw(), mounted.thaw()
    before = mount_state(second)
    first.apply(op("creat", path="A/x"), 9)
    first.persist(PersistKind.SYNC)
    assert "A/x" in first.state_view().entries
    assert mount_state(second) == before == mount_state(mounted.thaw())


# each reads a file system's live state through the method it names
_LIVE_CALLS = {
    "apply": lambda fs, image: mount_state(fs),
    "fork": lambda fs, image: mount_state(fs.fork(Device(image.size_bytes, image))),
    "replicate": lambda fs, image: mount_state(fs.replicate()),
    "clean_view": lambda fs, image: fs.clean_view(),
    "persist": lambda fs, image: (fs.persist(PersistKind.FSYNC, "bar"), mount_state(fs)),
    "unmount_clean": lambda fs, image: image_bytes(fs.unmount_clean()),
    "paths_of_ino": lambda fs, image: [fs.paths_of_ino(ino) for ino in range(1, 7)],
    "resolve_ino": lambda fs, image: [fs.resolve_ino(p) for p in ("A", "A/foo", "A/new", "lost")],
}


@pytest.mark.parametrize("call", _LIVE_CALLS.values(), ids=_LIVE_CALLS.keys())
@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_a_memo_mount_thaws_at_the_first_call_that_reads_its_state(target, call):
    """A memo mount holds only its record and journal blocks, and answers
    only ``state_view``. A file system thawed from it gives, after the same
    ``apply``, what each call on a plain mount gives, and the memo mount
    stays as it was."""
    image = crash_image(target)
    memo = MountMemo()
    target.mount(image, memo)
    hit, plain = target.mount(image, memo), plain_mount(target, image)
    assert set(vars(hit)) == {"memo_record", "_journal"}
    live = hit.thaw()
    for fs in (live, plain):
        fs.apply(op("creat", path="A/new"), 9)
    assert call(live, image) == call(plain, image)
    assert set(vars(hit)) == {"memo_record", "_journal"}
    assert hit.state_view() == target.mount(image).state_view()


def geometry(image) -> Geometry:
    return Geometry.for_blocks(image.size_bytes // BLOCK_SIZE)


def write_block(image, block, data):
    return image.with_writes([(block * BLOCK_SIZE // 512, data)])


def journaled_again(image, target, entries, txn_id):
    """``image`` with one more committed transaction, numbered ``txn_id``,
    that journals ``entries`` metadata blocks unchanged: replaying it moves
    the journal position and the next transaction id, and no block outside
    the journal."""
    fs = target.mount_device(Device(DEV, image))
    homes = [fs.geo.inode_bitmap_block, fs.geo.block_bitmap_block][:entries]
    fs._next_txn = txn_id
    fs._write_txn([(home, fs.device.read_block(home)) for home in homes], [])
    return fs.device.snapshot()


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_memo_shares_a_record_across_dead_journal_blocks(target):
    """Recovery never reaches the last journal block here, so an image with
    other bytes there recovers to the same file system: one record, and
    each mount still gets its own image's journal blocks."""
    image = crash_image(target)
    dead = write_block(image, geometry(image).data_start - 1, b"\x5a" * BLOCK_SIZE)
    memo = MountMemo()
    mounts = [(target.mount(i, memo), i) for i in (image, dead, dead, image)]
    assert len(memo.records) == 1 and len(memo.states) == 2
    for fs, i in mounts:
        assert_like_a_plain_mount(fs, i)


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_memo_keeps_apart_what_recovery_leaves_apart(target):
    """A record is shared only by images that recover to the same blocks
    outside the journal, journal position and next transaction id."""
    image = crash_image(target)
    n = target.mount(image)._next_txn
    once = journaled_again(image, target, 1, n)
    replay_end = target.mount(once)._journal_pos
    images = [
        once,
        write_block(once, DEV // BLOCK_SIZE - 1, b"x" * BLOCK_SIZE),  # a data block
        write_block(once, replay_end - 1, bytes(BLOCK_SIZE)),  # its commit lost
        journaled_again(image, target, 2, n),  # the same next id, a later position
        journaled_again(image, target, 1, n + 5),  # the same position, a later id
    ]
    memo = MountMemo()
    for i in images:
        assert_like_a_plain_mount(target.mount(i, memo), i)
    assert len(memo.records) == len(memo.states) == len(images)


def with_block_pointer(image, path, index, block):
    """``image`` recovered, with block pointer ``index`` of ``path``'s inode
    set to ``block`` and the journal emptied; the inode number and the
    image."""
    fs = SoundFs.mount_device(Device(DEV, image))
    ino = fs.resolve_ino(path)
    table = fs.geo.itable_start + ino // INODES_PER_BLOCK
    off = (ino % INODES_PER_BLOCK) * INODE_SIZE
    raw = bytearray(fs.device.read_block(table))
    node = _decode_inode(ino, raw[off : off + INODE_SIZE])
    node.blocks[index] = block
    raw[off : off + INODE_SIZE] = _encode_inode(
        node.kind, node.nlink, node.size, node.target, node.xattrs, node.blocks
    )
    fs.device.write_block(table, bytes(raw))
    fs.device.write_block(fs.geo.journal_start, bytes(BLOCK_SIZE))
    return ino, fs.device.snapshot()


def with_txn(image, pos, txn_id, writes=(), tombstones=()):
    """``image`` with a committed transaction numbered ``txn_id`` at journal
    slot ``pos``, laid out as ``_write_txn`` lays it out: its ``(home,
    block)`` writes and ``(directory inode, name)`` tombstones. No home is
    written."""
    hdr = _JHDR.pack(JOURNAL_HDR_MAGIC, txn_id, len(writes), len(tombstones))
    hdr += struct.pack(f"<{len(writes)}I", *(home for home, _blk in writes))
    for dir_ino, name in tombstones:
        hdr += struct.pack("<HB", dir_ino, len(name)) + name.encode()
    blocks = [hdr.ljust(BLOCK_SIZE, b"\0"), *(blk for _home, blk in writes)]
    digest = hashlib.sha256(b"".join(blocks)).digest()
    blocks.append(_JCOMMIT.pack(JOURNAL_COMMIT_MAGIC, txn_id, digest).ljust(BLOCK_SIZE, b"\0"))
    for i, blk in enumerate(blocks):
        image = write_block(image, pos + i, blk)
    return image


def test_a_committed_home_outside_the_metadata_and_data_regions_is_unmountable():
    """Recovery writes only metadata and data blocks: a committed
    transaction whose home is block 0, a journal block or past the device
    does not mount, plainly or through the memo, and the reason names the
    transaction and the home. A data block home is replayed."""
    image = crash_image()
    geo = geometry(image)
    live = SoundFs.mount(image)
    pos, txn = live._journal_pos, live._next_txn
    last = geo.total_blocks - 1
    good = with_txn(image, pos, txn, [(last, b"x" * BLOCK_SIZE)])
    assert SoundFs.mount(good).device.read_block(last) == b"x" * BLOCK_SIZE
    assert_like_a_plain_mount(SoundFs.mount(good, MountMemo()), good)
    for home in (0, geo.journal_start, geo.data_start - 1, geo.total_blocks, 2**32 - 1):
        bad = with_txn(image, pos, txn, [(last, b"x" * BLOCK_SIZE), (home, b"y" * BLOCK_SIZE)])
        want = Unmountable(
            f"transaction {txn} home block {home} lies outside the metadata and data regions"
        )
        memo = MountMemo()
        mounts = [SoundFs.mount(bad), SoundFs.mount(bad, memo), SoundFs.mount(bad, memo)]
        assert mounts == [want] * 3


def test_a_tombstone_writes_only_the_inode_table_and_the_data_region():
    """A tombstone that names an inode past the inode table, or removes a
    name from a directory whose entry block lies outside the data region,
    does not mount, plainly or through the memo."""
    image = crash_image()
    geo = geometry(image)
    live = SoundFs.mount(image)
    past_table = with_txn(image, live._journal_pos, live._next_txn, (), [(INODE_COUNT, "foo")])
    # A's entries copied to a dead journal block, and its pointer moved there
    dead = geo.data_start - 1
    ino, moved = with_block_pointer(image, "A", 0, dead)
    moved = write_block(moved, dead, live.device.read_block(live.inodes[ino].blocks[0]))
    in_journal = with_txn(moved, geo.journal_start, 1000, (), [(ino, "foo")])
    for bad, reason in (
        (past_table, f"tombstone inode {INODE_COUNT} lies outside the inode table"),
        (
            in_journal,
            f"inode {ino} block pointer {dead} lies outside the data region "
            f"[{geo.data_start}, {geo.total_blocks})",
        ),
    ):
        memo = MountMemo()
        mounts = [SoundFs.mount(bad), SoundFs.mount(bad, memo), SoundFs.mount(bad, memo)]
        assert mounts == [Unmountable(reason)] * 3


def test_pointers_outside_the_data_region_are_unmountable():
    """A file block in the journal, or a lost entry block of a directory
    with entries (pointer 0, the superblock), leaves nothing to read: the
    image does not mount, plain or through the memo, and the reason names
    the inode and the pointer. Images that differ only in dead journal
    blocks share the record."""
    image = crash_image()
    geo = geometry(image)
    memo = MountMemo()
    for path, index, block in (("A/foo", 1, geo.journal_start + 1), ("A", 0, 0)):
        ino, bad = with_block_pointer(image, path, index, block)
        dead = write_block(bad, geo.data_start - 1, b"\x5a" * BLOCK_SIZE)
        plain = SoundFs.mount(bad)
        assert plain == Unmountable(
            f"inode {ino} block pointer {block} lies outside the data region "
            f"[{geo.data_start}, {geo.total_blocks})"
        )
        assert [SoundFs.mount(i, memo) for i in (bad, dead, bad)] == [plain] * 3
        assert SoundFs.mount(dead) == plain
    assert len(memo.records) == 2 and len(memo.states) == 4


def test_an_empty_directory_never_reads_its_entry_block():
    """bugfs-b3 journals an fdatasync'd directory without its entry block;
    an empty one still mounts, as an empty directory with no blocks."""
    from crashlab.harness import profile

    w = ace.parse("mkdir A\nfdatasync A\n")
    prof = profile(w, "bugfs-b3")
    fs = get_target("bugfs-b3").mount(prof.checkpoints[1].image)
    assert fs.state_view().entries["A"].block_count == 0


def test_a_directory_without_an_entry_block_gets_one_before_a_commit():
    """The empty directory bugfs-b3 leaves with entry-block pointer 0 gets
    a fresh entry block when a later commit writes its entries, so the
    commit does not overwrite the superblock."""
    from crashlab.harness import profile

    prof = profile(ace.parse("mkdir A\nfdatasync A\n"), "bugfs-b3")
    fs = get_target("bugfs-b3").mount(prof.checkpoints[1].image)
    dir_ino = fs.resolve_ino("A")
    assert fs.inodes[dir_ino].blocks == [0]
    fs.apply(op("creat", path="A/x"))
    fs.persist(PersistKind.SYNC)
    assert fs.device.read_block(0) == image_bytes(prof.checkpoints[0].image)[:BLOCK_SIZE]
    again = get_target("bugfs-b3").mount(fs.device.snapshot())
    assert not isinstance(again, Unmountable)
    assert fs.geo.data_start <= again.inodes[dir_ino].blocks[0] < fs.geo.total_blocks
    assert again.state_view().entries.keys() == fs.state_view().entries.keys() >= {"A", "A/x"}


def test_memo_keeps_an_unmountable_reason():
    image = DiskImage(DEV, b"\x5a" * DEV, {})
    memo = MountMemo()
    plain = SoundFs.mount(image)
    assert SoundFs.mount(image, memo) == plain
    assert SoundFs.mount(image, memo) == plain
    assert len(memo.states) == 1


def test_memo_keys_each_target_apart():
    image = crash_image()
    memo = MountMemo()
    sound = SoundFs.mount(image, memo)
    buggy = TARGETS["bugfs-b1"].mount(image, memo)
    assert type(sound) is SoundFs and type(buggy) is TARGETS["bugfs-b1"]
    assert type(SoundFs.mount(image, memo)) is SoundFs
    assert len(memo.states) == 2


def test_memo_never_holds_more_than_its_bound():
    memo = MountMemo()
    memo.records["stale"] = Unmountable("stale")  # records are dropped with the images
    zeroed = DiskImage.zeroed(DEV)
    for i in range(MountMemo.LIMIT + 50):
        # a distinct superblock on each image: every mount is a new entry
        image = zeroed.with_writes([(0, i.to_bytes(4, "little") * (BLOCK_SIZE // 4))])
        assert isinstance(SoundFs.mount(image, memo), Unmountable)
        assert len(memo.states) <= MountMemo.LIMIT
    # emptied at the bound, so only the images mounted since are held
    assert len(memo.states) == len(memo.values) == len(memo.plans) == 50
    assert memo.records == {}


def distinct_images(states) -> list:
    return list({state.image.content_key(): state.image for state in states}.values())


def assert_plan_hits_like_plain_mounts(target, images, every=1) -> MountMemo:
    """Mount ``images`` through a memo, then empty its ``states`` table and
    mount every ``every``-th image again. Each second mount finds its
    journal scan in ``plans`` and its record in ``records``, so it runs no
    recovery, and it must give what a plain mount gives. Returns the memo."""
    memo = MountMemo()
    for image in images:
        target.mount(image, memo)
    assert len(memo.states) == len(images)  # never emptied at its bound
    plans, records = dict(memo.plans), dict(memo.records)
    memo.states.clear()
    for image in images[::every]:
        mounted = target.mount(image, memo)
        if isinstance(mounted, Unmountable):
            assert mounted == target.mount(image)
        else:
            assert_like_a_plain_mount(mounted, image)
    assert memo.plans == plans and memo.records == records
    return memo


# seq-1 tier indices: creat foo / fsync foo, and rename bar foo / fsync foo
_SAMPLED_SEQ1 = (0, 1150)


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_a_plan_hit_mount_equals_a_plain_mount(target):
    """Every checkpoint state and op-granularity subset state of sampled
    seq-1 workloads mounts through a known plan as it mounts plainly."""
    from crashlab.harness import profile

    for index in _SAMPLED_SEQ1:
        (workload,) = ace.workload_range(ace.Bounds(seq_length=1), index, index + 1)
        images = distinct_images(crash_states(profile(workload, target.NAME)))
        memo = assert_plan_hits_like_plain_mounts(target, images)
        assert len(memo.plans) < len(images)  # some images share a scan


def test_a_plan_hit_mount_with_tombstones_equals_a_plain_mount():
    """bugfs-b6 journals tombstones, which recovery applies to directory
    blocks outside the journal: a known plan with tombstones replays them
    onto the image it mounts, and gives what a plain mount gives."""
    from crashlab.harness import profile

    target = get_target("bugfs-b6")
    for dsl in (
        "# deps\ncreat foo\n# ops\nunlink foo\ncreat foo\nfsync foo\n",
        "# deps\ncreat bar\n# ops\nunlink bar\ncreat bar\nfdatasync bar\ncreat foo\nsync\n",
    ):
        images = distinct_images(crash_states(profile(ace.parse(dsl), target.NAME)))
        memo = assert_plan_hits_like_plain_mounts(target, images)
        assert any(tombstones for plan in memo.plans.values() for _w, tombstones in plan.txns)


def test_a_plan_hit_mount_of_a_sector_state_equals_a_plain_mount():
    """The sector slice 590:600 (every 8th distinct image of each workload's
    states): partial journal blocks scan as the device reads them."""
    from crashlab.harness import profile

    for workload in ace.workload_range(ace.Bounds(seq_length=1), 590, 600):
        states = crash_states(profile(workload, "soundfs"), "sector", seed=7)
        assert_plan_hits_like_plain_mounts(SoundFs, distinct_images(states), every=8)


def test_a_subset_round_recovers_only_to_load(monkeypatch):
    """``--seq 1 --subset --range 590:595`` mounts 288 distinct images. A
    known or new journal scan and its replay give each recovered image
    without a device, so a memo mount builds a ``Device`` only to load
    each of the 5 distinct recovered file systems."""
    from crashlab.cli import CampaignConfig, run_campaign
    from crashlab.fstarget import soundfs

    counts = dict.fromkeys(("images", "open", "devices", "loads"), 0)
    memo_entry = SoundFs.__dict__["_memo_entry"].__func__
    loaded = SoundFs._loaded

    def counting_entry(cls, image, memo):
        counts["images"] += 1
        counts["open"] += 1
        try:
            return memo_entry(cls, image, memo)
        finally:
            counts["open"] -= 1

    def counting(name, real):
        def call(*args, **kwargs):
            counts[name] += counts["open"]  # a memo mount's, not a profile's
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(SoundFs, "_memo_entry", classmethod(counting_entry))
    monkeypatch.setattr(soundfs, "Device", counting("devices", Device))
    monkeypatch.setattr(SoundFs, "_loaded", counting("loads", loaded))
    config = CampaignConfig(fs="soundfs", seq=(1,), index_range=(590, 595), subset=True)
    result = run_campaign(config, quiet=True)
    assert (result.total_verdicts, result.bug_verdicts) == (815, 0)
    assert counts == {"images": 288, "open": 0, "devices": 5, "loads": 5}


# -- allocation ----------------------------------------------------------------------


def test_a_block_recovery_replays_is_not_reused_as_data():
    """``rmdir A`` frees A's entry block while the journal still holds the
    transaction that wrote it there. Recovery replays that transaction, so
    ``foo``'s data must go to another block: every checkpoint state
    recovers to its oracle."""
    from crashlab.harness import RunFlags, run_workload

    w = ace.parse("mkdir A\nsync\nrmdir A\nwrite (0-4K) foo\nfsync foo\n")
    verdicts = run_workload(w, "soundfs", RunFlags(all_checkpoints=True))
    assert [v.outcome for v in verdicts] == ["pass", "pass"]


def test_allocation_skips_the_homes_recovery_would_replay():
    """After every commit, across a journal wrap, the homes a live file
    system keeps are those a mount of its device replays; no block it
    allocates is one of them."""
    fs = fresh_fs()
    wrapped = False
    for i in range(40):
        dsl = f"mkdir A\nsync\nrmdir A\nwrite ({i}K-{i + 4}K) foo\nfsync foo\n"
        for step in ace.parse(dsl).steps:
            if isinstance(step, FsOp):
                homes, allocated = fs._journal_homes, fs.alloc_blocks
                fs.apply(step, i)
                assert fs.alloc_blocks & ~allocated & homes == 0
            else:
                pos = fs._journal_pos
                fs.persist(step.kind, step.target)
                wrapped |= fs._journal_pos < pos
                assert fs._journal_homes == SoundFs.mount(fs.device.snapshot())._journal_homes
    assert wrapped and fs._journal_homes



# -- fork ----------------------------------------------------------------------------

# Arms every variant's bookkeeping: a commit that keeps some of it, then a
# hard link, a rename, an extending dwrite, an unlink and recreate of one
# name and buffered data, all still pending.
_BUSY = """
mkdir A
creat A/foo
write (0-8K) A/foo
link A/foo bar
rename bar baz
dwrite (0-12K) A/foo
fsync A/foo
link A/foo A/qux
rename baz A/bar
unlink A/qux
creat A/qux
dwrite (0-4K) A/qux
mwrite (0-4K) A/bar
write (4-8K) A/bar
setxattr A/foo user.k v
"""


def busy_fs(target):
    fs = fresh_fs(target)
    for i, step in enumerate(ace.parse(_BUSY).steps):
        if isinstance(step, FsOp):
            fs.apply(step, i)
        else:
            fs.persist(step.kind, step.target)
    return fs


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_fork_equals_a_deep_copy(target):
    fs = busy_fs(target)
    assert fs._pending_data
    deep = copy.deepcopy(fs, {id(fs.device): fs.device.copy(), id(fs.geo): fs.geo})
    forked = fs.fork(fs.device.copy())
    assert type(forked) is target and forked.geo is fs.geo
    assert fs_state(forked) == fs_state(deep)
    for copied in (forked, deep):
        copied.apply(op("write", path="A/bar", start=0, end=12288), 20)
        copied.persist(PersistKind.FSYNC, "A/bar")
        copied.apply(op("rename", path="A/qux", path2="A/foo"), 21)
        copied.persist(PersistKind.SYNC)
    assert fs_state(forked) == fs_state(deep)


@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
def test_a_fork_leaves_the_original_alone(target):
    fs = busy_fs(target)
    before = fs_state(fs)
    forked = fs.fork(fs.device.copy())
    forked.apply(op("write", path="A/foo", start=4096, end=16384), 20)
    forked.apply(FsOp(FsOpKind.XATTR, path="A/foo", attr="user.k", variant="removexattr"), 21)
    forked.apply(op("mkdir", path="A/B"), 22)
    forked.apply(op("truncate", path="A/bar", end=100), 23)
    forked.apply(op("mwrite", path="A/bar", start=8192, end=12288), 23)
    forked.persist(PersistKind.FSYNC, "A/foo")
    forked.apply(op("link", path="A/qux", path2="A/B/qux"), 24)
    forked.persist(PersistKind.SYNC)
    forked.unmount_clean()
    assert fs_state(fs) == before
    assert len(forked.device.log) > len(fs.device.log)


def test_mounted_soundfs_holds_only_file_system_state():
    """Seeded-bug bookkeeping lives in the variants, not in SoundFS."""
    fs = fresh_fs()
    assert set(vars(fs)) == {
        "device",
        "geo",
        "_journal_pos",
        "_next_txn",
        "_journal_homes",
        "alloc_inos",
        "alloc_blocks",
        "inodes",
        "_dirty_inodes",
        "_bitmap_dirty",
        "_pending_data",
    }


def test_inodes_run_out_at_the_exact_count():
    from crashlab.fstarget.soundfs import INODE_COUNT

    fs = fresh_fs()
    for i in range(INODE_COUNT - 2):  # ino 0 is reserved and ino 1 is the root
        fs.apply(op("creat", path=f"f{i}"), i)
    with pytest.raises(FsError, match="out of inodes") as e:
        fs.apply(op("creat", path="last"), INODE_COUNT)
    assert e.value.code == "ENOSPC"


def test_data_blocks_run_out_at_the_exact_count():
    fs = fresh_fs(size=64 * BLOCK_SIZE)
    free = fs.geo.total_blocks - fs.geo.data_start - 1  # the root dir holds one
    fs.apply(op("write", path="a", start=0, end=free * BLOCK_SIZE), 0)
    with pytest.raises(FsError, match="out of data blocks") as e:
        fs.apply(op("write", path="b", start=0, end=BLOCK_SIZE), 1)
    assert e.value.code == "ENOSPC"


def test_freed_inodes_and_blocks_are_reused_lowest_first():
    fs = fresh_fs()
    for i, name in enumerate("abc"):
        fs.apply(op("write", path=name, start=0, end=BLOCK_SIZE), i)
    nodes = {name: fs.inodes[fs.resolve_ino(name)] for name in "abc"}
    inos = {name: node.ino for name, node in nodes.items()}
    blocks = {name: node.blocks[0] for name, node in nodes.items()}
    assert inos["a"] < inos["b"] < inos["c"] and blocks["a"] < blocks["b"] < blocks["c"]
    fs.apply(op("unlink", path="b"), 3)
    fs.apply(op("unlink", path="a"), 4)
    fs.apply(op("write", path="d", start=0, end=3 * BLOCK_SIZE), 5)
    d = fs.inodes[fs.resolve_ino("d")]
    assert d.ino == inos["a"]
    assert d.blocks[:2] == [blocks["a"], blocks["b"]]
    assert d.blocks[2] > blocks["c"]


def test_sync_and_remount_restore_the_allocation():
    fs = fresh_fs()
    fs.apply(op("mkdir", path="A"), 0)
    fs.apply(op("write", path="A/foo", start=0, end=3 * BLOCK_SIZE), 1)
    fs.apply(op("write", path="bar", start=0, end=2 * BLOCK_SIZE), 2)
    fs.apply(op("truncate", path="A/foo", end=BLOCK_SIZE), 3)
    fs.apply(op("unlink", path="bar"), 4)
    fs.apply(op("creat", path="baz"), 5)
    fs.persist(PersistKind.SYNC)
    allocation = (fs.alloc_inos, fs.alloc_blocks)
    assert bin(fs.alloc_inos).count("1") == 5  # ino 0, the root, A, A/foo, baz
    remounted = SoundFs.mount(fs.device.snapshot())
    assert (remounted.alloc_inos, remounted.alloc_blocks) == allocation
    again = SoundFs.mount(fs.unmount_clean())
    assert (again.alloc_inos, again.alloc_blocks) == allocation


def test_block_bitmap_bits_past_the_device_are_ignored():
    fs = fresh_fs()
    geo = fs.geo
    raw = bytearray(fs.device.read_block(geo.block_bitmap_block))
    tail = geo.total_blocks // 8
    raw[tail:] = b"\xff" * (BLOCK_SIZE - tail)
    fs.device.write_block(geo.block_bitmap_block, bytes(raw))
    mounted = SoundFs.mount(fs.device.snapshot())
    assert not isinstance(mounted, Unmountable)
    assert mounted.alloc_blocks == fs.alloc_blocks
    mounted.apply(op("write", path="foo", start=0, end=BLOCK_SIZE), 0)
    mounted.persist(PersistKind.SYNC)
    assert mounted.device.read_block(geo.block_bitmap_block)[tail:] == bytes(BLOCK_SIZE - tail)


# -- seeded bug catalog ---------------------------------------------------------------


def test_variant_catalog_complete():
    assert len(VARIANTS) == 6
    assert {v.NAME for v in VARIANTS} == {f"bugfs-b{i}" for i in range(1, 7)}
    assert all(seed is not None for seed in BUG_SEEDS)
    assert len({seed.id for seed in BUG_SEEDS}) == 6


def test_each_seed_trigger_names_the_calls_its_commit_breaks():
    """A seed's trigger text names exactly the persistence calls in its
    class's ``BUGGY_TRIGGERS``; SoundFS breaks none."""
    assert SoundFs.BUGGY_TRIGGERS == frozenset()
    calls = {kind.value for kind in PersistKind}
    for variant in VARIANTS:
        named = calls.intersection(re.findall(r"\w+", variant.BUG_SEED.trigger))
        assert variant.BUGGY_TRIGGERS and named == variant.BUGGY_TRIGGERS, variant.NAME


def test_get_target_unknown():
    with pytest.raises(ValueError):
        get_target("extfour")


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.NAME)
def test_bug_seed_live_and_isolated(variant):
    """Each seed's corpus workload (the entry whose ``# variant:`` header
    names it) triggers exactly its declared class on the variant, and
    SoundFS passes the same workload."""
    from crashlab import ace
    from crashlab.cli import corpus_variant_map, default_corpus_dir
    from crashlab.harness import RunFlags, run_workload

    seed = variant.BUG_SEED
    mapped = corpus_variant_map(default_corpus_dir())
    entries = [name for name, (target, _) in mapped.items() if target == variant.NAME]
    if not entries:
        # campaign-only seed: use its trigger shape directly
        assert variant.NAME == "bugfs-b5"
        text = "creat foo\nwrite (0-4K) foo\nrename foo bar\nfsync bar\n"
        workload = ace.parse(text)
    else:
        workload = ace.parse_file(default_corpus_dir() / entries[0])
    flags = RunFlags(all_checkpoints=True)
    buggy = run_workload(workload, variant.NAME, flags)
    assert any(
        v.is_bug and v.consequence == seed.consequence_class for v in buggy
    ), [(v.crash_descriptor, v.consequence) for v in buggy]
    sound = run_workload(workload, "soundfs", flags)
    assert all(v.outcome == "pass" for v in sound)


def test_clean_unmount_correct_for_every_target():
    """Bugs manifest only across crash recovery, never on clean shutdown."""
    for name, target in sorted(TARGETS.items()):
        fs = fresh_fs(target)
        fs.apply(op("mkdir", path="A"), 0)
        fs.apply(op("creat", path="A/foo"), 1)
        fs.apply(op("write", path="A/foo", start=0, end=4096), 2)
        fs.apply(op("link", path="A/foo", path2="A/bar"), 3)
        fs.apply(op("rename", path="A/bar", path2="A/baz"), 4)
        fs.persist(PersistKind.FSYNC, "A/foo")
        expected = fs.state_view().entries
        image = fs.unmount_clean()
        fs2 = target.mount(image)
        assert not isinstance(fs2, Unmountable), name
        got = fs2.state_view().entries
        assert set(got) == set(expected), name
        for path in expected:
            assert got[path].data_hash == expected[path].data_hash, (name, path)
            assert got[path].link_count == expected[path].link_count, (name, path)


def test_beyond_eof_loss_exact_sector_counts():
    """known_02 on bugfs-b3: 8K persisted data plus 8K fallocated beyond EOF
    should survive as 32 sectors; the bug recovers only 16."""
    from crashlab import ace
    from crashlab.cli import default_corpus_dir
    from crashlab.harness import check, profile, state_for

    w = ace.parse_file(default_corpus_dir() / "known_02.wl")
    prof = profile(w, "bugfs-b3")
    v = check(prof, state_for(prof, "checkpoint=2"))
    assert v.is_bug and v.consequence == "metadata_mismatch(block_count)"
    entry = next(d for d in v.diff if d.field == "block_count")
    assert (entry.expected, entry.actual) == ("32", "16")


def test_dwrite_size_bug_arms_on_a_reused_inode_number():
    """bugfs-b4 forgets what it knew of a freed inode: a new file that
    reuses its number and is extended by dwrite journals size 0, and one
    written only by plain writes journals its size."""
    from crashlab import ace
    from crashlab.harness import RunFlags, run_workload

    flags = RunFlags(all_checkpoints=True)
    w = ace.parse(
        "creat foo\ndwrite (0-8K) foo\nsync\nunlink foo\ncreat bar\n"
        "dwrite (0-4K) bar\nfsync bar\n"
    )
    assert [(v.crash_descriptor, v.consequence) for v in run_workload(w, "bugfs-b4", flags)] == [
        ("", ""),  # checkpoint 1 passes
        ("checkpoint=2", "metadata_mismatch(size)"),
    ]
    assert all(v.outcome == "pass" for v in run_workload(w, "soundfs", flags))
    w = ace.parse(
        "creat foo\ndwrite (0-8K) foo\nunlink foo\ncreat bar\nwrite (0-4K) bar\nfsync bar\n"
    )
    assert [v.outcome for v in run_workload(w, "bugfs-b4", flags)] == ["pass"]


def test_sound_journal_never_bricks_across_campaign_sample():
    """Every checkpoint crash state of every sampled workload mounts."""
    import itertools

    from crashlab import ace
    from crashlab.harness import RunFlags, run_workload

    sample = itertools.islice(ace.generate_workloads(ace.Bounds(seq_length=1)), 0, 400, 8)
    flags = RunFlags(all_checkpoints=True)
    for w in sample:
        for v in run_workload(w, "soundfs", flags):
            assert v.consequence != "unmountable"
            assert v.outcome == "pass"


def test_fsck_reports_on_unmountable():
    from crashlab import ace
    from crashlab.harness import profile

    w = ace.parse("creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n")
    prof = profile(w, "bugfs-b6")
    target = get_target("bugfs-b6")
    mounted = target.mount(prof.checkpoints[2].image)
    assert isinstance(mounted, Unmountable)
    assert target.fsck(mounted) == {
        "mountable": False,
        "repairable": "link count" in mounted.reason,
        "issues": [mounted.reason],
    }
