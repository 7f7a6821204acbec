"""Block device: logging, epochs, replay, COW snapshots."""

import itertools
import random

import pytest

from crashlab.blockdev import (
    BLOCK_SIZE,
    SECTOR_SIZE,
    DiskImage,
    Device,
    GeometryError,
    IoRecord,
    OutOfBoundsError,
    replay,
    split_epochs,
)
from image_helper import image_bytes

MiB = 1024 * 1024


def test_create_device_zero_filled():
    dev = Device(4 * MiB)
    assert dev.read_block(0) == bytes(4096)
    assert dev.read_block(4 * MiB // 4096 - 1) == bytes(4096)


def test_create_device_with_base_is_identity():
    base = DiskImage(4 * MiB, bytes(range(256)) * (4 * MiB // 256), {})
    dev = Device(4 * MiB, base)
    assert image_bytes(dev.snapshot()) == image_bytes(base)


def test_create_device_bad_sizes():
    with pytest.raises(GeometryError):
        Device(4 * MiB + 1)
    with pytest.raises(GeometryError):
        Device(0)
    with pytest.raises(GeometryError):
        Device(4 * MiB, DiskImage.zeroed(2 * MiB))


def test_write_applies_to_current_image():
    dev = Device(4 * MiB)
    dev.write_block(0, b"\xab" * 4096)
    assert dev.read_block(0) == b"\xab" * 4096


def test_flush_only_record_leaves_image_unchanged():
    dev = Device(1 * MiB)
    before = image_bytes(dev.snapshot())
    dev.flush()
    assert image_bytes(dev.snapshot()) == before
    assert len(dev.log) == 1


def test_write_block_checks_bounds_and_logs_as_write():
    dev = Device(1 * MiB)
    last = 1 * MiB // BLOCK_SIZE - 1
    for block in (-1, last + 1):
        with pytest.raises(OutOfBoundsError):
            dev.write_block(block, b"\1" * BLOCK_SIZE)
    with pytest.raises(OutOfBoundsError):
        dev.write_block(0, b"\1" * SECTOR_SIZE)
    assert dev.log == []
    want = []
    for block, fua in ((0, False), (last, True), (3, False)):
        payload = bytearray([block % 251 + 1]) * BLOCK_SIZE
        dev.write_block(block, payload, fua=fua)
        want.append(IoRecord(block * (BLOCK_SIZE // SECTOR_SIZE), bytes(payload), fua=fua))
    assert dev.log == want
    assert all(type(rec.data) is bytes for rec in dev.log)
    written = DiskImage.zeroed(1 * MiB).with_writes((rec.sector, rec.data) for rec in want)
    assert image_bytes(dev.snapshot()) == image_bytes(written)


def test_checkpoint_ids_count_up_and_records_are_empty():
    """A checkpoint is a log position: it adds no record to the log, leaves
    the image as it is, and a copied device holds its own list."""
    dev = Device(1 * MiB)
    dev.write_block(0, b"\x01" * BLOCK_SIZE)
    assert dev.insert_checkpoint() == 1
    dev.flush()
    assert dev.insert_checkpoint() == 2
    assert dev.checkpoints == [1, 2]
    assert [rec.flush for rec in dev.log] == [False, True]
    img_before = image_bytes(dev.snapshot())
    copy = dev.copy()
    assert dev.insert_checkpoint() == 3
    assert dev.checkpoints == [1, 2, 2] and len(dev.log) == 2
    assert image_bytes(dev.snapshot()) == img_before
    assert copy.checkpoints == [1, 2]


# -- epoch splitting -----------------------------------------------------------


def _mklog(symbols):
    """Build a log from symbols: W (write), F (flush), U (fua write)."""
    log = []
    for i, sym in enumerate(symbols):
        if sym in "WU":
            log.append(IoRecord(i, bytes([i + 1]) * 512, fua=sym == "U"))
        else:
            log.append(IoRecord(flush=True))
    return log


def _oracle_epochs(symbols):
    """Independent hand-rule: an epoch ends at each F or U."""
    epochs = []
    cur = []
    for sym in symbols:
        cur.append(sym)
        if sym in ("F", "U"):
            epochs.append(cur)
            cur = []
    if cur:
        epochs.append(cur)
    return epochs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_epochs_matches_hand_enumerated_oracle(n):
    for symbols in itertools.product("WFU", repeat=n):
        got = split_epochs(_mklog(symbols))
        assert [[symbols[i] for i in ep] for ep in got] == _oracle_epochs(symbols), symbols


def test_split_epochs_empty_log():
    assert split_epochs([]) == []


def test_single_fua_write_is_its_own_terminator():
    assert split_epochs(_mklog("U")) == [range(0, 1)]
    assert split_epochs(_mklog("WUW")) == [range(0, 2), range(2, 3)]


def test_epoch_partition_covers_whole_log():
    """The epochs cut the log in order, each one ending at its only FLUSH
    or FUA write, except an unterminated last epoch."""
    rng = random.Random(7)
    for _ in range(50):
        log = _mklog(rng.choices("WWFU", k=rng.randint(0, 12)))
        epochs = split_epochs(log)
        assert [i for ep in epochs for i in ep] == list(range(len(log)))
        for n, ep in enumerate(epochs):
            ends = [log[i].flush or log[i].fua for i in ep]
            assert not any(ends[:-1])
            assert ends[-1] or n == len(epochs) - 1


# -- replay ---------------------------------------------------------------------


def test_replay_empty_log_is_identity():
    base = DiskImage(MiB, b"\x55" * MiB, {})
    dev = Device(MiB, base)
    dev.insert_checkpoint()
    out = replay(base, dev.log, dev.checkpoints, dev.images, dev.checkpoints[0])
    assert image_bytes(out) == image_bytes(base)


def test_replay_to_checkpoint_deterministic():
    log = _mklog("WF")
    log.append(IoRecord(8, b"\x02" * 512))
    base = DiskImage.zeroed(1 * MiB)
    a = replay(base, log, [], [], 2)
    b = replay(base, log, [], [], 2)
    assert image_bytes(a) == image_bytes(b)
    assert image_bytes(a)[:512] == b"\x01" * 512
    assert image_bytes(a)[4096:8192] == bytes(4096)  # post-checkpoint write excluded
    assert image_bytes(replay(base, log, [], [], 3))[4096:4608] == b"\x02" * 512


def test_replay_starts_from_the_last_checkpoint_image_at_or_before_its_cut():
    """A cut applies only the writes logged after the last checkpoint at or
    before it, onto that checkpoint's image: an image the log alone never
    gives shows through, and the writes before it are not applied again. A
    cut at a checkpoint is its image, and one before the first starts from
    the base."""
    log = [IoRecord(0, b"\x01" * 512), IoRecord(8, b"\x02" * 512), IoRecord(16, b"\x03" * 512)]
    base = DiskImage.zeroed(1 * MiB)
    first = base.with_writes([(0, b"\x01" * 512)])
    marked = base.with_writes([(24, b"\x07" * 512)])
    checkpoints, images = [1, 2], [first, marked]
    out = image_bytes(replay(base, log, checkpoints, images, 3))
    blocks = [out[n * 4096 : n * 4096 + 512] for n in range(4)]
    assert blocks == [bytes(512), bytes(512), b"\x03" * 512, b"\x07" * 512]
    assert image_bytes(replay(base, log, checkpoints, images, 2)) == image_bytes(marked)
    assert image_bytes(replay(base, log, checkpoints, images, 1)) == image_bytes(first)
    assert image_bytes(replay(base, log, checkpoints, images, 0)) == bytes(MiB)


def test_insert_checkpoint_keeps_the_image_there():
    """The image kept at a checkpoint is a snapshot: later writes leave it
    alone, and a copied device holds its own list."""
    dev = Device(1 * MiB)
    dev.write_block(0, b"\x01" * BLOCK_SIZE)
    dev.insert_checkpoint()
    dev.write_block(0, b"\x02" * BLOCK_SIZE)
    copy = dev.copy()
    dev.insert_checkpoint()
    assert [image_bytes(im)[:1] for im in dev.images] == [b"\x01", b"\x02"]
    assert len(copy.images) == 1


def test_replay_last_writer_wins():
    log = [IoRecord(0, b"\x01" * 512), IoRecord(0, b"\x02" * 512)]
    out = replay(DiskImage.zeroed(1 * MiB), log, [], [], 2)
    assert image_bytes(out)[:512] == b"\x02" * 512


def test_replay_does_not_mutate_base():
    log = [IoRecord(0, b"\x09" * 512)]
    base = DiskImage.zeroed(1 * MiB)
    out = replay(base, log, [], [], 1)
    assert image_bytes(out)[:512] == b"\x09" * 512
    assert image_bytes(base) == bytes(MiB)


# -- snapshots -------------------------------------------------------------------


def test_snapshot_isolated_from_later_writes():
    dev = Device(1 * MiB)
    dev.write_block(5, b"\x11" * BLOCK_SIZE)
    snap = dev.snapshot()
    dev.write_block(5, b"\x22" * BLOCK_SIZE)
    assert image_bytes(snap)[5 * BLOCK_SIZE : 6 * BLOCK_SIZE] == b"\x11" * BLOCK_SIZE


def test_two_snapshots_without_writes_identical():
    dev = Device(1 * MiB)
    dev.write_block(1, b"\x33" * BLOCK_SIZE)
    assert image_bytes(dev.snapshot()) == image_bytes(dev.snapshot())


def _random_write(rng, size):
    """A write of 1-16 sectors at a random sector offset, so some straddle
    block boundaries and most cover blocks only in part."""
    n = rng.randint(1, 16)
    return rng.randrange(size // SECTOR_SIZE - n + 1), rng.randbytes(n * SECTOR_SIZE)


def _assert_image_is(image, eager):
    assert image.size_bytes == len(eager)
    assert image_bytes(image) == eager


def test_cow_isolation_against_eager_copy_oracle():
    """Every snapshot, and every snapshot with further writes applied,
    equals what a full eager copy at that instant shows."""
    rng = random.Random(42)
    size = 64 * 1024
    raw = rng.randbytes(size)
    dev = Device(size, DiskImage(size, raw, {}))
    shadow = bytearray(raw)
    snaps = []
    for _ in range(200):
        roll = rng.random()
        if roll < 0.3:
            snaps.append((dev.snapshot(), bytes(shadow)))
            continue
        block = rng.randrange(size // BLOCK_SIZE)
        payload = rng.randbytes(BLOCK_SIZE)
        dev.write_block(block, payload)
        shadow[block * BLOCK_SIZE : (block + 1) * BLOCK_SIZE] = payload
    snaps.append((dev.snapshot(), bytes(shadow)))
    for snap, eager in snaps:
        _assert_image_is(snap, eager)
        writes = [_random_write(rng, size) for _ in range(rng.randint(1, 8))]
        expect = bytearray(eager)
        for sec, payload in writes:
            expect[sec * SECTOR_SIZE : sec * SECTOR_SIZE + len(payload)] = payload
        _assert_image_is(snap.with_writes(writes), bytes(expect))
        _assert_image_is(snap, eager)
    for block in range(size // BLOCK_SIZE):
        assert dev.read_block(block) == shadow[block * BLOCK_SIZE : (block + 1) * BLOCK_SIZE]


def test_with_writes_applies_in_order_and_checks_bounds():
    base = DiskImage(MiB, b"\x55" * MiB, {})
    out = base.with_writes([(1, b"\x01" * 1024), (2, b"\x02" * 512)])
    assert image_bytes(out)[:2048] == b"\x55" * 512 + b"\x01" * 512 + b"\x02" * 512 + b"\x55" * 512
    assert image_bytes(base) == b"\x55" * MiB
    with pytest.raises(OutOfBoundsError):
        base.with_writes([(MiB // SECTOR_SIZE - 1, b"\0" * 1024)])

