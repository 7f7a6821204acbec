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
    dev = Device(1 * MiB)
    assert dev.insert_checkpoint() == 1
    dev.write_block(0, b"\x01" * BLOCK_SIZE)
    assert dev.insert_checkpoint() == 2
    cps = [r for r in dev.log if r.checkpoint_id is not None]
    assert [r.checkpoint_id for r in cps] == [1, 2]
    assert all(r.data == b"" and not (r.flush or r.fua) for r in cps)
    assert dev.checkpoint_count == 2
    img_before = image_bytes(dev.snapshot())
    dev.insert_checkpoint()
    assert image_bytes(dev.snapshot()) == img_before


# -- epoch splitting -----------------------------------------------------------


def _mklog(symbols):
    """Build a log from symbols: W (write), F (flush), U (fua write), C (checkpoint)."""
    log, checkpoints = [], 0
    for i, sym in enumerate(symbols):
        if sym in "WU":
            log.append(IoRecord(i, bytes([i + 1]) * 512, fua=sym == "U"))
        elif sym == "F":
            log.append(IoRecord(flush=True))
        elif sym == "C":
            checkpoints += 1
            log.append(IoRecord(checkpoint_id=checkpoints))
    return log


def _oracle_epochs(symbols):
    """Independent hand-rule: an epoch ends at each F or U; checkpoints are
    annotations, not members."""
    epochs = []
    cur = []
    for sym in symbols:
        if sym == "C":
            continue
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
        log = _mklog(symbols)
        got = split_epochs(log)
        want = _oracle_epochs(symbols)
        assert len(got) == len(want), symbols
        for g, w in zip(got, want):
            terminated = w[-1] in ("F", "U")
            body = w[:-1] if terminated else w
            assert len(g.records) == len(body), symbols
            assert (g.terminator is not None) == terminated, symbols


def test_split_epochs_empty_log():
    assert split_epochs([]) == []


def test_single_fua_write_is_its_own_terminator():
    log = _mklog(["U"])
    epochs = split_epochs(log)
    assert len(epochs) == 1
    assert epochs[0].records == []
    assert epochs[0].terminator is not None
    assert epochs[0].terminator.fua


def test_checkpoint_after_terminator_closes_its_epoch():
    """A checkpoint right after a FLUSH or FUA belongs to that epoch and closes
    it; a second checkpoint opens the next epoch."""
    epochs = split_epochs(_mklog("WFCCWCUC"))
    assert [len(ep.records) for ep in epochs] == [1, 1]
    assert [ep.terminator.flush for ep in epochs] == [True, False]
    assert [ep.checkpoints for ep in epochs] == [[1], [2, 3, 4]]
    assert [ep.checkpoints for ep in split_epochs(_mklog("CWC"))] == [[1, 2]]


def test_epoch_partition_covers_whole_log():
    rng = random.Random(7)
    for _ in range(50):
        symbols = rng.choices("WWFUC", k=rng.randint(0, 12))
        log = _mklog(symbols)
        epochs = split_epochs(log)
        flat = [id(r) for ep in epochs for r in ep.all_records()]
        expect = [id(r) for r in log if r.checkpoint_id is None]
        assert flat == expect
        cps = [cp for ep in epochs for cp in ep.checkpoints]
        assert cps == [r.checkpoint_id for r in log if r.checkpoint_id is not None]


# -- replay ---------------------------------------------------------------------


def test_replay_empty_log_is_identity():
    base = DiskImage(MiB, b"\x55" * MiB, {})
    dev = Device(MiB, base)
    dev.insert_checkpoint()
    out = replay(base, dev.log, checkpoint=1)
    assert image_bytes(out) == image_bytes(base)


def test_replay_to_checkpoint_deterministic():
    log = _mklog("WFC")
    log.append(IoRecord(8, b"\x02" * 512))
    base = DiskImage.zeroed(1 * MiB)
    a = replay(base, log, checkpoint=1)
    b = replay(base, log, checkpoint=1)
    assert image_bytes(a) == image_bytes(b)
    assert image_bytes(a)[4096:8192] == bytes(4096)  # post-checkpoint write excluded


def test_replay_last_writer_wins():
    log = [IoRecord(0, b"\x01" * 512), IoRecord(0, b"\x02" * 512), IoRecord(checkpoint_id=1)]
    out = replay(DiskImage.zeroed(1 * MiB), log, checkpoint=1)
    assert image_bytes(out)[:512] == b"\x02" * 512


def test_replay_unknown_checkpoint():
    from crashlab.blockdev import ReplayError

    with pytest.raises(ReplayError):
        replay(DiskImage.zeroed(1 * MiB), [], checkpoint=3)


def test_replay_does_not_mutate_base():
    log = [IoRecord(0, b"\x09" * 512), IoRecord(checkpoint_id=1)]
    base = DiskImage.zeroed(1 * MiB)
    out = replay(base, log, checkpoint=1)
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

