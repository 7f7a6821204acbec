"""Block device: logging, epochs, replay, COW snapshots, serialization."""

import itertools
import random

import pytest

from crashlab.blockdev import (
    SECTOR_SIZE,
    DiskImage,
    GeometryError,
    IoFlags,
    IoLog,
    IoRecord,
    OutOfBoundsError,
    create_device,
    load_iolog,
    replay,
    save_iolog,
    split_epochs,
)

MiB = 1024 * 1024


def test_create_device_zero_filled():
    dev = create_device(4 * MiB)
    assert dev.read(0, SECTOR_SIZE) == bytes(SECTOR_SIZE)
    assert dev.read(4 * MiB - 512, 512) == bytes(512)


def test_create_device_with_base_is_identity():
    base = DiskImage.from_bytes(bytes(range(256)) * (4 * MiB // 256))
    dev = create_device(4 * MiB, base)
    assert dev.snapshot() == base


def test_create_device_bad_sizes():
    with pytest.raises(GeometryError):
        create_device(4 * MiB + 1)
    with pytest.raises(GeometryError):
        create_device(0)
    with pytest.raises(GeometryError):
        create_device(4 * MiB, DiskImage.zeroed(2 * MiB))


def test_write_applies_to_current_image():
    dev = create_device(4 * MiB)
    dev.write(0, b"\xab" * 4096)
    assert dev.read(0, 4096) == b"\xab" * 4096


def test_flush_only_record_leaves_image_unchanged():
    dev = create_device(1 * MiB)
    before = dev.snapshot()
    dev.flush()
    assert dev.snapshot() == before
    assert len(dev.log) == 1


def test_out_of_bounds_write_rejected():
    dev = create_device(1 * MiB)
    with pytest.raises(OutOfBoundsError):
        dev.write(1 * MiB // SECTOR_SIZE, b"\0" * 512)
    with pytest.raises(OutOfBoundsError):
        dev.write(0, b"\0" * 100)  # not sector-multiple


def test_checkpoint_ids_count_up_and_records_are_empty():
    dev = create_device(1 * MiB)
    assert dev.insert_checkpoint() == 1
    dev.write(0, b"\x01" * 512)
    assert dev.insert_checkpoint() == 2
    cps = [r for r in dev.log if r.flags.checkpoint]
    assert [r.checkpoint_id for r in cps] == [1, 2]
    assert all(r.length == 0 and not r.flags.write for r in cps)
    img_before = dev.snapshot()
    dev.insert_checkpoint()
    assert dev.snapshot() == img_before


def test_seq_strictly_increasing():
    dev = create_device(1 * MiB)
    dev.write(0, b"\0" * 512)
    dev.flush()
    dev.insert_checkpoint()
    seqs = [r.seq for r in dev.log]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


# -- epoch splitting -----------------------------------------------------------


def _mklog(symbols):
    """Build a log from symbols: W (write), F (flush), U (fua write), C (checkpoint)."""
    dev = create_device(1 * MiB)
    for i, sym in enumerate(symbols):
        if sym == "W":
            dev.write(i, bytes([i + 1]) * 512)
        elif sym == "F":
            dev.flush()
        elif sym == "U":
            dev.write(i, bytes([i + 1]) * 512, fua=True)
        elif sym == "C":
            dev.insert_checkpoint()
    return dev.log


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
    assert split_epochs(IoLog()) == []


def test_single_fua_write_is_its_own_terminator():
    log = _mklog(["U"])
    epochs = split_epochs(log)
    assert len(epochs) == 1
    assert epochs[0].records == []
    assert epochs[0].terminator is not None
    assert epochs[0].terminator.flags.fua


def test_epoch_partition_covers_whole_log():
    rng = random.Random(7)
    for _ in range(50):
        symbols = rng.choices("WWFUC", k=rng.randint(0, 12))
        log = _mklog(symbols)
        epochs = split_epochs(log)
        flat = [r.seq for ep in epochs for r in ep.all_records()]
        expect = [r.seq for r in log if not r.flags.checkpoint]
        assert flat == expect
        cps = sorted(cp for ep in epochs for _pos, cp in ep.checkpoints)
        assert cps == [r.checkpoint_id for r in log if r.flags.checkpoint]


# -- replay ---------------------------------------------------------------------


def test_replay_empty_log_is_identity():
    base = DiskImage.from_bytes(b"\x55" * MiB)
    out = replay(base, IoLog(), seq=0)
    assert out == base


def test_replay_to_checkpoint_deterministic():
    dev = create_device(1 * MiB)
    dev.write(0, b"\x01" * 512)
    dev.flush()
    dev.insert_checkpoint()
    dev.write(8, b"\x02" * 512)
    base = DiskImage.zeroed(1 * MiB)
    a = replay(base, dev.log, checkpoint=1)
    b = replay(base, dev.log, checkpoint=1)
    assert a.sha256() == b.sha256()
    assert a.read(8 * 512, 512) == bytes(512)  # post-checkpoint write excluded


def test_replay_last_writer_wins():
    dev = create_device(1 * MiB)
    dev.write(0, b"\x01" * 512)
    rec2 = dev.write(0, b"\x02" * 512)
    out = replay(DiskImage.zeroed(1 * MiB), dev.log, seq=rec2.seq)
    assert out.read(0, 512) == b"\x02" * 512


def test_replay_unknown_checkpoint():
    from crashlab.blockdev import ReplayError

    with pytest.raises(ReplayError):
        replay(DiskImage.zeroed(1 * MiB), IoLog(), checkpoint=3)


def test_replay_does_not_mutate_base():
    dev = create_device(1 * MiB)
    rec = dev.write(0, b"\x09" * 512)
    base = DiskImage.zeroed(1 * MiB)
    digest = base.sha256()
    replay(base, dev.log, seq=rec.seq)
    assert base.sha256() == digest


# -- snapshots -------------------------------------------------------------------


def test_snapshot_isolated_from_later_writes():
    dev = create_device(1 * MiB)
    dev.write(5, b"\x11" * 512)
    snap = dev.snapshot()
    dev.write(5, b"\x22" * 512)
    assert snap.read(5 * 512, 512) == b"\x11" * 512


def test_two_snapshots_without_writes_identical():
    dev = create_device(1 * MiB)
    dev.write(1, b"\x33" * 512)
    assert dev.snapshot() == dev.snapshot()


def test_cow_isolation_against_eager_copy_oracle():
    """Every snapshot equals what a full eager copy at that instant shows."""
    rng = random.Random(42)
    size = 64 * 1024
    dev = create_device(size)
    shadow = bytearray(size)
    snaps = []
    for _ in range(200):
        if rng.random() < 0.3:
            snaps.append((dev.snapshot(), bytes(shadow)))
        else:
            sec = rng.randrange(size // SECTOR_SIZE)
            payload = bytes([rng.randrange(256)]) * SECTOR_SIZE
            dev.write(sec, payload)
            shadow[sec * SECTOR_SIZE : (sec + 1) * SECTOR_SIZE] = payload
    snaps.append((dev.snapshot(), bytes(shadow)))
    for snap, eager in snaps:
        assert snap.to_bytes() == eager


# -- serialization ----------------------------------------------------------------


def test_iolog_roundtrip_bit_exact(tmp_path):
    dev = create_device(1 * MiB)
    dev.write(3, b"\xaa" * 1024)
    dev.flush()
    dev.insert_checkpoint()
    dev.write(9, b"\xbb" * 512, fua=True)
    dev.insert_checkpoint()
    path = tmp_path / "log.iolog"
    save_iolog(dev.log, path)
    loaded = load_iolog(path)
    assert loaded == dev.log
    save_iolog(loaded, tmp_path / "log2.iolog")
    assert (tmp_path / "log.iolog").read_bytes() == (tmp_path / "log2.iolog").read_bytes()


def test_iolog_record_layout():
    rec = IoRecord(1, 7, 512, b"\xcd" * 512, IoFlags(write=True, fua=True))
    from crashlab.blockdev import _pack_record

    raw = _pack_record(rec)
    assert len(raw) == 25 + 512
    assert raw[0:8] == (1).to_bytes(8, "little")
    assert raw[8:16] == (7).to_bytes(8, "little")
    assert raw[16:20] == (512).to_bytes(4, "little")
    assert raw[20] == 0b101  # write | fua
