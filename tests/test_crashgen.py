"""Crash-state generation: checkpoint mode, subset mode, ordering guarantees."""

import random

import pytest

from crashlab.blockdev import (
    SECTOR_SIZE,
    DiskImage,
    create_device,
    replay,
    split_epochs,
)
from crashlab.crashgen import (
    SAMPLE_COUNT,
    CrashGenError,
    SubsetDescriptor,
    build_subset_state,
    enumerate_target_subsets,
)

SIZE = 64 * 1024


def _device():
    return create_device(SIZE)


def test_one_crash_state_per_checkpoint():
    dev = _device()
    dev.write(0, b"\x01" * 512)
    dev.flush()
    dev.insert_checkpoint()
    dev.write(1, b"\x02" * 512)
    dev.flush()
    dev.insert_checkpoint()
    base = DiskImage.zeroed(SIZE)
    images = [replay(base, dev.log, checkpoint=k) for k in (1, 2)]
    assert images[0].read(512, 512) == bytes(512)
    assert images[1].read(512, 512) == b"\x02" * 512


def test_states_before_any_checkpoint_belong_to_checkpoint_zero():
    dev = _device()
    dev.write(0, b"\x01" * 512)
    dev.flush()
    dev.write(1, b"\x02" * 512)
    epochs = split_epochs(dev.log)
    base = DiskImage.zeroed(SIZE)
    for prefix in range(len(epochs)):
        for kept in enumerate_target_subsets(epochs, prefix):
            state = build_subset_state(base, epochs, prefix, kept)
            assert state.checkpoint_id == 0
            assert state.descriptor().startswith(f"prefix={prefix};")


# -- subset enumeration ------------------------------------------------------------


def test_exhaustive_subset_count_n3():
    dev = _device()
    for i in range(3):
        dev.write(i, bytes([i + 1]) * 512)
    epochs = split_epochs(dev.log)
    subsets = list(enumerate_target_subsets(epochs, 0))
    assert len(subsets) == 8
    assert len(set(subsets)) == 8
    assert all(list(s) == sorted(s) for s in subsets)


def test_zero_units_yields_exactly_empty_subset():
    dev = _device()
    dev.flush()
    epochs = split_epochs(dev.log)
    assert list(enumerate_target_subsets(epochs, 0)) == [()]


def test_sector_granularity_unit_count():
    """A write splits into length/512 sector units: 8 units are enumerated
    exhaustively, 16 are sampled."""
    dev = _device()
    dev.write(0, b"\x07" * 4096)
    epochs = split_epochs(dev.log)
    # independent arithmetic: one unit per 512-byte slice
    assert 4096 // SECTOR_SIZE == 8
    full = list(enumerate_target_subsets(epochs, 0, "sector"))
    assert len(full) == 2**8
    assert max(len(s) for s in full) == 8

    dev = _device()
    dev.write(0, b"\x07" * 8192)
    sampled = list(enumerate_target_subsets(split_epochs(dev.log), 0, "sector"))
    assert len(sampled) == len(set(sampled)) == SAMPLE_COUNT
    assert all(0 <= i < 16 for s in sampled for i in s)
    assert len(list(enumerate_target_subsets(split_epochs(dev.log), 0, "op"))) == 2


def test_prefix_count_out_of_range():
    dev = _device()
    dev.write(0, b"\x01" * 512)
    epochs = split_epochs(dev.log)
    with pytest.raises(CrashGenError):
        list(enumerate_target_subsets(epochs, 5))


def test_random_mode_reproducible_and_distinct():
    """Eleven units is one past the exhaustive bound: the subsets are sampled."""
    dev = _device()
    for i in range(11):
        dev.write(i, bytes([i + 1]) * 512)
    epochs = split_epochs(dev.log)
    a = list(enumerate_target_subsets(epochs, 0, "op", seed=11))
    b = list(enumerate_target_subsets(epochs, 0, "op", seed=11))
    assert a == b
    assert len(a) == SAMPLE_COUNT and len(set(a)) == SAMPLE_COUNT
    assert all(list(s) == sorted(s) for s in a)
    c = list(enumerate_target_subsets(epochs, 0, "op", seed=12))
    assert a != c


def test_fua_terminator_is_single_unit_in_sector_mode():
    dev = _device()
    dev.write(0, b"\x01" * 1024)
    dev.write(4, b"\x02" * 1024, fua=True)
    epochs = split_epochs(dev.log)
    full = list(enumerate_target_subsets(epochs, 0, "sector"))
    # 2 sector units from the plain write + 1 atomic FUA unit
    assert len(full) == 2**3


# -- subset state construction ------------------------------------------------------


def _eager_subset_oracle(base: DiskImage, epochs, prefix, kept, granularity="op"):
    """Apply prefix epochs then kept units directly onto a byte array."""
    buf = bytearray(base.to_bytes())

    def put(sector, data):
        buf[sector * SECTOR_SIZE : sector * SECTOR_SIZE + len(data)] = data

    for ep in epochs[:prefix]:
        for rec in ep.all_records():
            if rec.is_data_write:
                put(rec.sector, rec.data)
    target = epochs[prefix]
    units = []
    recs = list(target.records)
    if target.terminator is not None and target.terminator.is_data_write:
        recs.append(target.terminator)
    for rec in recs:
        if granularity == "op" or (rec.flags.fua and rec is target.terminator):
            units.append((rec.sector, rec.data))
        else:
            for i in range(rec.length // SECTOR_SIZE):
                units.append((rec.sector + i, rec.data[i * 512 : (i + 1) * 512]))
    for idx in kept:
        put(*units[idx])
    return bytes(buf)


def test_full_subset_equals_replay_to_epoch_end():
    dev = _device()
    dev.write(0, b"\x01" * 512)
    dev.write(1, b"\x02" * 512)
    dev.flush()
    dev.write(2, b"\x03" * 512)
    base = DiskImage.zeroed(SIZE)
    epochs = split_epochs(dev.log)
    all_units = tuple(range(len(epochs[1].records)))
    state = build_subset_state(base, epochs, 1, all_units)
    last = max(r.seq for r in dev.log)
    assert state.image == replay(base, dev.log, seq=last)


def test_empty_subset_equals_replay_to_prefix_end():
    dev = _device()
    dev.write(0, b"\x01" * 512)
    rec_flush = dev.flush()
    dev.write(2, b"\x03" * 512)
    base = DiskImage.zeroed(SIZE)
    epochs = split_epochs(dev.log)
    state = build_subset_state(base, epochs, 1, ())
    assert state.image == replay(base, dev.log, seq=rec_flush.seq)


def test_two_disjoint_writes_all_four_images_match_oracle():
    dev = _device()
    dev.write(0, b"\x01" * 512)
    dev.write(4, b"\x02" * 512)
    base = DiskImage.zeroed(SIZE)
    epochs = split_epochs(dev.log)
    seen = set()
    for kept in enumerate_target_subsets(epochs, 0):
        state = build_subset_state(base, epochs, 0, kept)
        assert state.image.to_bytes() == _eager_subset_oracle(base, epochs, 0, kept)
        seen.add(state.image.sha256())
    assert len(seen) == 4


def test_order_preservation_on_randomized_overlapping_logs():
    """When overlapping writes A-before-B are both kept, B's bytes win."""
    rng = random.Random(1234)
    size = 16 * 1024
    for trial in range(200):
        dev = create_device(size)
        nwrites = rng.randint(2, 4)
        for i in range(nwrites):
            sec = rng.randrange(0, 8)
            nsec = rng.randint(1, 3)
            dev.write(sec, bytes([0x10 + i]) * (nsec * 512))
        base = DiskImage.zeroed(size)
        epochs = split_epochs(dev.log)
        units = [(r.sector, r.data) for r in epochs[0].records]
        for kept in enumerate_target_subsets(epochs, 0):
            image = build_subset_state(base, epochs, 0, kept).image
            expect = bytearray(size)
            for idx in kept:  # issue order: later kept writes overwrite earlier
                sec, data = units[idx]
                expect[sec * 512 : sec * 512 + len(data)] = data
            assert image.to_bytes() == bytes(expect)


def test_checkpoint_mode_equivalence_with_subset_mode():
    """A checkpoint state equals prefix=everything-before-it, empty subset."""
    dev = _device()
    dev.write(0, b"\x01" * 512)
    dev.flush()
    dev.insert_checkpoint()
    dev.write(1, b"\x02" * 512)
    dev.write(2, b"\x03" * 512, fua=True)
    dev.insert_checkpoint()
    dev.write(3, b"\x04" * 512)
    base = DiskImage.zeroed(SIZE)
    epochs = split_epochs(dev.log)
    # checkpoint 1 sits after epoch 0; checkpoint 2 after epoch 1
    for k, prefix in ((1, 1), (2, 2)):
        sub = build_subset_state(base, epochs, prefix, ())
        assert sub.image == replay(base, dev.log, checkpoint=k)
        assert sub.checkpoint_id == k


def test_prefix_durability():
    """Every generated state contains all bytes of every flushed epoch before
    the target epoch."""
    rng = random.Random(55)
    size = 16 * 1024
    for _ in range(30):
        dev = create_device(size)
        for i in range(rng.randint(3, 8)):
            if rng.random() < 0.3:
                dev.flush()
            else:
                dev.write(rng.randrange(0, 16), bytes([0x40 + i]) * 512)
        dev.flush()
        base = DiskImage.zeroed(size)
        epochs = split_epochs(dev.log)
        for prefix in range(len(epochs)):
            prefix_end = None
            for ep in reversed(epochs[:prefix]):
                recs = ep.all_records()
                if recs:
                    prefix_end = recs[-1].seq
                    break
            want = (
                replay(base, dev.log, seq=prefix_end)
                if prefix_end is not None
                else base
            )
            target_secs = set()
            for rec in epochs[prefix].all_records():
                if rec.is_data_write:
                    target_secs.update(
                        range(rec.sector, rec.sector + rec.length // SECTOR_SIZE)
                    )
            for kept in enumerate_target_subsets(epochs, prefix):
                got = build_subset_state(base, epochs, prefix, kept).image
                for sec in range(size // SECTOR_SIZE):
                    if sec in target_secs:
                        continue
                    assert got.read(sec * 512, 512) == want.read(sec * 512, 512)


def test_descriptor_roundtrip():
    d = SubsetDescriptor(2, (0, 3, 5), "sector")
    assert d.serialize() == "prefix=2;kept=0,3,5;gran=sector"
    assert SubsetDescriptor.parse(d.serialize()) == d
    empty = SubsetDescriptor(0, ())
    assert SubsetDescriptor.parse(empty.serialize()) == empty


def test_descriptor_rejects_unordered():
    with pytest.raises(CrashGenError):
        SubsetDescriptor(0, (3, 1))
