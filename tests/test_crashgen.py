"""Crash-state generation: checkpoint mode, subset mode, ordering guarantees."""

import random

import pytest

from crashlab.blockdev import (
    SECTOR_SIZE,
    DiskImage,
    IoRecord,
    replay,
    split_epochs,
)
from crashlab.crashgen import (
    SAMPLE_COUNT,
    CrashGenError,
    SubsetDescriptor,
    build_subset_state,
    enumerate_target_subsets,
    prefix_state,
)
from image_helper import image_bytes

SIZE = 64 * 1024
FLUSH = IoRecord(flush=True)


def _cp(k):
    return IoRecord(checkpoint_id=k)


def _subsets(epochs, prefix, granularity="op", seed=0):
    base = DiskImage.zeroed(SIZE)
    return list(enumerate_target_subsets(prefix_state(base, epochs, prefix, granularity), seed))


def test_one_crash_state_per_checkpoint():
    log = [IoRecord(0, b"\x01" * 512), FLUSH, _cp(1), IoRecord(1, b"\x02" * 512), FLUSH, _cp(2)]
    base = DiskImage.zeroed(SIZE)
    images = [replay(base, log, checkpoint=k) for k in (1, 2)]
    assert image_bytes(images[0])[512:1024] == bytes(512)
    assert image_bytes(images[1])[512:1024] == b"\x02" * 512


def test_states_before_any_checkpoint_belong_to_checkpoint_zero():
    epochs = split_epochs([IoRecord(0, b"\x01" * 512), FLUSH, IoRecord(1, b"\x02" * 512)])
    base = DiskImage.zeroed(SIZE)
    for prefix in range(len(epochs)):
        pre = prefix_state(base, epochs, prefix)
        for kept in enumerate_target_subsets(pre):
            state = build_subset_state(pre, kept)
            assert state.checkpoint_id == 0
            assert state.descriptor().startswith(f"prefix={prefix};")


# -- subset enumeration ------------------------------------------------------------


def test_exhaustive_subset_count_n3():
    epochs = split_epochs([IoRecord(i, bytes([i + 1]) * 512) for i in range(3)])
    subsets = _subsets(epochs, 0)
    assert len(subsets) == 8
    assert len(set(subsets)) == 8
    assert all(list(s) == sorted(s) for s in subsets)


def test_zero_units_yields_exactly_empty_subset():
    epochs = split_epochs([FLUSH])
    assert _subsets(epochs, 0) == [()]


def test_sector_granularity_unit_count():
    """A write splits into length/512 sector units: 8 units are enumerated
    exhaustively, 16 are sampled."""
    epochs = split_epochs([IoRecord(0, b"\x07" * 4096)])
    # independent arithmetic: one unit per 512-byte slice
    assert 4096 // SECTOR_SIZE == 8
    full = _subsets(epochs, 0, "sector")
    assert len(full) == 2**8
    assert max(len(s) for s in full) == 8

    epochs = split_epochs([IoRecord(0, b"\x07" * 8192)])
    sampled = _subsets(epochs, 0, "sector")
    assert len(sampled) == len(set(sampled)) == SAMPLE_COUNT
    assert all(0 <= i < 16 for s in sampled for i in s)
    assert len(_subsets(epochs, 0, "op")) == 2


def test_prefix_count_out_of_range():
    epochs = split_epochs([IoRecord(0, b"\x01" * 512)])
    with pytest.raises(CrashGenError):
        prefix_state(DiskImage.zeroed(SIZE), epochs, 5)


def test_random_mode_reproducible_and_distinct():
    """Eleven units is one past the exhaustive bound: the subsets are sampled."""
    epochs = split_epochs([IoRecord(i, bytes([i + 1]) * 512) for i in range(11)])
    a = _subsets(epochs, 0, "op", seed=11)
    b = _subsets(epochs, 0, "op", seed=11)
    assert a == b
    assert len(a) == SAMPLE_COUNT and len(set(a)) == SAMPLE_COUNT
    assert all(list(s) == sorted(s) for s in a)
    c = _subsets(epochs, 0, "op", seed=12)
    assert a != c


def test_fua_terminator_is_single_unit_in_sector_mode():
    epochs = split_epochs([IoRecord(0, b"\x01" * 1024), IoRecord(4, b"\x02" * 1024, fua=True)])
    full = _subsets(epochs, 0, "sector")
    # 2 sector units from the plain write + 1 atomic FUA unit
    assert len(full) == 2**3


# -- subset state construction ------------------------------------------------------


def _eager_subset_oracle(base: DiskImage, epochs, prefix, kept, granularity="op"):
    """Apply prefix epochs then kept units directly onto a byte array."""
    buf = bytearray(image_bytes(base))

    def put(sector, data):
        buf[sector * SECTOR_SIZE : sector * SECTOR_SIZE + len(data)] = data

    for ep in epochs[:prefix]:
        for rec in ep.all_records():
            if rec.data:
                put(rec.sector, rec.data)
    target = epochs[prefix]
    units = []
    recs = list(target.records)
    if target.terminator is not None and target.terminator.data:
        recs.append(target.terminator)
    for rec in recs:
        if granularity == "op" or (rec.fua and rec is target.terminator):
            units.append((rec.sector, rec.data))
        else:
            for i in range(len(rec.data) // SECTOR_SIZE):
                units.append((rec.sector + i, rec.data[i * 512 : (i + 1) * 512]))
    for idx in kept:
        put(*units[idx])
    return bytes(buf)


def test_full_subset_equals_replay_to_epoch_end():
    log = [
        IoRecord(0, b"\x01" * 512),
        IoRecord(1, b"\x02" * 512),
        FLUSH,
        IoRecord(2, b"\x03" * 512),
        _cp(1),
    ]
    base = DiskImage.zeroed(SIZE)
    epochs = split_epochs(log)
    all_units = tuple(range(len(epochs[1].records)))
    state = build_subset_state(prefix_state(base, epochs, 1), all_units)
    assert image_bytes(state.image) == image_bytes(replay(base, log, checkpoint=1))


def test_empty_subset_equals_replay_to_prefix_end():
    log = [IoRecord(0, b"\x01" * 512), FLUSH, _cp(1), IoRecord(2, b"\x03" * 512)]
    base = DiskImage.zeroed(SIZE)
    epochs = split_epochs(log)
    state = build_subset_state(prefix_state(base, epochs, 1), ())
    assert image_bytes(state.image) == image_bytes(replay(base, log, checkpoint=1))


def test_two_disjoint_writes_all_four_images_match_oracle():
    base = DiskImage.zeroed(SIZE)
    epochs = split_epochs([IoRecord(0, b"\x01" * 512), IoRecord(4, b"\x02" * 512)])
    seen = set()
    pre = prefix_state(base, epochs, 0)
    for kept in enumerate_target_subsets(pre):
        state = build_subset_state(pre, kept)
        assert image_bytes(state.image) == _eager_subset_oracle(base, epochs, 0, kept)
        seen.add(image_bytes(state.image))
    assert len(seen) == 4


def test_order_preservation_on_randomized_overlapping_logs():
    """When overlapping writes A-before-B are both kept, B's bytes win."""
    rng = random.Random(1234)
    size = 16 * 1024
    for trial in range(200):
        log = []
        nwrites = rng.randint(2, 4)
        for i in range(nwrites):
            sec = rng.randrange(0, 8)
            nsec = rng.randint(1, 3)
            log.append(IoRecord(sec, bytes([0x10 + i]) * (nsec * 512)))
        base = DiskImage.zeroed(size)
        epochs = split_epochs(log)
        units = [(r.sector, r.data) for r in epochs[0].records]
        pre = prefix_state(base, epochs, 0)
        for kept in enumerate_target_subsets(pre):
            image = build_subset_state(pre, kept).image
            expect = bytearray(size)
            for idx in kept:  # issue order: later kept writes overwrite earlier
                sec, data = units[idx]
                expect[sec * 512 : sec * 512 + len(data)] = data
            assert image_bytes(image) == bytes(expect)


def test_checkpoint_mode_equivalence_with_subset_mode():
    """A checkpoint state equals prefix=everything-before-it, empty subset."""
    log = [
        IoRecord(0, b"\x01" * 512),
        FLUSH,
        _cp(1),
        IoRecord(1, b"\x02" * 512),
        IoRecord(2, b"\x03" * 512, fua=True),
        _cp(2),
        IoRecord(3, b"\x04" * 512),
    ]
    base = DiskImage.zeroed(SIZE)
    epochs = split_epochs(log)
    # checkpoint 1 sits after epoch 0; checkpoint 2 after epoch 1
    for k, prefix in ((1, 1), (2, 2)):
        sub = build_subset_state(prefix_state(base, epochs, prefix), ())
        assert image_bytes(sub.image) == image_bytes(replay(base, log, checkpoint=k))
        assert sub.checkpoint_id == k


def test_prefix_durability():
    """Every generated state contains all bytes of every flushed epoch before
    the target epoch."""
    rng = random.Random(55)
    size = 16 * 1024
    for _ in range(30):
        log, cp = [], 0
        for i in range(rng.randint(3, 8)):
            if rng.random() < 0.3:
                cp += 1
                log += [FLUSH, _cp(cp)]
            else:
                log.append(IoRecord(rng.randrange(0, 16), bytes([0x40 + i]) * 512))
        log += [FLUSH, _cp(cp + 1)]
        base = DiskImage.zeroed(size)
        epochs = split_epochs(log)
        for prefix in range(len(epochs)):
            # checkpoint k follows the flush that ends epoch k - 1
            want = replay(base, log, checkpoint=prefix) if prefix else base
            target_secs = set()
            for rec in epochs[prefix].all_records():
                if rec.data:
                    target_secs.update(
                        range(rec.sector, rec.sector + len(rec.data) // SECTOR_SIZE)
                    )
            want_bytes = image_bytes(want)
            pre = prefix_state(base, epochs, prefix)
            for kept in enumerate_target_subsets(pre):
                got = image_bytes(build_subset_state(pre, kept).image)
                for sec in range(size // SECTOR_SIZE):
                    if sec in target_secs:
                        continue
                    span = slice(sec * 512, (sec + 1) * 512)
                    assert got[span] == want_bytes[span]


def test_descriptor_roundtrip():
    d = SubsetDescriptor(2, (0, 3, 5), "sector")
    assert d.serialize() == "prefix=2;kept=0,3,5;gran=sector"
    assert SubsetDescriptor.parse(d.serialize()) == d
    empty = SubsetDescriptor(0, ())
    assert SubsetDescriptor.parse(empty.serialize()) == empty


def test_descriptor_rejects_unordered():
    with pytest.raises(CrashGenError):
        SubsetDescriptor(0, (3, 1))
