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
    CrashState,
    build_subset_state,
    enumerate_target_subsets,
    parse_descriptor,
    prefix_state,
)
from image_helper import image_bytes

SIZE = 64 * 1024
FLUSH = IoRecord(flush=True)
CP = "checkpoint"  # marks a checkpoint's position in a list of records


def _cut(items):
    """The log of the records among ``items`` and the positions of its CP
    markers, as a device records them."""
    log, checkpoints = [], []
    for item in items:
        if item is CP:
            checkpoints.append(len(log))
        else:
            log.append(item)
    return log, checkpoints


def _images(base, log, checkpoints):
    """The image at each checkpoint, as a device keeps it: ``base`` with
    every write logged before the checkpoint."""
    return [base.with_writes((r.sector, r.data) for r in log[:c] if r.data) for c in checkpoints]


def _replay(base, log, checkpoints, end):
    return replay(base, log, checkpoints, _images(base, log, checkpoints), end)


def _prefix(base, log, checkpoints, prefix, granularity="op"):
    images = _images(base, log, checkpoints)
    return prefix_state(base, log, checkpoints, images, split_epochs(log), prefix, granularity)


def _subsets(log, prefix, granularity="op", seed=0):
    base = DiskImage.zeroed(SIZE)
    return list(enumerate_target_subsets(_prefix(base, log, [], prefix, granularity), seed))


def test_one_crash_state_per_checkpoint():
    log, cps = _cut([IoRecord(0, b"\x01" * 512), FLUSH, CP, IoRecord(1, b"\x02" * 512), FLUSH, CP])
    base = DiskImage.zeroed(SIZE)
    images = [_replay(base, log, cps, cps[k - 1]) for k in (1, 2)]
    assert image_bytes(images[0])[512:1024] == bytes(512)
    assert image_bytes(images[1])[512:1024] == b"\x02" * 512


def test_states_before_any_checkpoint_belong_to_checkpoint_zero():
    log, cps = _cut([IoRecord(0, b"\x01" * 512), FLUSH, IoRecord(1, b"\x02" * 512), FLUSH, CP])
    base = DiskImage.zeroed(SIZE)
    for prefix in range(len(split_epochs(log))):
        pre = _prefix(base, log, cps, prefix)
        for kept in enumerate_target_subsets(pre):
            state = build_subset_state(pre, kept)
            assert state.checkpoint_id == 0
            assert state.descriptor().startswith(f"prefix={prefix};")


def test_checkpoint_after_terminator_counts_for_its_prefix():
    """A checkpoint right after a FLUSH or FUA counts for the prefix that
    ends there; one inside the target epoch does not."""
    log, cps = _cut(
        [IoRecord(0, b"\x01" * 512), FLUSH, CP, IoRecord(1, b"\x02" * 512), CP,
         IoRecord(2, b"\x03" * 512, fua=True), CP, IoRecord(3, b"\x04" * 512)]
    )
    assert cps == [2, 3, 4]
    assert split_epochs(log) == [range(0, 2), range(2, 4), range(4, 5)]
    base = DiskImage.zeroed(SIZE)
    assert [_prefix(base, log, cps, p).checkpoint_id for p in range(3)] == [0, 1, 3]


# -- subset enumeration ------------------------------------------------------------


def test_exhaustive_subset_count_n3():
    subsets = _subsets([IoRecord(i, bytes([i + 1]) * 512) for i in range(3)], 0)
    assert len(subsets) == 8
    assert len(set(subsets)) == 8
    assert all(list(s) == sorted(s) for s in subsets)


def test_zero_units_yields_exactly_empty_subset():
    assert _subsets([FLUSH], 0) == [()]


def test_sector_granularity_unit_count():
    """A write splits into length/512 sector units: 8 units are enumerated
    exhaustively, 16 are sampled."""
    log = [IoRecord(0, b"\x07" * 4096)]
    # independent arithmetic: one unit per 512-byte slice
    assert 4096 // SECTOR_SIZE == 8
    full = _subsets(log, 0, "sector")
    assert len(full) == 2**8
    assert max(len(s) for s in full) == 8

    log = [IoRecord(0, b"\x07" * 8192)]
    sampled = _subsets(log, 0, "sector")
    assert len(sampled) == len(set(sampled)) == SAMPLE_COUNT
    assert all(0 <= i < 16 for s in sampled for i in s)
    assert len(_subsets(log, 0, "op")) == 2


def test_prefix_count_out_of_range():
    log = [IoRecord(0, b"\x01" * 512)]
    with pytest.raises(ValueError, match="log has 1 epochs"):
        _prefix(DiskImage.zeroed(SIZE), log, [], 5)


def test_random_mode_reproducible_and_distinct():
    """Eleven units is one past the exhaustive bound: the subsets are sampled."""
    log = [IoRecord(i, bytes([i + 1]) * 512) for i in range(11)]
    a = _subsets(log, 0, "op", seed=11)
    b = _subsets(log, 0, "op", seed=11)
    assert a == b
    assert len(a) == SAMPLE_COUNT and len(set(a)) == SAMPLE_COUNT
    assert all(list(s) == sorted(s) for s in a)
    c = _subsets(log, 0, "op", seed=12)
    assert a != c


def test_fua_terminator_is_single_unit_in_sector_mode():
    log = [IoRecord(0, b"\x01" * 1024), IoRecord(4, b"\x02" * 1024, fua=True)]
    full = _subsets(log, 0, "sector")
    # 2 sector units from the plain write + 1 atomic FUA unit
    assert len(full) == 2**3


# -- subset state construction ------------------------------------------------------


def _eager_subset_oracle(base: DiskImage, log, prefix, kept, granularity="op"):
    """Apply prefix epochs then kept units directly onto a byte array."""
    buf = bytearray(image_bytes(base))

    def put(sector, data):
        buf[sector * SECTOR_SIZE : sector * SECTOR_SIZE + len(data)] = data

    epochs = split_epochs(log)
    for ep in epochs[:prefix]:
        for i in ep:
            if log[i].data:
                put(log[i].sector, log[i].data)
    units = []
    for i in epochs[prefix]:
        rec = log[i]
        if not rec.data:
            continue
        if granularity == "op" or rec.fua:
            units.append((rec.sector, rec.data))
        else:
            for j in range(len(rec.data) // SECTOR_SIZE):
                units.append((rec.sector + j, rec.data[j * 512 : (j + 1) * 512]))
    for idx in kept:
        put(*units[idx])
    return bytes(buf)


def test_full_subset_equals_replay_to_epoch_end():
    log, cps = _cut([
        IoRecord(0, b"\x01" * 512),
        IoRecord(1, b"\x02" * 512),
        FLUSH,
        IoRecord(2, b"\x03" * 512),
        CP,
    ])
    base = DiskImage.zeroed(SIZE)
    pre = _prefix(base, log, cps, 1)
    state = build_subset_state(pre, tuple(range(len(pre.units))))
    assert len(pre.units) == 1
    assert image_bytes(state.image) == image_bytes(_replay(base, log, cps, cps[0]))


def test_empty_subset_equals_replay_to_prefix_end():
    log, cps = _cut([IoRecord(0, b"\x01" * 512), FLUSH, CP, IoRecord(2, b"\x03" * 512)])
    base = DiskImage.zeroed(SIZE)
    state = build_subset_state(_prefix(base, log, cps, 1), ())
    assert image_bytes(state.image) == image_bytes(_replay(base, log, cps, cps[0]))


def test_two_disjoint_writes_all_four_images_match_oracle():
    base = DiskImage.zeroed(SIZE)
    log = [IoRecord(0, b"\x01" * 512), IoRecord(4, b"\x02" * 512)]
    seen = set()
    pre = _prefix(base, log, [], 0)
    for kept in enumerate_target_subsets(pre):
        state = build_subset_state(pre, kept)
        assert image_bytes(state.image) == _eager_subset_oracle(base, log, 0, kept)
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
        units = [(r.sector, r.data) for r in log]
        pre = _prefix(base, log, [], 0)
        for kept in enumerate_target_subsets(pre):
            image = build_subset_state(pre, kept).image
            expect = bytearray(size)
            for idx in kept:  # issue order: later kept writes overwrite earlier
                sec, data = units[idx]
                expect[sec * 512 : sec * 512 + len(data)] = data
            assert image_bytes(image) == bytes(expect)


def test_checkpoint_mode_equivalence_with_subset_mode():
    """A checkpoint state equals prefix=everything-before-it, empty subset."""
    log, cps = _cut([
        IoRecord(0, b"\x01" * 512),
        FLUSH,
        CP,
        IoRecord(1, b"\x02" * 512),
        IoRecord(2, b"\x03" * 512, fua=True),
        CP,
        IoRecord(3, b"\x04" * 512),
    ])
    base = DiskImage.zeroed(SIZE)
    # checkpoint 1 sits after epoch 0; checkpoint 2 after epoch 1
    for k, prefix in ((1, 1), (2, 2)):
        sub = build_subset_state(_prefix(base, log, cps, prefix), ())
        assert image_bytes(sub.image) == image_bytes(_replay(base, log, cps, cps[k - 1]))
        assert sub.checkpoint_id == k


def test_prefix_durability():
    """Every generated state contains all bytes of every flushed epoch before
    the target epoch."""
    rng = random.Random(55)
    size = 16 * 1024
    for _ in range(30):
        items = []
        for i in range(rng.randint(3, 8)):
            if rng.random() < 0.3:
                items += [FLUSH, CP]
            else:
                items.append(IoRecord(rng.randrange(0, 16), bytes([0x40 + i]) * 512))
        log, cps = _cut(items + [FLUSH, CP])
        base = DiskImage.zeroed(size)
        epochs = split_epochs(log)
        for prefix in range(len(epochs)):
            # checkpoint k follows the flush that ends epoch k - 1
            want = _replay(base, log, cps, cps[prefix - 1]) if prefix else base
            target_secs = set()
            for rec in log[epochs[prefix].start : epochs[prefix].stop]:
                if rec.data:
                    target_secs.update(
                        range(rec.sector, rec.sector + len(rec.data) // SECTOR_SIZE)
                    )
            want_bytes = image_bytes(want)
            pre = _prefix(base, log, cps, prefix)
            for kept in enumerate_target_subsets(pre):
                got = image_bytes(build_subset_state(pre, kept).image)
                for sec in range(size // SECTOR_SIZE):
                    if sec in target_secs:
                        continue
                    span = slice(sec * 512, (sec + 1) * 512)
                    assert got[span] == want_bytes[span]


def test_descriptor_roundtrip():
    """``parse_descriptor`` reads both kinds a crash state writes."""
    image = DiskImage.zeroed(SIZE)
    assert CrashState(image, checkpoint_id=3).descriptor() == "checkpoint=3"
    assert parse_descriptor("checkpoint=3") == 3
    subset = CrashState(image, checkpoint_id=1, subset=(2, (0, 3, 5), "sector"))
    assert subset.descriptor() == "prefix=2;kept=0,3,5;gran=sector"
    assert parse_descriptor(subset.descriptor()) == subset.subset
    empty = CrashState(image, subset=(0, (), "op"))
    assert empty.descriptor() == "prefix=0;kept=;gran=op"
    assert parse_descriptor(empty.descriptor()) == empty.subset


def test_descriptor_rejects_unordered():
    """A descriptor comes from a report file, so it is checked as read."""
    for text, message in (
        ("prefix=0;kept=3,1;gran=op", "strictly increasing"),
        ("prefix=0;kept=1,1;gran=op", "strictly increasing"),
        ("prefix=0;kept=1;gran=bytes", "unknown granularity"),
        ("prefix=0;kept=1", "expected prefix=P;kept="),
        ("prefix=x;kept=1;gran=op", "expected prefix=P;kept="),
    ):
        with pytest.raises(ValueError, match=message):
            parse_descriptor(text)
