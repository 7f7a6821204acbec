"""Profiling, oracle capture, the auto-checker, and the workload pipeline."""

import dataclasses
import hashlib
import itertools
import random
import time


from crashlab import ace, harness
from crashlab.ace import Bounds, parse
from crashlab.blockdev import BLOCK_SIZE, Device, replay, split_epochs
from crashlab.crashgen import (
    CrashState,
    build_subset_state,
    enumerate_target_subsets,
    prefix_state,
)
from crashlab.fsops import FsOp, FsOpKind, PersistKind
from crashlab.fstarget import MountMemo, SoundFs, TARGETS, Unmountable, get_target
from crashlab.harness import (
    ENTRY,
    FULL,
    DEFAULT_DEVICE_BYTES,
    HarnessError,
    PrefixFork,
    RunFlags,
    check,
    mkfs_base_image,
    profile,
    run_workload,
    state_for,
)
from image_helper import image_bytes


def test_two_persistence_points_two_checkpoints_two_oracles():
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    prof = profile(w, "soundfs")
    assert prof.checkpoint_count == 2
    assert sorted(prof.oracle_views) == [1, 2]
    assert sorted(prof.persisted) == [1, 2]
    assert [r.checkpoint_id for r in prof.io_log if r.checkpoint_id] == [1, 2]


def test_persisted_set_includes_parent_dirent():
    w = parse("creat foo\nfsync foo\n")
    prof = profile(w, "soundfs")
    assert prof.persisted[1]["foo"] == FULL
    assert prof.persisted[1]["/"] == ENTRY


def test_persisted_set_levels_per_kind():
    w = parse("mkdir A\ncreat A/foo\nlink A/foo A/bar\nfsync A/foo\nfdatasync A/bar\nsync\n")
    prof = profile(w, "soundfs")
    cp1 = prof.persisted[1]
    assert cp1["A/foo"] == FULL
    assert cp1["A/bar"] == FULL  # all hard links of the fsynced inode
    assert cp1["A"] == ENTRY
    cp3 = prof.persisted[3]
    assert cp3["A"] == FULL  # sync upgrades everything
    assert cp3["/"] == FULL


def test_persisted_set_monotone_for_sync():
    w = parse("creat foo\nsync\ncreat bar\nsync\n")
    prof = profile(w, "soundfs")
    assert set(prof.persisted[1]) <= set(prof.persisted[2])


def test_profiling_deterministic_io_log():
    w = parse("mkdir A\nwrite (0-8K) A/foo\nfsync A/foo\nrename A/foo A/bar\nsync\n")
    a = profile(w, "soundfs").io_log
    b = profile(w, "soundfs").io_log
    assert a == b


def test_profile_determinism_across_seq1_sample():
    for w in itertools.islice(ace.generate_workloads(Bounds(seq_length=1)), 40):
        assert profile(w, "soundfs").io_log == profile(w, "soundfs").io_log


def test_oracle_checkpoint_alignment():
    """Oracle k reflects everything up to the k-th persistence call, nothing after."""
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    prof = profile(w, "soundfs")
    v1 = prof.oracle_views[1].entries
    v2 = prof.oracle_views[2].entries
    assert "foo" in v1 and "bar" not in v1
    assert "foo" in v2 and "bar" in v2


def _live_run(w, fs_name):
    """Apply ``w`` on a plain mount of the mkfs image, with no oracle
    capture; yield the file system and the checkpoint id after each
    persistence call."""
    device = Device(DEFAULT_DEVICE_BYTES, mkfs_base_image(fs_name))
    fs = get_target(fs_name).mount_device(device)
    idx = 0
    for op in w.prologue:
        fs.apply(op, idx)
        idx += 1
    for step in w.steps:
        if isinstance(step, FsOp):
            fs.apply(step, idx)
            idx += 1
        else:
            fs.persist(step.kind, step.target)
            yield fs, device.insert_checkpoint()


def _b5_write_rename_slice():
    """bugfs-b5's write/rename seq-2 workloads 1000:1248, which hold all of
    its bug reports on that tier."""
    bounds = Bounds(
        seq_length=2,
        allowed_ops=(FsOpKind.WRITE, FsOpKind.RENAME),
        files=("foo", "bar"),
        dirs=(),
    )
    return ace.workload_range(bounds, 1000, 1248)


def _clean_restart_view(w, fs_name, k):
    """Rerun ``w`` on a fresh device up to its k-th persistence call, unmount
    cleanly, and mount the image that leaves (an ``Unmountable`` or a view)."""
    fs = next(fs for fs, cp in _live_run(w, fs_name) if cp == k)
    remounted = get_target(fs_name).mount(fs.unmount_clean())
    return remounted if isinstance(remounted, Unmountable) else remounted.state_view()


def test_oracle_views_match_mounting_the_oracle_image():
    w = parse("mkdir A\nwrite (0-8K) A/foo\nfsync A/foo\nmwrite (0-4K) A/foo\nsync\n")
    prof = profile(w, "soundfs")
    assert sorted(prof.oracle_views) == [1, 2]
    for k, view in prof.oracle_views.items():
        assert _clean_restart_view(w, "soundfs", k).entries == view.entries, k


def _b3_lost_path(w, prof, k):
    """The path whose blocks bugfs-b3 loses for good at checkpoint k, if any.

    bugfs-b3 journals an fdatasync target without its blocks past EOF, and
    the commit leaves the inode clean, so no later commit (not even a clean
    unmount) writes them back. A directory's in-memory size is 0 between
    commits, so it loses every block."""
    pp = [s for s in w.steps if not isinstance(s, FsOp)][k - 1]
    if prof.fs_name != "bugfs-b3" or pp.kind is not PersistKind.FDATASYNC:
        return None
    entry = prof.oracle_views[k].get(pp.target)
    sectors_within_eof = 8 * -(-entry.size // 4096)
    if entry.kind == "dir" or entry.block_count > sectors_within_eof:
        return pp.target
    return None


def test_oracle_fork_strategy_equals_restart_strategy():
    """The oracle ``profile`` takes at a checkpoint (the live view, or an
    unmounted replica's where the commit deferred data) equals restarting
    the workload, cleanly unmounting at the same persistence point and
    remounting: on every target over every 13th seq-1 workload, and on
    bugfs-b5's write/rename seq-2 slice. bugfs-b3 is the one exception: its
    seeded loss of blocks past EOF survives the clean unmount, so the
    remount differs in that one entry, or does not mount when a non-empty
    directory lost its entry block."""
    seq1 = ace.workload_range(Bounds(seq_length=1), 0, None)[::13]
    cases = [(name, w) for name in sorted(TARGETS) for w in seq1]
    cases += [("bugfs-b5", w) for w in _b5_write_rename_slice()]
    lost = unmountable = 0
    for name, w in cases:
        prof = profile(w, name)
        assert prof.checkpoint_count == len(prof.oracle_views) > 0
        for k, view in prof.oracle_views.items():
            restart = _clean_restart_view(w, name, k)
            path = _b3_lost_path(w, prof, k)
            if path is None:
                assert restart.entries == view.entries, (name, k, ace.serialize(w))
                continue
            lost += 1
            if isinstance(restart, Unmountable):
                unmountable += 1
                continue
            assert restart.entries[path] != view.entries[path]
            del restart.entries[path]
            assert restart.entries == {p: e for p, e in view.entries.items() if p != path}
    assert (lost, unmountable) == (18, 13)


def test_oracle_is_a_clean_unmount_not_the_live_view():
    """bugfs-b5 defers the data of a renamed file past the fsync commit, so
    the live file system has not yet allocated its blocks; a clean unmount
    writes them. Comparing crash states against the live view would expect
    an unallocated file."""
    w = parse("creat bar\nwrite (0-4K) bar\nrename bar foo\nfsync foo\n")
    fs = get_target("bugfs-b5").mount_device(
        Device(DEFAULT_DEVICE_BYTES, mkfs_base_image("bugfs-b5"))
    )
    for idx, op in enumerate(w.steps[:3]):
        fs.apply(op, idx)
    fs.persist(PersistKind.FSYNC, "foo")
    assert fs.state_view().entries["foo"].block_count == 0
    assert profile(w, "bugfs-b5").oracle_views[1].entries["foo"].block_count == 8


# Each variant's trigger, then a sync: whatever oracle capture at the
# trigger's checkpoint changes in the live file system shows in the sync's
# commit.
_TRIGGERS_THEN_SYNC = {
    "bugfs-b1": "creat foo\nlink foo bar\nfsync foo\nsync\n",
    "bugfs-b2": "creat foo\nrename foo bar\nfsync bar\nsync\n",
    "bugfs-b3": "write (0-8K) foo\nfsync foo\nfalloc -k (8-16K) foo\nfdatasync foo\nsync\n",
    "bugfs-b4": "creat foo\ndwrite (0-8K) foo\nfsync foo\nsync\n",
    "bugfs-b5": "creat bar\nwrite (0-4K) bar\nrename bar foo\nfsync foo\nsync\n",
    "bugfs-b6": "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\nsync\n",
}


def test_oracle_capture_leaves_the_live_run_alone():
    """``profile`` views the live file system at every checkpoint, and
    replicates it and unmounts the replica where the commit deferred data;
    its IO log must equal that of a run without oracle capture, which it
    does not if the view or the replica changes the original (dirty sets,
    inodes, a variant's bookkeeping)."""
    seq1 = ace.workload_range(Bounds(seq_length=1), 0, None)[::13]
    cases = [(name, w) for name in sorted(TARGETS) for w in seq1]
    cases += [(name, parse(text)) for name, text in _TRIGGERS_THEN_SYNC.items()]
    for name, w in cases:
        for fs, _ in _live_run(w, name):
            pass
        assert profile(w, name).io_log == fs.device.log, (name, ace.serialize(w))


def test_clean_view_equals_the_unmounted_replica_view():
    """``clean_view`` takes the live view when no data is pending and a
    replica's otherwise; both must equal the view of a replica after a clean
    unmount. The pending path is taken only on bugfs-b5."""
    seq1 = ace.workload_range(Bounds(seq_length=1), 0, None)[::13]
    cases = [(name, w) for name in sorted(TARGETS) for w in seq1]
    cases += [(name, parse(text)) for name, text in _TRIGGERS_THEN_SYNC.items()]
    cases += [("bugfs-b5", w) for w in _b5_write_rename_slice()]
    pending = set()
    for name, w in cases:
        for fs, cp in _live_run(w, name):
            if fs._pending_data:
                pending.add(name)
            replica = fs.replicate()
            replica.unmount_clean()
            assert fs.clean_view().entries == replica.state_view().entries, (
                name, cp, ace.serialize(w)
            )
    assert pending == {"bugfs-b5"}


def test_profile_replicates_only_where_a_commit_deferred_data(monkeypatch):
    """Counts the checkpoints at which ``profile`` copies the file system:
    none on SoundFS, and on bugfs-b5 only the fsync that deferred the
    renamed file's data, not the sync after it."""
    at = []
    replicate = SoundFs.replicate

    def counting(fs):
        at.append(fs.device.checkpoint_count)
        return replicate(fs)

    monkeypatch.setattr(SoundFs, "replicate", counting)
    for w in ace.workload_range(Bounds(seq_length=1), 0, None)[::13]:
        profile(w, "soundfs")
    assert at == []
    prof = profile(parse(_TRIGGERS_THEN_SYNC["bugfs-b5"]), "bugfs-b5")
    assert prof.checkpoint_count == 2
    assert at == [1]
    assert prof.oracle_views[1].entries["foo"].block_count == 8


def _profile_record(w, fs_name, *fork_args):
    """What a profile gives, or its harness error."""
    try:
        return profile(w, fs_name, *fork_args)
    except HarnessError as e:
        return str(e)


def _plain(prof):
    if isinstance(prof, str):
        return prof
    views = {k: v.entries for k, v in prof.oracle_views.items()}
    return prof.io_log, prof.checkpoint_count, views, prof.persisted, prof.base_view.entries


def _sibling_chain(text):
    """A trigger workload's step prefixes, shortest first, then the workload
    twice: each one starts with all of the one before it."""
    w = parse(text)
    return [dataclasses.replace(w, steps=w.steps[:k]) for k in range(1, len(w.steps))] + [w, w]


def test_a_resumed_profile_equals_a_fresh_one():
    """Profiles run in order through one ``PrefixFork`` slot, as in a
    campaign partition, resume where the previous workload parted from
    theirs, and give what a fresh profile gives, also once the later ones
    have run."""
    seq1 = ace.workload_range(Bounds(seq_length=1), 0, None)
    cases = [(name, seq1) for name in sorted(TARGETS)]
    cases.append(("soundfs", ace.workload_range(Bounds(seq_length=2), 0, 600)))
    cases.append(("bugfs-b5", _b5_write_rename_slice()))
    cases += [(name, _sibling_chain(text)) for name, text in _TRIGGERS_THEN_SYNC.items()]
    for name, workloads in cases:
        fork = PrefixFork()
        resumed = 0
        profiles = []
        for w, following in zip(workloads, [*workloads[1:], None]):
            resumed += fork.run is not None
            profiles.append(_profile_record(w, name, fork, following))
        assert resumed >= len(workloads) // 2, name
        for w, prof in zip(workloads, profiles):
            assert _plain(prof) == _plain(_profile_record(w, name)), (name, ace.serialize(w))


def test_a_fork_is_taken_only_by_a_workload_with_its_prefix():
    """A fork left for one workload is dropped when another comes next: one
    with other steps, another prologue or another target starts fresh."""
    a = parse("creat foo\nfsync foo\nlink foo bar\nfsync foo\n")  # bugfs-b1 drops the link
    others = [
        ("soundfs", parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")),
        ("soundfs", dataclasses.replace(a, prologue=parse("mkdir A\nsync\n").steps[:1])),
        ("bugfs-b1", a),
    ]
    for name, w in others:
        fork = PrefixFork()
        profile(a, "soundfs", fork, a)
        assert fork.run is not None and fork.run.done == len(a.steps)
        assert _plain(profile(w, name, fork)) == _plain(profile(w, name)), name
        assert fork.run is None


def test_live_view_has_the_oracle_paths_and_kinds():
    """The persisted sets are computed from the oracle view; they may be,
    because it lists the same paths with the same kinds as the live file
    system. Only ``block_count`` differs, on bugfs-b5 (see above)."""
    seq1 = ace.workload_range(Bounds(seq_length=1), 0, None)[::13]
    cases = [(name, w) for name in sorted(TARGETS) for w in seq1]
    cases += [("bugfs-b5", w) for w in _b5_write_rename_slice()]
    block_counts_differ = 0
    for name, w in cases:
        live = {cp: fs.state_view() for fs, cp in _live_run(w, name)}
        oracle = profile(w, name).oracle_views
        assert sorted(live) == sorted(oracle)
        for k, view in live.items():
            assert _without_block_counts(view) == _without_block_counts(oracle[k]), (name, k)
            block_counts_differ += view.entries != oracle[k].entries
    assert block_counts_differ == 16


def _without_block_counts(view):
    return {p: dataclasses.replace(e, block_count=0) for p, e in view.entries.items()}


def test_mkfs_base_image_keeps_only_nonzero_blocks():
    zero_block = bytes(BLOCK_SIZE)
    for name in sorted(TARGETS):
        dev = Device(DEFAULT_DEVICE_BYTES)
        get_target(name).mkfs(dev)
        image = mkfs_base_image(name)
        raw = image_bytes(dev.snapshot())
        assert image_bytes(image) == raw, name
        assert image._base == bytes(DEFAULT_DEVICE_BYTES), name
        nonzero = {
            b
            for b in range(DEFAULT_DEVICE_BYTES // BLOCK_SIZE)
            if raw[b * BLOCK_SIZE : (b + 1) * BLOCK_SIZE] != zero_block
        }
        assert set(image._overlay) == nonzero, name


# -- checker -------------------------------------------------------------------


def _crash_image(prof, k):
    return replay(prof.base_image, prof.io_log, checkpoint=k)


def _check_at(prof, k):
    return check(prof, state_for(prof, f"checkpoint={k}"))


def test_check_pass_on_soundfs():
    w = parse("creat foo\nlink foo bar\nsync\n")
    prof = profile(w, "soundfs")
    v = _check_at(prof, 1)
    assert v.outcome == "pass"


def test_check_detects_missing_persisted_file():
    w = parse("mkdir A\nmkdir B\ncreat A/foo\nlink A/foo B/foo\nfsync B/foo\n")
    prof = profile(w, "bugfs-b1")
    v = _check_at(prof, 1)
    assert v.is_bug and v.crash_descriptor == "checkpoint=1"
    assert v.consequence == "file_missing"
    assert any(d.category == "missing" and d.path == "B/foo" for d in v.diff)


def test_check_unmountable_dominates_and_attaches_fsck():
    w = parse("creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n")
    prof = profile(w, "bugfs-b6")
    v = _check_at(prof, 2)
    assert v.is_bug and v.consequence == "unmountable"
    assert v.crash_descriptor == "checkpoint=2"
    assert v.fsck is not None and v.fsck["mountable"] is False


def test_probe_outcomes_are_kept_per_image_and_directories():
    """A memo probes each image's directories once. With every inode in use
    the probes fail; an image with one free inode is probed anew."""
    # ino 0 is reserved and ino 1 is the root
    creats = "".join(f"creat f{i}\n" for i in range(62))
    prof = profile(parse(creats + "sync\nunlink f0\nsync\n"), "soundfs")
    assert all(level == FULL for k in (1, 2) for level in prof.persisted[k].values())
    states = [state_for(prof, f"checkpoint={k}") for k in (1, 2)]
    memo = MountMemo()
    verdicts = [check(prof, state, memo) for state in [*states, *states]]
    assert verdicts == [check(prof, state) for state in [*states, *states]]
    assert [v.consequence for v in verdicts] == ["unwritable_dir", "", "unwritable_dir", ""]
    assert [len(record.probes) for record in memo.records.values()] == [1, 1]


def test_mutating_non_persisted_file_never_flips_pass_to_bug():
    """Persisted-set restriction: noise injected into non-persisted entities
    is invisible to the checker."""
    w = parse("write (0-4K) bar\nwrite (0-4K) foo\nfsync foo\n")
    prof = profile(w, "soundfs")
    image = _crash_image(prof, 1)
    assert _check_at(prof, 1).outcome == "pass"
    assert "bar" not in prof.persisted[1]

    # locate bar's data block in the recovered image and corrupt it
    fs = SoundFs.mount(image)
    bar_ino = fs.resolve_ino("bar")
    block = fs.inodes[bar_ino].blocks[0]
    dev = Device(image.size_bytes, image)
    dev.write_block(block, b"\x66" * 4096)
    v = check(prof, CrashState(dev.snapshot(), checkpoint_id=1))
    assert v.outcome == "pass"


def test_mutation_fuzz_over_random_non_persisted_targets():
    rng = random.Random(99)
    w = parse(
        "mkdir A\nwrite (0-8K) A/x\nwrite (0-8K) A/y\nwrite (0-8K) z\nfsync A/x\n"
    )
    prof = profile(w, "soundfs")
    image = _crash_image(prof, 1)
    fs = SoundFs.mount(image)
    unpersisted = [p for p in ("A/y", "z") if p not in prof.persisted[1]]
    assert unpersisted
    for _ in range(10):
        path = rng.choice(unpersisted)
        node = fs.inodes[fs.resolve_ino(path)]
        block = rng.choice([b for b in node.blocks if b])
        dev = Device(image.size_bytes, image)
        dev.write_block(block, bytes([rng.randrange(256)]) * 4096)
        v = check(prof, CrashState(dev.snapshot(), checkpoint_id=1))
        assert v.outcome == "pass", (path, v.diff)


def test_checker_soundness_on_clean_shutdown_all_targets():
    """A cleanly unmounted image checks clean against its own oracle for every
    target, buggy ones included; the closing sync persists every entity."""
    text = (
        "mkdir A\nwrite (0-8K) A/foo\nlink A/foo A/bar\nfsync A/foo\n"
        "rename A/bar A/baz\nfsync A/baz\nsync\n"
    )
    w = parse(text)
    for name in sorted(TARGETS):
        prof = profile(w, name)
        k = prof.checkpoint_count
        assert all(prof.persisted[k][path] == FULL for path in prof.oracle_views[k].entries)
        v = check(prof, CrashState(prof.fs.unmount_clean(), checkpoint_id=k))
        assert v.outcome == "pass", (name, v.diff)


def test_spurious_entry_detected():
    w = parse("creat foo\nrename foo bar\nfsync bar\n")
    prof = profile(w, "bugfs-b2")
    v = _check_at(prof, 1)
    assert v.is_bug and v.consequence == "spurious_entry"
    assert any(d.category == "spurious" and d.path == "foo" for d in v.diff)


# -- run_workload ----------------------------------------------------------------


def _checked(monkeypatch, *args):
    """``run_workload(*args)``'s verdicts and the descriptors of the crash
    states it checked, in order."""
    checked = []
    real = harness.check

    def recording(prof, state, memo=None):
        checked.append(state.descriptor())
        return real(prof, state, memo)

    monkeypatch.setattr(harness, "check", recording)
    return run_workload(*args), checked


def test_default_mode_tests_only_final_checkpoint(monkeypatch):
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    vs, checked = _checked(monkeypatch, w, "soundfs")
    assert len(vs) == 1
    assert checked == ["checkpoint=2"]


def test_all_checkpoints_mode(monkeypatch):
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    vs, checked = _checked(monkeypatch, w, "soundfs", RunFlags(all_checkpoints=True))
    assert len(vs) == 2
    assert checked == ["checkpoint=1", "checkpoint=2"]


def test_only_a_bug_verdict_names_its_crash_state():
    """A passing verdict's descriptor is never read, so it is not built."""
    w = parse("creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n")
    flags = RunFlags(all_checkpoints=True)
    assert [(v.outcome, v.crash_descriptor) for v in run_workload(w, "bugfs-b6", flags)] == [
        ("pass", ""),
        ("bug", "checkpoint=2"),
    ]


def test_verdicts_deterministic_across_reruns():
    w = parse("mkdir A\nwrite (0-8K) A/foo\nfsync A/foo\nrename A/foo A/bar\nsync\n")
    flags = RunFlags(all_checkpoints=True, subset=True)
    a = [(v.crash_descriptor, v.outcome, v.consequence) for v in run_workload(w, "bugfs-b5", flags)]
    b = [(v.crash_descriptor, v.outcome, v.consequence) for v in run_workload(w, "bugfs-b5", flags)]
    assert a == b


def test_harness_error_not_a_bug():
    w = ace.Workload(
        prologue=(),
        steps=(FsOp(FsOpKind.UNLINK, path="ghost"), ace.PersistOp(PersistKind.SYNC)),
        skeleton=ace.Skeleton((FsOpKind.UNLINK,)),
    )
    vs = run_workload(w, "soundfs")
    assert len(vs) == 1 and vs[0].outcome == "harness_error"


def test_no_persistence_point_returns_nothing():
    w = ace.Workload(
        prologue=(),
        steps=(FsOp(FsOpKind.CREAT, path="foo"),),
        skeleton=ace.Skeleton((FsOpKind.CREAT,)),
    )
    assert run_workload(w, "soundfs") == []


def test_subset_mode_clean_on_soundfs():
    w = parse("creat foo\nwrite (0-8K) foo\nfsync foo\nwrite (8-16K) foo\nsync\n")
    vs = run_workload(w, "soundfs", RunFlags(subset=True))
    assert len(vs) > 2
    assert all(v.outcome == "pass" for v in vs)


def test_journal_atomicity_under_subset_mode():
    """Crash states inside a commit show the old or the new metadata view,
    never a mix."""
    w = parse("creat foo\nwrite (0-8K) foo\nfsync foo\ncreat bar\nfsync bar\n")
    prof = profile(w, "soundfs")
    allowed = [set(v.entries) for v in (prof.base_view, *prof.oracle_views.values())]
    epochs = split_epochs(prof.io_log)
    # every epoch has at most 10 units, so each is enumerated exhaustively
    for prefix in range(len(epochs)):
        pre = prefix_state(prof.base_image, epochs, prefix)
        for kept in enumerate_target_subsets(pre):
            state = build_subset_state(pre, kept)
            fs = SoundFs.mount(state.image)
            assert not isinstance(fs, Unmountable)
            paths = set(fs.state_view().entries)
            assert paths in allowed, (state.descriptor(), paths)


def test_subset_mode_across_a_journal_wrap():
    """100 commits fill the journal, so some subset states hold the FLUSH
    before the wrap and the new transactions at the journal head."""
    w = parse("creat foo\n" + "write (0-4K) foo\nfsync foo\n" * 100)
    vs = run_workload(w, "soundfs", RunFlags(subset=True))
    assert len(vs) == 2054
    assert all(v.outcome == "pass" for v in vs)


def test_subset_mode_samples_large_epochs(monkeypatch):
    """Epochs of [7, 1, 11, 1, 4] op units: epoch 2 is past the exhaustive
    bound, so its 64 subsets are sampled from the seed. The verdict list is
    pinned: 2 checkpoints + 128 + 2 + 64 + 2 + 16 subset states."""
    w = parse(
        "mkdir A\nmkdir B\ncreat A/foo\nfdatasync A/foo\ncreat B/foo\nfdatasync A/foo\n"
    )
    vs, checked = _checked(monkeypatch, w, "soundfs", RunFlags(subset=True, seed=7))
    assert len(vs) == 214
    assert all(v.outcome == "pass" for v in vs)
    digest = hashlib.sha256("\n".join(checked).encode()).hexdigest()
    assert digest == "709f3435c1391c458443c47320083701f0bd55ab011553400fd232f7d518b0a9"


def test_sector_subsets_of_wide_epochs_are_sampled_quickly():
    """At sector granularity the epochs hold [48, 1, 32] units, so two are
    sampled: 1 checkpoint + 64 + 2 + 64 subset states. Sampling must not build
    the 2^48 subset pool."""
    w = parse("creat foo\nwrite (0-4K) foo\nfsync foo\n")
    t0 = time.monotonic()
    vs = run_workload(w, "soundfs", RunFlags(subset=True, granularity="sector"))
    assert time.monotonic() - t0 < 10.0
    assert len(vs) == 131
    assert all(v.outcome == "pass" for v in vs)


def test_no_false_positives_across_all_op_pairs():
    """Strided sample from every seq-2 skeleton: every op-kind interaction
    gets exercised on SoundFS with zero bugs and zero harness errors."""
    bounds_proto = Bounds(seq_length=2, files=("foo", "A/foo"), dirs=("A",))
    stream = ace.generate_workloads(bounds_proto)
    for skeleton, group in itertools.groupby(stream, key=lambda w: w.skeleton):
        for w in itertools.islice(group, 0, None, 17):
            for v in run_workload(w, "soundfs"):
                assert v.outcome == "pass", (
                    str(skeleton),
                    v.outcome,
                    v.reason or v.consequence,
                    v.diff[:2],
                    ace.serialize(w),
                )


def test_per_workload_latency_budget():
    """End-to-end pipeline stays well under the 50 ms budget."""
    sample = list(itertools.islice(ace.generate_workloads(Bounds(seq_length=1)), 60))
    t0 = time.monotonic()
    for w in sample:
        run_workload(w, "soundfs")
    per_workload = (time.monotonic() - t0) / len(sample)
    assert per_workload < 0.050, f"{per_workload * 1000:.1f} ms per workload"
