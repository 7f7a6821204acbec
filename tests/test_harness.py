"""Profiling, oracle capture, the auto-checker, and the workload pipeline."""

import dataclasses
import hashlib
import itertools
import random
import time

import pytest

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
from image_helper import crash_states, fs_state, image_bytes, same_bytes


def test_two_persistence_points_two_checkpoints_two_oracles():
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    prof = profile(w, "soundfs")
    assert len(prof.device.checkpoints) == 2
    assert sorted(prof.oracle_views) == [1, 2]
    assert sorted(prof.persisted) == [1, 2]
    # each persistence call logs its commit before its checkpoint
    first, second = prof.device.checkpoints
    assert 0 < first < second == len(prof.device.log)


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
    a = profile(w, "soundfs").device.log
    b = profile(w, "soundfs").device.log
    assert a == b


def test_profile_determinism_across_seq1_sample():
    for w in itertools.islice(ace.generate_workloads(Bounds(seq_length=1)), 40):
        assert profile(w, "soundfs").device.log == profile(w, "soundfs").device.log


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
        assert len(prof.device.checkpoints) == len(prof.oracle_views) > 0
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
        assert profile(w, name).device.log == fs.device.log, (name, ace.serialize(w))


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
        at.append(len(fs.device.checkpoints))
        return replicate(fs)

    monkeypatch.setattr(SoundFs, "replicate", counting)
    for w in ace.workload_range(Bounds(seq_length=1), 0, None)[::13]:
        profile(w, "soundfs")
    assert at == []
    prof = profile(parse(_TRIGGERS_THEN_SYNC["bugfs-b5"]), "bugfs-b5")
    assert len(prof.device.checkpoints) == 2
    assert at == [1]
    assert prof.oracle_views[1].entries["foo"].block_count == 8


def _profile_record(w, fs_name, fork=None):
    """What a profile gives, or its harness error."""
    try:
        return profile(w, fs_name, fork)
    except HarnessError as e:
        return str(e)


def _plain(prof):
    if isinstance(prof, str):
        return prof
    views = {k: v.entries for k, v in prof.oracle_views.items()}
    return prof.device.log, prof.device.checkpoints, views, prof.persisted, prof.base_view.entries


def _sibling_chain(text):
    """A trigger workload's step prefixes, shortest first, then the workload
    twice: each one starts with all of the one before it."""
    w = parse(text)
    return [dataclasses.replace(w, steps=w.steps[:k]) for k in range(1, len(w.steps))] + [w, w]


def _count_fresh(monkeypatch) -> list[int]:
    """A one-item list that counts the profile runs built from mkfs from
    now on: calls of ``Profile.__init__``."""
    fresh = [0]
    init = harness.Profile.__init__

    def counted(self, *args):
        fresh[0] += 1
        return init(self, *args)

    monkeypatch.setattr(harness.Profile, "__init__", counted)
    return fresh


def test_a_resumed_profile_equals_a_fresh_one(monkeypatch):
    """Profiles run in order through one ``PrefixFork`` stack, as in a
    campaign partition, resume from the deepest state of the previous
    workload that theirs starts with, and give what a fresh profile gives,
    also once the later ones have run."""
    seq1 = ace.workload_range(Bounds(seq_length=1), 0, None)
    cases = [(name, seq1) for name in sorted(TARGETS)]
    cases.append(("soundfs", ace.workload_range(Bounds(seq_length=2), 0, 600)))
    cases.append(("bugfs-b5", _b5_write_rename_slice()))
    cases += [(name, _sibling_chain(text)) for name, text in _TRIGGERS_THEN_SYNC.items()]
    fresh = _count_fresh(monkeypatch)
    for name, workloads in cases:
        fork = PrefixFork()
        fresh[0] = 0
        profiles = [_profile_record(w, name, fork) for w in workloads]
        assert len(workloads) - fresh[0] >= len(workloads) // 2, name
        for w, prof in zip(workloads, profiles):
            assert _plain(prof) == _plain(_profile_record(w, name)), (name, ace.serialize(w))


def test_a_fork_is_taken_only_by_a_workload_with_its_prefix():
    """A workload resumes from the stack's state after the steps it shares
    with the previous one, and the deeper states are dropped: one with
    other steps resumes after the prologue, and one with another prologue
    or another target starts fresh. Either way the stack then holds its
    own states, below its last step."""
    a = parse("creat foo\nfsync foo\nlink foo bar\nfsync foo\n")  # bugfs-b1 drops the link
    others = [  # (target, workload, the depth it resumes at; None: fresh)
        ("soundfs", parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n"), 2),
        ("soundfs", parse("creat bar\nfsync bar\n"), 0),
        ("soundfs", dataclasses.replace(a, prologue=parse("mkdir A\nsync\n").steps[:1]), None),
        ("bugfs-b1", a, None),
    ]
    for name, w, depth in others:
        fork = PrefixFork()
        profile(a, "soundfs", fork)
        assert [run.done for run in fork.runs] == list(range(len(a.steps)))
        before = list(fork.runs)
        assert _plain(profile(w, name, fork)) == _plain(profile(w, name)), name
        assert [run.done for run in fork.runs] == list(range(len(w.steps))), name
        kept = 0 if depth is None else depth + 1
        assert fork.runs[:kept] == before[:kept], name
        assert all(run is not old for run, old in zip(fork.runs[kept:], before[kept:])), name


def test_a_workload_resumes_where_it_parts_from_the_previous_one(monkeypatch):
    """In the sequence (a,b,c), (a,b,d), (a,e,f) the third workload resumes
    after the prologue and step a, although the second resumed deeper, and
    runs only its own steps e and f; only the first starts from mkfs."""
    prologue = "# deps\nmkdir A\n# ops\n"
    workloads = [
        parse(prologue + body)
        for body in (
            "creat A/foo\ncreat A/bar\nfsync A/foo\n",
            "creat A/foo\ncreat A/bar\nfsync A/bar\n",
            "creat A/foo\nmkdir B\nsync\n",
        )
    ]
    fresh = _count_fresh(monkeypatch)
    steps = []
    advance = harness.Profile.advance

    def counted(run, body):
        steps.append(run.done)
        return advance(run, body)

    monkeypatch.setattr(harness.Profile, "advance", counted)
    fork = PrefixFork()
    for w in workloads[:2]:
        profile(w, "soundfs", fork)
    after_a = fork.runs[1]
    del steps[:]
    third = profile(workloads[2], "soundfs", fork)
    assert fresh == [1]
    assert steps == [1, 2]
    assert fork.runs[1] is after_a
    assert _plain(third) == _plain(profile(workloads[2], "soundfs"))


def _count_commits(monkeypatch) -> list[int]:
    """A one-item list that counts the commits run from now on: calls of
    ``SoundFs.persist``, which every variant inherits."""
    commits = [0]
    persist = SoundFs.persist

    def counted(self, *args):
        commits[0] += 1
        return persist(self, *args)

    monkeypatch.setattr(SoundFs, "persist", counted)
    return commits


def _commits_and_persistence_steps(monkeypatch, fs_name, workloads):
    """Profile ``workloads`` in order through one ``PrefixFork`` stack, as
    a campaign partition does; count the commits run and the persistence
    steps run (a resumed profile skips the steps of its prefix), each of
    which updates the persisted set once."""
    commits = _count_commits(monkeypatch)
    steps = 0
    update_persisted = harness._update_persisted

    def counted(*args):
        nonlocal steps
        steps += 1
        return update_persisted(*args)

    monkeypatch.setattr(harness, "_update_persisted", counted)
    fork = PrefixFork()
    for w in workloads:
        profile(w, fs_name, fork)
    return commits[0], steps


def test_siblings_share_their_final_soundfs_commit(monkeypatch):
    """Seq-2 siblings that differ only in their final persistence call run
    one SoundFS commit between them; bugfs-b5, whose commit depends on the
    call, runs one per persistence step."""
    seq2 = list(ace.workload_range(Bounds(seq_length=2), 0, 100))
    commits, steps = _commits_and_persistence_steps(monkeypatch, "soundfs", seq2)
    assert commits < steps / 2, (commits, steps)
    b5 = list(_b5_write_rename_slice())
    commits, steps = _commits_and_persistence_steps(monkeypatch, "bugfs-b5", b5)
    assert commits == steps


class _AfterCommitFs(SoundFs):
    """SoundFS with only its ``_after_commit`` hook overridden."""

    NAME = "after-commit-fs"

    def _after_commit(self, trigger):
        super()._after_commit(trigger)


def test_a_class_that_overrides_a_commit_hook_never_shares(monkeypatch):
    """Only SoundFS itself shares a commit: a subclass that overrides a
    single commit hook runs every commit, as every seeded variant does, and
    its profiles still equal fresh ones."""
    assert SoundFs.commit_ignores_call()
    assert not any(cls.commit_ignores_call() for cls in TARGETS.values() if cls is not SoundFs)
    assert not _AfterCommitFs.commit_ignores_call()
    monkeypatch.setitem(TARGETS, _AfterCommitFs.NAME, _AfterCommitFs)
    monkeypatch.setattr(harness, "_mkfs_cache", {})
    seq2 = list(ace.workload_range(Bounds(seq_length=2), 0, 100))
    commits, steps = _commits_and_persistence_steps(monkeypatch, _AfterCommitFs.NAME, seq2)
    assert commits == steps
    for w in seq2[:20]:
        assert _plain(profile(w, _AfterCommitFs.NAME)) == _plain(profile(w, "soundfs"))


def test_a_sibling_with_a_missing_target_fails_as_a_fresh_profile_does(monkeypatch):
    """A sibling that would adopt a shared commit checks its target first,
    as ``persist`` does, and gives a fresh profile's harness error."""
    first, second = parse("creat foo\nfsync foo\n"), parse("creat foo\nfsync bar\n")
    with pytest.raises(HarnessError) as fresh:
        profile(second, "soundfs")
    commits = _count_commits(monkeypatch)
    fork = PrefixFork()
    profile(first, "soundfs", fork)
    assert fork.runs[len(first.steps) - 1].final_commit
    with pytest.raises(HarnessError) as shared:
        profile(second, "soundfs", fork)
    assert commits == [1]
    assert str(shared.value) == str(fresh.value)


def _logged_image(prof, k):
    """Checkpoint ``k``'s reference image: the mkfs image with every write
    logged before the checkpoint."""
    dev = prof.device
    writes = ((rec.sector, rec.data) for rec in dev.log[: dev.checkpoints[k - 1]] if rec.data)
    return mkfs_base_image(prof.fs_name).with_writes(writes)


def _profiled_through_one_stack(monkeypatch, name, workloads, flags):
    """Run ``workloads`` as one campaign partition does, through one
    ``PrefixFork`` stack and mount memo; return the profiles and the crash
    states ``check`` got."""
    profiles, states = [], []
    real_profile, real_check = harness.profile, harness.check

    def profiled(*args):
        profiles.append(real_profile(*args))
        return profiles[-1]

    def checked(prof, state, memo=None):
        states.append((prof, state))
        return real_check(prof, state, memo)

    monkeypatch.setattr(harness, "profile", profiled)
    monkeypatch.setattr(harness, "check", checked)
    fork, memo = PrefixFork(), MountMemo()
    for w in workloads:
        run_workload(w, name, flags, memo, fork)
    monkeypatch.undo()
    return profiles, states


@pytest.mark.parametrize("all_checkpoints", [False, True], ids=["default", "all-checkpoints"])
def test_checkpoint_images_are_the_logged_writes_on_mkfs(monkeypatch, all_checkpoints):
    """On every target, each image a device keeps at a checkpoint, and so
    each checkpoint state ``check`` gets, equals the mkfs image with every
    write logged before that checkpoint. Seq-2 SoundFS siblings that share
    a final commit share its device, images included."""
    seq1 = ace.workload_range(Bounds(seq_length=1), 0, None)[::13]
    cases = [(name, seq1) for name in sorted(TARGETS)]
    cases += [(name, _sibling_chain(text)) for name, text in _TRIGGERS_THEN_SYNC.items()]
    cases.append(("soundfs", ace.workload_range(Bounds(seq_length=2), 0, 200)))
    cases.append(("bugfs-b5", _b5_write_rename_slice()))
    flags = RunFlags(all_checkpoints=all_checkpoints)
    shared = 0
    for name, workloads in cases:
        profiles, states = _profiled_through_one_stack(monkeypatch, name, workloads, flags)
        devices = {id(prof.device): prof for prof in profiles}
        shared += len(profiles) - len(devices)
        want = {}
        for prof in devices.values():
            dev = prof.device
            assert len(dev.images) == len(dev.checkpoints), name
            for k, image in enumerate(dev.images, 1):
                want[id(dev), k] = _logged_image(prof, k)
                assert same_bytes(image, want[id(dev), k]), (name, k)
        counts = [len(p.device.checkpoints) for p in profiles]
        assert len(states) == sum(counts if all_checkpoints else map(bool, counts)), name
        for prof, state in states:
            assert same_bytes(state.image, want[id(prof.device), state.checkpoint_id]), name
    assert shared > 10


def test_a_subset_prefix_from_its_checkpoint_equals_one_from_mkfs():
    """A subset prefix built from the last checkpoint image before its
    target epoch equals one built from the mkfs image with no checkpoint
    image, at op and sector granularity, on every target."""
    cases = [*_TRIGGERS_THEN_SYNC.items(), ("soundfs", _TRIGGERS_THEN_SYNC["bugfs-b3"])]
    for name, text in cases:
        prof = profile(parse(text), name)
        dev = prof.device
        epochs = split_epochs(dev.log)
        for p, granularity in itertools.product(range(len(epochs)), ("op", "sector")):
            near = prefix_state(
                prof.base_image, dev.log, dev.checkpoints, dev.images, epochs, p, granularity
            )
            far = prefix_state(prof.base_image, dev.log, [], [], epochs, p, granularity)
            assert same_bytes(near.image, far.image), (name, p)
            assert near.units == far.units, (name, p)


def _held(run) -> tuple:
    """What a profile run holds, as plain values: its file system's
    attributes, and so its device's image, log, checkpoints and checkpoint
    images (``fs_state``); the device it names must be the file system's."""
    assert run.fs.device is run.device
    return fs_state(run.fs), run.done, run.op_index


def test_a_fork_that_advances_leaves_what_it_shares_alone():
    """A fork shares its device and file system with the run it was taken
    from until it first writes. Profiling seq-2 workloads through one stack,
    each run on the stack holds what a fresh run holds after as many of the
    workload's steps, and it and each stored final commit (the profile that
    ran it, and every sibling that adopted it) still hold, after every
    later profile, what they held then."""
    fork = PrefixFork()
    seen = {}  # id -> (run, what it held)
    adopted = 0
    for w in ace.workload_range(Bounds(seq_length=2), 0, 100):
        prof = profile(w, "soundfs", fork)
        adopted += any(prof.device is run.device for run, _held_then in seen.values())
        for run in fork.runs:
            fresh = harness.Profile("soundfs", w.prologue)
            while fresh.done < run.done:
                fresh.advance(w.steps)
            assert _held(run) == _held(fresh), (ace.serialize(w), run.done)
        for run in (*fork.runs, prof):
            seen.setdefault(id(run), (run, _held(run)))
    assert adopted > 5
    for run, held in seen.values():
        assert _held(run) == held


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
    dev = prof.device
    return replay(prof.base_image, dev.log, dev.checkpoints, dev.images, dev.checkpoints[k - 1])


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
        k = len(prof.device.checkpoints)
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

    def recording(prof, state, *memo_and_shared):
        checked.append(state.descriptor())
        return real(prof, state, *memo_and_shared)

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
    log, checkpoints, images = prof.device.log, prof.device.checkpoints, prof.device.images
    epochs = split_epochs(log)
    # every epoch has at most 10 units, so each is enumerated exhaustively
    for prefix in range(len(epochs)):
        pre = prefix_state(prof.base_image, log, checkpoints, images, epochs, prefix)
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


# the subset campaigns of bugfs-b2 (every checkpoint too), bugfs-b3 (sector
# granularity) and bugfs-b6, each cut to a slice that holds its bug verdicts
_SUBSET_CAMPAIGNS = {
    "bugfs-b2": (Bounds(seq_length=1), (1150, 1175), RunFlags(all_checkpoints=True, subset=True)),
    "bugfs-b3": (
        Bounds(seq_length=1, allowed_ops=(FsOpKind.FALLOC,)),
        (120, 140),
        RunFlags(subset=True, granularity="sector", seed=7),
    ),
    "bugfs-b6": (
        Bounds(seq_length=2, allowed_ops=(FsOpKind.UNLINK, FsOpKind.CREAT), files=("foo", "bar"),
               dirs=()),
        (5, 30),
        RunFlags(subset=True),
    ),
}


def assert_shared_verdicts_equal_alone(workload, fs_name, flags) -> list:
    """``run_workload``'s verdicts of ``workload``, which share the verdicts
    of subset states, equal checking each crash state alone, through a fresh
    memo, in outcome, descriptor, consequence, diff and fsck. Returns them."""
    shared = run_workload(workload, fs_name, flags, MountMemo())
    prof = profile(workload, fs_name)
    alone = [check(prof, state) for state in crash_states(prof, flags.granularity, flags.seed)]
    fields = ("outcome", "crash_descriptor", "consequence", "diff", "fsck")
    assert [[getattr(v, f) for f in fields] for v in shared] == [
        [getattr(v, f) for f in fields] for v in alone
    ]
    return shared


@pytest.mark.parametrize("fs_name", _SUBSET_CAMPAIGNS)
def test_shared_subset_verdicts_equal_checking_each_state_alone(monkeypatch, fs_name):
    """A workload's subset states that recover to one state at one
    checkpoint share the first one's verdict, under their own descriptors,
    and each is the verdict the state gets alone."""
    bounds, (start, end), flags = _SUBSET_CAMPAIGNS[fs_name]
    compared = []
    real = harness._verdict
    monkeypatch.setattr(harness, "_verdict", lambda *a: compared.append(1) or real(*a))
    states = bugs = 0
    for workload in ace.workload_range(bounds, start, end):
        verdicts = assert_shared_verdicts_equal_alone(workload, fs_name, flags)
        states += len(verdicts)
        bugs += sum(v.is_bug for v in verdicts)
    assert bugs > 0
    # each state compared alone, and fewer for the shared verdicts
    assert states < len(compared) < 2 * states


def test_a_state_recovered_at_two_checkpoints_is_compared_at_each():
    """Before the fdatasync's commit reaches its home blocks, a crash
    recovers to the file system checkpoint 2 left, whose falloc extent
    bugfs-b3 dropped. As a subset state of checkpoint 1 it passes, since the
    extent was not promised yet; the same state at checkpoint 2 is a bug."""
    w = parse("creat foo\nfsync foo\nfalloc -k (0-4K) foo\nfdatasync foo\ncreat bar\nfsync bar\n")
    verdicts = assert_shared_verdicts_equal_alone(w, "bugfs-b3", RunFlags(subset=True))
    bugs = [v.crash_descriptor for v in verdicts if v.is_bug]
    assert "prefix=5;kept=;gran=op" in bugs and len(bugs) == 20


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
