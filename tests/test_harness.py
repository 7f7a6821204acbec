"""Profiling, oracle capture, the auto-checker, and the workload pipeline."""

import hashlib
import itertools
import random
import time


from crashlab import ace
from crashlab.ace import Bounds, parse
from crashlab.blockdev import create_device, replay, split_epochs
from crashlab.crashgen import build_subset_state, enumerate_target_subsets
from crashlab.fsops import FsOp, FsOpKind, PersistKind
from crashlab.fstarget import SoundFs, TARGETS, Unmountable, get_target
from crashlab.harness import (
    ENTRY,
    FULL,
    DEFAULT_DEVICE_BYTES,
    RunFlags,
    check,
    mkfs_base_image,
    profile,
    run_workload,
)


def test_two_persistence_points_two_checkpoints_two_oracles():
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    prof = profile(w, "soundfs")
    assert prof.checkpoint_count == 2
    assert sorted(prof.oracles) == [1, 2]
    assert sorted(prof.persisted) == [1, 2]
    assert prof.io_log.checkpoint_count == 2


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
    h1 = profile(w, "soundfs").io_log.content_hash()
    h2 = profile(w, "soundfs").io_log.content_hash()
    assert h1 == h2


def test_profile_determinism_across_seq1_sample():
    for w in itertools.islice(ace.generate_workloads(Bounds(seq_length=1)), 40):
        assert (
            profile(w, "soundfs").io_log.content_hash()
            == profile(w, "soundfs").io_log.content_hash()
        )


def test_oracle_checkpoint_alignment():
    """Oracle k reflects everything up to the k-th persistence call, nothing after."""
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    prof = profile(w, "soundfs")
    v1 = prof.oracle_views[1].entries
    v2 = prof.oracle_views[2].entries
    assert "foo" in v1 and "bar" not in v1
    assert "foo" in v2 and "bar" in v2


def test_oracle_views_match_mounting_the_oracle_image():
    w = parse("mkdir A\nwrite (0-8K) A/foo\nfsync A/foo\nmwrite (0-4K) A/foo\nsync\n")
    prof = profile(w, "soundfs")
    for k, image in prof.oracles.items():
        fs = SoundFs.mount(image)
        assert not isinstance(fs, Unmountable)
        mounted = fs.state_view().entries
        captured = prof.oracle_views[k].entries
        assert set(mounted) == set(captured)
        for path in mounted:
            assert mounted[path].data_hash == captured[path].data_hash, (k, path)
            assert mounted[path].size == captured[path].size


def test_oracle_fork_strategy_equals_restart_strategy():
    """Forking the device at a checkpoint equals restarting the workload and
    cleanly unmounting at the same persistence point."""
    sample = list(itertools.islice(ace.generate_workloads(Bounds(seq_length=1)), 25))
    for w in sample:
        prof = profile(w, "soundfs")
        persists = [s for s in w.steps if not isinstance(s, FsOp)]
        for k in prof.oracles:
            base = mkfs_base_image("soundfs")
            dev = create_device(DEFAULT_DEVICE_BYTES, base)
            fs = SoundFs.mount_device(dev)
            done = 0
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
                    done += 1
                    if done == k:
                        break
            restart_image = fs.unmount_clean()
            assert restart_image.sha256() == prof.oracles[k].sha256(), ace.serialize(w)


# -- checker -------------------------------------------------------------------


def _crash_image(prof, k):
    return replay(prof.base_image, prof.io_log, checkpoint=k)


def test_check_pass_on_soundfs():
    w = parse("creat foo\nlink foo bar\nsync\n")
    prof = profile(w, "soundfs")
    v = check(_crash_image(prof, 1), prof.oracle_views[1], prof.persisted[1], "soundfs")
    assert v.outcome == "pass"


def test_check_detects_missing_persisted_file():
    w = parse("mkdir A\nmkdir B\ncreat A/foo\nlink A/foo B/foo\nfsync B/foo\n")
    prof = profile(w, "bugfs-b1")
    v = check(_crash_image(prof, 1), prof.oracle_views[1], prof.persisted[1], "bugfs-b1")
    assert v.is_bug
    assert v.consequence == "file_missing"
    assert any(d.category == "missing" and d.path == "B/foo" for d in v.diff)


def test_check_unmountable_dominates_and_attaches_fsck():
    w = parse("creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n")
    prof = profile(w, "bugfs-b6")
    v = check(_crash_image(prof, 2), prof.oracle_views[2], prof.persisted[2], "bugfs-b6")
    assert v.is_bug and v.consequence == "unmountable"
    assert v.fsck is not None and v.fsck["mountable"] is False


def test_mutating_non_persisted_file_never_flips_pass_to_bug():
    """Persisted-set restriction: noise injected into non-persisted entities
    is invisible to the checker."""
    w = parse("write (0-4K) bar\nwrite (0-4K) foo\nfsync foo\n")
    prof = profile(w, "soundfs")
    image = _crash_image(prof, 1)
    assert check(image, prof.oracle_views[1], prof.persisted[1], "soundfs").outcome == "pass"
    assert "bar" not in prof.persisted[1]

    # locate bar's data block in the recovered image and corrupt it
    fs = SoundFs.mount(image)
    bar_ino = fs.resolve_ino("bar")
    block = fs.inodes[bar_ino].blocks[0]
    dev = create_device(image.size_bytes, image)
    dev.write_block(block, b"\x66" * 4096)
    mutated = dev.snapshot()
    v = check(mutated, prof.oracle_views[1], prof.persisted[1], "soundfs")
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
        dev = create_device(image.size_bytes, image)
        dev.write_block(block, bytes([rng.randrange(256)]) * 4096)
        v = check(dev.snapshot(), prof.oracle_views[1], prof.persisted[1], "soundfs")
        assert v.outcome == "pass", (path, v.diff)


def test_checker_soundness_on_clean_shutdown_all_targets():
    """A cleanly unmounted image checks clean against its own oracle for every
    target, buggy ones included."""
    text = (
        "mkdir A\nwrite (0-8K) A/foo\nlink A/foo A/bar\nfsync A/foo\n"
        "rename A/bar A/baz\nfsync A/baz\n"
    )
    w = parse(text)
    for name in sorted(TARGETS):
        target = get_target(name)
        dev = create_device(DEFAULT_DEVICE_BYTES, mkfs_base_image(name))
        fs = target.mount_device(dev)
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
        final_image = fs.unmount_clean()
        oracle_fs = target.mount(final_image)
        oracle_view = oracle_fs.state_view()
        persisted = {path: FULL for path in oracle_view.entries}
        v = check(final_image, oracle_view, persisted, name)
        assert v.outcome == "pass", (name, v.diff)


def test_spurious_entry_detected():
    w = parse("creat foo\nrename foo bar\nfsync bar\n")
    prof = profile(w, "bugfs-b2")
    v = check(_crash_image(prof, 1), prof.oracle_views[1], prof.persisted[1], "bugfs-b2")
    assert v.is_bug and v.consequence == "spurious_entry"
    assert any(d.category == "spurious" and d.path == "foo" for d in v.diff)


# -- run_workload ----------------------------------------------------------------


def test_default_mode_tests_only_final_checkpoint():
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    vs = run_workload(w, "soundfs")
    assert len(vs) == 1
    assert vs[0].crash_descriptor == "checkpoint=2"


def test_all_checkpoints_mode():
    w = parse("creat foo\nfsync foo\ncreat bar\nfsync bar\n")
    vs = run_workload(w, "soundfs", RunFlags(all_checkpoints=True))
    assert [v.crash_descriptor for v in vs] == ["checkpoint=1", "checkpoint=2"]


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


def test_no_persistence_point_warns_and_returns_nothing():
    import warnings

    from crashlab.blockdev import NoPersistencePointWarning

    w = ace.Workload(
        prologue=(),
        steps=(FsOp(FsOpKind.CREAT, path="foo"),),
        skeleton=ace.Skeleton((FsOpKind.CREAT,)),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vs = run_workload(w, "soundfs")
    assert vs == []
    assert any(issubclass(c.category, NoPersistencePointWarning) for c in caught)


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
        for kept in enumerate_target_subsets(epochs, prefix):
            state = build_subset_state(prof.base_image, epochs, prefix, kept)
            fs = SoundFs.mount(state.image)
            assert not isinstance(fs, Unmountable)
            paths = set(fs.state_view().entries)
            assert paths in allowed, (state.descriptor(), paths)


def test_subset_mode_samples_large_epochs():
    """Epochs of [7, 1, 11, 1, 4] op units: epoch 2 is past the exhaustive
    bound, so its 64 subsets are sampled from the seed. The verdict list is
    pinned: 2 checkpoints + 128 + 2 + 64 + 2 + 16 subset states."""
    w = parse(
        "mkdir A\nmkdir B\ncreat A/foo\nfdatasync A/foo\ncreat B/foo\nfdatasync A/foo\n"
    )
    vs = run_workload(w, "soundfs", RunFlags(subset=True, seed=7))
    assert len(vs) == 214
    assert all(v.outcome == "pass" for v in vs)
    digest = hashlib.sha256("\n".join(v.crash_descriptor for v in vs).encode()).hexdigest()
    assert digest == "709f3435c1391c458443c47320083701f0bd55ab011553400fd232f7d518b0a9"


def test_no_false_positives_across_all_op_pairs():
    """Strided sample from every seq-2 skeleton: every op-kind interaction
    gets exercised on SoundFS with zero bugs and zero harness errors."""
    import warnings

    from crashlab.blockdev import NoPersistencePointWarning

    bounds_proto = Bounds(seq_length=2, files=("foo", "A/foo"), dirs=("A",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoPersistencePointWarning)
        for skeleton in ace.gen_skeletons(bounds_proto):
            stream = (
                body
                for seq in ace.expand_params(skeleton, bounds_proto)
                for body in ace.add_persistence_points(seq, bounds_proto)
            )
            for body in itertools.islice(stream, 0, None, 17):
                try:
                    w = ace.resolve_dependencies(body, bounds_proto)
                except ace.UnsatisfiableBody:
                    continue
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
