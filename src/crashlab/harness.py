"""Workload profiling and the one crash-state pipeline.

A profile run executes the workload once on a recording device, inserting a
checkpoint after every persistence call and capturing an oracle (the image a
clean unmount would leave) at each one. Crash states are rebuilt from the
log: at a checkpoint by replay, mid-epoch by the crash generator's subsets.
``check_state`` turns any of them into a verdict: it mounts the state so
recovery runs and compares it against the oracle of the last checkpoint the
state contains, but only for entities the target's declared guarantees say
were persisted. Campaigns, replay (``state_for`` rebuilds the state a report
names) and the corpus all go through it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .ace import Workload
from .blockdev import (
    DiskImage,
    IoLog,
    NoPersistencePointWarning,
    create_device,
    replay,
    split_epochs,
)
from .crashgen import (
    CrashGenError,
    CrashState,
    SubsetDescriptor,
    build_subset_state,
    enumerate_target_subsets,
)
from .fsops import FsOp, PersistKind, PersistOp, parent_dir
from .fstarget import FsError, FsStateView, Unmountable, get_target
from .report import DiffEntry

DEFAULT_DEVICE_BYTES = 4 * 1024 * 1024

# persisted-set levels: what the checker may verify for a path
ENTRY, DATA, FULL = 1, 2, 3

_PROBE_INDEX = 1_000_000  # op_index for write-check probes; payload arbitrary


class HarnessError(Exception):
    """Workload execution failure: a test error, never a bug report."""


@dataclass
class Verdict:
    outcome: str  # "pass" | "bug" | "harness_error"
    crash_descriptor: str = ""
    consequence: str = ""
    diff: list[DiffEntry] = field(default_factory=list)
    reason: str = ""
    fsck: dict | None = None

    @property
    def is_bug(self) -> bool:
        return self.outcome == "bug"


@dataclass
class Profile:
    workload: Workload
    fs_name: str
    io_log: IoLog
    oracles: dict[int, DiskImage]
    oracle_views: dict[int, FsStateView]
    persisted: dict[int, dict[str, int]]
    base_image: DiskImage
    base_view: FsStateView

    @property
    def checkpoint_count(self) -> int:
        return len(self.oracles)


_mkfs_cache: dict[str, DiskImage] = {}


def mkfs_base_image(fs_name: str) -> DiskImage:
    """Formatting is deterministic, so the clean image is built once per
    target and shared as a replay base."""
    if fs_name not in _mkfs_cache:
        dev = create_device(DEFAULT_DEVICE_BYTES)
        get_target(fs_name).mkfs(dev)
        _mkfs_cache[fs_name] = dev.snapshot()
    return _mkfs_cache[fs_name]


def _update_persisted(
    persisted: dict[str, int], fs, pp: PersistOp, guarantees
) -> None:
    def bump(path: str, level: int) -> None:
        if persisted.get(path, 0) < level:
            persisted[path] = level

    view = fs.state_view()
    if pp.kind is PersistKind.SYNC:
        for path in view.entries:
            bump(path, FULL)
        return

    ino = fs.resolve_ino(pp.target)
    if ino is None:
        raise HarnessError(f"persistence target {pp.target} vanished")
    paths = fs.paths_of_ino(ino)
    resolved = pp.target if pp.target in paths else (paths[0] if paths else pp.target)
    entry = view.get(resolved)
    if entry is None:
        raise HarnessError(f"persistence target {pp.target} not in view")

    if pp.kind in (PersistKind.FDATASYNC, PersistKind.MSYNC):
        bump(resolved, DATA)
        return

    # fsync
    bump(resolved, FULL)
    if entry.kind == "dir":
        if guarantees.fsync_dir_persists_children_entries:
            prefix = "" if resolved == "/" else resolved + "/"
            for path in view.entries:
                if path.startswith(prefix) and path != resolved and "/" not in path[len(prefix):]:
                    bump(path, ENTRY)
    else:
        if guarantees.fsync_file_persists_all_hard_links:
            for path in paths:
                bump(path, FULL)
        if guarantees.fsync_file_persists_parent_dirent:
            bump(parent_dir(resolved), ENTRY)


def profile(workload: Workload, fs_name: str) -> Profile:
    """Execute once end-to-end, collecting the IO log, per-checkpoint
    oracles, and persisted sets."""
    target = get_target(fs_name)
    base = mkfs_base_image(fs_name)
    device = create_device(DEFAULT_DEVICE_BYTES, base=base)
    fs = target.mount_device(device)
    if isinstance(fs, Unmountable):
        raise HarnessError(f"fresh image did not mount: {fs.reason}")
    base_view = fs.state_view()

    persisted_now: dict[str, int] = {}
    persisted: dict[int, dict[str, int]] = {}
    oracles: dict[int, DiskImage] = {}
    oracle_views: dict[int, FsStateView] = {}

    op_index = 0
    try:
        for op in workload.prologue:
            fs.apply(op, op_index)
            op_index += 1
        for step in workload.steps:
            if isinstance(step, FsOp):
                fs.apply(step, op_index)
                op_index += 1
            else:
                fs.persist(step.kind, step.target)
                cp = device.insert_checkpoint()
                _update_persisted(persisted_now, fs, step, target.GUARANTEES)
                persisted[cp] = dict(persisted_now)
                replica = fs.replicate()
                oracles[cp] = replica.unmount_clean()
                oracle_views[cp] = replica.state_view()
    except FsError as e:
        raise HarnessError(f"workload op failed: {e}") from e

    return Profile(
        workload=workload,
        fs_name=fs_name,
        io_log=device.log,
        oracles=oracles,
        oracle_views=oracle_views,
        persisted=persisted,
        base_image=base,
        base_view=base_view,
    )


def _entry_diff(path, level, expected, actual, *, compare_data: bool):
    """Field-level discrepancies for one persisted path, empty when matching."""
    if expected is None and actual is None:
        return []
    if expected is None:
        return [DiffEntry("spurious", path=path, expected="absent", actual=actual.kind)]
    if actual is None:
        return [DiffEntry("missing", path=path, expected=expected.kind, actual="absent")]
    if actual.kind != expected.kind:
        return [DiffEntry("missing", path=path, expected=expected.kind, actual=actual.kind)]
    diff = []
    if level >= DATA:
        if actual.size != expected.size:
            diff.append(
                DiffEntry("field", path=path, field="size",
                          expected=str(expected.size), actual=str(actual.size))
            )
        if actual.block_count != expected.block_count:
            diff.append(
                DiffEntry("field", path=path, field="block_count",
                          expected=str(expected.block_count), actual=str(actual.block_count))
            )
        if (
            compare_data
            and expected.kind == "file"
            and actual.size == expected.size
            and actual.data_hash != expected.data_hash
        ):
            diff.append(
                DiffEntry("field", path=path, field="data_hash",
                          expected=expected.data_hash, actual=actual.data_hash)
            )
    if level >= FULL:
        if actual.link_count != expected.link_count:
            diff.append(
                DiffEntry("field", path=path, field="link_count",
                          expected=str(expected.link_count), actual=str(actual.link_count))
            )
        if actual.xattrs != expected.xattrs:
            diff.append(
                DiffEntry("field", path=path, field="xattr",
                          expected=repr(dict(expected.xattrs)), actual=repr(dict(actual.xattrs)))
            )
        if expected.kind == "symlink" and actual.symlink_target != expected.symlink_target:
            diff.append(
                DiffEntry("field", path=path, field="symlink_target",
                          expected=expected.symlink_target, actual=actual.symlink_target)
            )
    return diff


def check(
    crash_image: DiskImage,
    oracle_view: FsStateView,
    persisted_set: dict[str, int],
    fs_name: str,
    *,
    mode: str = "checkpoint",
    descriptor: str = "",
    later_views: list[FsStateView] | None = None,
) -> Verdict:
    """Mount the crash state (running recovery) and compare persisted entities
    against the oracle.

    In subset mode the crash lands mid-epoch, so an entity may legitimately
    show any committed state at or after its persistence point: it must match
    the checkpoint oracle or one of the later oracles, metadata only (in-place
    data overwrites are legally torn), and no spurious-entry scan runs.
    """
    target = get_target(fs_name)
    fs = target.mount(crash_image)
    if isinstance(fs, Unmountable):
        fsck = target.fsck(crash_image)
        diff = [DiffEntry("unmountable", expected="mountable file system", actual=fs.reason)]
        return Verdict(
            "bug",
            crash_descriptor=descriptor,
            consequence="unmountable",
            diff=diff,
            fsck=fsck,
        )

    crash_view = fs.state_view()
    diff: list[DiffEntry] = []
    subset = mode == "subset"
    candidates = [oracle_view] + list(later_views or []) if subset else [oracle_view]

    for path in sorted(persisted_set):
        level = persisted_set[path]
        actual = crash_view.get(path)
        if not subset and oracle_view.get(path) is None:
            continue  # removed from the expected view; presence handled below
        per_candidate = [
            _entry_diff(path, level, view.get(path), actual, compare_data=not subset)
            for view in candidates
        ]
        if any(not d for d in per_candidate):
            continue
        diff.extend(per_candidate[0])

    if not subset:
        for path in sorted(crash_view.entries):
            if path not in oracle_view.entries:
                diff.append(
                    DiffEntry("spurious", path=path, expected="absent",
                              actual=crash_view.entries[path].kind)
                )

    diff.extend(_write_checks(fs, crash_view, persisted_set))

    if diff:
        from .report import classify

        return Verdict(
            "bug",
            crash_descriptor=descriptor,
            consequence=str(classify(diff)),
            diff=diff,
        )
    return Verdict("pass", crash_descriptor=descriptor)


def _write_checks(fs, crash_view: FsStateView, persisted_set: dict[str, int]):
    """Recovered directories near persisted entities must still be modifiable."""
    dirs: set[str] = set()
    for path in persisted_set:
        entry = crash_view.get(path)
        if entry is None:
            continue
        if entry.kind == "dir":
            dirs.add(path)
        parent = parent_dir(path)
        parent_entry = crash_view.get(parent)
        if parent == "/" or (parent_entry is not None and parent_entry.kind == "dir"):
            dirs.add(parent)
    diff = []
    from .fsops import FsOpKind

    for d in sorted(dirs):
        probe = "probe_chk" if d == "/" else f"{d}/probe_chk"
        if crash_view.get(probe) is not None:
            continue
        try:
            fs.apply(FsOp(FsOpKind.CREAT, path=probe), _PROBE_INDEX)
            fs.apply(
                FsOp(FsOpKind.WRITE, path=probe, start=0, end=4096), _PROBE_INDEX
            )
            fs.apply(FsOp(FsOpKind.UNLINK, path=probe), _PROBE_INDEX)
        except FsError as e:
            diff.append(
                DiffEntry(
                    "probe",
                    path=d,
                    expected="writable directory",
                    actual=str(e),
                )
            )
            continue
        entry = crash_view.get(d)
        if d != "/" and entry is not None and entry.size == 0:
            try:
                fs.apply(FsOp(FsOpKind.RMDIR, path=d), _PROBE_INDEX)
                fs.apply(FsOp(FsOpKind.MKDIR, path=d), _PROBE_INDEX)
            except FsError as e:
                diff.append(
                    DiffEntry(
                        "probe",
                        path=d,
                        expected="removable empty directory",
                        actual=str(e),
                    )
                )
    return diff


@dataclass
class RunFlags:
    all_checkpoints: bool = False
    subset: bool = False
    granularity: str = "op"
    seed: int = 0


def run_workload(
    workload: Workload, fs_name: str, flags: RunFlags | None = None
) -> list[Verdict]:
    """Profile once, then test crash states. Default mode tests only the final
    checkpoint: campaigns run shorter sequences first, so earlier checkpoints
    repeat already-explored workloads."""
    flags = flags or RunFlags()
    try:
        prof = profile(workload, fs_name)
    except HarnessError as e:
        return [Verdict("harness_error", crash_descriptor="profile", reason=str(e))]

    n = prof.checkpoint_count
    if n == 0:
        warnings.warn(
            "workload has no persistence point; nothing to test",
            NoPersistencePointWarning,
            stacklevel=2,
        )
        return []

    checkpoints = range(1, n + 1) if (flags.all_checkpoints or flags.subset) else [n]
    verdicts = [check_state(prof, _checkpoint_state(prof, k)) for k in checkpoints]
    if flags.subset:
        verdicts.extend(_subset_verdicts(prof, flags))
    return verdicts


def _subset_verdicts(prof: Profile, flags: RunFlags) -> list[Verdict]:
    epochs = split_epochs(prof.io_log)
    return [
        check_state(
            prof,
            build_subset_state(prof.base_image, epochs, prefix, kept, flags.granularity),
        )
        for prefix in range(len(epochs))
        for kept in enumerate_target_subsets(epochs, prefix, flags.granularity, flags.seed)
    ]


def _checkpoint_state(prof: Profile, k: int) -> CrashState:
    return CrashState(replay(prof.base_image, prof.io_log, checkpoint=k), checkpoint_id=k)


def check_state(prof: Profile, state: CrashState) -> Verdict:
    """Check one crash state against the oracle of the last checkpoint it
    contains (the freshly formatted file system before the first). A subset
    state may also match any later oracle."""
    cp = state.checkpoint_id
    return check(
        state.image,
        prof.oracle_views.get(cp, prof.base_view),
        prof.persisted.get(cp, {}),
        prof.fs_name,
        mode="checkpoint" if state.subset is None else "subset",
        descriptor=state.descriptor(),
        later_views=[prof.oracle_views[j] for j in range(cp + 1, prof.checkpoint_count + 1)],
    )


def state_for(prof: Profile, descriptor: str) -> CrashState:
    """Rebuild the crash state a report's descriptor names. Raises ValueError
    when the descriptor does not fit the profiled workload."""
    try:
        if descriptor.startswith("checkpoint="):
            k = int(descriptor[len("checkpoint="):])
            if not 1 <= k <= prof.checkpoint_count:
                raise ValueError(f"the workload has {prof.checkpoint_count} checkpoints")
            return _checkpoint_state(prof, k)
        sub = SubsetDescriptor.parse(descriptor)
        return build_subset_state(
            prof.base_image,
            split_epochs(prof.io_log),
            sub.prefix_epoch_count,
            sub.kept_indices,
            sub.granularity,
        )
    except (ValueError, CrashGenError) as e:
        raise ValueError(f"crash descriptor {descriptor!r}: {e}") from None
