"""Workload profiling and the one crash-state pipeline.

A ``Profile`` is the run that executes the workload once on a recording
device, inserting a checkpoint after every persistence call and capturing
an oracle at each one: the view the file system would show after a clean
unmount (``clean_view``: the live view, or an unmounted replica's when the
commit deferred data). Crash states are rebuilt from its log: at a
checkpoint by replay, mid-epoch by the crash generator's subsets.
``check(prof, state)`` turns any of them into a verdict: it mounts the
state so recovery runs and compares it against the oracle of the last
checkpoint the state contains, but only for entities the persistence calls
made durable (``_update_persisted``). Campaigns, replay (``state_for``
rebuilds the state a report names) and the corpus all go through it, and
it mounts every state through a ``MountMemo``: each distinct crash image
is recovered once, each distinct recovered file system loaded and viewed
once, and each distinct set of directories probed once on it. A repeat is
compared on the stored view; a live file system is thawed from the memo
mount only when a probe must write. Within a campaign's worker partition,
the memo is shared, and a profile resumes from a fork of the previous
workload's run, taken after the steps the two share (``PrefixFork``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ace import Workload
from .blockdev import (
    Device,
    DiskImage,
    IoRecord,
    replay,
    split_epochs,
)
from .crashgen import (
    CrashGenError,
    CrashState,
    SubsetDescriptor,
    build_subset_state,
    enumerate_target_subsets,
    parse_descriptor,
    prefix_state,
)
from .fsops import FsOp, FsOpKind, PersistKind, PersistOp, parent_dir
from .fstarget import FsError, FsStateView, MountMemo, Unmountable, get_target
from .report import DiffEntry, classify

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


_mkfs_cache: dict[str, DiskImage] = {}


def mkfs_base_image(fs_name: str) -> DiskImage:
    """Formatting is deterministic, so the clean image is built once per
    target and shared as a replay base. mkfs writes only the blocks of its
    zero base that it makes non-zero, so every device and crash state built
    on the image copies a few blocks, not hundreds."""
    if fs_name not in _mkfs_cache:
        dev = Device(DEFAULT_DEVICE_BYTES)
        get_target(fs_name).mkfs(dev)
        _mkfs_cache[fs_name] = dev.snapshot()
    return _mkfs_cache[fs_name]


def _update_persisted(
    persisted: dict[str, int], fs, pp: PersistOp, view: FsStateView
) -> None:
    """Raise the levels of what ``pp`` made durable, by the checker's fixed
    rules: sync persists everything; fdatasync and msync persist the target's
    data and size-related metadata; fsync of a file persists its data,
    metadata, all of its hard links and its parent's entry for it; fsync of
    a directory persists it and its children's entries. ``view`` is the
    oracle view at this checkpoint; only its paths and kinds are read.

    A subset state (``check``) does not enforce all of these yet: it
    compares no file data, so an fsync'd file's data goes unchecked there,
    and it runs no scan for spurious entries (ROADMAP item 4)."""

    def bump(path: str, level: int) -> None:
        if persisted.get(path, 0) < level:
            persisted[path] = level

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
        prefix = "" if resolved == "/" else resolved + "/"
        for path in view.entries:
            if path.startswith(prefix) and path != resolved and "/" not in path[len(prefix):]:
                bump(path, ENTRY)
    else:
        for path in paths:
            bump(path, FULL)
        bump(parent_dir(resolved), ENTRY)


class Profile:
    """A workload's profile run: the file system, its recording device (the
    IO log and checkpoint count) and, after the prologue and ``done`` body
    steps, the oracle view and the persisted set at each checkpoint."""

    def __init__(self, fs_name: str, prologue) -> None:
        self.fs_name = fs_name
        self.base_image = mkfs_base_image(fs_name)
        self.device = Device(DEFAULT_DEVICE_BYTES, self.base_image)
        self.fs = get_target(fs_name).mount_device(self.device)
        if isinstance(self.fs, Unmountable):
            raise HarnessError(f"fresh image did not mount: {self.fs.reason}")
        self.base_view = self.fs.state_view()
        self.op_index = 0
        self.done = 0
        self.persisted_now: dict[str, int] = {}
        self.persisted: dict[int, dict[str, int]] = {}
        self.oracle_views: dict[int, FsStateView] = {}
        for op in prologue:
            self.fs.apply(op, self.op_index)
            self.op_index += 1

    @property
    def io_log(self) -> list[IoRecord]:
        return self.device.log

    @property
    def checkpoint_count(self) -> int:
        return self.device.checkpoint_count

    def fork(self) -> "Profile":
        """An independent copy. Stored oracle views and per-checkpoint
        persisted sets are never changed, so the copy shares them."""
        run = Profile.__new__(Profile)
        run.__dict__.update(vars(self))
        run.device = self.device.copy()
        run.fs = self.fs.fork(run.device)
        run.persisted_now = dict(self.persisted_now)
        run.persisted = dict(self.persisted)
        run.oracle_views = dict(self.oracle_views)
        return run

    def advance(self, steps) -> None:
        fs = self.fs
        for step in steps:
            if isinstance(step, FsOp):
                fs.apply(step, self.op_index)
                self.op_index += 1
            else:
                fs.persist(step.kind, step.target)
                cp = self.device.insert_checkpoint()
                # The oracle is the view after a clean unmount. It is the
                # live view unless the commit deferred data (bugfs-b5),
                # which gets its blocks only when the unmount writes it.
                self.oracle_views[cp] = fs.clean_view()
                _update_persisted(self.persisted_now, fs, step, self.oracle_views[cp])
                self.persisted[cp] = dict(self.persisted_now)
            self.done += 1


class PrefixFork:
    """One campaign partition's slot for a profile forked where a workload
    and the one after it part: after the prologue they share and the
    leading body steps they share. Sibling workloads from one skeleton
    often differ only in their last steps, so the next profile resumes
    there instead of replaying the prefix from mkfs."""

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.run: Profile | None = None

    def put(self, fs_name: str, workload: Workload, run: Profile) -> None:
        self.key = (fs_name, workload.prologue, workload.steps[: run.done])
        self.run = run

    def take(self, fs_name: str, workload: Workload) -> Profile | None:
        """The held run when ``workload`` starts with its prefix, else None;
        the slot is emptied either way."""
        key, run = self.key, self.run
        self.key = self.run = None
        if run is None:
            return None
        name, prologue, steps = key
        if name != fs_name or prologue != workload.prologue or workload.steps[: len(steps)] != steps:
            return None
        return run


def _shared_steps(workload: Workload, following: Workload | None) -> int | None:
    """How many leading body steps ``following`` shares with ``workload``;
    None when there is no following workload or the prologues differ."""
    if following is None or following.prologue != workload.prologue:
        return None
    n = 0
    for mine, theirs in zip(workload.steps, following.steps):
        if mine != theirs:
            break
        n += 1
    return n


def profile(
    workload: Workload,
    fs_name: str,
    fork: PrefixFork | None = None,
    following: Workload | None = None,
) -> Profile:
    """Run ``workload`` once end to end and return the run: its IO log,
    per-checkpoint oracle views and persisted sets.

    With a partition's ``fork`` slot, the run resumes from the fork held
    there when ``workload`` starts with its prefix, and it leaves a fork
    for ``following`` where the two part; a resumed profile equals a fresh
    one."""
    run = fork.take(fs_name, workload) if fork is not None else None
    try:
        if run is None:
            run = Profile(fs_name, workload.prologue)
        shared = _shared_steps(workload, following) if fork is not None else None
        # a run resumed past the point where ``following`` parts leaves none
        if shared is not None and shared >= run.done:
            run.advance(workload.steps[run.done : shared])
            fork.put(fs_name, workload, run.fork())
        run.advance(workload.steps[run.done :])
    except FsError as e:
        raise HarnessError(f"workload op failed: {e}") from e
    return run


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


def check(prof: Profile, state: CrashState, memo: MountMemo | None = None) -> Verdict:
    """Mount one crash state of ``prof`` (running recovery) and compare it
    against the oracle of the last checkpoint it contains (the freshly
    formatted file system before the first), for the entities the
    persistence calls made durable by then. Only a bug verdict names its
    state (``crash_descriptor``): nothing reads a passing one's.

    The state mounts through ``memo``, a campaign partition's, or a fresh
    ``MountMemo`` when none is given: each distinct crash image is
    recovered once, each distinct recovered file system loaded and viewed
    once (``SoundFs.mount``) and each distinct set of directories probed
    once on it (``_write_checks``).

    A subset state's crash lands mid-epoch, so an entity may legitimately
    show any committed state at or after its persistence point: it must
    match the checkpoint oracle or one of the later oracles, metadata only
    (in-place data overwrites are legally torn), and no spurious-entry scan
    runs.
    """
    cp = state.checkpoint_id
    oracle_view = prof.oracle_views.get(cp, prof.base_view)
    persisted_set = prof.persisted.get(cp, {})
    target = get_target(prof.fs_name)
    fs = target.mount(state.image, memo or MountMemo())
    if isinstance(fs, Unmountable):
        diff = [DiffEntry("unmountable", expected="mountable file system", actual=fs.reason)]
        return Verdict("bug", state.descriptor(), "unmountable", diff, fsck=target.fsck(fs))

    crash_view = fs.state_view()
    diff: list[DiffEntry] = []
    subset = state.subset is not None
    candidates = [oracle_view]
    if subset:
        candidates += [prof.oracle_views[j] for j in range(cp + 1, prof.checkpoint_count + 1)]

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
        return Verdict("bug", state.descriptor(), classify(diff), diff)
    return Verdict("pass")


def _write_checks(fs, crash_view: FsStateView, persisted_set: dict[str, int]):
    """Recovered directories near persisted entities must still be modifiable.

    The outcome depends only on the recovered file system and the probed
    directories, so it is kept on the memo mount's record, keyed by the
    probed directories. A stored outcome is returned without touching a
    file system; otherwise the probes run on a live file system thawed
    from the memo mount, which stays as it was."""
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
    probed = tuple(sorted(dirs))
    probes = fs.memo_record.probes
    if probed in probes:
        return probes[probed]
    live = fs.thaw() if probed else None
    diff = []
    for d in probed:
        probe = "probe_chk" if d == "/" else f"{d}/probe_chk"
        if crash_view.get(probe) is not None:
            continue
        try:
            live.apply(FsOp(FsOpKind.CREAT, path=probe), _PROBE_INDEX)
            live.apply(FsOp(FsOpKind.WRITE, path=probe, start=0, end=4096), _PROBE_INDEX)
            live.apply(FsOp(FsOpKind.UNLINK, path=probe), _PROBE_INDEX)
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
                live.apply(FsOp(FsOpKind.RMDIR, path=d), _PROBE_INDEX)
                live.apply(FsOp(FsOpKind.MKDIR, path=d), _PROBE_INDEX)
            except FsError as e:
                diff.append(
                    DiffEntry(
                        "probe",
                        path=d,
                        expected="removable empty directory",
                        actual=str(e),
                    )
                )
    probes[probed] = tuple(diff)
    return probes[probed]


@dataclass
class RunFlags:
    all_checkpoints: bool = False
    subset: bool = False
    granularity: str = "op"
    seed: int = 0


def run_workload(
    workload: Workload,
    fs_name: str,
    flags: RunFlags | None = None,
    memo: MountMemo | None = None,
    fork: PrefixFork | None = None,
    following: Workload | None = None,
) -> list[Verdict]:
    """Profile once (resuming from ``fork`` and leaving one there for
    ``following``, see ``profile``), then test crash states, mounting them
    through ``memo`` when given. Default mode tests only the final
    checkpoint: campaigns run shorter sequences first, so earlier
    checkpoints repeat already-explored workloads."""
    flags = flags or RunFlags()
    try:
        prof = profile(workload, fs_name, fork, following)
    except HarnessError as e:
        return [Verdict("harness_error", crash_descriptor="profile", reason=str(e))]

    n = prof.checkpoint_count
    if n == 0:
        return []  # no persistence point, so nothing to test

    checkpoints = range(1, n + 1) if (flags.all_checkpoints or flags.subset) else [n]
    verdicts = [check(prof, _checkpoint_state(prof, k), memo) for k in checkpoints]
    if flags.subset:
        verdicts.extend(_subset_verdicts(prof, flags, memo))
    return verdicts


def _subset_verdicts(prof: Profile, flags: RunFlags, memo: MountMemo | None) -> list[Verdict]:
    epochs = split_epochs(prof.io_log)
    prefixes = (
        prefix_state(prof.base_image, epochs, p, flags.granularity) for p in range(len(epochs))
    )
    return [
        check(prof, build_subset_state(prefix, kept), memo)
        for prefix in prefixes
        for kept in enumerate_target_subsets(prefix, flags.seed)
    ]


def _checkpoint_state(prof: Profile, k: int) -> CrashState:
    return CrashState(replay(prof.base_image, prof.io_log, checkpoint=k), checkpoint_id=k)


def state_for(prof: Profile, descriptor: str) -> CrashState:
    """Rebuild the crash state a report's descriptor names. Raises ValueError
    when the descriptor does not fit the profiled workload."""
    try:
        crash = parse_descriptor(descriptor)
        if isinstance(crash, SubsetDescriptor):
            epochs, gran = split_epochs(prof.io_log), crash.granularity
            prefix = prefix_state(prof.base_image, epochs, crash.prefix_epoch_count, gran)
            return build_subset_state(prefix, crash.kept_indices)
        if not 1 <= crash <= prof.checkpoint_count:
            raise ValueError(f"the workload has {prof.checkpoint_count} checkpoints")
        return _checkpoint_state(prof, crash)
    except (ValueError, CrashGenError) as e:
        raise ValueError(f"crash descriptor {descriptor!r}: {e}") from None
