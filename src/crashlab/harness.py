"""Workload profiling and the one crash-state pipeline.

A ``Profile`` is the run that executes the workload once on a recording
device. Its ``checkpoints`` list one ``Checkpoint`` record per persistence
point: the log position, the device's image there, the oracle view (the
view the file system would show after a clean unmount: ``clean_view``, the
live view, or an unmounted replica's when the commit deferred data) and
the persisted set. Checkpoint 0 is the formatted file system, at position
0 with an empty persisted set, and each persistence call appends one
record. Crash states are cuts of the IO log: at a checkpoint, its image;
mid-epoch, the crash generator's subsets, each built on the image of the
last checkpoint before its cut with only the writes logged since replayed.
``check(prof, state)`` turns any of them into a verdict: it mounts the
state so recovery runs and compares it against the oracle of the last
checkpoint the state contains, but only for entities the persistence calls
made durable (``_update_persisted``). Campaigns, replay (``state_for``
rebuilds the state a report names) and the corpus all go through it, and
it mounts every state through a ``MountMemo``: each distinct crash image
is mounted once, its journal scanned once per distinct journal and
replayed once, each distinct recovered file system loaded from the
recovered image the replay gives and viewed once, with no block written,
and each distinct set of directories probed once on it. A repeat is
compared on the stored view; a live file system is thawed from the memo
mount only when a probe must write. One workload's subset states that
recover to one file system at one checkpoint are compared once and share
the verdict (``_subset_verdicts``). Within a campaign's worker partition,
the memo is shared, and the workloads' bodies form a trie of shared step
prefixes: a stack of frozen runs (``PrefixFork``) holds the last profiled
workload's state after its prologue and each of its leading steps, and a
profile resumes from a fork of the deepest one its body starts with. A
fork shares its device and file system until it first writes, and copies
them then. Siblings that differ only in their final persistence call run
its commit once per commit key, all that a commit reads of the call
(``SoundFs.commit_key``): on SoundFS one key for every call, on a seeded
variant one for the calls it does not break and one for those it does,
except on bugfs-b3, whose broken commit reads the target: one per target
inode there. Each still computes its own persisted set (``profile``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .ace import Workload
from .blockdev import (
    Device,
    DiskImage,
    replay,
    split_epochs,
)
from .crashgen import (
    CrashState,
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
    target and shared as the image of every profile's checkpoint 0. mkfs
    writes only the blocks of its zero base that it makes non-zero, so
    every device and crash state built on the image copies a few blocks,
    not hundreds."""
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


class Checkpoint(NamedTuple):
    """One persistence point of a profile run: its position in the IO log
    (the number of records before it), the device's image there, the oracle
    view and the persisted set. Nothing changes a record once made."""

    position: int
    image: DiskImage
    view: FsStateView
    persisted: dict[str, int]


class Profile:
    """A workload's profile run: the file system, its recording device and,
    after the prologue and ``done`` body steps, its ``checkpoints``, the
    formatted file system first. ``shared`` says whether a fork may still
    hold the device and file system."""

    def __init__(self, fs_name: str, prologue) -> None:
        self.fs_name = fs_name
        image = mkfs_base_image(fs_name)
        self.device = Device(DEFAULT_DEVICE_BYTES, image)
        self.fs = get_target(fs_name).mount_device(self.device)
        if isinstance(self.fs, Unmountable):
            raise HarnessError(f"fresh image did not mount: {self.fs.reason}")
        self.checkpoints = [Checkpoint(0, image, self.fs.state_view(), {})]
        self.shared = False
        self.op_index = 0
        self.done = 0
        # shared with this state's forks; holds the first final commit run
        # from this state per commit key (``_persist``)
        self.final_commit: dict = {}
        for op in prologue:
            self.fs.apply(op, self.op_index)
            self.op_index += 1

    def fork(self) -> "Profile":
        """An independent copy. It shares the device and file system with
        this run until either writes, which copies them first (``_own``).
        Checkpoint records are never changed, so the copy shares them. The
        copy also shares ``final_commit`` with this run and with every other
        fork of this state, until it takes a step: a workload whose last
        step is a persistence call stores its commit there or adopts a
        stored one."""
        run = Profile.__new__(Profile)
        run.__dict__.update(vars(self))
        self.shared = run.shared = True
        run.checkpoints = list(self.checkpoints)
        return run

    def advance(self, steps) -> None:
        """Run step ``done`` of the workload body ``steps``; the new state
        gets a fresh ``final_commit`` cell."""
        step = steps[self.done]
        if isinstance(step, FsOp):
            self._own()
            self.fs.apply(step, self.op_index)
            self.op_index += 1
        else:
            self._persist(step, self.done == len(steps) - 1)
        self.done += 1
        self.final_commit = {}

    def _own(self) -> None:
        """Before this run writes, copy the device and file system it may
        share with a fork."""
        if self.shared:
            self.device = self.device.copy()
            self.fs = self.fs.fork(self.device)
            self.shared = False

    def _persist(self, step: PersistOp, final: bool) -> None:
        """Commit ``step`` and append its checkpoint, with the last
        checkpoint's persisted set raised by what ``step`` made durable.

        The step's commit key (``commit_key``) checks its target once, and
        ``persist`` runs the commit from it. The body's ``final`` step is
        never followed by another, so forks of one state share it by that
        key: the first to get here with a key stores its post-commit device,
        file system and checkpoint in ``final_commit``, and the others with
        that key adopt those read-only, never copying the state they forked
        from, and append that checkpoint with their own persisted set.
        Nothing advances a run past its final step, so nothing writes to a
        stored commit."""
        key = self.fs.commit_key(step.kind, step.target)
        if final and key in self.final_commit:
            self.device, self.fs, cp = self.final_commit[key]
        else:
            self._own()
            self.fs.persist(step.kind, step.target, key)
            # The oracle is the view after a clean unmount. It is the live
            # view unless the commit deferred data (bugfs-b5), which gets its
            # blocks only when the unmount writes it.
            cp = Checkpoint(len(self.device.log), self.device.snapshot(), self.fs.clean_view(), {})
            if final:
                self.final_commit[key] = (self.device, self.fs, cp)
        persisted = dict(self.checkpoints[-1].persisted)
        _update_persisted(persisted, self.fs, step, cp.view)
        self.checkpoints.append(cp._replace(persisted=persisted))


class PrefixFork:
    """One campaign partition's stack of frozen runs: ``runs[d]`` is the
    state after the prologue and ``d`` body steps of the last workload
    profiled through it. A partition's workloads form a trie of shared step
    prefixes, and siblings from one skeleton often differ only in their
    last steps, so a profile resumes from a fork of the deepest run its body
    starts with instead of replaying the prefix from mkfs. Nothing advances
    a run on the stack."""

    def __init__(self) -> None:
        self.runs: list[Profile] = []
        self.prologue: tuple = ()
        self.steps: tuple = ()  # the body of the last workload profiled

    def resume(self, fs_name: str, workload: Workload) -> Profile:
        """A fork of the deepest run whose steps ``workload``'s body starts
        with, after dropping the deeper ones. Another target or another
        prologue empties the stack, which a fresh run then starts."""
        runs = self.runs
        if not runs or (runs[0].fs_name, self.prologue) != (fs_name, workload.prologue):
            runs[:] = [Profile(fs_name, workload.prologue)]
            self.prologue = workload.prologue
        depth = 0
        for mine, theirs in zip(self.steps[: len(runs) - 1], workload.steps):
            if mine != theirs:
                break
            depth += 1
        del runs[depth + 1 :]
        self.steps = workload.steps
        return runs[depth].fork()


def profile(workload: Workload, fs_name: str, fork: PrefixFork | None = None) -> Profile:
    """Run ``workload`` once end to end and return the run: its IO log and
    its checkpoints.

    With a partition's ``fork`` stack, the run resumes from a fork of the
    deepest frozen run its body starts with, and as it passes each new
    depth below its last step it pushes a fork of itself there; a resumed
    profile equals a fresh one.

    Siblings that share every step but a final persistence call all resume
    from forks of the run at depth ``len(steps) - 1``. Those whose calls
    have one commit key (``SoundFs.commit_key``) share that commit, on
    every target: the first runs it, and the others adopt its post-commit
    device, file system, image and oracle view read-only, computing only
    their own persisted set. Nothing is pushed after the final step, so
    nothing advances or forks an adopted run. Without a ``fork`` stack (``replay``,
    the corpus) no state is forked, and every commit runs."""
    steps = workload.steps
    try:
        run = fork.resume(fs_name, workload) if fork else Profile(fs_name, workload.prologue)
        while run.done < len(steps):
            run.advance(steps)
            if fork and run.done < len(steps):
                fork.runs.append(run.fork())
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


def check(
    prof: Profile, state: CrashState, memo: MountMemo | None = None, shared: dict | None = None
) -> Verdict:
    """Mount one crash state of ``prof`` (running recovery) and compare it
    against the oracle of the last checkpoint it contains (the freshly
    formatted file system before the first), for the entities the
    persistence calls made durable by then. Only a bug verdict names its
    state (``crash_descriptor``): nothing reads a passing one's.

    The state mounts through ``memo``, a campaign partition's, or a fresh
    ``MountMemo`` when none is given: each distinct crash image is mounted
    once, each distinct journal scanned once, each distinct recovered file
    system loaded and viewed once (``SoundFs.mount``) and each distinct set
    of directories probed once on it (``_write_checks``).

    A subset state's crash lands mid-epoch, so an entity may legitimately
    show any committed state at or after its persistence point: it must
    match the checkpoint oracle or one of the later oracles, metadata only
    (in-place data overwrites are legally torn), and no spurious-entry scan
    runs. So its verdict depends only on the recovered state (the memo
    record, or the ``Unmountable``) and the checkpoint. ``shared``, one
    workload's table of subset verdicts by those two (``_subset_verdicts``),
    gives a state whose pair was compared before that verdict under its own
    descriptor. Every state is still mounted, and viewed when it mounts,
    once.
    """
    target = get_target(prof.fs_name)
    fs = target.mount(state.image, memo or MountMemo())
    unmountable = isinstance(fs, Unmountable)
    crash_view = None if unmountable else fs.state_view()
    if shared is None:
        return _verdict(prof, state, target, fs, crash_view)
    key = (fs if unmountable else fs.memo_record, state.checkpoint_id)
    verdict = shared.get(key)
    if verdict is None:
        verdict = shared[key] = _verdict(prof, state, target, fs, crash_view)
    elif verdict.is_bug:
        verdict = replace(verdict, crash_descriptor=state.descriptor())
    return verdict


def _verdict(prof: Profile, state: CrashState, target, fs, crash_view) -> Verdict:
    """``check``'s comparison of the mounted state ``fs`` and its view."""
    if crash_view is None:
        diff = [DiffEntry("unmountable", expected="mountable file system", actual=fs.reason)]
        return Verdict("bug", state.descriptor(), "unmountable", diff, fsck=target.fsck(fs))

    cp = state.checkpoint_id
    oracle_view, persisted_set = prof.checkpoints[cp].view, prof.checkpoints[cp].persisted
    diff: list[DiffEntry] = []
    subset = state.subset is not None
    candidates = [oracle_view]
    if subset:
        candidates += [later.view for later in prof.checkpoints[cp + 1 :]]

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
    from the memo mount, which stays as it was. A directory's probes run
    in order, and the first that fails is its one diff entry."""
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
        checks = [("writable directory", [
            FsOp(FsOpKind.CREAT, path=probe),
            FsOp(FsOpKind.WRITE, path=probe, start=0, end=4096),
            FsOp(FsOpKind.UNLINK, path=probe),
        ])]
        entry = crash_view.get(d)
        if d != "/" and entry is not None and entry.size == 0:
            checks.append(("removable empty directory",
                           [FsOp(FsOpKind.RMDIR, path=d), FsOp(FsOpKind.MKDIR, path=d)]))
        try:
            for expected, ops in checks:
                for op in ops:
                    live.apply(op, _PROBE_INDEX)
        except FsError as e:
            diff.append(DiffEntry("probe", path=d, expected=expected, actual=str(e)))
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
) -> list[Verdict]:
    """Profile once (through the ``fork`` stack when given, see
    ``profile``), then test crash states, mounting them through ``memo``
    when given. Default mode tests only the final checkpoint: campaigns run
    shorter sequences first, so earlier checkpoints repeat already-explored
    workloads."""
    flags = flags or RunFlags()
    try:
        prof = profile(workload, fs_name, fork)
    except HarnessError as e:
        return [Verdict("harness_error", crash_descriptor="profile", reason=str(e))]

    n = len(prof.checkpoints) - 1
    if n == 0:
        return []  # no persistence point, so nothing to test

    checkpoints = range(1, n + 1) if (flags.all_checkpoints or flags.subset) else [n]
    verdicts = [check(prof, _checkpoint_state(prof, k), memo) for k in checkpoints]
    if flags.subset:
        verdicts.extend(_subset_verdicts(prof, flags, memo))
    return verdicts


def _subset_verdicts(prof: Profile, flags: RunFlags, memo: MountMemo | None) -> list[Verdict]:
    """The verdicts of ``prof``'s subset states, epoch by epoch. Most
    subsets of an epoch recover to a state another one recovered to, so
    each distinct (recovered state, checkpoint) pair is compared once, and
    the later states with that pair take its verdict under their own
    descriptor (``check``'s ``shared`` table)."""
    log = prof.device.log
    epochs = split_epochs(log)
    prefixes = (
        prefix_state(prof.checkpoints, log, epochs, p, flags.granularity)
        for p in range(len(epochs))
    )
    shared: dict = {}
    return [
        check(prof, build_subset_state(prefix, kept), memo, shared)
        for prefix in prefixes
        for kept in enumerate_target_subsets(prefix, flags.seed)
    ]


def _checkpoint_state(prof: Profile, k: int) -> CrashState:
    """Checkpoint ``k``'s state: its image, through a ``replay`` that
    applies no logged write. ``perfbench``'s tracer counts one ``replay``
    per checkpoint state built."""
    cp = prof.checkpoints[k]
    return CrashState(replay(cp.image, prof.device.log, cp.position, cp.position), k)


def state_for(prof: Profile, descriptor: str) -> CrashState:
    """Rebuild the crash state a report's descriptor names. Raises ValueError
    when the descriptor does not fit the profiled workload."""
    try:
        crash = parse_descriptor(descriptor)
        if isinstance(crash, tuple):
            p, kept, granularity = crash
            log = prof.device.log
            prefix = prefix_state(prof.checkpoints, log, split_epochs(log), p, granularity)
            return build_subset_state(prefix, kept)
        if not 1 <= crash < len(prof.checkpoints):
            raise ValueError(f"the workload has {len(prof.checkpoints) - 1} checkpoints")
        return _checkpoint_state(prof, crash)
    except ValueError as e:
        raise ValueError(f"crash descriptor {descriptor!r}: {e}") from None
