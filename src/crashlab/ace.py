"""Exhaustive bounded workload generation.

Four phases: pick operation kinds (skeletons), expand parameters over the
bounded file set with symmetry pruning, weave in persistence points, and
resolve dependencies into a prologue. The output stream is deterministic and
index-addressable: workload i is reconstructible from (Bounds, i). Seeking to
i costs one body count per (skeleton, params) group before it, not one
resolved workload per index.

Symmetry rule: for an operation taking two file-path arguments from the same
directory (link, symlink, rename), the two argument orders describe the same
test under the file-name swap, so only the lexicographically ordered pair is
emitted. Single-path parameterizations are never collapsed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .fsops import (
    CORE_OP_KINDS,
    FallocFlag,
    FsOp,
    FsOpKind,
    PersistKind,
    PersistOp,
    Step,
    falloc_flag_from_token,
    falloc_flag_token,
    format_range,
    format_size,
    parent_dir,
    parse_range,
    parse_size,
    same_directory,
)

WRITE_CLASSES = ("overwrite_start", "overwrite_middle", "overwrite_end", "append")
NOMINAL_SIZE = 16 * 1024  # floor for overwrite-class offsets on small files
CHUNK = 4 * 1024

DEFAULT_FILES = ("foo", "bar", "A/foo", "A/bar", "B/foo", "B/bar")
DEFAULT_DIRS = ("A", "B")

CRASH_MARKER = "---crash---"


class GenerationError(Exception):
    pass


class UnsatisfiableBody(GenerationError):
    """Dependency resolution cannot make every referenced path valid."""


class ParseError(GenerationError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Bounds:
    """Exploration bounds; defaults are the desk-scale campaign values."""

    seq_length: int = 1
    allowed_ops: tuple[FsOpKind, ...] = CORE_OP_KINDS
    files: tuple[str, ...] = DEFAULT_FILES
    dirs: tuple[str, ...] = DEFAULT_DIRS
    write_classes: tuple[str, ...] = WRITE_CLASSES
    falloc_flags: tuple[FallocFlag, ...] = tuple(FallocFlag)
    truncate_sizes: tuple[int, ...] = (0, 2500)
    nested_depth: int = 2

    def __post_init__(self):
        if not 1 <= self.seq_length <= 3:
            raise GenerationError("seq_length must be 1..3")
        if not self.allowed_ops:
            raise GenerationError("allowed_ops must not be empty")

    def describe(self) -> str:
        ops = ",".join(k.value for k in self.allowed_ops)
        return f"seq={self.seq_length};ops={ops};files={','.join(self.files)}"


@dataclass(frozen=True)
class Skeleton:
    """Ordered core-op kinds with arguments erased; the dedup key."""

    ops: tuple[FsOpKind, ...]

    def __str__(self) -> str:
        return "-".join(k.value for k in self.ops)


@dataclass(frozen=True)
class Workload:
    """Dependency prologue plus the parameterized body with persistence points."""

    prologue: tuple[FsOp, ...]
    steps: tuple[Step, ...]
    skeleton: Skeleton
    index: int = -1

    def core_ops(self) -> list[FsOp]:
        return [s for s in self.steps if isinstance(s, FsOp)]

    def all_ops(self) -> list[FsOp]:
        return list(self.prologue) + self.core_ops()

    def __eq__(self, other):
        if not isinstance(other, Workload):
            return NotImplemented
        return (
            self.prologue == other.prologue
            and self.steps == other.steps
            and self.skeleton == other.skeleton
        )

    def __hash__(self):
        return hash((self.prologue, self.steps, self.skeleton))


# -- phase 1: skeletons -------------------------------------------------------


def gen_skeletons(bounds: Bounds) -> list[Skeleton]:
    """All |allowed_ops|^seq_length kind sequences, lexicographically ordered."""
    return [
        Skeleton(combo)
        for combo in itertools.product(bounds.allowed_ops, repeat=bounds.seq_length)
    ]


# -- symbolic state -----------------------------------------------------------


@dataclass
class _SymState:
    """What exists (or can be made to exist by the prologue) while a candidate
    body is built op by op. ``removed`` marks names no longer creatable by the
    prologue; body ops may still recreate them (open with O_CREAT semantics)."""

    bounds: Bounds
    nodes: dict[str, str] = field(default_factory=dict)  # path -> file|dir|symlink
    sizes: dict[str, int] = field(default_factory=dict)
    xattrs: dict[str, set[str]] = field(default_factory=dict)
    links: dict[str, str] = field(default_factory=dict)  # symlink path -> target
    removed: set[str] = field(default_factory=set)
    prologue: list[FsOp] = field(default_factory=list)
    prologue_paths: set[str] = field(default_factory=set)
    consumed_xattrs: set[tuple[str, str]] = field(default_factory=set)

    def clone(self) -> "_SymState":
        return _SymState(
            self.bounds,
            dict(self.nodes),
            dict(self.sizes),
            {k: set(v) for k, v in self.xattrs.items()},
            dict(self.links),
            set(self.removed),
            list(self.prologue),
            set(self.prologue_paths),
            set(self.consumed_xattrs),
        )

    def exists(self, path: str) -> bool:
        return path == "/" or path in self.nodes

    def kind(self, path: str) -> str | None:
        if path == "/":
            return "dir"
        return self.nodes.get(path)

    def children(self, dirpath: str) -> list[str]:
        prefix = "" if dirpath == "/" else dirpath + "/"
        return [
            p
            for p in self.nodes
            if p.startswith(prefix) and "/" not in p[len(prefix) :] and p != dirpath
        ]

    def can_ensure_dir(self, path: str) -> bool:
        if path == "/":
            return True
        k = self.nodes.get(path)
        if k is not None:
            return k == "dir"
        return path not in self.removed and self.can_ensure_dir(parent_dir(path))

    def can_ensure_file(self, path: str) -> bool:
        k = self.nodes.get(path)
        if k is not None:
            return k == "file"
        return path not in self.removed and self.can_ensure_dir(parent_dir(path))

    def _prologue_visible(self, path: str) -> bool:
        """A prologue op may only run inside directories that exist before the
        body starts: the root or prologue-created directories."""
        return path == "/" or path in self.prologue_paths

    def ensure_dir(self, path: str) -> None:
        if path == "/" or self.nodes.get(path) == "dir":
            return
        if path in self.nodes:
            raise UnsatisfiableBody(f"{path} exists but is not a directory")
        if path in self.removed:
            raise UnsatisfiableBody(f"{path} was removed earlier in the body")
        parent = parent_dir(path)
        self.ensure_dir(parent)
        if not self._prologue_visible(parent):
            raise UnsatisfiableBody(f"{path} depends on a body-created directory")
        self.prologue.append(FsOp(FsOpKind.MKDIR, path=path))
        self.nodes[path] = "dir"
        self.prologue_paths.add(path)

    def ensure_file(self, path: str) -> None:
        if self.nodes.get(path) == "file":
            return
        if path in self.nodes:
            raise UnsatisfiableBody(f"{path} exists but is not a file")
        if path in self.removed:
            raise UnsatisfiableBody(f"{path} was removed earlier in the body")
        parent = parent_dir(path)
        self.ensure_dir(parent)
        if not self._prologue_visible(parent):
            raise UnsatisfiableBody(f"{path} depends on a body-created directory")
        self.prologue.append(FsOp(FsOpKind.CREAT, path=path))
        self.nodes[path] = "file"
        self.sizes[path] = 0
        self.prologue_paths.add(path)

    def ensure_xattr(self, path: str, name: str, value: str) -> None:
        if name in self.xattrs.get(path, set()):
            return
        # The setxattr dependency runs in the prologue, so it cannot target a
        # file the body created, and each prologue-set attribute can satisfy
        # only the first body op that strips it.
        if path in self.nodes and path not in self.prologue_paths:
            raise UnsatisfiableBody(
                f"{path} gained no xattr {name!r} by the time it is removed"
            )
        if (path, name) in self.consumed_xattrs:
            raise UnsatisfiableBody(
                f"xattr {name!r} of {path} was already removed earlier in the body"
            )
        self.ensure_file(path)
        self.prologue.append(
            FsOp(FsOpKind.XATTR, path=path, attr=name, value=value, variant="setxattr")
        )
        self.xattrs.setdefault(path, set()).add(name)

    def materialize_file(self, path: str, *, by_op: bool = False) -> None:
        """Make a file path valid at this point. A prologue creat is preferred;
        ops that open with O_CREAT (by_op) may instead create the name at body
        time, which also covers names removed or shadowed earlier in the body.
        """
        k = self.nodes.get(path)
        if k == "file":
            return
        if k is not None:
            raise UnsatisfiableBody(f"{path} exists but is not a file")
        if path not in self.removed:
            try:
                self.ensure_file(path)
                return
            except UnsatisfiableBody:
                if not by_op:
                    raise
        elif not by_op:
            raise UnsatisfiableBody(f"{path} was removed earlier in the body")
        if self.kind(parent_dir(path)) != "dir":
            raise UnsatisfiableBody(f"parent of {path} is gone")
        self.nodes[path] = "file"
        self.sizes[path] = 0

    def can_materialize_file(self, path: str, *, by_op: bool = False) -> bool:
        k = self.nodes.get(path)
        if k is not None:
            return k == "file"
        if self.can_ensure_file(path):
            return True
        return by_op and self.kind(parent_dir(path)) == "dir"

    def resolve(self, path: str, depth: int = 0) -> str | None:
        """Follow a final-component symlink chain; None when dangling."""
        if depth > 8 or not self.exists(path):
            return None
        if self.kind(path) != "symlink":
            return path
        target = self.links.get(path, "")
        if not target:
            return None
        if "/" not in target and parent_dir(path) != "/":
            target = parent_dir(path) + "/" + target
        return self.resolve(target, depth + 1)

    def drop(self, path: str) -> None:
        self.nodes.pop(path, None)
        self.sizes.pop(path, None)
        self.xattrs.pop(path, None)
        self.links.pop(path, None)
        self.removed.add(path)


def _overwrite_range(sym_size: int, write_class: str) -> tuple[int, int]:
    size = max(sym_size, NOMINAL_SIZE)
    if write_class == "overwrite_start":
        return 0, CHUNK
    if write_class == "overwrite_middle":
        mid = (size // 2) // CHUNK * CHUNK
        return mid, mid + CHUNK
    if write_class == "overwrite_end":
        return size - CHUNK, size
    if write_class == "append":
        return sym_size, sym_size + CHUNK
    raise GenerationError(f"unknown write class {write_class!r}")


def _apply_effect(st: _SymState, op: FsOp) -> None:
    """Mirror of the real FS semantics over the symbolic state; adds prologue
    ops for dependencies. Raises UnsatisfiableBody when no prologue can help."""
    k = op.kind
    if k is FsOpKind.CREAT:
        if st.kind(op.path) == "file":
            st.sizes[op.path] = 0  # creat truncates
            return
        if st.kind(op.path) is not None:
            raise UnsatisfiableBody(f"creat target {op.path} is not a file")
        st.ensure_dir(parent_dir(op.path))
        st.nodes[op.path] = "file"
        st.sizes[op.path] = 0
    elif k is FsOpKind.MKDIR:
        if st.exists(op.path):
            raise UnsatisfiableBody(f"mkdir target {op.path} already exists")
        if op.path in st.removed:
            # recreating a removed directory name is a body-level effect
            if not st.can_ensure_dir(parent_dir(op.path)):
                raise UnsatisfiableBody(f"parent of {op.path} is gone")
            st.ensure_dir(parent_dir(op.path))
        else:
            st.ensure_dir(parent_dir(op.path))
        st.nodes[op.path] = "dir"
        st.removed.discard(op.path)
    elif k is FsOpKind.FALLOC:
        st.materialize_file(op.path, by_op=True)
        if op.flag is FallocFlag.NONE and op.end > st.sizes.get(op.path, 0):
            st.sizes[op.path] = op.end
    elif k in (FsOpKind.WRITE, FsOpKind.DWRITE, FsOpKind.MWRITE):
        st.materialize_file(op.path, by_op=True)
        if op.end > st.sizes.get(op.path, 0):
            st.sizes[op.path] = op.end
    elif k is FsOpKind.LINK:
        if st.kind(op.path) not in (None, "file"):
            raise UnsatisfiableBody(f"link source {op.path} is not a file")
        if st.exists(op.path2):
            raise UnsatisfiableBody(f"link destination {op.path2} already exists")
        if st.kind(op.path) is None:
            st.ensure_file(op.path)
        st.ensure_dir(parent_dir(op.path2))
        st.nodes[op.path2] = "file"
        st.sizes[op.path2] = st.sizes.get(op.path, 0)
        st.removed.discard(op.path2)
    elif k is FsOpKind.SYMLINK:
        if st.exists(op.path2):
            raise UnsatisfiableBody(f"symlink destination {op.path2} already exists")
        st.ensure_dir(parent_dir(op.path2))
        st.nodes[op.path2] = "symlink"
        st.links[op.path2] = op.path
        st.removed.discard(op.path2)
    elif k is FsOpKind.RENAME:
        if st.kind(op.path) == "dir":
            raise UnsatisfiableBody("directory renames are not generated")
        if st.kind(op.path2) == "dir":
            raise UnsatisfiableBody(f"rename onto directory {op.path2}")
        if st.kind(op.path) is None:
            st.ensure_file(op.path)
        if not st.exists(op.path2) and not st.can_ensure_dir(parent_dir(op.path2)):
            raise UnsatisfiableBody(f"parent of {op.path2} is gone")
        st.ensure_dir(parent_dir(op.path2))
        src_kind = st.nodes[op.path]
        src_size = st.sizes.get(op.path, 0)
        src_link = st.links.get(op.path, "")
        st.drop(op.path2)
        st.drop(op.path)
        st.nodes[op.path2] = src_kind
        st.removed.discard(op.path2)
        if src_kind == "file":
            st.sizes[op.path2] = src_size
        if src_kind == "symlink":
            st.links[op.path2] = src_link
    elif k is FsOpKind.UNLINK:
        if st.kind(op.path) == "dir":
            raise UnsatisfiableBody(f"unlink target {op.path} is a directory")
        if st.kind(op.path) is None:
            st.ensure_file(op.path)
        st.drop(op.path)
    elif k is FsOpKind.REMOVE:
        kind = st.kind(op.path)
        if kind is None:
            if op.path in st.bounds.dirs:
                st.ensure_dir(op.path)
                kind = "dir"
            else:
                st.ensure_file(op.path)
                kind = "file"
        if kind == "dir" and st.children(op.path):
            raise UnsatisfiableBody(f"remove target {op.path} is not empty")
        st.drop(op.path)
    elif k is FsOpKind.RMDIR:
        if op.path == "/":
            raise UnsatisfiableBody("cannot rmdir the root directory")
        kind = st.kind(op.path)
        if kind is None:
            st.ensure_dir(op.path)
        elif kind != "dir":
            raise UnsatisfiableBody(f"rmdir target {op.path} is not a directory")
        if st.children(op.path):
            raise UnsatisfiableBody(f"rmdir target {op.path} is not empty")
        st.drop(op.path)
    elif k is FsOpKind.TRUNCATE:
        if st.kind(op.path) is None:
            st.ensure_file(op.path)
        if st.kind(op.path) != "file":
            raise UnsatisfiableBody(f"truncate target {op.path} is not a file")
        st.sizes[op.path] = op.end
    elif k is FsOpKind.XATTR:
        if op.variant == "removexattr":
            st.ensure_xattr(op.path, op.attr, "val1")
            st.xattrs.get(op.path, set()).discard(op.attr)
            st.consumed_xattrs.add((op.path, op.attr))
        else:
            if st.kind(op.path) is None:
                st.ensure_file(op.path)
            if st.kind(op.path) != "file":
                raise UnsatisfiableBody(f"setxattr target {op.path} is not a file")
            st.xattrs.setdefault(op.path, set()).add(op.attr)
    else:
        raise GenerationError(f"no effect for {k}")


# -- phase 2: parameter expansion ----------------------------------------------


def _candidates(kind: FsOpKind, st: _SymState, bounds: Bounds) -> list[FsOp]:
    """Deterministically ordered argument choices plausible at this point;
    final validity is decided by applying the effect."""
    files, dirs = bounds.files, bounds.dirs
    out: list[FsOp] = []

    def is_file_slot(p: str) -> bool:
        return st.kind(p) in (None, "file")

    if kind is FsOpKind.CREAT:
        out = [FsOp(kind, path=f) for f in files if is_file_slot(f)]

    elif kind is FsOpKind.MKDIR:
        out = [FsOp(kind, path=d) for d in dirs if not st.exists(d)]

    elif kind is FsOpKind.FALLOC:
        for f in files:
            if not is_file_slot(f) or not st.can_materialize_file(f, by_op=True):
                continue
            for flag in bounds.falloc_flags:
                for wc in bounds.write_classes:
                    start, end = _overwrite_range(st.sizes.get(f, 0), wc)
                    out.append(FsOp(kind, path=f, start=start, end=end, flag=flag))

    elif kind in (FsOpKind.WRITE, FsOpKind.DWRITE, FsOpKind.MWRITE):
        for f in files:
            if not is_file_slot(f) or not st.can_materialize_file(f, by_op=True):
                continue
            for wc in bounds.write_classes:
                start, end = _overwrite_range(st.sizes.get(f, 0), wc)
                out.append(FsOp(kind, path=f, start=start, end=end))

    elif kind is FsOpKind.LINK:
        for src in files:
            if not (st.kind(src) == "file" or (st.kind(src) is None and st.can_ensure_file(src))):
                continue
            for dst in files:
                if src == dst or st.exists(dst):
                    continue
                if same_directory(src, dst) and src > dst:
                    continue  # symmetric to the ordered pair
                out.append(FsOp(kind, path=src, path2=dst))

    elif kind is FsOpKind.SYMLINK:
        for target in files:
            for link in files:
                if target == link or st.exists(link):
                    continue
                if same_directory(target, link) and target > link:
                    continue
                out.append(FsOp(kind, path=target, path2=link))

    elif kind is FsOpKind.RENAME:
        for src in files:
            if st.kind(src) == "dir":
                continue
            if st.kind(src) is None and not st.can_ensure_file(src):
                continue
            for dst in files:
                if src == dst or st.kind(dst) == "dir":
                    continue
                if same_directory(src, dst) and src > dst:
                    continue
                out.append(FsOp(kind, path=src, path2=dst))

    elif kind is FsOpKind.UNLINK:
        out = [
            FsOp(kind, path=f)
            for f in files
            if st.kind(f) in ("file", "symlink")
            or (st.kind(f) is None and st.can_ensure_file(f))
        ]

    elif kind is FsOpKind.REMOVE:
        for p in list(files) + list(dirs):
            k = st.kind(p)
            if k == "dir" and st.children(p):
                continue
            if k is None and p in dirs and not st.can_ensure_dir(p):
                continue
            if k is None and p in files and not st.can_ensure_file(p):
                continue
            out.append(FsOp(kind, path=p))

    elif kind is FsOpKind.RMDIR:
        for d in dirs:
            k = st.kind(d)
            if k == "dir" and st.children(d):
                continue
            if k is None and not st.can_ensure_dir(d):
                continue
            if k not in (None, "dir"):
                continue
            out.append(FsOp(kind, path=d))

    elif kind is FsOpKind.TRUNCATE:
        for f in files:
            if st.kind(f) == "file" or (st.kind(f) is None and st.can_ensure_file(f)):
                for size in bounds.truncate_sizes:
                    out.append(FsOp(kind, path=f, end=size))

    elif kind is FsOpKind.XATTR:
        settable = [
            f
            for f in files
            if st.kind(f) == "file" or (st.kind(f) is None and st.can_ensure_file(f))
        ]
        out = [
            FsOp(kind, path=f, attr="u1", value="val1", variant="setxattr")
            for f in settable
        ] + [FsOp(kind, path=f, attr="u1", variant="removexattr") for f in settable]

    return out


def expand_params(skeleton: Skeleton, bounds: Bounds) -> list[tuple[FsOp, ...]]:
    """Cartesian expansion over the bounded file set, validity-checked against
    a symbolic state and pruned of symmetric duplicates."""
    results: list[tuple[FsOp, ...]] = []

    def rec(slot: int, st: _SymState, acc: list[FsOp]):
        if slot == len(skeleton.ops):
            results.append(tuple(acc))
            return
        for op in _candidates(skeleton.ops[slot], st, bounds):
            child = st.clone()
            try:
                _apply_effect(child, op)
            except UnsatisfiableBody:
                continue
            rec(slot + 1, child, acc + [op])

    rec(0, _SymState(bounds), [])
    return results


# -- phase 3: persistence points -----------------------------------------------


def _referenced_paths(ops: tuple[FsOp, ...]) -> list[str]:
    seen: dict[str, None] = {}
    for op in ops:
        for p in op.paths():
            if p:
                seen.setdefault(p, None)
                parent = parent_dir(p)
                if parent != "/":
                    seen.setdefault(parent, None)
    return sorted(seen)


def _persistence_choices(
    ops: tuple[FsOp, ...], bounds: Bounds
) -> list[list[PersistOp | None]]:
    """The persistence points offered after each op; a live target is a
    referenced path that exists and resolves once the op has run."""
    referenced = _referenced_paths(ops)
    st = _SymState(bounds)
    slot_choices: list[list[PersistOp | None]] = []
    for i, op in enumerate(ops):
        _apply_effect(st, op)
        live_targets = [
            t for t in referenced if st.exists(t) and st.resolve(t) is not None
        ]
        choices: list[PersistOp | None] = []
        if i != len(ops) - 1:
            choices.append(None)
        choices += [PersistOp(PersistKind.FSYNC, t) for t in live_targets]
        choices += [PersistOp(PersistKind.FDATASYNC, t) for t in live_targets]
        choices.append(PersistOp(PersistKind.SYNC))
        slot_choices.append(choices)
    return slot_choices


def _weave(ops: tuple[FsOp, ...], combo: tuple[PersistOp | None, ...]) -> tuple[Step, ...]:
    steps: list[Step] = []
    for op, pp in zip(ops, combo):
        steps.append(op)
        if pp is not None:
            steps.append(pp)
    return tuple(steps)


def add_persistence_points(
    ops: tuple[FsOp, ...], bounds: Bounds
) -> list[tuple[Step, ...]]:
    """All combinations of {none, fsync(t), fdatasync(t), sync} after each
    non-final op; the final op always gets a persistence point so a workload
    is never a truncated copy of a shorter one."""
    return [
        _weave(ops, combo)
        for combo in itertools.product(*_persistence_choices(ops, bounds))
    ]


# -- phase 4: dependency resolution ---------------------------------------------


def resolve_dependencies(steps: tuple[Step, ...], bounds: Bounds | None = None) -> Workload:
    """Build the minimal deterministic prologue making every path valid at use."""
    bounds = bounds or Bounds()
    st = _SymState(bounds)
    for step in steps:
        if isinstance(step, FsOp):
            _apply_effect(st, step)
        else:
            if step.kind is not PersistKind.SYNC:
                if not st.exists(step.target) or st.resolve(step.target) is None:
                    raise UnsatisfiableBody(
                        f"persistence target {step.target} does not exist"
                    )
    skeleton = Skeleton(tuple(s.kind for s in steps if isinstance(s, FsOp)))
    return Workload(prologue=tuple(st.prologue), steps=tuple(steps), skeleton=skeleton)


# -- generation pipeline ---------------------------------------------------------


@dataclass
class GenerationStats:
    # The generator rejects no body (see _workloads_from), so ``rejected``
    # stays 0; the fields remain for the tools that read them.
    emitted: int = 0
    rejected: int = 0
    rejection_reasons: list[str] = field(default_factory=list)


def _workloads_from(bounds: Bounds, start: int):
    """The workload stream from index ``start`` on.

    Each (skeleton, params) group holds exactly prod(len(choices)) bodies, so
    a group that ends before ``start`` is skipped by its count alone, and only
    bodies at or after ``start`` are resolved. No generated body is ever
    rejected: ``_persistence_choices`` offers only targets that exist and
    resolve after the same ``_apply_effect`` sequence that
    ``resolve_dependencies`` replays, and ``expand_params`` has already
    applied those ops without error. A rejection would therefore be a
    generator bug, and it raises rather than silently renumbering every later
    workload.
    """
    index = 0
    for skeleton in gen_skeletons(bounds):
        for ops in expand_params(skeleton, bounds):
            choices = _persistence_choices(ops, bounds)
            count = math.prod(len(c) for c in choices)
            if index + count <= start:
                index += count
                continue
            combos = itertools.product(*choices)
            if index < start:
                combos = itertools.islice(combos, start - index, None)
                index = start
            for combo in combos:
                workload = resolve_dependencies(_weave(ops, combo), bounds)
                yield replace(workload, skeleton=skeleton, index=index)
                index += 1


def generate_workloads(bounds: Bounds, stats: GenerationStats | None = None):
    """Deterministic stream of complete workloads, index-stamped in order."""
    for workload in _workloads_from(bounds, 0):
        if stats is not None:
            stats.emitted += 1
        yield workload


def workload_range(bounds: Bounds, start: int, end: int | None) -> list[Workload]:
    """Workloads [start, end) of the stream; seeks past the groups before start."""
    start = max(start, 0)
    stream = _workloads_from(bounds, start)
    return list(stream if end is None else itertools.islice(stream, max(end - start, 0)))


# -- DSL serialization ------------------------------------------------------------


def _format_op(op: FsOp) -> str:
    k = op.kind
    if k in (FsOpKind.CREAT, FsOpKind.MKDIR, FsOpKind.UNLINK, FsOpKind.REMOVE, FsOpKind.RMDIR):
        return f"{op.op_name} {op.path}"
    if k in (FsOpKind.WRITE, FsOpKind.DWRITE, FsOpKind.MWRITE):
        return f"{op.op_name} {format_range(op.start, op.end)} {op.path}"
    if k is FsOpKind.FALLOC:
        tok = falloc_flag_token(op.flag)
        middle = f"{tok} " if tok else ""
        return f"falloc {middle}{format_range(op.start, op.end)} {op.path}"
    if k in (FsOpKind.LINK, FsOpKind.SYMLINK, FsOpKind.RENAME):
        return f"{op.op_name} {op.path} {op.path2}"
    if k is FsOpKind.TRUNCATE:
        return f"truncate {format_size(op.end)} {op.path}"
    if k is FsOpKind.XATTR:
        if op.variant == "setxattr":
            return f"setxattr {op.path} {op.attr} {op.value}"
        return f"removexattr {op.path} {op.attr}"
    raise GenerationError(f"cannot format {op}")


def serialize(workload: Workload) -> str:
    lines = []
    if workload.prologue:
        lines.append("# deps")
        lines += [_format_op(op) for op in workload.prologue]
        lines.append("# ops")
    for step in workload.steps:
        if isinstance(step, FsOp):
            lines.append(_format_op(step))
        elif step.kind is PersistKind.SYNC:
            lines.append("sync")
        else:
            lines.append(f"{step.kind.value} {step.target}")
    lines.append(CRASH_MARKER)
    return "\n".join(lines) + "\n"


_OP_NAMES = {k.value: k for k in FsOpKind if k is not FsOpKind.XATTR}
_PERSIST_NAMES = {k.value: k for k in PersistKind}


def _parse_line(lineno: int, line: str) -> Step:
    tokens = line.split()
    name, args = tokens[0], tokens[1:]
    try:
        if name in _PERSIST_NAMES:
            kind = _PERSIST_NAMES[name]
            if kind is PersistKind.SYNC:
                if args:
                    raise ParseError(lineno, "sync takes no arguments")
                return PersistOp(kind)
            if len(args) != 1:
                raise ParseError(lineno, f"{name} takes one path")
            return PersistOp(kind, args[0])
        if name in ("setxattr", "removexattr"):
            if name == "setxattr":
                path, attr, value = args
                return FsOp(FsOpKind.XATTR, path=path, attr=attr, value=value, variant=name)
            path, attr = args
            return FsOp(FsOpKind.XATTR, path=path, attr=attr, variant=name)
        if name == "falloc":
            flag = FallocFlag.NONE
            if args and not args[0].startswith("("):
                flag = falloc_flag_from_token(args[0])
                args = args[1:]
            rng, path = args
            start, end = parse_range(rng)
            return FsOp(FsOpKind.FALLOC, path=path, start=start, end=end, flag=flag)
        kind = _OP_NAMES.get(name)
        if kind is None:
            raise ParseError(lineno, f"unknown operation {name!r}")
        if kind in (FsOpKind.WRITE, FsOpKind.DWRITE, FsOpKind.MWRITE):
            rng, path = args
            start, end = parse_range(rng)
            return FsOp(kind, path=path, start=start, end=end)
        if kind in (FsOpKind.LINK, FsOpKind.SYMLINK, FsOpKind.RENAME):
            src, dst = args
            return FsOp(kind, path=src, path2=dst)
        if kind is FsOpKind.TRUNCATE:
            size, path = args
            return FsOp(kind, path=path, end=parse_size(size))
        (path,) = args
        return FsOp(kind, path=path)
    except ParseError:
        raise
    except (ValueError, TypeError) as e:
        raise ParseError(lineno, f"bad arguments for {name}: {e}") from None


def parse(text: str) -> Workload:
    """Parse DSL text; `# deps` / `# ops` section comments split the prologue."""
    prologue: list[FsOp] = []
    steps: list[Step] = []
    in_deps = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.lower().replace(" ", "") == CRASH_MARKER:
            break
        if line.startswith("#"):
            section = line[1:].strip().lower()
            if section == "deps":
                in_deps = True
            elif section == "ops":
                in_deps = False
            continue
        step = _parse_line(lineno, line)
        if in_deps:
            if not isinstance(step, FsOp):
                raise ParseError(lineno, "persistence points are not dependencies")
            prologue.append(step)
        else:
            steps.append(step)
    skeleton = Skeleton(tuple(s.kind for s in steps if isinstance(s, FsOp)))
    return Workload(prologue=tuple(prologue), steps=tuple(steps), skeleton=skeleton)


def parse_file(path) -> Workload:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def corpus_annotations(text: str) -> dict[str, str]:
    """Header comments of the form `# key: value` (consequence map etc.)."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if ":" in body:
            key, _, value = body.partition(":")
            out[key.strip().lower()] = value.strip()
    return out
