"""Exhaustive bounded workload generation.

Three phases: pick operation kinds (skeletons), expand parameters over the
bounded file set with symmetry pruning, and weave in persistence points. One
symbolic pass per (skeleton, params) group applies each op to a symbolic
state; that pass alone decides validity, and the states it leaves after each
op give the group's persistence choices and its dependency prologue. The
output stream is deterministic and index-addressable: workload i is
reconstructible from (Bounds, i).

Seeking to i walks the tree of (skeleton, op, op, ...) candidates in stream
order, passes over each subtree that ends before i by its body count, and
descends only into the one that holds i; no persistence choice and no
workload of a skipped group is built. The counts rest on one invariant: an
op's range and flag reach only the symbolic sizes, which feed only later
candidates' ranges, never validity or the live persistence targets. So all
candidates of one shape (kind, paths, attribute, variant) have the same
subtree count, and a count applies one candidate per shape: falloc's 120
candidates over the default files are 6 shapes, and write's 24 are 6.

Symmetry rule: for an operation taking two file-path arguments from the same
directory (link, symlink, rename), the two argument orders describe the same
test under the file-name swap, so only the lexicographically ordered pair is
emitted. Single-path parameterizations are never collapsed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
FALLOC_FLAGS = tuple(FallocFlag)
TRUNCATE_SIZES = (0, 2500)
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


def _pairs(kind: FsOpKind, files: tuple[str, ...]) -> list[FsOp]:
    """Two-path ops over distinct names; of a same-directory pair only the
    ordered one is kept (the symmetry rule)."""
    return [
        FsOp(kind, path=a, path2=b)
        for a in files
        for b in files
        if a != b and not (same_directory(a, b) and a > b)
    ]


def _candidates(kind: FsOpKind, st: _SymState, bounds: Bounds) -> list[FsOp]:
    """Argument choices in their deterministic order; which of them are valid
    is decided by applying the effect."""
    files, dirs = bounds.files, bounds.dirs
    if kind in (FsOpKind.CREAT, FsOpKind.UNLINK):
        return [FsOp(kind, path=f) for f in files]
    if kind in (FsOpKind.MKDIR, FsOpKind.RMDIR):
        return [FsOp(kind, path=d) for d in dirs]
    if kind is FsOpKind.REMOVE:
        return [FsOp(kind, path=p) for p in files + dirs]
    if kind is FsOpKind.FALLOC:
        return [
            FsOp(kind, path=f, start=start, end=end, flag=flag)
            for f in files
            for flag in FALLOC_FLAGS
            for start, end in (_overwrite_range(st.sizes.get(f, 0), wc) for wc in WRITE_CLASSES)
        ]
    if kind in (FsOpKind.WRITE, FsOpKind.DWRITE, FsOpKind.MWRITE):
        return [
            FsOp(kind, path=f, start=start, end=end)
            for f in files
            for start, end in (_overwrite_range(st.sizes.get(f, 0), wc) for wc in WRITE_CLASSES)
        ]
    if kind in (FsOpKind.LINK, FsOpKind.SYMLINK, FsOpKind.RENAME):
        return _pairs(kind, files)
    if kind is FsOpKind.TRUNCATE:
        return [FsOp(kind, path=f, end=size) for f in files for size in TRUNCATE_SIZES]
    if kind is FsOpKind.XATTR:
        return [
            FsOp(kind, path=f, attr="u1", value="val1", variant="setxattr") for f in files
        ] + [FsOp(kind, path=f, attr="u1", variant="removexattr") for f in files]
    raise GenerationError(f"no candidates for {kind}")


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


def _live_targets(ops: tuple[FsOp, ...], states: tuple[_SymState, ...]) -> list[list[str]]:
    """The persistence targets offered after each op: the referenced paths
    that exist and resolve in the symbolic state the op left. Both the
    choices and the seek's count come from this one list."""
    referenced = _referenced_paths(ops)
    return [[t for t in referenced if st.resolve(t) is not None] for st in states]


def _persistence_choices(
    ops: tuple[FsOp, ...], states: tuple[_SymState, ...]
) -> list[list[PersistOp | None]]:
    """The persistence points offered after each op: {none, fsync(t),
    fdatasync(t), sync} for each live target t. The final op always gets a
    persistence point, so a workload is never a truncated copy of a shorter
    one."""
    last = len(ops) - 1
    return [
        ([] if i == last else [None])
        + [PersistOp(PersistKind.FSYNC, t) for t in live]
        + [PersistOp(PersistKind.FDATASYNC, t) for t in live]
        + [PersistOp(PersistKind.SYNC)]
        for i, live in enumerate(_live_targets(ops, states))
    ]


def _body_count(ops: tuple[FsOp, ...], states: tuple[_SymState, ...]) -> int:
    """``prod(len(c) for c in _persistence_choices(ops, states))``, counted
    from the live targets without building any choice."""
    last = len(ops) - 1
    return math.prod(
        (i != last) + 2 * len(live) + 1 for i, live in enumerate(_live_targets(ops, states))
    )


def _weave(ops: tuple[FsOp, ...], combo: tuple[PersistOp | None, ...]) -> tuple[Step, ...]:
    steps: list[Step] = []
    for op, pp in zip(ops, combo):
        steps.append(op)
        if pp is not None:
            steps.append(pp)
    return tuple(steps)


# -- generation pipeline ---------------------------------------------------------


def _shape(op: FsOp) -> tuple:
    """All of an op but its range and flag, which reach only ``sizes``."""
    return (op.kind, op.path, op.path2, op.attr, op.variant)


class _Walk:
    """One walk of the candidate tree in stream order: each skeleton, then
    each valid candidate of its first op, of its second, and so on down to
    the parameter groups at the leaves.

    It passes over every subtree whose body count is no more than ``skip``,
    the bodies still to skip, and descends only into the one that holds the
    target. A subtree's count depends only on the op shapes on its path, its
    key (see the module docstring): ``count`` applies one representative per
    shape, times the candidates that share it, and keeps each count by key,
    so the descent into a counted subtree counts nothing again.
    """

    def __init__(self, bounds: Bounds, skip: int = 0):
        self.bounds = bounds
        self.skip = skip
        self.counts: dict[tuple, int] = {}  # key -> bodies, this skeleton only
        self.classes: dict[FsOpKind, list[list]] = {}

    def classes_of(self, kind: FsOpKind) -> list[list]:
        """``[representative, candidates]`` of each shape of ``kind``."""
        classes = self.classes.get(kind)
        if classes is None:
            by_shape: dict[tuple, list] = {}
            for op in _candidates(kind, _SymState(self.bounds), self.bounds):
                by_shape.setdefault(_shape(op), [op, 0])[1] += 1
            classes = self.classes[kind] = list(by_shape.values())
        return classes

    def groups(self, skeleton: Skeleton):
        """``(ops, states, offset)`` of each parameter group at or after the
        target: its body ops, the symbolic state each op left, and the
        bodies of it to skip (0 for every group after the first)."""
        self.counts = {}
        return self._descend(skeleton, _SymState(self.bounds), (), (), ())

    def size(self, skeleton: Skeleton) -> int:
        """Bodies in ``skeleton``'s groups."""
        self.counts = {}
        return self.count(skeleton, _SymState(self.bounds), (), (), ())

    def _descend(self, skeleton: Skeleton, st: _SymState, key: tuple, ops: tuple, states: tuple):
        for op in _candidates(skeleton.ops[len(ops)], st, self.bounds):
            path = key + (_shape(op),)
            n = self.counts.get(path) if self.skip else None
            if n is not None and n <= self.skip:  # a shape already counted here
                self.skip -= n
                continue
            child = st.clone()
            try:
                _apply_effect(child, op)
            except UnsatisfiableBody:
                continue
            body, after = ops + (op,), states + (child,)
            if self.skip:
                n = self.count(skeleton, child, path, body, after)
                if n <= self.skip:
                    self.skip -= n
                    continue
            if len(body) < len(skeleton.ops):
                yield from self._descend(skeleton, child, path, body, after)
            else:
                offset, self.skip = self.skip, 0
                yield body, after, offset

    def count(self, skeleton: Skeleton, st: _SymState, key: tuple, ops: tuple, states: tuple) -> int:
        """Bodies under the node that ``ops`` lead to, whose state is ``st``."""
        n = self.counts.get(key)
        if n is None:
            if len(ops) == len(skeleton.ops):
                n = _body_count(ops, states)
            else:
                n = 0
                for rep, many in self.classes_of(skeleton.ops[len(ops)]):
                    path, child = key + (_shape(rep),), st.clone()
                    try:
                        _apply_effect(child, rep)
                    except UnsatisfiableBody:
                        self.counts[path] = 0
                        continue
                    n += many * self.count(skeleton, child, path, ops + (rep,), states + (child,))
            self.counts[key] = n
        return n


@dataclass
class GenerationStats:
    # The generator rejects no body (see _workloads_from), so ``rejected``
    # stays 0; the fields remain for the tools that read them.
    emitted: int = 0
    rejected: int = 0


def _workloads_from(bounds: Bounds, start: int):
    """The workload stream from index ``start`` on.

    Each (skeleton, params) group holds exactly prod(len(choices)) bodies,
    counted from its symbolic states, and each subtree of the candidate tree
    the sum of its groups'. The walk passes over a subtree that ends before
    ``start`` by its count, taken one candidate per op shape (``_Walk``), and
    enters the group that holds ``start`` at the offset left; no skipped
    group's choices are built. No body is ever rejected: every persistence
    target offered exists and resolves in the state its op left, and the
    group's ops were all applied without error when the prologue was built.
    """
    walk, index = _Walk(bounds, start), start
    for skeleton in gen_skeletons(bounds):
        for ops, states, offset in walk.groups(skeleton):
            combos = itertools.product(*_persistence_choices(ops, states))
            prologue = tuple(states[-1].prologue)
            for combo in itertools.islice(combos, offset, None):
                yield Workload(prologue, _weave(ops, combo), skeleton, index)
                index += 1


def generate_workloads(bounds: Bounds, stats: GenerationStats | None = None):
    """Deterministic stream of complete workloads, index-stamped in order."""
    for workload in _workloads_from(bounds, 0):
        if stats is not None:
            stats.emitted += 1
        yield workload


def count_workloads(bounds: Bounds) -> int:
    """Length of the workload stream, counted by op shape without building any."""
    walk = _Walk(bounds)
    return sum(walk.size(skeleton) for skeleton in gen_skeletons(bounds))


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
    """Parse a DSL file; a parse error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except ParseError as e:
            raise GenerationError(f"{path}: {e}") from None


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
