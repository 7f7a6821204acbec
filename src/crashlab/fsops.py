"""Parameterized file-system operations shared by the generator, the file
systems under test, and the harness."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FsOpKind(enum.Enum):
    """The 14 core operation kinds exposed to the workload generator.

    setxattr/removexattr are paired as one generator kind; parameter
    expansion picks the concrete variant.
    """

    CREAT = "creat"
    MKDIR = "mkdir"
    FALLOC = "falloc"
    WRITE = "write"
    DWRITE = "dwrite"
    MWRITE = "mwrite"
    LINK = "link"
    SYMLINK = "symlink"
    RENAME = "rename"
    UNLINK = "unlink"
    REMOVE = "remove"
    RMDIR = "rmdir"
    TRUNCATE = "truncate"
    XATTR = "xattr"


CORE_OP_KINDS: tuple[FsOpKind, ...] = tuple(FsOpKind)


class PersistKind(enum.Enum):
    FSYNC = "fsync"
    FDATASYNC = "fdatasync"
    SYNC = "sync"
    MSYNC = "msync"


class FallocFlag(enum.Enum):
    """punch_hole always implies keep_size (POSIX); both spellings encoded.

    zero_range keeps the size as well: the only reference use is
    zero-beyond-EOF with the keep flag.
    """

    NONE = "none"
    KEEP_SIZE = "keep_size"
    ZERO_RANGE = "zero_range"
    PUNCH_HOLE = "punch_hole"
    PUNCH_HOLE_KEEP_SIZE = "punch_hole_keep_size"


_FALLOC_DSL = {
    FallocFlag.NONE: "",
    FallocFlag.KEEP_SIZE: "-k",
    FallocFlag.ZERO_RANGE: "-z",
    FallocFlag.PUNCH_HOLE: "-p",
    FallocFlag.PUNCH_HOLE_KEEP_SIZE: "-pk",
}
_FALLOC_FROM_DSL = {v: k for k, v in _FALLOC_DSL.items()}


@dataclass(frozen=True)
class FsOp:
    """One concrete operation; unused fields stay at their defaults.

    path2 is the destination for link/symlink/rename; (start, end) is the
    byte range for data ops and falloc, and end doubles as the new size for
    truncate; attr/value parameterize the xattr pair, with variant choosing
    setxattr vs removexattr.
    """

    kind: FsOpKind
    path: str = ""
    path2: str = ""
    start: int = 0
    end: int = 0
    flag: FallocFlag = FallocFlag.NONE
    attr: str = ""
    value: str = ""
    variant: str = ""

    @property
    def op_name(self) -> str:
        if self.kind is FsOpKind.XATTR:
            return self.variant
        return self.kind.value

    def paths(self) -> tuple[str, ...]:
        if self.kind in (FsOpKind.LINK, FsOpKind.SYMLINK, FsOpKind.RENAME):
            return (self.path, self.path2)
        return (self.path,)


@dataclass(frozen=True)
class PersistOp:
    kind: PersistKind
    target: str | None = None  # None only for sync

    def __post_init__(self):
        if (self.kind is PersistKind.SYNC) != (self.target is None):
            raise ValueError("sync takes no target; others require one")


Step = FsOp | PersistOp


def parent_dir(path: str) -> str:
    """Parent of a canonical relative path; '/' for top-level names."""
    if "/" not in path:
        return "/"
    return path.rsplit("/", 1)[0]


def same_directory(a: str, b: str) -> bool:
    return parent_dir(a) == parent_dir(b)


def format_size(n: int) -> str:
    if n and n % (1024 * 1024) == 0:
        return f"{n // (1024 * 1024)}M"
    if n and n % 1024 == 0:
        return f"{n // 1024}K"
    return str(n)


def parse_size(text: str) -> int:
    text = text.strip()
    mult = 1
    if text.endswith(("K", "k")):
        mult, text = 1024, text[:-1]
    elif text.endswith(("M", "m")):
        mult, text = 1024 * 1024, text[:-1]
    size = int(text) * mult
    if size < 0:
        raise ValueError(f"negative size {size}")
    return size


def format_range(start: int, end: int) -> str:
    return f"({format_size(start)}-{format_size(end)})"


def parse_range(text: str) -> tuple[int, int]:
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError(f"malformed range {text!r}")
    lo, _, hi = inner[1:-1].partition("-")
    if not _:
        raise ValueError(f"malformed range {text!r}")
    start, end = parse_size(lo), parse_size(hi)
    if end < start:
        raise ValueError(f"range {text!r} ends before it starts")
    return start, end


def pattern_bytes(op_index: int, start: int, end: int) -> bytes:
    """Deterministic payload for data ops: repeatable across profile runs,
    distinct across ops so overlapping writes are distinguishable."""
    out = bytearray()
    pos = start
    while pos < end:
        chunk_end = min((pos // 512 + 1) * 512, end)
        val = (37 * op_index + 11 * (pos // 512) + 0x42) & 0xFF
        out += bytes([val]) * (chunk_end - pos)
        pos = chunk_end
    return bytes(out)


def falloc_flag_token(flag: FallocFlag) -> str:
    return _FALLOC_DSL[flag]


def falloc_flag_from_token(token: str) -> FallocFlag:
    try:
        return _FALLOC_FROM_DSL[token]
    except KeyError:
        raise ValueError(f"unknown falloc flag {token!r}") from None
