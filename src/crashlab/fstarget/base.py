"""Shared types for the file systems under test."""

from __future__ import annotations

from dataclasses import dataclass, field


class FsError(Exception):
    """POSIX-style operation failure, surfaced as a value by the harness.

    ``code`` mimics errno names (ENOENT, EEXIST, ...).
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class Unmountable:
    """Mount failure value; the checker treats it as the most severe outcome."""

    reason: str


@dataclass(frozen=True)
class BugSeed:
    """Catalog entry for one deliberately seeded bug."""

    id: str
    description: str
    trigger: str  # operation pattern that arms the bug
    consequence_class: str
    min_seq: int  # smallest core-op sequence length that can reveal it


@dataclass(frozen=True)
class ViewEntry:
    """Logical state of one path: the unit the checker compares."""

    kind: str  # "file" | "dir" | "symlink"
    size: int = 0
    link_count: int = 1
    block_count: int = 0  # 512-byte sectors backed by allocated blocks
    data_hash: str = ""
    xattrs: tuple[tuple[str, str], ...] = ()
    symlink_target: str = ""


@dataclass
class FsStateView:
    """Complete logical listing of a mounted file system."""

    entries: dict[str, ViewEntry] = field(default_factory=dict)

    def get(self, path: str) -> ViewEntry | None:
        return self.entries.get(path)
