"""File systems under test: SoundFS plus its seeded buggy variants."""

from .base import (
    BugSeed,
    FsError,
    FsStateView,
    Unmountable,
    ViewEntry,
)
from .soundfs import FORMAT_VERSION, MountMemo, SoundFs
from .variants import BUG_SEEDS, VARIANTS

TARGETS = {SoundFs.NAME: SoundFs, **{v.NAME: v for v in VARIANTS}}


def get_target(name: str):
    try:
        return TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown file system target {name!r}; choose from {sorted(TARGETS)}"
        ) from None


__all__ = [
    "BUG_SEEDS",
    "BugSeed",
    "FORMAT_VERSION",
    "FsError",
    "FsStateView",
    "MountMemo",
    "SoundFs",
    "TARGETS",
    "Unmountable",
    "VARIANTS",
    "ViewEntry",
    "get_target",
]
