"""Crash-state construction from a base image and an IO log's epochs.

A subset-mode state is every fully durable leading epoch plus an ordered
subset of the target epoch's write units (whole records, or 512-byte
sectors). Small epochs are enumerated exhaustively; larger ones are sampled
reproducibly from a seed. The prefix image is built once per target epoch
(``prefix_state``), and each state is that image with its kept units applied
through ``DiskImage.with_writes``, so this module never sees the image
format. Checkpoint states are plain log replays and need nothing from
this module beyond ``CrashState``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .blockdev import SECTOR_SIZE, DiskImage, Epoch

# Target epochs with at most this many units are enumerated exhaustively;
# larger ones yield SAMPLE_COUNT subsets drawn from the seed.
EXHAUSTIVE_UNITS = 10
SAMPLE_COUNT = 64
GRANULARITIES = ("op", "sector")


class CrashGenError(Exception):
    pass


@dataclass(frozen=True)
class SubsetDescriptor:
    prefix_epoch_count: int
    kept_indices: tuple[int, ...]
    granularity: str = "op"  # "op" | "sector"

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.kept_indices, self.kept_indices[1:])):
            raise CrashGenError("kept_indices must be strictly increasing")
        if self.granularity not in GRANULARITIES:
            raise CrashGenError(f"unknown granularity {self.granularity!r}")

    def serialize(self) -> str:
        kept = ",".join(str(i) for i in self.kept_indices)
        return f"prefix={self.prefix_epoch_count};kept={kept};gran={self.granularity}"

    @classmethod
    def parse(cls, text: str) -> "SubsetDescriptor":
        try:
            parts = dict(kv.split("=", 1) for kv in text.split(";"))
            kept = tuple(int(i) for i in parts["kept"].split(",") if i != "")
            return cls(int(parts["prefix"]), kept, parts["gran"])
        except (ValueError, KeyError):
            raise CrashGenError("expected prefix=P;kept=I,J,...;gran=op|sector") from None


@dataclass
class CrashState:
    """A disk image representing storage contents at a simulated power loss."""

    image: DiskImage
    checkpoint_id: int = 0  # 0 = before any persistence point
    # a subset state's SubsetDescriptor fields: prefix epoch count, kept
    # unit indices and granularity; the descriptor is built when asked for
    subset: tuple[int, tuple[int, ...], str] | None = None

    def descriptor(self) -> str:
        if self.subset is None:
            return f"checkpoint={self.checkpoint_id}"
        return SubsetDescriptor(*self.subset).serialize()


def _atomic_units(epoch: Epoch, granularity: str) -> list[tuple[int, bytes]]:
    """Flatten the target epoch into droppable (sector, payload) units.

    At op granularity each write record is one unit. At sector granularity
    records split into 512-byte units, except a FUA terminator, whose payload
    is all-or-nothing (the device persists it as a unit).
    """
    units: list[tuple[int, bytes]] = []
    for rec in epoch.all_records():
        if not rec.data:
            continue
        if granularity == "op" or rec.fua:
            units.append((rec.sector, rec.data))
        else:
            units.extend(
                (rec.sector + i // SECTOR_SIZE, rec.data[i : i + SECTOR_SIZE])
                for i in range(0, len(rec.data), SECTOR_SIZE)
            )
    return units


@dataclass(frozen=True)
class PrefixState:
    """What every subset state of one target epoch shares: the image with
    all prefix epochs applied, the last checkpoint they contain, and the
    target epoch's droppable units."""

    image: DiskImage
    prefix_count: int
    checkpoint_id: int
    units: list[tuple[int, bytes]]
    granularity: str


def prefix_state(
    base: DiskImage, epochs: list[Epoch], prefix_count: int, granularity: str = "op"
) -> PrefixState:
    """base + all records of the first ``prefix_count`` epochs, with the
    next epoch as the target."""
    if not 0 <= prefix_count < len(epochs):
        raise CrashGenError(f"prefix {prefix_count} out of range; log has {len(epochs)} epochs")
    prefix = epochs[:prefix_count]
    return PrefixState(
        base.with_writes(
            (rec.sector, rec.data) for ep in prefix for rec in ep.all_records() if rec.data
        ),
        prefix_count,
        max((cp for ep in prefix for cp in ep.checkpoints), default=0),
        _atomic_units(epochs[prefix_count], granularity),
        granularity,
    )


def enumerate_target_subsets(prefix: PrefixState, seed: int = 0):
    """Yield ordered index subsets of the target epoch's atomic units.

    Up to EXHAUSTIVE_UNITS units, all 2^n subsets; beyond that, SAMPLE_COUNT
    distinct subsets sampled without replacement, reproducibly from the seed.
    """
    n = len(prefix.units)
    if n <= EXHAUSTIVE_UNITS:
        masks = range(1 << n)
    else:
        # Draw masks until SAMPLE_COUNT distinct ones are held, without
        # building the 2^n pool. Past 2^10 masks, random.sample over that pool
        # makes these same draws, so a seed picks the subsets it always did.
        rng = random.Random(seed)
        picked: dict[int, None] = {}
        while len(picked) < SAMPLE_COUNT:
            picked[rng.randrange(1 << n)] = None
        masks = picked
    for mask in masks:
        yield tuple(i for i in range(n) if mask >> i & 1)


def build_subset_state(prefix: PrefixState, kept: tuple[int, ...]) -> CrashState:
    """The prefix image + the kept target units, in order. ``kept`` is
    strictly increasing, as ``enumerate_target_subsets`` and
    ``SubsetDescriptor.parse`` give it."""
    units = prefix.units
    if kept and not 0 <= kept[0] <= kept[-1] < len(units):
        raise CrashGenError(
            f"kept units out of range; epoch {prefix.prefix_count} has {len(units)} units"
        )
    return CrashState(
        prefix.image.with_writes(units[i] for i in kept),
        checkpoint_id=prefix.checkpoint_id,
        subset=(prefix.prefix_count, tuple(kept), prefix.granularity),
    )
