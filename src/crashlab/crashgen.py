"""Crash-state construction from a base image and an IO log's epochs.

A subset-mode state is every fully durable leading epoch plus an ordered
subset of the target epoch's write units (whole records, or 512-byte
sectors). Small epochs are enumerated exhaustively; larger ones are sampled
reproducibly from a seed. Checkpoint states are plain log replays and need
nothing from this module beyond ``CrashState``.
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
    subset: SubsetDescriptor | None = None

    def descriptor(self) -> str:
        if self.subset is None:
            return f"checkpoint={self.checkpoint_id}"
        return self.subset.serialize()


def _atomic_units(epoch: Epoch, granularity: str) -> list[tuple[int, bytes]]:
    """Flatten the target epoch into droppable (sector, payload) units.

    At op granularity each write record is one unit. At sector granularity
    records split into 512-byte units, except a FUA terminator, whose payload
    is all-or-nothing (the device persists it as a unit).
    """
    recs = list(epoch.records)
    if epoch.terminator is not None and epoch.terminator.is_data_write:
        recs.append(epoch.terminator)
    units: list[tuple[int, bytes]] = []
    for rec in recs:
        if granularity == "op" or (rec.flags.fua and rec is epoch.terminator):
            units.append((rec.sector, rec.data))
        else:
            for i in range(rec.length // SECTOR_SIZE):
                units.append(
                    (rec.sector + i, rec.data[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE])
                )
    return units


def enumerate_target_subsets(
    epochs: list[Epoch],
    prefix_count: int,
    granularity: str = "op",
    seed: int = 0,
):
    """Yield ordered index subsets of the target epoch's atomic units.

    Up to EXHAUSTIVE_UNITS units, all 2^n subsets; beyond that, SAMPLE_COUNT
    distinct subsets sampled without replacement, reproducibly from the seed.
    """
    if not 0 <= prefix_count < len(epochs):
        raise CrashGenError(f"prefix {prefix_count} out of range; log has {len(epochs)} epochs")
    n = len(_atomic_units(epochs[prefix_count], granularity))
    if n <= EXHAUSTIVE_UNITS:
        yield from _mask_subsets(n)
        return
    yield from random.Random(seed).sample(list(_mask_subsets(n)), SAMPLE_COUNT)


def _mask_subsets(n: int):
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def build_subset_state(
    base: DiskImage,
    epochs: list[Epoch],
    prefix_count: int,
    kept: tuple[int, ...],
    granularity: str = "op",
) -> CrashState:
    """base + all records of the prefix epochs + kept target units, in order."""
    if not 0 <= prefix_count < len(epochs):
        raise CrashGenError(f"prefix {prefix_count} out of range; log has {len(epochs)} epochs")
    subset = SubsetDescriptor(prefix_count, tuple(kept), granularity)
    units = _atomic_units(epochs[prefix_count], granularity)
    if kept and not 0 <= kept[0] <= kept[-1] < len(units):
        raise CrashGenError(f"kept units out of range; epoch {prefix_count} has {len(units)} units")
    overlay = dict(base._overlay)

    def apply_payload(sector: int, data: bytes):
        for i in range(len(data) // SECTOR_SIZE):
            overlay[sector + i] = data[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]

    for ep in epochs[:prefix_count]:
        for rec in ep.all_records():
            if rec.is_data_write:
                apply_payload(rec.sector, rec.data)
    for idx in kept:
        sector, data = units[idx]
        apply_payload(sector, data)
    image = DiskImage(base.size_bytes, base._base, overlay)
    return CrashState(
        image,
        checkpoint_id=_last_checkpoint_before(epochs, prefix_count),
        subset=subset,
    )


def _last_checkpoint_before(epochs: list[Epoch], prefix_count: int) -> int:
    last = 0
    for ep in epochs[:prefix_count]:
        for _pos, cp in ep.checkpoints:
            last = max(last, cp)
    return last
