"""Crash-state construction from checkpoints and the cuts of an IO log.

A checkpoint is a record with a log ``position`` and the device's
``image`` there; checkpoint 0 is the formatted file system at position 0.
A checkpoint state is its image. A subset-mode state is every fully
durable leading epoch plus an ordered subset of the target epoch's write
units (whole records, or 512-byte sectors). Small epochs are enumerated
exhaustively, from one table of kept tuples per unit count; larger ones are
sampled reproducibly from a seed. The prefix image is built once per target
epoch (``prefix_state``), from the last checkpoint at or before it, and
each state is that image with its kept units applied through
``DiskImage.with_writes``, so this module never sees the image format. A
prefix keeps the states built on it, so each is built once however often
it is asked for. A state's coordinates (the checkpoint number, or the
prefix epoch count, kept unit indices and granularity) are its descriptor,
which ``CrashState.descriptor`` writes and ``parse_descriptor`` reads.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from .blockdev import SECTOR_SIZE, DiskImage, IoRecord, replay

# Target epochs with at most this many units are enumerated exhaustively;
# larger ones yield SAMPLE_COUNT subsets drawn from the seed.
EXHAUSTIVE_UNITS = 10
SAMPLE_COUNT = 64
GRANULARITIES = ("op", "sector")
_CHECKPOINT = "checkpoint="  # a checkpoint state's descriptor, before its number

# _SUBSETS[n]: every ordered index subset of n units, in mask order (bit i of
# mask m keeps unit i), for each n an epoch is enumerated exhaustively at.
# The subsets of n units are those of n - 1 units, then each of them with
# unit n - 1 kept.
_SUBSETS = [((),)]
for _n in range(EXHAUSTIVE_UNITS):
    _SUBSETS.append(_SUBSETS[-1] + tuple(kept + (_n,) for kept in _SUBSETS[-1]))


def parse_descriptor(text: str) -> "int | tuple[int, tuple[int, ...], str]":
    """Read a crash descriptor, as ``CrashState.descriptor`` writes it: the
    checkpoint number of ``checkpoint=K``, else a subset state's ``subset``
    coordinates. Raises ValueError for any other text, such as unordered
    kept indices or an unknown granularity."""
    if text.startswith(_CHECKPOINT):
        return int(text[len(_CHECKPOINT):])
    try:
        parts = dict(kv.split("=", 1) for kv in text.split(";"))
        kept = tuple(int(i) for i in parts["kept"].split(",") if i != "")
        prefix, granularity = int(parts["prefix"]), parts["gran"]
    except (ValueError, KeyError):
        raise ValueError("expected prefix=P;kept=I,J,...;gran=op|sector") from None
    if any(b <= a for a, b in zip(kept, kept[1:])):
        raise ValueError("kept indices must be strictly increasing")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    return prefix, kept, granularity


@dataclass
class CrashState:
    """A disk image representing storage contents at a simulated power loss."""

    image: DiskImage
    checkpoint_id: int = 0  # 0 = the formatted file system, before any persistence point
    # a subset state's prefix epoch count, kept unit indices and granularity
    subset: tuple[int, tuple[int, ...], str] | None = None

    def descriptor(self) -> str:
        if self.subset is None:
            return f"{_CHECKPOINT}{self.checkpoint_id}"
        prefix, kept, granularity = self.subset
        return f"prefix={prefix};kept={','.join(map(str, kept))};gran={granularity}"


def _atomic_units(log: list[IoRecord], epoch: range, granularity: str) -> list[tuple[int, bytes]]:
    """Flatten the target epoch into droppable (sector, payload) units.

    At op granularity each write record is one unit. At sector granularity
    records split into 512-byte units, except a FUA write, which ends its
    epoch and whose payload is all-or-nothing (the device persists it as a
    unit).
    """
    units: list[tuple[int, bytes]] = []
    for rec in log[epoch.start : epoch.stop]:
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
    target epoch's droppable units. ``states`` holds the subset states
    built on it by kept tuple (``build_subset_state``): a profile run keeps
    its prefixes, so siblings that adopt its final commit check the very
    states it built."""

    image: DiskImage
    prefix_count: int
    checkpoint_id: int
    units: list[tuple[int, bytes]]
    granularity: str
    states: dict[tuple[int, ...], CrashState] = field(default_factory=dict, compare=False)


def prefix_state(
    checkpoints: list,
    log: list[IoRecord],
    epochs: list[range],
    prefix_count: int,
    granularity: str = "op",
) -> PrefixState:
    """The writes of the first ``prefix_count`` of the ``epochs`` of ``log``,
    with the next epoch as the target, built by ``replay`` from the last of
    the ``checkpoints`` at or before the target's start. The prefix contains
    those checkpoints, so one right after a terminator counts for the prefix
    ending there; the checkpoint number is the last one's index."""
    if not 0 <= prefix_count < len(epochs):
        raise ValueError(f"prefix {prefix_count} out of range; log has {len(epochs)} epochs")
    target = epochs[prefix_count]
    k = bisect_right(checkpoints, target.start, key=attrgetter("position")) - 1
    last = checkpoints[k]
    return PrefixState(
        replay(last.image, log, last.position, target.start),
        prefix_count,
        k,
        _atomic_units(log, target, granularity),
        granularity,
    )


def enumerate_target_subsets(prefix: PrefixState, seed: int = 0):
    """Yield ordered index subsets of the target epoch's atomic units.

    Up to EXHAUSTIVE_UNITS units, all 2^n subsets in mask order, from a
    precomputed table; beyond that, SAMPLE_COUNT distinct subsets sampled
    without replacement, reproducibly from the seed.
    """
    n = len(prefix.units)
    if n <= EXHAUSTIVE_UNITS:
        yield from _SUBSETS[n]
        return
    # Draw masks until SAMPLE_COUNT distinct ones are held, without
    # building the 2^n pool. Past 2^10 masks, random.sample over that pool
    # makes these same draws, so a seed picks the subsets it always did.
    rng = random.Random(seed)
    picked: dict[int, None] = {}
    while len(picked) < SAMPLE_COUNT:
        picked[rng.randrange(1 << n)] = None
    for mask in picked:
        yield tuple(i for i in range(n) if mask >> i & 1)


def build_subset_state(prefix: PrefixState, kept: tuple[int, ...]) -> CrashState:
    """The prefix image + the kept target units, in order. ``kept`` is a
    strictly increasing tuple, as ``enumerate_target_subsets`` and
    ``parse_descriptor`` give it. The state is built once per prefix and
    kept there (``PrefixState.states``); a later call with the same ``kept``
    returns that state, which nothing changes."""
    state = prefix.states.get(kept)
    if state is None:
        units = prefix.units
        if kept and not 0 <= kept[0] <= kept[-1] < len(units):
            raise ValueError(
                f"kept units out of range; epoch {prefix.prefix_count} has {len(units)} units"
            )
        state = prefix.states[kept] = CrashState(
            prefix.image.with_writes(units[i] for i in kept),
            checkpoint_id=prefix.checkpoint_id,
            subset=(prefix.prefix_count, kept, prefix.granularity),
        )
    return state
