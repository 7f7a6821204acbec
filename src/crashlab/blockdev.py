"""Simulated block device, its write-path IO log, and the disk-image format.

An image is a shared immutable base plus a block overlay (4 KB block number
to its 4096 bytes). This module is the only code that knows that format:
every write into an overlay goes through ``_write`` (``with_writes`` stores
an aligned whole block itself) and every block read through ``_read_block``,
whether it serves the live ``Device``, a log replay or a crash state built
with ``DiskImage.with_writes``; a mount memo keys images and their parts by
``content_key`` and ``part_key`` and splits journal blocks off and back on
(``split``, ``with_blocks``). The device writes whole blocks,
but the log stays sector-addressed: a write that does not cover whole blocks
(a sector-granular crash-state unit) is merged into the blocks it touches.

The device applies writes eagerly to its current image and logs every
write and FLUSH it is sent; durability distinctions (what survives a power
cut) are reconstructed later from the log by the crash-state generator.
Reads are never logged. An epoch is a range of log positions
(``split_epochs``), so every crash state is a cut of the log, and
``replay`` builds a cut from an image at an earlier position by applying
only the writes logged since.
"""

from __future__ import annotations

from typing import NamedTuple

SECTOR_SIZE = 512
BLOCK_SIZE = 4096
_SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE


class BlockDevError(Exception):
    pass


class GeometryError(BlockDevError):
    """Bad device size or base-image mismatch."""


class OutOfBoundsError(BlockDevError):
    """IO request touches sectors beyond the end of the device."""


class IoRecord(NamedTuple):
    """One logged request: a write when ``data`` is non-empty (with ``fua``
    for a FUA write), else a FLUSH. A named tuple, as a commit logs about a
    dozen of them."""

    sector: int = 0
    data: bytes = b""
    flush: bool = False
    fua: bool = False


def _write(base: bytes, overlay: dict[int, bytes], sector: int, data: bytes) -> None:
    """Apply one sector-aligned write. An aligned whole block is stored as
    given, sharing the caller's bytes; a block the write covers only in part
    is read, patched and stored back."""
    block_no, off = divmod(sector * SECTOR_SIZE, BLOCK_SIZE)
    if not off and len(data) == BLOCK_SIZE:
        overlay[block_no] = data
        return
    while data:
        piece, data = data[: BLOCK_SIZE - off], data[BLOCK_SIZE - off :]
        if len(piece) < BLOCK_SIZE:
            old = _read_block(base, overlay, block_no)
            piece = old[:off] + piece + old[off + len(piece) :]
        overlay[block_no] = piece
        block_no, off = block_no + 1, 0


def _read_block(base: bytes, overlay: dict[int, bytes], block_no: int) -> bytes:
    return overlay.get(block_no) or base[block_no * BLOCK_SIZE : (block_no + 1) * BLOCK_SIZE]


class DiskImage:
    """Immutable point-in-time byte image of a device.

    Snapshots share the base and copy only the overlay, so they cost
    O(dirtied blocks), not O(device size).
    """

    __slots__ = ("size_bytes", "_base", "_overlay", "_key")

    def __init__(self, size_bytes: int, base: bytes, overlay: dict[int, bytes]):
        self.size_bytes = size_bytes
        self._base = base
        self._overlay = overlay
        self._key = None  # ``content_key``, built on first use

    @classmethod
    def zeroed(cls, size_bytes: int) -> "DiskImage":
        return cls(size_bytes, bytes(size_bytes), {})

    def with_writes(self, writes) -> "DiskImage":
        """A new image: this one with the ``(sector, data)`` writes applied
        in order, the last writer of a sector winning."""
        base = self._base
        overlay = dict(self._overlay)
        for sector, data in writes:
            if sector * SECTOR_SIZE + len(data) > self.size_bytes:
                raise OutOfBoundsError(f"write at sector {sector} is beyond this image")
            if len(data) == BLOCK_SIZE and not sector % _SECTORS_PER_BLOCK:
                overlay[sector // _SECTORS_PER_BLOCK] = data
            else:
                _write(base, overlay, sector, data)
        return DiskImage(self.size_bytes, base, overlay)

    def read_block(self, block_no: int) -> bytes:
        return _read_block(self._base, self._overlay, block_no)

    def content_key(self) -> tuple:
        """A hashable value that equals another image's only when both hold
        the same bytes. Equal content over a different base or overlay split
        gives a different key: a missed match, never a wrong one. The image
        never changes, so the key is built once and kept: a crash state that
        adopting siblings share, or a checkpoint image that ``replay`` of an
        empty range returns, is sorted and keyed once."""
        if self._key is None:
            self._key = self.part_key(self._overlay)
        return self._key

    def part_key(self, blocks: dict[int, bytes]) -> tuple:
        """``content_key`` of this image's base with only ``blocks`` (block
        number to its 4096 bytes) laid over it, such as the part ``split``
        cuts off: it fixes the bytes of every block that part numbers."""
        numbers = tuple(sorted(blocks))
        return (self.size_bytes, self._base, numbers, *map(blocks.__getitem__, numbers))

    def split(self, lo: int, hi: int) -> tuple["DiskImage", dict[int, bytes]]:
        """This image without the overlay blocks numbered in [lo, hi), and
        those blocks; ``with_blocks`` grafts them back."""
        rest: dict[int, bytes] = {}
        cut: dict[int, bytes] = {}
        for n, data in self._overlay.items():
            (cut if lo <= n < hi else rest)[n] = data
        return DiskImage(self.size_bytes, self._base, rest), cut

    def with_blocks(self, blocks: dict[int, bytes]) -> "DiskImage":
        """A new image: this one with whole ``blocks`` (block number to its
        4096 bytes) laid over it."""
        return DiskImage(self.size_bytes, self._base, {**self._overlay, **blocks})

    def interned(self, table: dict) -> "DiskImage":
        """This image with each overlay block replaced by the equal bytes
        already in ``table`` (added there when new), so the images built
        through one table hold each block content once."""
        overlay = {n: table.setdefault(data, data) for n, data in self._overlay.items()}
        return DiskImage(self.size_bytes, self._base, overlay)


class Device:
    """Recording block device confined to a single worker: its current
    image and ``log``, the writes and FLUSHes it was sent."""

    def __init__(self, size_bytes: int, base: DiskImage | None = None):
        if size_bytes <= 0 or size_bytes % SECTOR_SIZE != 0:
            raise GeometryError("size must be a positive multiple of the sector size")
        if base is None:
            base = DiskImage.zeroed(size_bytes)
        elif base.size_bytes != size_bytes:
            raise GeometryError("base image size does not match device size")
        self.size_bytes = size_bytes
        self._base = base._base
        self._overlay = dict(base._overlay)
        self.log: list[IoRecord] = []

    # -- IO path --

    def write_block(self, block_no: int, data: bytes, *, fua: bool = False) -> None:
        """Write one whole block and log it as a write of its sectors."""
        if len(data) != BLOCK_SIZE:
            raise OutOfBoundsError("write_block wants exactly one block")
        if block_no < 0 or (block_no + 1) * BLOCK_SIZE > self.size_bytes:
            raise OutOfBoundsError(f"block {block_no} out of bounds")
        data = bytes(data)
        sector = block_no * _SECTORS_PER_BLOCK
        self.log.append(IoRecord(sector, data, fua=fua))
        _write(self._base, self._overlay, sector, data)

    def flush(self) -> None:
        self.log.append(IoRecord(flush=True))

    # -- reads (never logged) --

    def read_block(self, block_no: int) -> bytes:
        return _read_block(self._base, self._overlay, block_no)

    # -- snapshots --

    def snapshot(self) -> DiskImage:
        return DiskImage(self.size_bytes, self._base, dict(self._overlay))

    def copy(self) -> "Device":
        """An independent device with this one's image and log. A forked
        profile copies its device before it first writes, and a replica that
        oracle capture unmounts runs on one (``SoundFs.clean_view``)."""
        dev = Device.__new__(Device)
        dev.__dict__.update(vars(self))
        dev._overlay = dict(self._overlay)
        dev.log = list(self.log)
        return dev


def split_epochs(log: list[IoRecord]) -> list[range]:
    """Partition the log into epochs, as ranges of log positions: an epoch
    ends after each FLUSH or FUA write, and the records after the last one
    form a final, unterminated epoch."""
    epochs: list[range] = []
    start = 0
    for i, rec in enumerate(log):
        if rec.flush or rec.fua:
            epochs.append(range(start, i + 1))
            start = i + 1
    if start < len(log):
        epochs.append(range(start, len(log)))
    return epochs


def replay(image: DiskImage, log: list[IoRecord], start: int, end: int) -> DiskImage:
    """``image`` with the writes among ``log[start:end]`` applied: the image
    at log position ``end`` when ``image`` is the one at ``start``. Pure: no
    input image is modified. An empty range returns ``image`` itself, which
    is immutable, so a checkpoint state is its checkpoint's image and keeps
    that image's ``content_key``."""
    if start == end:
        return image
    return image.with_writes((rec.sector, rec.data) for rec in log[start:end] if rec.data)
