"""Simulated block device with a write-path IO log and copy-on-write snapshots.

The device applies writes eagerly to a "current image"; durability
distinctions (what survives a power cut) are reconstructed later from the
log by the crash-state generator. Reads are never logged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

SECTOR_SIZE = 512
BLOCK_SIZE = 4096


class BlockDevError(Exception):
    pass


class GeometryError(BlockDevError):
    """Bad device size or base-image mismatch."""


class OutOfBoundsError(BlockDevError):
    """IO request touches sectors beyond the end of the device."""


class ReplayError(BlockDevError):
    """Replay cut point does not exist in the log."""


class NoPersistencePointWarning(UserWarning):
    """Workload produced no checkpoints; crashes cannot be simulated."""


@dataclass(frozen=True)
class IoFlags:
    write: bool = False
    flush: bool = False
    fua: bool = False
    checkpoint: bool = False

    def to_byte(self) -> int:
        return (
            (1 if self.write else 0)
            | (2 if self.flush else 0)
            | (4 if self.fua else 0)
            | (8 if self.checkpoint else 0)
        )


@dataclass(frozen=True)
class IoRecord:
    """One logged block-device request."""

    seq: int
    sector: int
    length: int
    data: bytes
    flags: IoFlags
    checkpoint_id: int | None = None

    def __post_init__(self):
        if len(self.data) != self.length:
            raise BlockDevError("data length does not match length field")
        if self.flags.checkpoint and (self.length != 0 or self.flags.write):
            raise BlockDevError("checkpoint records must be empty non-writes")
        if self.flags.to_byte() == 0:
            raise BlockDevError("at least one flag must be set")
        if (self.flags.checkpoint) != (self.checkpoint_id is not None):
            raise BlockDevError("checkpoint_id present iff checkpoint flag set")

    @property
    def is_data_write(self) -> bool:
        return self.flags.write and self.length > 0


class IoLog:
    """Ordered stream of IoRecords with checkpoint markers."""

    def __init__(self, records: list[IoRecord] | None = None):
        self.records: list[IoRecord] = []
        self.checkpoint_count = 0
        for rec in records or []:
            self.append(rec)

    def append(self, rec: IoRecord) -> None:
        if self.records and rec.seq <= self.records[-1].seq:
            raise BlockDevError("seq must be strictly increasing")
        if rec.flags.checkpoint:
            if rec.checkpoint_id != self.checkpoint_count + 1:
                raise BlockDevError(
                    "checkpoint ids must be 1..n in order of appearance"
                )
            self.checkpoint_count += 1
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class DiskImage:
    """Immutable point-in-time byte image of a device.

    Stored as a shared base plus a sector-granular overlay so snapshots cost
    O(dirtied sectors), not O(device size).
    """

    __slots__ = ("size_bytes", "_base", "_overlay")

    def __init__(self, size_bytes: int, base: bytes, overlay: dict[int, bytes]):
        self.size_bytes = size_bytes
        self._base = base
        self._overlay = overlay

    @classmethod
    def zeroed(cls, size_bytes: int) -> "DiskImage":
        return cls(size_bytes, bytes(size_bytes), {})

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DiskImage":
        return cls(len(raw), bytes(raw), {})

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self.size_bytes:
            raise OutOfBoundsError(f"read [{offset}, {offset + length}) out of bounds")
        if not self._overlay:
            return self._base[offset : offset + length]
        out = bytearray()
        pos = offset
        end = offset + length
        while pos < end:
            sec = pos // SECTOR_SIZE
            in_off = pos % SECTOR_SIZE
            take = min(SECTOR_SIZE - in_off, end - pos)
            chunk = self._overlay.get(sec)
            if chunk is None:
                out += self._base[pos : pos + take]
            else:
                out += chunk[in_off : in_off + take]
            pos += take
        return bytes(out)

    def read_block(self, block_no: int) -> bytes:
        return self.read(block_no * BLOCK_SIZE, BLOCK_SIZE)

    def to_bytes(self) -> bytes:
        if not self._overlay:
            return self._base
        buf = bytearray(self._base)
        for sec, chunk in self._overlay.items():
            buf[sec * SECTOR_SIZE : (sec + 1) * SECTOR_SIZE] = chunk
        return bytes(buf)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiskImage):
            return NotImplemented
        if self.size_bytes != other.size_bytes:
            return False
        return self.to_bytes() == other.to_bytes()

    def __hash__(self):
        raise TypeError("DiskImage is not hashable; compare via sha256()")


@dataclass
class Epoch:
    """A run of write records terminated by a FLUSH or FUA request.

    ``checkpoints`` holds (position, checkpoint_id) annotations, where
    position is the number of records of this epoch issued before the
    checkpoint; a checkpoint following the terminator has position
    len(records) + 1.
    """

    records: list[IoRecord] = field(default_factory=list)
    terminator: IoRecord | None = None
    checkpoints: list[tuple[int, int]] = field(default_factory=list)

    def all_records(self) -> list[IoRecord]:
        recs = list(self.records)
        if self.terminator is not None:
            recs.append(self.terminator)
        return recs


class Device:
    """Recording block device confined to a single worker."""

    def __init__(self, size_bytes: int, base: DiskImage | None = None, *, log_io: bool = True):
        if size_bytes <= 0 or size_bytes % SECTOR_SIZE != 0:
            raise GeometryError("size must be a positive multiple of the sector size")
        if base is not None and base.size_bytes != size_bytes:
            raise GeometryError("base image size does not match device size")
        self.size_bytes = size_bytes
        if base is None:
            self._base = bytes(size_bytes)
            self._dirty: dict[int, bytes] = {}
        else:
            self._base = base._base
            self._dirty = dict(base._overlay)
        self.log = IoLog()
        self._log_io = log_io
        self._next_seq = 1

    # -- IO path --

    def submit_io(
        self,
        sector: int,
        data: bytes = b"",
        *,
        flush: bool = False,
        fua: bool = False,
    ) -> IoRecord:
        length = len(data)
        if length % SECTOR_SIZE != 0:
            raise OutOfBoundsError("IO length must be a multiple of the sector size")
        if sector < 0 or sector * SECTOR_SIZE + length > self.size_bytes:
            raise OutOfBoundsError(f"IO at sector {sector} length {length} out of bounds")
        flags = IoFlags(write=length > 0, flush=flush, fua=fua)
        if flags.to_byte() == 0:
            raise BlockDevError("empty request with no flags")
        rec = IoRecord(self._next_seq, sector, length, bytes(data), flags)
        self._next_seq += 1
        if self._log_io:
            self.log.append(rec)
        self._apply(rec)
        return rec

    def write(self, sector: int, data: bytes, *, fua: bool = False) -> IoRecord:
        return self.submit_io(sector, data, fua=fua)

    def write_block(self, block_no: int, data: bytes, *, fua: bool = False) -> IoRecord:
        if len(data) != BLOCK_SIZE:
            raise OutOfBoundsError("write_block wants exactly one block")
        return self.write(block_no * (BLOCK_SIZE // SECTOR_SIZE), data, fua=fua)

    def flush(self) -> IoRecord:
        return self.submit_io(0, b"", flush=True)

    def insert_checkpoint(self) -> int:
        cp_id = self.log.checkpoint_count + 1
        rec = IoRecord(
            self._next_seq, 0, 0, b"", IoFlags(checkpoint=True), checkpoint_id=cp_id
        )
        self._next_seq += 1
        self.log.append(rec)
        return cp_id

    def _apply(self, rec: IoRecord) -> None:
        if not rec.is_data_write:
            return
        for i in range(rec.length // SECTOR_SIZE):
            self._dirty[rec.sector + i] = rec.data[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]

    # -- reads (never logged) --

    def read(self, offset: int, length: int) -> bytes:
        return self.snapshot().read(offset, length)

    def read_block(self, block_no: int) -> bytes:
        off = block_no * BLOCK_SIZE
        sec0 = off // SECTOR_SIZE
        nsec = BLOCK_SIZE // SECTOR_SIZE
        if not self._dirty:
            return self._base[off : off + BLOCK_SIZE]
        parts = []
        for i in range(nsec):
            chunk = self._dirty.get(sec0 + i)
            if chunk is None:
                s = (sec0 + i) * SECTOR_SIZE
                chunk = self._base[s : s + SECTOR_SIZE]
            parts.append(chunk)
        return b"".join(parts)

    # -- snapshots --

    def snapshot(self) -> DiskImage:
        return DiskImage(self.size_bytes, self._base, dict(self._dirty))

    def fork(self, *, log_io: bool = False) -> "Device":
        """Cheap copy sharing the base image; used for oracle capture."""
        dev = Device.__new__(Device)
        dev.size_bytes = self.size_bytes
        dev._base = self._base
        dev._dirty = dict(self._dirty)
        dev.log = IoLog()
        dev._log_io = log_io
        dev._next_seq = 1
        return dev


def create_device(size_bytes: int, base: DiskImage | None = None) -> Device:
    return Device(size_bytes, base)


def split_epochs(log: IoLog) -> list[Epoch]:
    """Partition the write/flush stream into flush-terminated epochs.

    Checkpoint records are excluded from epochs but their positions are
    retained as annotations on the epoch they fall inside.
    """
    epochs: list[Epoch] = []
    cur = Epoch()
    after_terminator = False

    def close():
        nonlocal cur, after_terminator
        epochs.append(cur)
        cur = Epoch()
        after_terminator = False

    for rec in log:
        if rec.flags.checkpoint:
            pos = len(cur.records) + (1 if after_terminator else 0)
            cur.checkpoints.append((pos, rec.checkpoint_id))
            if after_terminator:
                close()
            continue
        if after_terminator:
            close()
        if rec.flags.flush or rec.flags.fua:
            cur.terminator = rec
            after_terminator = True
        else:
            cur.records.append(rec)
    if cur.records or cur.terminator is not None or cur.checkpoints:
        epochs.append(cur)
    return epochs


def replay(base: DiskImage, log: IoLog, *, checkpoint: int) -> DiskImage:
    """Apply every write record logged before checkpoint ``checkpoint`` to
    ``base``. Pure: the input image is never modified."""
    cut = next(
        (rec.seq for rec in log if rec.flags.checkpoint and rec.checkpoint_id == checkpoint),
        None,
    )
    if cut is None:
        raise ReplayError(f"unknown checkpoint id {checkpoint}")

    overlay = dict(base._overlay)
    size = base.size_bytes
    for rec in log:
        if rec.seq > cut:
            break
        if not rec.is_data_write:
            continue
        if rec.sector * SECTOR_SIZE + rec.length > size:
            raise OutOfBoundsError("logged write out of bounds for this base")
        for i in range(rec.length // SECTOR_SIZE):
            overlay[rec.sector + i] = rec.data[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]
    return DiskImage(size, base._base, overlay)

