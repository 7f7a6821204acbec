"""Reads a disk image in tests through the block reader a mount uses."""

from crashlab.blockdev import BLOCK_SIZE, Device


def image_bytes(image) -> bytes:
    """Every byte of ``image``, read block by block through ``Device.read_block``."""
    dev = Device(image.size_bytes, image, log_io=False)
    return b"".join(dev.read_block(b) for b in range(image.size_bytes // BLOCK_SIZE))
