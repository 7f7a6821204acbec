"""Reads disk images and file systems in tests as plain values: an image
through the block reader a mount uses, a file system attribute by attribute."""

import copy

from crashlab.blockdev import BLOCK_SIZE, Device
from crashlab.fstarget.soundfs import Inode


def image_bytes(image) -> bytes:
    """Every byte of ``image``, read block by block through ``Device.read_block``."""
    dev = Device(image.size_bytes, image, log_io=False)
    return b"".join(dev.read_block(b) for b in range(image.size_bytes // BLOCK_SIZE))


def fs_state(fs) -> dict:
    """Every attribute of ``fs`` as plain values, copied: inodes as their
    slot values, the device as its log, checkpoints and the content keys of
    its image and of the image at each checkpoint (equal keys mean equal
    bytes, and a device and its copies key equal bytes equally)."""
    out = {}
    for name, value in vars(fs).items():
        if name == "inodes":
            value = {i: tuple(getattr(n, a) for a in Inode.__slots__) for i, n in value.items()}
        elif name == "device":
            images = [image.content_key() for image in value.images]
            log, checkpoints = list(value.log), list(value.checkpoints)
            value = (value.snapshot().content_key(), log, checkpoints, images)
        elif name == "geo":
            value = vars(value)
        out[name] = copy.deepcopy(value)
    return out


def same_bytes(a, b) -> bool:
    """Whether images ``a`` and ``b`` hold the same bytes. Equal content
    keys say so at once; only unequal ones are read in full."""
    return a.content_key() == b.content_key() or image_bytes(a) == image_bytes(b)
