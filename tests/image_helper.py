"""Reads disk images and file systems in tests as plain values: an image
through the block reader a mount uses, a file system attribute by attribute;
and lists the crash states of a profiled workload."""

import copy

from crashlab import harness
from crashlab.blockdev import BLOCK_SIZE, Device, split_epochs
from crashlab.crashgen import build_subset_state, enumerate_target_subsets
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


def crash_states(prof, granularity="op", seed=0):
    """Every checkpoint state of ``prof``, then every subset state, in the
    order ``run_workload`` checks them in subset mode."""
    for k in range(1, len(prof.device.checkpoints) + 1):
        yield harness._checkpoint_state(prof, k)
    epochs = split_epochs(prof.device.log)
    for p in range(len(epochs)):
        prefix = harness._prefix_state(prof, epochs, p, granularity)
        for kept in enumerate_target_subsets(prefix, seed):
            yield build_subset_state(prefix, kept)
