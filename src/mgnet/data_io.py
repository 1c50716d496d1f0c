"""Dataset ingestion and binary checkpoint persistence.

CIFAR binary records are the published layout: one label byte (two for the
100-class set: coarse then fine) followed by three 1024-byte channel planes,
row major.  Checkpoints are a little-endian container:

    magic "MGNET1"
    per tensor: name length (uint32), utf-8 name, rank (uint32),
                dims (uint32 each), values as float64

Names are unique and values finite.  Round-trips are bitwise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .tensor_core import ContractViolation

CHECKPOINT_MAGIC = b"MGNET1"


class FormatError(ValueError):
    """A file does not match its declared binary layout."""


@dataclass(frozen=True)
class LabeledImage:
    image: np.ndarray  # (h, w, c) float64 in [0, 1]
    label: int


def _parse_cifar(data: bytes, path, label_bytes: int, classes: int):
    record = label_bytes + 3 * 1024
    if len(data) % record != 0:
        raise FormatError(
            f"{path}: truncated file, {len(data) % record} trailing bytes after "
            f"offset {len(data) - len(data) % record}")
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, record)
    labels = records[:, label_bytes - 1]  # fine label is the last label byte
    bad = np.flatnonzero(labels >= classes)
    if bad.size:
        raise FormatError(f"{path}: label {labels[bad[0]]} out of range at offset "
                          f"{bad[0] * record}")
    # (n, 3, 32, 32) channel planes -> (n, 32, 32, 3) pixels, one C-contiguous image each
    pixels = records[:, label_bytes:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    images = pixels.astype(np.float64, order="C")
    images /= 255.0
    return [LabeledImage(image, int(label)) for image, label in zip(images, labels)]


def load_cifar10(path) -> list:
    """Parse one CIFAR-10 binary batch file into 32x32x3 images scaled to [0, 1]."""
    with open(path, "rb") as fh:
        return _parse_cifar(fh.read(), path, label_bytes=1, classes=10)


def load_cifar100(path) -> list:
    """Parse a CIFAR-100 binary file; the exposed label is the fine one."""
    with open(path, "rb") as fh:
        return _parse_cifar(fh.read(), path, label_bytes=2, classes=100)


def gen_synthetic(classes: int, per_class: int, size: int = 16, seed: int = 0) -> list:
    """Class-conditional blob images: class k is a Gaussian bump at a
    class-specific location (widths also cycle per class so the task stays
    separable after heavy spatial pooling) plus pixel noise of standard
    deviation 0.1.  Deterministic per seed; pixel values are clipped to [0, 1].
    """
    if classes < 2:
        raise ContractViolation(f"need at least 2 classes, got {classes}")
    rng = np.random.default_rng(seed)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    angles = 2.0 * np.pi * np.arange(classes) / classes
    radius = size * 0.27
    centers = np.stack([size / 2 + radius * np.cos(angles),
                        size / 2 + radius * np.sin(angles)], axis=1)
    widths = size * (0.07 + 0.08 * (np.arange(classes) % 3))
    images = []
    for k in range(classes):
        d2 = (ii - centers[k, 0]) ** 2 + (jj - centers[k, 1]) ** 2
        blob = 0.9 * np.exp(-d2 / (2.0 * widths[k] ** 2))
        for _ in range(per_class):
            pixels = blob + 0.1 * rng.standard_normal((size, size))
            images.append(LabeledImage(np.clip(pixels, 0.0, 1.0)[:, :, None], k))
    return images


def save_checkpoint(path, tensors: dict) -> None:
    """Write named float64 tensors in the container format (bitwise lossless)."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint container back into a name -> float64 array map.

    Any departure from the layout (bad magic, truncation, a name that is not
    UTF-8 or appears twice, a non-finite value) raises `FormatError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:len(CHECKPOINT_MAGIC)]!r}")
    pos = len(CHECKPOINT_MAGIC)
    tensors: dict[str, np.ndarray] = {}

    def take(count, what):
        nonlocal pos
        if pos + count > len(data):
            raise FormatError(f"{path}: truncated {what} at offset {pos}")
        chunk = data[pos:pos + count]
        pos += count
        return chunk

    while pos < len(data):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        if name_len > 1 << 16:
            raise FormatError(f"{path}: implausible name length {name_len} at offset {pos}")
        raw_name = take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name {raw_name!r} at offset {pos - name_len} "
                              f"is not UTF-8") from None
        if name in tensors:
            raise FormatError(f"{path}: tensor {name!r} appears twice")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        if rank > 32:
            raise FormatError(f"{path}: implausible rank {rank} for {name!r}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        count = 1
        for d in dims:
            count *= d
        payload = take(8 * count, f"values of {name!r}")
        values = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
        tensors[name] = values
    return tensors
