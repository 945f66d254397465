"""Synthetic dataset generators and an IDX image-file loader.

All generators are pure functions of their seed: the same seed reproduces
bit-identical arrays. Train/test splits are made disjoint by construction,
using distinct seeds.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .seeding import STREAM_DATA, seeded_rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """An IDX file failed a structural check (magic number, counts)."""


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    split: str = "train"
    provenance: str = ""

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels disagree in length")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def gen_two_moons(n: int, noise_sd: float, seed: int, split: str = "train") -> Dataset:
    """Two interleaved half-circles with Gaussian coordinate noise.

    Class 0 lies on the upper unit half-circle, class 1 on a lower
    half-circle shifted right; classes are exactly balanced (n must be even).
    """
    if n % 2:
        raise ValueError("two-moons size must be even for balanced classes")
    rng = seeded_rng(seed, STREAM_DATA)
    m = n // 2
    theta = np.linspace(0.0, np.pi, m, endpoint=False)
    upper = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    lower = np.stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)], axis=1)
    x = np.concatenate([upper, lower], axis=0)
    if noise_sd:
        x = x + rng.normal(0.0, noise_sd, size=x.shape)
    y = np.concatenate([np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)])
    order = rng.permutation(n)
    return Dataset(x[order], y[order], split=split,
                   provenance=f"two_moons(n={n}, noise_sd={noise_sd}, seed={seed})")


@dataclass(frozen=True)
class TeacherInfo:
    """Ground-truth sparse teacher returned for oracle comparisons."""

    weights: list[np.ndarray]
    mask: list[np.ndarray]
    density: float

    def mask_ones(self) -> int:
        return int(sum(m.sum() for m in self.mask))


def gen_sparse_teacher(d_in: int, hidden: int, density: float, n: int,
                       seed: int, split: str = "train") -> tuple[Dataset, TeacherInfo]:
    """Labels from a two-layer ReLU teacher whose weights have an exactly
    known sparse support: ceil(density * total) nonzeros drawn by seed."""
    if not 0.0 < density <= 1.0:
        raise ValueError("teacher density must lie in (0, 1]")
    rng = seeded_rng(seed, STREAM_DATA)
    w1 = rng.standard_normal((d_in, hidden)) / np.sqrt(d_in)
    w2 = rng.standard_normal((hidden, 2)) / np.sqrt(hidden)
    total = w1.size + w2.size
    ones = int(np.ceil(density * total))
    flat = np.zeros(total)
    flat[rng.choice(total, size=ones, replace=False)] = 1.0
    m1 = flat[:w1.size].reshape(w1.shape)
    m2 = flat[w1.size:].reshape(w2.shape)
    w1 *= m1
    w2 *= m2
    x = rng.standard_normal((n, d_in))
    logits = np.maximum(x @ w1, 0.0) @ w2
    y = logits.argmax(axis=1).astype(np.int64)
    ds = Dataset(x, y, split=split,
                 provenance=f"sparse_teacher(d_in={d_in}, hidden={hidden}, "
                            f"density={density}, n={n}, seed={seed})")
    return ds, TeacherInfo(weights=[w1, w2], mask=[m1, m2], density=density)


@dataclass(frozen=True)
class DataConfig:
    """File/CLI-facing dataset selection; ``build`` returns (train, test)."""

    kind: str = "two_moons"  # "two_moons" | "sparse_teacher" | "idx"
    n_train: int = 256
    n_test: int = 256
    noise_sd: float = 0.1
    seed: int = 7
    d_in: int = 16
    hidden: int = 16
    density: float = 0.25
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    limit: int | None = None

    def build(self) -> tuple[Dataset, Dataset]:
        if self.kind == "two_moons":
            train = gen_two_moons(self.n_train, self.noise_sd, self.seed, "train")
            test = gen_two_moons(self.n_test, self.noise_sd, self.seed + 1, "test")
            return train, test
        if self.kind == "sparse_teacher":
            ds, _ = gen_sparse_teacher(self.d_in, self.hidden, self.density,
                                       self.n_train + self.n_test, self.seed)
            train = Dataset(ds.inputs[:self.n_train], ds.labels[:self.n_train],
                            "train", ds.provenance)
            test = Dataset(ds.inputs[self.n_train:], ds.labels[self.n_train:],
                           "test", ds.provenance)
            return train, test
        if self.kind == "idx":
            train = load_idx(self.train_images, self.train_labels, self.limit)
            test = load_idx(self.test_images, self.test_labels, self.limit)
            return (Dataset(train.inputs, train.labels, "train", train.provenance),
                    Dataset(test.inputs, test.labels, "test", test.provenance))
        raise ValueError(f"unknown dataset kind {self.kind!r}")


def _read_be_u32(f, path: str) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise OSError(f"truncated IDX file {path!r}")
    return struct.unpack(">I", raw)[0]


def load_idx(images_path: str, labels_path: str, limit: int | None = None) -> Dataset:
    """Parse big-endian IDX image/label files into a (n, 1, h, w) dataset.

    Pixels are scaled to [0, 1]. ``limit`` keeps the first ``limit``
    examples and must be at least 1. Magic numbers are checked per file; a
    bad magic raises ``IdxFormatError`` naming the offending file, a short
    read raises ``OSError``.
    """
    if limit is not None and int(limit) < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    with open(images_path, "rb") as f:
        magic = _read_be_u32(f, images_path)
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"bad magic 0x{magic:08X} in image file {images_path!r}")
        n = _read_be_u32(f, images_path)
        h = _read_be_u32(f, images_path)
        w = _read_be_u32(f, images_path)
        raw = f.read(n * h * w)
        if len(raw) != n * h * w:
            raise OSError(f"truncated IDX file {images_path!r}")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, h, w)

    with open(labels_path, "rb") as f:
        magic = _read_be_u32(f, labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"bad magic 0x{magic:08X} in label file {labels_path!r}")
        nl = _read_be_u32(f, labels_path)
        raw = f.read(nl)
        if len(raw) != nl:
            raise OSError(f"truncated IDX file {labels_path!r}")
        labels = np.frombuffer(raw, dtype=np.uint8)

    if nl != n:
        raise IdxFormatError(
            f"image count {n} != label count {nl} for {images_path!r}")
    if limit is not None:
        n = min(n, int(limit))
        images = images[:n]
        labels = labels[:n]
    x = images.astype(np.float64)[:, None, :, :] / 255.0
    return Dataset(x, labels.astype(np.int64), split="train",
                   provenance=f"idx({images_path}, {labels_path}, limit={limit})")
