"""Synthetic dataset generation, dataset CSV files, client partitioning, and
construction of the shared alignment set.

Dataset files are the only matrices the simulator stores as CSV: features
then an integral label per row, through the ``numkit`` CSV codec.

Class-disjoint partitioning mirrors the usual non-IID setup: the classes are
shuffled and split into equal groups, and each client receives every row of
its classes. The alignment set is drawn without replacement from the pool and
its rows are reserved so later partitions never overlap it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Set, Tuple

import numpy as np

from .errors import ConfigError, ParseError, ShapeError
from .numkit import Matrix, RngStream, as_matrix, load_matrix_csv, save_matrix_csv


@dataclass
class Dataset:
    features: Matrix
    labels: np.ndarray
    num_classes: int
    reserved: Set[int] = field(default_factory=set)

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or len(self.labels) != self.features.shape[0]:
            raise ShapeError("labels length must equal the number of feature rows")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ShapeError(f"labels must lie in [0, {self.num_classes})")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def available_indices(self) -> np.ndarray:
        """Row indices not reserved for the alignment set."""
        mask = np.ones(self.size, dtype=bool)
        for i in self.reserved:
            mask[i] = False
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class PartitionPlan:
    client_indices: Tuple[Tuple[int, ...], ...]


def synth_mixture(
    num_classes: int,
    dim: int,
    per_class: int,
    separation: float,
    noise_std: float,
    rng: RngStream,
) -> Dataset:
    """Gaussian mixture with class means on a sphere of the given radius."""
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if separation <= 0:
        raise ConfigError(f"separation must be > 0, got {separation}")
    if noise_std < 0:
        raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
    gen = rng.generator()
    means = gen.normal(0.0, 1.0, size=(num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= separation
    feats = np.repeat(means, per_class, axis=0)
    feats = feats + gen.normal(0.0, noise_std, size=feats.shape)
    labels = np.repeat(np.arange(num_classes), per_class)
    order = gen.permutation(num_classes * per_class)
    return Dataset(feats[order], labels[order], num_classes)


def save_csv(ds: Dataset, path: str) -> None:
    """Features then label per line, through the numkit CSV codec."""
    save_matrix_csv(np.column_stack([ds.features, ds.labels]), path)


def load_csv(path: str) -> Dataset:
    """Read a numeric CSV whose last column holds integral labels."""
    if not os.path.exists(path):
        raise ConfigError(f"no such file: {path}")
    table = load_matrix_csv(path)
    labels = table[:, -1]
    fractional = np.nonzero(labels != np.floor(labels))[0]
    if fractional.size:
        row = int(fractional[0])
        raise ParseError(f"row {row + 1}: label {float(labels[row])!r} is not integral")
    if labels.min() < 0:
        raise ParseError("labels must be nonnegative")
    labels = labels.astype(np.int64)
    return Dataset(np.ascontiguousarray(table[:, :-1]), labels, int(labels.max()) + 1)


def partition_noniid(ds: Dataset, num_clients: int, rng: RngStream) -> PartitionPlan:
    """Disjoint class shards: classes shuffled then split into equal groups;
    each client takes every non-reserved row of its classes."""
    k = ds.num_classes
    if num_clients > k:
        raise ConfigError(
            f"{num_clients} clients > {k} classes; class-disjoint partitioning "
            "is undefined, use the iid mode"
        )
    if k % num_clients != 0:
        raise ConfigError(
            f"{k} classes do not divide evenly over {num_clients} clients; "
            "use the iid mode or adjust the class count"
        )
    per = k // num_clients
    gen = rng.generator()
    class_order = gen.permutation(k)
    avail = ds.available_indices()
    labels = ds.labels[avail]
    shards = []
    for c in range(num_clients):
        classes = set(int(x) for x in class_order[c * per:(c + 1) * per])
        rows = avail[np.isin(labels, list(classes))]
        shards.append(tuple(int(r) for r in rows))
    return PartitionPlan(tuple(shards))


def partition_iid(ds: Dataset, num_clients: int, rng: RngStream) -> PartitionPlan:
    """Uniform random split into near-equal shards (sizes differ by <= 1)."""
    if num_clients < 1:
        raise ConfigError(f"need at least 1 client, got {num_clients}")
    avail = ds.available_indices()
    gen = rng.generator()
    order = avail[gen.permutation(len(avail))]
    shards = [tuple(int(r) for r in np.sort(part)) for part in np.array_split(order, num_clients)]
    return PartitionPlan(tuple(shards))


def sample_rad(pool: Dataset, size: int, rng: RngStream) -> Matrix:
    """The unlabeled alignment rows, a size x dim matrix drawn without
    replacement, in pool order. They are reserved in the pool so partitions
    built afterwards exclude them."""
    if size < 2:
        raise ConfigError(f"alignment set needs at least 2 rows, got {size}")
    avail = pool.available_indices()
    if size > len(avail):
        raise ConfigError(
            f"alignment size {size} exceeds the {len(avail)} unreserved pool rows"
        )
    gen = rng.generator()
    chosen = avail[gen.choice(len(avail), size=size, replace=False)]
    chosen = np.sort(chosen)
    pool.reserved.update(int(i) for i in chosen)
    return pool.features[chosen]
