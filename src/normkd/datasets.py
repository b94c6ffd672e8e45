"""Gaussian-blob classification datasets and their on-disk text format.

File layout: a header line ``C D N`` (class count, feature dim, rows),
then exactly N lines ``label,f1,...,fD``.  Floats are written with
Python's shortest round-trip repr, so identical data always produces
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, FileFormatError
from .ioutil import atomic_write_text

BLOB_STD = 1.0
_CENTER_TRIES_PER_CLASS = 200


@dataclass(frozen=True, eq=False)
class Dataset:
    """In-memory split: float64 features (N, D) and int labels (N,)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feat = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        lab = np.asarray(self.labels, dtype=np.int64)
        if feat.ndim != 2 or lab.ndim != 1 or feat.shape[0] != lab.shape[0]:
            raise ContractError(
                f"features {feat.shape} and labels {lab.shape} are inconsistent"
            )
        if not np.all(np.isfinite(feat)):
            raise ContractError("features contain non-finite entries")
        if lab.size and (lab.min() < 0 or lab.max() >= self.num_classes):
            raise ContractError(f"labels must lie in [0, {self.num_classes})")
        object.__setattr__(self, "features", feat)
        object.__setattr__(self, "labels", lab)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def _place_centers(
    rng: np.random.Generator, classes: int, dim: int, separation: float
) -> np.ndarray:
    """Greedy rejection sampling of class centers at pairwise distance
    >= separation.

    The box starts barely larger than a packing of the requested
    separation and grows only when placement fails, so realized distances
    stay close to the margin instead of dwarfing it in high dimensions.
    """
    for growth in range(10):
        side = separation * 1.5 * (classes ** (1.0 / dim)) * (1.5**growth)
        if not np.isfinite(side):
            raise ConfigError(
                f"separation {separation} too large for the numeric range"
            )
        centers: list[np.ndarray] = []
        for _ in range(classes * _CENTER_TRIES_PER_CLASS):
            cand = rng.uniform(0.0, side, size=dim)
            if all(np.linalg.norm(cand - c) >= separation for c in centers):
                centers.append(cand)
                if len(centers) == classes:
                    return np.stack(centers)
    raise ConfigError(
        f"could not place {classes} centers at separation {separation} in {dim}-D"
    )


def make_blobs(
    classes: int, dim: int, per_class: int, separation: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic train/val blob pair (80/20 split within each class).

    Each class is an isotropic unit-variance Gaussian around its center;
    centers are at least ``separation`` apart.
    """
    if classes < 2:
        raise ContractError(f"need at least 2 classes, got {classes}")
    if per_class < 2:
        raise ContractError(f"need at least 2 samples per class, got {per_class}")
    if dim < 1:
        raise ContractError(f"need at least 1 feature, got {dim}")
    if not separation > 0.0:
        raise ContractError(f"separation must be positive, got {separation}")
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    centers = _place_centers(rng, classes, dim, separation)
    n_train = per_class * 4 // 5
    train_feat, train_lab, val_feat, val_lab = [], [], [], []
    for k in range(classes):
        samples = centers[k] + BLOB_STD * rng.standard_normal((per_class, dim))
        train_feat.append(samples[:n_train])
        train_lab.append(np.full(n_train, k, dtype=np.int64))
        val_feat.append(samples[n_train:])
        val_lab.append(np.full(per_class - n_train, k, dtype=np.int64))

    def _assemble(feats, labs) -> Dataset:
        x = np.concatenate(feats)
        y = np.concatenate(labs)
        order = rng.permutation(x.shape[0])
        return Dataset(x[order], y[order], classes)

    return _assemble(train_feat, train_lab), _assemble(val_feat, val_lab)


def write_dataset(path: Path | str, data: Dataset) -> None:
    lines = [f"{data.num_classes} {data.num_features} {data.n_samples}"]
    for i in range(data.n_samples):
        feats = ",".join(repr(float(v)) for v in data.features[i])
        lines.append(f"{int(data.labels[i])},{feats}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset(path: Path | str) -> Dataset:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read dataset {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty dataset file")
    header = lines[0].split()
    if len(header) != 3:
        raise FileFormatError(f"{path}: header must be 'C D N', got {lines[0]!r}")
    try:
        c, d, n = (int(h) for h in header)
    except ValueError as exc:
        raise FileFormatError(f"{path}: non-integer header {lines[0]!r}") from exc
    if c < 1 or d < 1 or n < 0:
        raise FileFormatError(f"{path}: header {lines[0]!r} needs C >= 1, D >= 1, N >= 0")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != n:
        raise FileFormatError(f"{path}: expected {n} rows, found {len(rows)}")
    features = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != d + 1:
            raise FileFormatError(
                f"{path}: row {i + 1} has {len(parts) - 1} features, expected {d}"
            )
        try:
            labels[i] = int(parts[0])
            features[i] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise FileFormatError(f"{path}: unparseable row {i + 1}: {exc}") from exc
    if n and (labels.min() < 0 or labels.max() >= c):
        raise FileFormatError(f"{path}: labels outside [0, {c})")
    if not np.all(np.isfinite(features)):
        raise FileFormatError(f"{path}: non-finite feature values")
    return Dataset(features, labels, c)
