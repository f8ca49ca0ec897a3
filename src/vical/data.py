"""Synthetic classification task and the dataset CSV format.

The task is a Gaussian mixture: class centers sit on a scaled simplex
embedded in the first C feature coordinates with exact pairwise
distance s, features are center + N(0, I), and a fraction rho of
labels is resampled uniformly. The noise floor makes calibration
non-trivial: no classifier can be right on a relabeled point more
often than chance, so confident predictions must hedge.

Draw order per split (one child stream each, train then dev): clean
labels, features, flip mask, replacement labels. Fixed so datasets
replay bit-identically from the spec seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import rng as vrng
from .model import Batch


class DataError(Exception):
    """Bad dataset file or spec; maps to exit code 3 in the CLI."""


# The most float64 values one dataset (both splits) or one parameter vector may
# hold, 512 MiB: a larger size is a typo, and would only end in a MemoryError.
MAX_ELEMENTS = 2**26


@dataclass
class DatasetSpec:
    n_classes: int
    n_features: int
    n_train: int
    n_dev: int
    separation: float
    label_noise: float
    seed: int


def validate_spec(spec: DatasetSpec) -> None:
    if spec.n_classes < 2:
        raise DataError("need at least 2 classes")
    if spec.n_features < spec.n_classes:
        raise DataError("need n_features >= n_classes for the simplex embedding")
    if spec.n_train < spec.n_classes or spec.n_dev < spec.n_classes:
        raise DataError("split sizes must be >= n_classes")
    if not 0.0 <= spec.label_noise < 1.0:
        raise DataError("label noise must lie in [0, 1)")
    if spec.separation < 0.0:
        raise DataError("separation must be >= 0")
    if (spec.n_train + spec.n_dev) * spec.n_features > MAX_ELEMENTS:
        raise DataError(f"(n_train + n_dev) x n_features must be at most {MAX_ELEMENTS:,} values")


def class_centers(spec: DatasetSpec) -> np.ndarray:
    """[C, d] centers with pairwise distance exactly spec.separation."""
    c, d = spec.n_classes, spec.n_features
    centers = np.zeros((c, d))
    # (e_k - 1/C) on the first C coordinates, scaled so |c_i - c_j| = s
    block = np.eye(c) - 1.0 / c
    centers[:, :c] = block * (spec.separation / np.sqrt(2.0))
    return centers


def _draw_split(spec: DatasetSpec, stream: vrng.RngState, n: int) -> Batch:
    c, d = spec.n_classes, spec.n_features
    labels = np.floor(vrng.sample_uniform(stream, n) * c).astype(np.int64)
    noise = vrng.sample_standard_normal(stream, n * d).reshape(n, d)
    features = class_centers(spec)[labels] + noise
    flip = vrng.sample_uniform(stream, n) < spec.label_noise
    resampled = np.floor(vrng.sample_uniform(stream, n) * c).astype(np.int64)
    labels = np.where(flip, resampled, labels)
    return Batch(features=features, labels=labels)


def generate_dataset(spec: DatasetSpec):
    """Deterministic (train, dev) batches for a spec; splits use
    disjoint child streams."""
    validate_spec(spec)
    root = vrng.seed_rng(spec.seed)
    train = _draw_split(spec, vrng.child(root, 0), spec.n_train)
    dev = _draw_split(spec, vrng.child(root, 1), spec.n_dev)
    return train, dev


def csv_text(batch: Batch) -> str:
    """A dataset CSV's text, as ``load_csv`` parses it; repr keeps each float64."""
    d = batch.features.shape[1]
    lines = [",".join([f"feature_{j}" for j in range(d)] + ["label"])]
    for row, label in zip(batch.features, batch.labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    return "\n".join(lines) + "\n"


def load_csv(path: str) -> Batch:
    """Parse a dataset CSV; errors name the offending file line."""
    if not os.path.isfile(path):
        raise DataError(f"dataset file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[-1] != "label" or len(header) < 2:
        raise DataError(f"{path}: header must end with a 'label' column")
    d = len(header) - 1
    want = [f"feature_{j}" for j in range(d)]
    if header[:-1] != want:
        raise DataError(f"{path}: feature columns must be feature_0..feature_{d-1}")
    if len(lines) < 2:
        raise DataError(f"{path}: no data rows")

    features = np.empty((len(lines) - 1, d))
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for i, line in enumerate(lines[1:], start=2):  # line numbers count the header
        cells = line.split(",")
        if len(cells) != d + 1:
            raise DataError(f"{path}: line {i}: expected {d + 1} cells, got {len(cells)}")
        try:
            features[i - 2] = [float(v) for v in cells[:-1]]
        except ValueError:
            raise DataError(f"{path}: line {i}: non-numeric feature cell") from None
        try:
            labels[i - 2] = int(cells[-1])
        except ValueError:
            raise DataError(f"{path}: line {i}: label must be an integer") from None
        if labels[i - 2] < 0:
            raise DataError(f"{path}: line {i}: label out of range")
    if not np.all(np.isfinite(features)):
        raise DataError(f"{path}: non-finite feature values")
    return Batch(features=features, labels=labels)
