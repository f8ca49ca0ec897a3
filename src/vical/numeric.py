"""Stable softmax primitives shared by the model and prediction layers.

The one logits check: empty input raises ValueError, a NaN or inf raises
FloatingPointError, which training and evaluation report as a failed run."""

from __future__ import annotations

import numpy as np


def _check_logits(logits: np.ndarray) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("softmax input is empty")
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("softmax input contains non-finite values")
    return arr


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stable softmax. Works on a single vector or a batch of rows."""
    arr = _check_logits(logits)
    shifted = arr - np.max(arr, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(softmax(x)) without forming unstable exponentials."""
    arr = _check_logits(logits)
    shifted = arr - np.max(arr, axis=axis, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse
