"""Hot numeric kernels over flat numpy vectors.

Four kernels carry essentially all the flat-vector arithmetic:

* ``uniform_fill`` / ``normal_fill``: counter-based random draws,
* ``adamw_core``: one AdamW update over a flat parameter vector,
* ``ivon_core``: one IVON posterior update over a flat vector.

Each kernel is vectorized numpy. The per-element expression order is
part of the output contract: reordering an expression changes rounding
and therefore every reported number. The tests check each kernel
against a scalar per-element reference.

All time-step scalars (bias corrections, EMA complements) are computed
once by the caller and passed in.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
MIX_2 = np.uint64(0x94D049BB133111EB)

_U11 = np.uint64(11)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_ONE = np.uint64(1)
_TWO = np.uint64(2)
_INV53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        x = x ^ (x >> _U30)
        x = x * MIX_1
        x = x ^ (x >> _U27)
        x = x * MIX_2
        x = x ^ (x >> _U31)
    return x


def _raw_words(key: np.uint64, counter: np.uint64, idx: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _mix64(key + (counter + idx) * GOLDEN)


def uniform_fill(key: np.uint64, counter: np.uint64, n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.uint64)
    w = _raw_words(key, counter, idx)
    return (w >> _U11).astype(np.float64) * _INV53


def normal_fill(key: np.uint64, counter: np.uint64, n: int) -> np.ndarray:
    # draw i consumes counter words 2i and 2i+1 (Box-Muller, cosine branch)
    idx = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        w1 = _raw_words(key, counter, _TWO * idx)
        w2 = _raw_words(key, counter, _TWO * idx + _ONE)
    u1 = ((w1 >> _U11) + _ONE).astype(np.float64) * _INV53  # (0,1], log-safe
    u2 = (w2 >> _U11).astype(np.float64) * _INV53           # [0,1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


def adamw_core(params, grad, m, v, lr, b1, b2, eps, wd, bc1, bc2) -> None:
    omb1 = 1.0 - b1
    omb2 = 1.0 - b2
    m[:] = b1 * m + omb1 * grad
    v[:] = b2 * v + omb2 * (grad * grad)
    mh = m / bc1
    vh = v / bc2
    params[:] = params - lr * (mh / (np.sqrt(vh) + eps) + wd * params)


def ivon_core(mean, hess, gmom, gprod, gavg, lr, b1, b2, lam, delta, bc1, c3):
    """Update mean, hess and gmom in place; return (min(h_new+delta), floored)."""
    omb1 = 1.0 - b1
    omb2 = 1.0 - b2
    hd = hess + delta
    hhat = gprod * lam * hd
    gmom[:] = b1 * gmom + omb1 * gavg
    diff = hess - hhat
    hnew = b2 * hess + omb2 * hhat + c3 * (diff * diff) / hd
    min_hd = float(np.min(hnew + delta))
    floored = int(np.count_nonzero(hnew < 0.0))
    if floored:
        hnew = np.maximum(hnew, 0.0)
    hess[:] = hnew
    mean[:] = mean - lr * (gmom / bc1 + delta * mean) / (hess + delta)
    return min_hd, floored
