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

``normal_fill``, ``adamw_core`` and ``ivon_core`` evaluate their
expressions step by step, in the same per-element order, with ``out=``
and in-place operators into one shared module-level scratch set,
reallocated only when n changes: three length-n float64 work vectors
(``normal_fill`` hashes in uint64 views of them) and the uint64 table
``i * 2*GOLDEN`` of ``normal_fill``'s even-word offsets. A kernel never
returns a scratch vector and keeps no value in a work vector from call
to call, so its only allocation is the array it returns, if any. The
scratch set makes these kernels not reentrant: one caller at a time per
process. Separate processes each have their own set, so the producer
process that ``rng.normal_feed`` forks runs ``normal_fill`` alongside its
parent's kernels and hands each draw over through a pipe.
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
_TWO_GOLDEN = np.uint64(2 * int(GOLDEN) % (1 << 64))
_INV53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi

_scratch: tuple = ()


def _work(n: int) -> tuple:
    """Three length-n work vectors and the even-offset table, reallocated
    when n changes."""
    global _scratch
    if not _scratch or _scratch[0].shape[0] != n:
        with np.errstate(over="ignore"):
            steps = np.arange(n, dtype=np.uint64) * _TWO_GOLDEN
        _scratch = (np.empty(n), np.empty(n), np.empty(n), steps)
    return _scratch


def mix64(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer over a uint64 array, in place (wrapping
    arithmetic); tmp is a uint64 array of the same shape. ``rng`` derives
    its stream keys with it too."""
    with np.errstate(over="ignore"):
        for shift, mult in ((_U30, MIX_1), (_U27, MIX_2)):
            np.right_shift(x, shift, out=tmp)
            x ^= tmp
            x *= mult
        np.right_shift(x, _U31, out=tmp)
        x ^= tmp


def uniform_fill(key: np.uint64, counter: np.uint64, n: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        w = key + (counter + np.arange(n, dtype=np.uint64)) * GOLDEN
    mix64(w, np.empty_like(w))
    return (w >> _U11).astype(np.float64) * _INV53


def normal_fill(key: np.uint64, counter: np.uint64, n: int) -> np.ndarray:
    # draw i consumes counter words 2i and 2i+1 (Box-Muller, cosine branch):
    # key + (counter + 2i)*GOLDEN = base + i*(2*GOLDEN), mod 2^64
    u1, u2, t, steps = _work(n)
    even, odd, tmp = u1.view(np.uint64), u2.view(np.uint64), t.view(np.uint64)
    with np.errstate(over="ignore"):
        np.add(steps, key + counter * GOLDEN, out=even)
        np.add(even, GOLDEN, out=odd)
    mix64(even, tmp)
    mix64(odd, tmp)
    even >>= _U11
    even += _ONE
    # each uniform goes to a vector its words do not share: casting in place
    # over the words it reads makes numpy buffer the cast
    np.multiply(even, _INV53, out=t)   # radial, (0,1], log-safe
    odd >>= _U11
    np.multiply(odd, _INV53, out=u1)   # angular, [0,1)
    np.log(t, out=t)
    np.multiply(-2.0, t, out=t)
    np.sqrt(t, out=t)
    np.multiply(_TWO_PI, u1, out=u1)
    np.cos(u1, out=u1)
    return t * u1


def adamw_core(params, grad, m, v, lr, b1, b2, eps, wd, bc1, bc2) -> None:
    omb1 = 1.0 - b1
    omb2 = 1.0 - b2
    a, b = _work(params.shape[0])[:2]
    m *= b1                              # m = b1*m + omb1*grad
    np.multiply(omb1, grad, out=a)
    m += a
    v *= b2                              # v = b2*v + omb2*(grad*grad)
    np.multiply(grad, grad, out=a)
    a *= omb2
    v += a
    np.divide(m, bc1, out=a)             # mh
    np.divide(v, bc2, out=b)             # vh
    np.sqrt(b, out=b)
    b += eps
    a /= b                               # mh / (sqrt(vh) + eps)
    np.multiply(wd, params, out=b)
    a += b
    a *= lr
    params -= a                          # params - lr*(... + wd*params)


def ivon_core(mean, hess, gmom, gprod, gavg, lr, b1, b2, lam, delta, bc1, c3):
    """Update mean, hess and gmom in place; return (min(h_new+delta), floored)."""
    omb1 = 1.0 - b1
    omb2 = 1.0 - b2
    hd, hhat, t = _work(mean.shape[0])[:3]
    np.add(hess, delta, out=hd)
    np.multiply(gprod, lam, out=hhat)    # hhat = gprod*lam*hd
    hhat *= hd
    gmom *= b1                           # gmom = b1*gmom + omb1*gavg
    np.multiply(omb1, gavg, out=t)
    gmom += t
    np.subtract(hess, hhat, out=t)       # diff
    t *= t
    np.multiply(c3, t, out=t)
    t /= hd                              # c3*(diff*diff)/hd
    hess *= b2                           # hnew = b2*hess + omb2*hhat + c3*...
    hhat *= omb2
    hess += hhat
    hess += t
    np.add(hess, delta, out=hhat)        # h_new + delta, before the floor
    min_hd = float(np.min(hhat))
    # a negative h gives h+delta <= delta, so no entry needs the floor when
    # min(h+delta) > delta (a NaN minimum still counts)
    floored = 0 if min_hd > delta else int(np.count_nonzero(hess < 0.0))
    if floored:
        np.maximum(hess, 0.0, out=hess)
        np.add(hess, delta, out=hhat)
    np.divide(gmom, bc1, out=t)          # mean -= lr*(gmom/bc1 + delta*mean)/(hess+delta)
    np.multiply(delta, mean, out=hd)
    t += hd
    t *= lr
    t /= hhat
    mean -= t
    return min_hd, floored
