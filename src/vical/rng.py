"""Counter-based pseudo-random streams.

Experiments must replay bit-identically across runs and machines, so
this module carries its own generator instead of wrapping a platform
default. The design is a keyed splitmix64 counter:

    key     = mix64(seed + GOLDEN)
    word(i) = mix64(key + (counter + i) * GOLDEN)

with mix64 the splitmix64 finalizer and all arithmetic mod 2^64. Every
draw consumes counter slots in a documented way, so a stream is a pure
function of (seed, child path, counter):

* uniforms: draw i uses word(i), mapped to [0, 1) via the top 53 bits;
* normals: draw i uses words 2i and 2i+1 (Box-Muller cosine branch),
  with the radial uniform shifted into (0, 1] so log never sees zero.

Child streams hash the parent key with a separate odd constant and a
1-based index, so siblings and parents never collide. Deriving a child
does not advance the parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_SPLIT = 0xC2B2AE3D27D4EB4F


def _mix64(x: int) -> int:
    """splitmix64 finalizer on plain ints (key derivation path)."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX_1) & _MASK
    x ^= x >> 27
    x = (x * _MIX_2) & _MASK
    x ^= x >> 31
    return x


@dataclass
class RngState:
    """A seeded stream position: derived key, draw counter."""

    key: int
    counter: int = 0


def seed_rng(seed: int) -> RngState:
    """Create the root stream for a seed. Same seed, same stream, always."""
    return RngState(key=_mix64(int(seed) + _GOLDEN))  # _mix64 reduces mod 2^64


def child(state: RngState, index: int) -> RngState:
    """Derive an independent child stream; the parent is not advanced."""
    if index < 0:
        raise ValueError("child index must be >= 0")
    key = _mix64(state.key + (index + 1) * _SPLIT)
    return RngState(key=key)


def sample_uniform(state: RngState, n: int) -> np.ndarray:
    """n i.i.d. draws from U[0, 1); advances the stream by n slots."""
    if n < 1:
        raise ValueError("requested an empty sample (n must be >= 1)")
    out = _kernels.uniform_fill(np.uint64(state.key), np.uint64(state.counter), int(n))
    state.counter = (state.counter + n) & _MASK
    return out


def sample_standard_normal(state: RngState, n: int) -> np.ndarray:
    """n i.i.d. draws from N(0, 1); advances the stream by 2n slots."""
    if n < 1:
        raise ValueError("requested an empty sample (n must be >= 1)")
    out = _kernels.normal_fill(np.uint64(state.key), np.uint64(state.counter), int(n))
    state.counter = (state.counter + 2 * n) & _MASK
    return out
