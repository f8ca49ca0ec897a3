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

Because a draw depends only on (key, counter), a stream's normals can be
computed ahead of their use. ``normal_feed`` hands out a run of
``sample_standard_normal`` draws, computed into a small shared ring by a
forked producer where a second CPU is usable, else in process; the caller
gets the same arrays, in the same order, and the same final counter.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import _kernels

_MASK = (1 << 64) - 1
_SPLIT = 0xC2B2AE3D27D4EB4F


def _key(x: int) -> int:
    """A stream key: the kernels' splitmix64 finalizer of x mod 2^64."""
    w = np.array([x & _MASK], dtype=np.uint64)
    _kernels.mix64(w, np.empty_like(w))
    return int(w[0])


@dataclass
class RngState:
    """A seeded stream position: derived key, draw counter."""

    key: int
    counter: int = 0


def seed_rng(seed: int) -> RngState:
    """Create the root stream for a seed. Same seed, same stream, always."""
    return RngState(key=_key(int(seed) + int(_kernels.GOLDEN)))


def child(state: RngState, index: int) -> RngState:
    """Derive an independent child stream; the parent is not advanced."""
    if index < 0:
        raise ValueError("child index must be >= 0")
    return RngState(key=_key(state.key + (index + 1) * _SPLIT))


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


_FEED_SLOTS = 2  # ring slots; the producer holds one more draw while it waits for one


def _produce(key: int, counter: int, n: int, count: int, ring: np.ndarray,
             ready_w: int, free_r: int) -> None:
    """The producer's whole life: draw i is computed, then copied into slot
    i % slots once the consumer has freed it (computing first keeps one
    more draw ready than the ring holds), and one byte on ``ready_w``
    announces it. Leaves through ``os._exit`` when done, or when the
    consumer closes its ends."""
    status = 1
    try:
        for i in range(count):
            z = _kernels.normal_fill(np.uint64(key), np.uint64(counter), n)
            counter = (counter + 2 * n) & _MASK
            if i >= ring.shape[0] and not os.read(free_r, 1):
                break  # EOF: the consumer closed the feed
            ring[i % ring.shape[0]] = z
            os.write(ready_w, b"r")
        status = 0
    except BrokenPipeError:  # the consumer closed the feed mid-draw
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)


@contextlib.contextmanager
def normal_feed(state: RngState, n: int, count: int) -> Iterator[Callable[[], np.ndarray]]:
    """Up to ``count`` draws of ``sample_standard_normal(state, n)``.

    Yields ``draw()``, which returns the next draw as a new array and
    advances ``state.counter`` by 2n, as the in-process call would. The
    draws are computed ahead by a forked producer process when ``count``
    is positive, the platform has ``os.fork`` and ``os.sched_getaffinity``,
    and more than one CPU is usable; otherwise ``draw()`` makes each one in
    process. A producer that dies early raises RuntimeError in ``draw()``.
    On exit, even through an exception, the producer is told to stop and
    is reaped.
    """
    if n < 1:
        raise ValueError("requested an empty sample (n must be >= 1)")
    pid = None  # no producer: draw in process
    if (count > 0 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        buf = mmap.mmap(-1, _FEED_SLOTS * n * 8)  # anonymous, shared across fork
        ring = np.frombuffer(buf, dtype=np.float64).reshape(_FEED_SLOTS, n)
        ready_r, ready_w = os.pipe()  # one byte per filled slot
        free_r, free_w = os.pipe()    # one byte per slot the consumer is done with
        try:
            pid = os.fork()
        except BaseException:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            raise
        if pid == 0:
            os.close(ready_r)
            os.close(free_w)
            _produce(state.key, state.counter, n, count, ring, ready_w, free_r)
        os.close(ready_w)
        os.close(free_r)
    taken = 0

    def draw() -> np.ndarray:
        nonlocal taken
        if taken == count:
            raise RuntimeError(f"normal feed exhausted after {count} draws")
        if pid is None:
            out = sample_standard_normal(state, n)
        else:
            if not os.read(ready_r, 1):
                raise RuntimeError(f"normal feed producer exited before draw {taken + 1} of {count}")
            out = ring[taken % _FEED_SLOTS].copy()
            if taken + 1 + _FEED_SLOTS <= count:  # the producer refills this slot
                with contextlib.suppress(BrokenPipeError):  # a dead producer: the next read says so
                    os.write(free_w, b"f")
            state.counter = (state.counter + 2 * n) & _MASK
        taken += 1
        return out

    try:
        yield draw
    finally:
        if pid is not None:
            os.close(ready_r)  # the producer sees EPIPE or EOF and leaves
            os.close(free_w)
            os.waitpid(pid, 0)
