"""Counter-based pseudo-random streams.

Experiments must replay bit-identically, so this module carries its own
generator instead of wrapping a platform default. Its integer words are
the same on every host; its floats, like every report byte, are identical
for a fixed numpy version, numpy SIMD dispatch level and OpenBLAS core
(``log`` and ``cos`` round differently across levels). The design is a
keyed splitmix64 counter:

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
computed ahead of their use. ``normal_feed`` hands out
``sample_standard_normal`` draws until closed, written into one pipe by
a forked producer where a second CPU is usable, else made in process;
the caller gets the same arrays, in the same order, and the same counter.
While the pipe holds no bytes, a fed ``draw()`` calls the caller's
``idle()`` hook, if any, until the bytes arrive or ``idle`` returns False,
so the caller can do other work instead of blocking on the producer.
"""

from __future__ import annotations

import contextlib
import os
import select
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

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


_FEED_DRAWS = 2  # draws the pipe is asked to hold; the producer holds one more while it waits


def _produce(state: RngState, n: int, pipe_w: int) -> None:
    """The producer's whole life: draw ``sample_standard_normal(state, n)``
    on its own copy of the stream and write each draw's 8n bytes to
    ``pipe_w``, which blocks while the pipe is full, until the consumer
    closes its end. Leaves through ``os._exit``."""
    status = 1
    try:
        while True:
            view = memoryview(sample_standard_normal(state, n)).cast("B")
            while view:
                view = view[os.write(pipe_w, view):]
    except BrokenPipeError:  # the consumer closed the feed
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)


@contextlib.contextmanager
def normal_feed(state: RngState, n: int, idle: Optional[Callable[[], bool]] = None
                ) -> Iterator[Callable[[], np.ndarray]]:
    """Draws of ``sample_standard_normal(state, n)`` until the feed closes.

    Yields ``draw()``, which returns the next draw as a new array and
    advances ``state.counter`` by 2n, as the in-process call would. Where
    the platform has ``os.fork`` and ``os.sched_getaffinity`` and more than
    one CPU is usable, a forked producer computes the draws ahead, and one
    that dies early raises RuntimeError in ``draw()``; otherwise ``draw``
    is the in-process sampler itself. On exit, even through an exception,
    the producer is told to stop and is reaped.

    ``idle`` fills the fed ``draw()``'s waits: while the pipe has no bytes
    ready, ``draw()`` calls it again and again, and once it returns False
    blocks on the pipe from then on. Whatever ``idle`` raises leaves
    through ``draw()``. The in-process sampler never waits, so it never
    calls ``idle``.
    """
    if n < 1:
        raise ValueError("requested an empty sample (n must be >= 1)")
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        yield lambda: sample_standard_normal(state, n)
        return
    import fcntl  # here, not at the top: Windows has no fcntl, and draws in process

    pipe_r, pipe_w = os.pipe()
    # F_SETPIPE_SZ needs Linux and Python 3.10+; a refused size keeps the default
    with contextlib.suppress(AttributeError, OSError):
        fcntl.fcntl(pipe_w, fcntl.F_SETPIPE_SZ, _FEED_DRAWS * 8 * n)
    try:
        pid = os.fork()
    except BaseException:
        os.close(pipe_r)
        os.close(pipe_w)
        raise
    if pid == 0:
        os.close(pipe_r)
        _produce(RngState(state.key, state.counter), n, pipe_w)
    os.close(pipe_w)

    def draw() -> np.ndarray:
        nonlocal idle
        out = np.empty(n)
        view = memoryview(out).cast("B")
        while view:
            while idle is not None and not ready.poll(0):
                if not idle():
                    idle = None
            got = os.readv(pipe_r, [view])
            if not got:
                raise RuntimeError("normal feed producer exited early")
            view = view[got:]
        state.counter = (state.counter + 2 * n) & _MASK
        return out

    try:
        ready = select.poll()
        ready.register(pipe_r, select.POLLIN)
        yield draw
    finally:
        os.close(pipe_r)  # the producer sees EPIPE and leaves
        os.waitpid(pid, 0)
