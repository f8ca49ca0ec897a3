import errno
import fcntl
import hashlib
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import host_fingerprint
from vical import _kernels, rng


def test_same_seed_same_stream():
    a = rng.sample_standard_normal(rng.seed_rng(42), 100)
    b = rng.sample_standard_normal(rng.seed_rng(42), 100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = rng.sample_standard_normal(rng.seed_rng(42), 100)
    b = rng.sample_standard_normal(rng.seed_rng(43), 100)
    assert not np.array_equal(a, b)


def test_child_streams_differ():
    root = rng.seed_rng(7)
    a = rng.sample_standard_normal(rng.child(root, 0), 64)
    b = rng.sample_standard_normal(rng.child(root, 1), 64)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, key", [
    (-1, 0xE4D971771B652C20),
    (0, 0xE220A8397B1DCDAF),
    (17, 0x808475F02EE37363),
    ((1 << 64) - 1, 0xE4D971771B652C20),  # seeds are taken mod 2^64
    (1 << 64, 0xE220A8397B1DCDAF),
])
def test_seed_keys_pinned(seed, key):
    assert rng.seed_rng(seed).key == key


@pytest.mark.parametrize("index, key", [
    (0, 0xA99E77DEF43E0A48),
    (3, 0x51644947BDF21707),
    (1 << 40, 0xD29C54A36F32BDF8),
])
def test_child_keys_pinned(index, key):
    assert rng.child(rng.seed_rng(0), index).key == key


def test_child_does_not_advance_parent():
    root = rng.seed_rng(7)
    rng.child(root, 3)
    assert root.counter == 0
    before = rng.sample_uniform(root, 4)
    # children depend on the parent key only, not its counter
    again = rng.sample_uniform(rng.child(rng.seed_rng(7), 3), 4)
    assert np.array_equal(again, rng.sample_uniform(rng.child(root, 3), 4))
    assert before.shape == (4,)


def test_empty_request_rejected():
    state = rng.seed_rng(1)
    with pytest.raises(ValueError):
        rng.sample_standard_normal(state, 0)
    with pytest.raises(ValueError):
        rng.sample_uniform(state, 0)
    with pytest.raises(ValueError):
        rng.child(state, -1)


def test_single_draw_finite():
    z = rng.sample_standard_normal(rng.seed_rng(3), 1)
    assert z.shape == (1,) and np.isfinite(z[0])


def test_normal_moments():
    # 3-sigma statistical oracle at n = 1e5
    z = rng.sample_standard_normal(rng.seed_rng(12345), 100_000)
    assert -0.02 < z.mean() < 0.02
    assert 0.97 < z.var() < 1.03


def test_uniform_range_and_mean():
    u = rng.sample_uniform(rng.seed_rng(99), 100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_counter_prefix_property():
    # a short request returns the prefix of a longer one
    long = rng.sample_standard_normal(rng.seed_rng(5), 64)
    short = rng.sample_standard_normal(rng.seed_rng(5), 24)
    assert np.array_equal(long[:24], short)
    u_long = rng.sample_uniform(rng.seed_rng(6), 64)
    u_short = rng.sample_uniform(rng.seed_rng(6), 24)
    assert np.array_equal(u_long[:24], u_short)


def test_sequential_draws_continue_stream():
    one = rng.seed_rng(8)
    a = rng.sample_standard_normal(one, 10)
    b = rng.sample_standard_normal(one, 10)
    both = rng.sample_standard_normal(rng.seed_rng(8), 20)
    assert np.array_equal(np.concatenate([a, b]), both)


MASK = (1 << 64) - 1


def _mix64(x):
    """Scalar splitmix64 finalizer on plain ints."""
    x &= MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def _fills_reference(key, counter, n):
    """Scalar per-element form of uniform_fill and normal_fill."""
    inv53 = 2.0 ** -53

    def word(c):
        return _mix64(key + c * 0x9E3779B97F4A7C15)

    uniform = [float(word(counter + i) >> 11) * inv53 for i in range(n)]
    normal = []
    for i in range(n):
        c = counter + 2 * i
        u1 = float((word(c) >> 11) + 1) * inv53
        u2 = float(word(c + 1) >> 11) * inv53
        normal.append(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    return np.array(uniform), np.array(normal)


@pytest.mark.parametrize("key, counter, n", [
    (0xDEADBEEF, 5, 4096),
    (0x0123456789ABCDEF, (1 << 64) - 7, 64),  # counter wraps past 2^64
])
def test_fills_match_scalar_reference(key, counter, n):
    u_ref, z_ref = _fills_reference(key, counter, n)
    k, c = np.uint64(key), np.uint64(counter)
    assert np.array_equal(_kernels.uniform_fill(k, c, n), u_ref)
    # vectorized log/cos may differ from libm by an ulp
    assert np.max(np.abs(_kernels.normal_fill(k, c, n) - z_ref)) < 1e-12


P = 16_132  # parameter count of the default model
NORMAL_FILL_PIN = "130463def645595680ee946033076df0823e18c99850a3a3b337675364ec4295"


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def normal_fill_digest():
    # 2P counter words starting 1,000 below 2^64: the counter wraps inside the call
    return _sha256(_kernels.normal_fill(np.uint64(0x0123456789ABCDEF),
                                        np.uint64((1 << 64) - 1000), P))


def test_normal_fill_pinned_at_default_size():
    assert normal_fill_digest() == NORMAL_FILL_PIN, host_fingerprint()


@pytest.mark.parametrize("counter, h", [
    (5, 1000),
    ((1 << 64) - 7, 2),  # the tail starts 3 words below 2^64 and wraps
    ((1 << 64) - 8, P // 2),  # the head wraps
])
def test_normal_fill_splits_exactly(counter, h):
    k = np.uint64(0xDEADBEEF)
    whole = _kernels.normal_fill(k, np.uint64(counter), P)
    head = _kernels.normal_fill(k, np.uint64(counter), h)
    tail = _kernels.normal_fill(k, np.uint64((counter + 2 * h) % (1 << 64)), P - h)
    assert np.array_equal(whole, np.concatenate([head, tail]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, (1 << 64) - 1),
       # counters within 2n words of 2^64 make the head, the tail or both wrap
       st.one_of(st.integers(0, (1 << 64) - 1), st.integers((1 << 64) - 700, (1 << 64) - 1)),
       st.integers(2, 300), st.data())
def test_normal_fill_splits_exactly_anywhere(key, counter, n, data):
    split = data.draw(st.integers(1, n - 1))
    k = np.uint64(key)
    whole = _kernels.normal_fill(k, np.uint64(counter), n)
    head = _kernels.normal_fill(k, np.uint64(counter), split)
    tail = _kernels.normal_fill(k, np.uint64((counter + 2 * split) % (1 << 64)), n - split)
    assert np.array_equal(whole, np.concatenate([head, tail]))


def test_normal_fill_alternating_lengths():
    k, c = np.uint64(0xDEADBEEF), np.uint64(12345)
    single = {}
    for n in (P, 256, 3):
        _kernels.normal_fill(k, c, n)  # the next call at n follows one at n
        single[n] = _kernels.normal_fill(k, c, n)
    for n in (P, 256, P, 3):
        assert np.array_equal(_kernels.normal_fill(k, c, n), single[n])


# ------------------------------------------------------------ normal feed --

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """normal_feed forks its producer whatever the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _no_resize(fd, cmd, arg=0):
    raise OSError(errno.EPERM, "pipe size not allowed")


@pytest.mark.parametrize("n, cpus, fcntl_call", [
    pytest.param(P, {0, 1}, fcntl.fcntl, id=str(P)),  # a forked producer draws
    pytest.param(3, {0, 1}, fcntl.fcntl, id="3"),
    pytest.param(P, {0}, fcntl.fcntl, id=f"{P}-in_process"),
    pytest.param(3, {0}, fcntl.fcntl, id="3-in_process"),
    # the pipe keeps its default 64 KiB, less than one draw at P: each
    # draw crosses in several writes and reads
    pytest.param(P, {0, 1}, _no_resize, id=f"{P}-unresized_pipe"),
])
def test_normal_feed_matches_in_process_draws(monkeypatch, n, cpus, fcntl_call):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(fcntl, "fcntl", fcntl_call)
    # five draws starting 3n words below 2^64: the counter wraps in the second
    key, start, count = rng.seed_rng(21).key, (1 << 64) - 3 * n, 5
    alone = rng.RngState(key, start)
    fed = rng.RngState(key, start)
    twins = [rng.sample_standard_normal(alone, n) for _ in range(count)]
    with rng.normal_feed(fed, n) as draw:
        draws = []
        for twin in twins:
            draws.append(draw())
            assert np.array_equal(draws[-1], twin)
        # each draw is the caller's own: the first still holds its values
        # after four more draws
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(draws, 2))
        assert all(np.array_equal(got, twin) for got, twin in zip(draws, twins))
    assert fed.counter == alone.counter == (start + 2 * n * count) % (1 << 64)
    _no_child_left()


def test_normal_feed_closed_before_drained(two_cpus):
    state = rng.seed_rng(22)
    with rng.normal_feed(state, P) as draw:
        first = draw()
    assert np.array_equal(first, rng.sample_standard_normal(rng.seed_rng(22), P))
    assert state.counter == 2 * P  # one draw taken
    _no_child_left()


def test_normal_feed_producer_death_is_an_error(two_cpus, monkeypatch, capfd):
    fill = _kernels.normal_fill

    def fails_on_third(key, counter, n):
        if int(counter) >= 4 * n:
            raise MemoryError("producer out of memory")
        return fill(key, counter, n)

    monkeypatch.setattr(_kernels, "normal_fill", fails_on_third)
    with rng.normal_feed(rng.seed_rng(23), 8) as draw:
        draw(), draw()
        with pytest.raises(RuntimeError, match="exited early"):
            draw()
    _no_child_left()
    assert "producer out of memory" in capfd.readouterr().err
