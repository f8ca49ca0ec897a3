import math

import numpy as np
import pytest

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


def _fills_reference(key, counter, n):
    """Scalar per-element form of uniform_fill and normal_fill."""
    inv53 = 2.0 ** -53

    def word(c):
        return rng._mix64(key + c * rng._GOLDEN)

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
