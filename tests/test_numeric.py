import math

import numpy as np
import pytest

from vical.numeric import log_softmax, softmax


def test_softmax_uniform():
    p = softmax(np.zeros(3))
    assert np.allclose(p, 1.0 / 3.0, atol=1e-15)


def test_softmax_two_class_oracle():
    # exp(ln 3) / (1 + exp(ln 3)) = 0.75
    p = softmax(np.array([0.0, math.log(3.0)]))
    assert abs(p[0] - 0.25) < 1e-12
    assert abs(p[1] - 0.75) < 1e-12


def test_softmax_shift_invariance():
    x = np.linspace(-3.0, 5.0, 7)
    assert np.max(np.abs(softmax(x) - softmax(x + 123.456))) < 1e-12


def test_softmax_extreme_logits():
    p = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(p))
    assert abs(p[0] - 1.0) < 1e-12 and p[1] >= 0.0


def test_softmax_batched_axis():
    x = np.array([[0.0, math.log(3.0)], [math.log(3.0), 0.0]])
    p = softmax(x, axis=-1)
    assert np.allclose(p, [[0.25, 0.75], [0.75, 0.25]], atol=1e-12)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_log_softmax_oracle():
    ls = log_softmax(np.array([0.0, 0.0]))
    assert np.allclose(ls, -math.log(2.0), atol=1e-12)
    ls = log_softmax(np.array([0.0, math.log(3.0)]))
    assert abs(ls[0] - math.log(0.25)) < 1e-12
    assert abs(ls[1] - math.log(0.75)) < 1e-12


def test_log_softmax_extreme_logits():
    ls = log_softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(ls))
    assert abs(ls[0]) < 1e-12 and abs(ls[1] + 1000.0) < 1e-9


def test_exp_log_softmax_matches_softmax():
    x = (np.arange(40, dtype=float).reshape(8, 5) % 7) * 13.7 - 50.0
    assert np.max(np.abs(np.exp(log_softmax(x)) - softmax(x))) < 1e-12


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax(np.array([]))
    with pytest.raises(FloatingPointError):
        softmax(np.array([1.0, np.nan]))
    with pytest.raises(FloatingPointError):
        log_softmax(np.array([np.inf, 0.0]))
