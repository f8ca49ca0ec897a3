import numpy as np
import pytest

from vical import model, optim, predict, rng


def _setup(seed=0, sizes=(4, 3)):
    cfg = optim.IvonConfig(lr=0.03, ess=1e6, hess_init=1e-3)
    params = model.init_mlp(sizes, rng.seed_rng(seed))
    state = optim.init_posterior(params.theta, cfg)

    def template(theta, features):
        return model.forward(model.MlpParams(sizes=sizes, theta=theta), features)

    x = rng.sample_standard_normal(rng.seed_rng(seed + 1), 6 * sizes[0])
    return cfg, state, template, x.reshape(6, sizes[0])


def test_mean_prediction_uniform_at_zero():
    cfg, state, template, x = _setup()
    state.mean[:] = 0.0
    probs = predict.predict_mean(state, template, x)
    assert probs.shape == (6, 3)
    assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-15


def test_point_prediction_matches_mean_at_same_theta():
    cfg, state, template, x = _setup()
    a = predict.predict_point(state.mean.copy(), template, x)
    b = predict.predict_mean(state, template, x)
    assert np.array_equal(a, b)


def test_mc_prediction_is_deterministic():
    cfg, state, template, x = _setup()
    a = predict.predict_mc(state, cfg, template, x, 8, 1.0, rng.seed_rng(5))
    b = predict.predict_mc(state, cfg, template, x, 8, 1.0, rng.seed_rng(5))
    assert np.array_equal(a, b)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_mc_prediction_concentrates_on_mean():
    cfg, state, template, x = _setup()
    base = predict.predict_mean(state, template, x)
    hot = predict.predict_mc(state, cfg, template, x, 1, 1e12, rng.seed_rng(6))
    assert np.max(np.abs(hot - base)) < 1e-6
    cold = predict.predict_mc(state, cfg, template, x, 1, 1.0, rng.seed_rng(6))
    assert np.max(np.abs(cold - base)) > 1e-6


def test_mc_temperature_monotone():
    cfg, state, template, x = _setup(seed=3)
    base = predict.predict_mean(state, template, x)
    dists = []
    for t in (1.0, 10.0, 1e3, 1e12):
        probs = predict.predict_mc(state, cfg, template, x, 4, t, rng.seed_rng(7))
        dists.append(np.max(np.abs(probs - base)))
    # same noise draws rescaled by 1/sqrt(T): distance cannot grow
    assert all(a >= b for a, b in zip(dists, dists[1:]))


def test_mc_validation():
    cfg, state, template, x = _setup()
    with pytest.raises(ValueError):
        predict.predict_mc(state, cfg, template, x, 0, 1.0, rng.seed_rng(1))
    with pytest.raises(ValueError):
        predict.predict_mc(state, cfg, template, x, 4, 0.0, rng.seed_rng(1))
