import hashlib
import math

import numpy as np
import pytest

from vical import _kernels, model, optim, rng
from vical.model import Batch


def _vec(key, n, scale=1.0):
    return rng.sample_standard_normal(rng.seed_rng(key), n) * scale


# ---------------------------------------------------------------- AdamW ----

def test_adamw_first_step_oracle():
    p0 = _vec(1, 16)
    g = _vec(2, 16)
    params = p0.copy()
    optim.adamw_step(optim.adamw_init(16), params, g, optim.AdamwConfig(lr=0.1), 0.1)
    # debiasing makes step one exactly -lr * g / (|g| + eps)
    expected = p0 - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(params - expected)) < 1e-12


def test_adamw_zero_grad_fixed_point():
    params = _vec(3, 8)
    before = params.copy()
    optim.adamw_step(optim.adamw_init(8), params, np.zeros(8), optim.AdamwConfig(lr=0.1), 0.1)
    assert np.array_equal(params, before)


def test_adamw_decoupled_weight_decay():
    p0 = _vec(4, 8)
    g = _vec(5, 8)
    plain = p0.copy()
    decayed = p0.copy()
    optim.adamw_step(optim.adamw_init(8), plain, g, optim.AdamwConfig(lr=0.1), 0.1)
    optim.adamw_step(
        optim.adamw_init(8), decayed, g,
        optim.AdamwConfig(lr=0.1, weight_decay=0.5), 0.1,
    )
    # decay subtracts lr*wd*p independently of the adaptive term
    assert np.max(np.abs(decayed - (plain - 0.1 * 0.5 * p0))) < 1e-12


def test_adamw_gradient_scale_invariance():
    # rescaling all gradients leaves the trajectory nearly unchanged
    cfg = optim.AdamwConfig(lr=0.01)
    grads = [_vec(10 + t, 12) for t in range(5)]
    outs = []
    for scale in (1.0, 100.0):
        params = np.zeros(12)
        state = optim.adamw_init(12)
        for g in grads:
            optim.adamw_step(state, params, scale * g, cfg, cfg.lr)
        outs.append(params.copy())
    rel = np.max(np.abs(outs[0] - outs[1])) / np.max(np.abs(outs[0]))
    assert rel < 0.01


def test_adamw_counts_steps_and_checks_shapes():
    state = optim.adamw_init(4)
    params = np.zeros(4)
    for _ in range(3):
        optim.adamw_step(state, params, np.ones(4), optim.AdamwConfig(lr=0.1), 0.1)
    assert state.t == 3
    with pytest.raises(ValueError):
        optim.adamw_step(state, params, np.ones(5), optim.AdamwConfig(lr=0.1), 0.1)


# ----------------------------------------------------------------- IVON ----

def test_init_posterior_state():
    cfg = optim.IvonConfig(lr=0.1, ess=1e7, hess_init=1e-3)
    m0 = _vec(6, 10)
    state = optim.init_posterior(m0, cfg)
    assert np.array_equal(state.mean, m0)
    assert np.all(state.hess == 1e-3)
    assert np.all(state.g_mom == 0.0) and state.t == 0
    # the state owns a copy, not a view
    m0[0] = 123.0
    assert state.mean[0] != 123.0


def test_init_posterior_validation():
    with pytest.raises(ValueError):
        optim.init_posterior(np.zeros(3), optim.IvonConfig(lr=0.1, ess=0.0))
    with pytest.raises(ValueError):
        optim.init_posterior(
            np.zeros(3), optim.IvonConfig(lr=0.1, ess=1e7, hess_init=-1e-3)
        )
    with pytest.raises(ValueError):
        optim.init_posterior(np.array([np.nan]), optim.IvonConfig(lr=0.1, ess=1e7))


def test_initial_sample_spread():
    # lam=1e7, h0=1e-3 gives sigma = 1/sqrt(1e4) = 1e-2
    cfg = optim.IvonConfig(lr=0.1, ess=1e7, hess_init=1e-3)
    state = optim.init_posterior(np.zeros(100_000), cfg)
    theta = optim.ivon_sample(state, cfg, rng.seed_rng(7))
    assert abs(theta.std() / 1e-2 - 1.0) < 0.02


def test_sample_variance_matches_posterior():
    cfg = optim.IvonConfig(lr=0.1, ess=2e5, hess_init=5e-3)
    state = optim.init_posterior(np.ones(2000), cfg)
    draws = np.stack([
        optim.ivon_sample(state, cfg, rng.child(rng.seed_rng(8), i)) - state.mean
        for i in range(200)
    ])
    sigma = 1.0 / math.sqrt(2e5 * 5e-3)
    assert abs(draws.std() / sigma - 1.0) < 0.02


def test_sample_temperature_and_determinism():
    cfg = optim.IvonConfig(lr=0.1, ess=1e6, hess_init=1e-3)
    state = optim.init_posterior(_vec(9, 50), cfg)
    a = optim.ivon_sample(state, cfg, rng.seed_rng(10))
    b = optim.ivon_sample(state, cfg, rng.seed_rng(10))
    assert np.array_equal(a, b)
    # large T concentrates the sample on the mean
    hot = optim.ivon_sample(state, cfg, rng.seed_rng(10), temperature=1e12)
    assert np.max(np.abs(hot - state.mean)) < 1e-6
    assert np.max(np.abs(a - state.mean)) > 1e-4
    with pytest.raises(ValueError):
        optim.ivon_sample(state, cfg, rng.seed_rng(10), temperature=0.0)


def test_ivon_step_hessian_hand_value():
    # a draw at the mean makes gprod and hhat zero; recursion gives
    # (1 - 1e-5)*1e-3 + 0.5e-10*1e-3 exactly
    cfg = optim.IvonConfig(lr=0.0, ess=1e7, hess_init=1e-3)
    state = optim.init_posterior(np.zeros(3), cfg)
    min_hd = optim.ivon_step(state, np.zeros(3), np.full(3, 0.25), cfg, 0.0)
    assert np.max(np.abs(state.hess - 0.00099999000005)) < 1e-17
    assert min_hd == float(state.hess.min()) + cfg.weight_decay
    assert state.t == 1


def test_ivon_step_floor_returns_delta():
    # h = 0 and hhat = -delta/(1-b2) give h' = -delta/2, floored to 0
    cfg = optim.IvonConfig(lr=0.0, ess=1.0, hess_init=1.0, weight_decay=1e-4, beta2=0.5)
    state = optim.init_posterior(np.zeros(4), cfg)
    state.hess[:] = 0.0
    grad = np.full(4, -2.0)
    assert optim.ivon_step(state, grad, grad, cfg, 0.0) == 1e-4
    assert state.hess.min() == 0.0


def test_ivon_step_floor_without_delta_collapses():
    # with delta = 0 a negative h stays negative, is floored to 0, and
    # leaves min(h+delta) = 0: an infinite posterior variance
    cfg = optim.IvonConfig(lr=0.0, ess=1.0, hess_init=1.0, beta2=0.5)
    state = optim.init_posterior(np.zeros(4), cfg)
    state.hess[:] = -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="collapsed"):
            optim.ivon_step(state, np.ones(4), np.ones(4), cfg, 0.0)


def test_ivon_step_zero_grad_keeps_mean():
    cfg = optim.IvonConfig(lr=0.05, ess=1e6, hess_init=1e-3)
    state = optim.init_posterior(_vec(11, 6), cfg)
    before = state.mean.copy()
    optim.ivon_step(state, np.zeros(6), np.zeros(6), cfg, 0.05)
    assert np.array_equal(state.mean, before)


def _hand_ivon(mean, hess, gmom, t, theta, grad, cfg, lr_t):
    lam, delta = cfg.ess, cfg.weight_decay
    b1, b2 = cfg.beta1, cfg.beta2
    hd = hess + delta
    hhat = grad * (theta - mean) * lam * hd
    gmom = b1 * gmom + (1.0 - b1) * grad
    hnew = b2 * hess + (1.0 - b2) * hhat + 0.5 * (1.0 - b2) ** 2 * (hess - hhat) ** 2 / hd
    t += 1
    gbar = gmom / (1.0 - b1 ** t)
    mean = mean - lr_t * (gbar + delta * mean) / (hnew + delta)
    return mean, hnew, gmom, t


def test_ivon_step_matches_hand_recursion():
    cfg = optim.IvonConfig(lr=0.02, ess=3e4, hess_init=2e-3, weight_decay=1e-4)
    state = optim.init_posterior(_vec(12, 9), cfg)
    mean, hess, gmom, t = state.mean.copy(), state.hess.copy(), state.g_mom.copy(), 0
    for k in range(3):
        theta = optim.ivon_sample(state, cfg, rng.child(rng.seed_rng(13), k))
        grad = _vec(20 + k, 9, scale=0.3)
        mean, hess, gmom, t = _hand_ivon(mean, hess, gmom, t, theta, grad, cfg, 0.02)
        optim.ivon_step(state, (theta - state.mean) * grad, grad, cfg, 0.02)
    assert np.max(np.abs(state.mean - mean)) < 1e-12
    assert np.max(np.abs(state.hess - hess)) < 1e-12
    assert np.max(np.abs(state.g_mom - gmom)) < 1e-12


def test_ivon_train_step_averages_train_samples():
    # loss 0.5*sum(a*theta^2) at each of M = 2 draws: the step averages the
    # draws' Hessian products and gradients, then makes one update
    a = np.array([0.3, 1.0, 2.5, 7.0, 0.8])
    cfg = optim.IvonConfig(lr=0.02, ess=3e4, hess_init=2e-3, train_samples=2)
    state = optim.init_posterior(_vec(14, 5), cfg)
    draws = rng.child(rng.seed_rng(15), 0)
    thetas = np.stack([optim.ivon_sample(state, cfg, draws) for _ in range(2)])
    grads = a * thetas
    mean0, hess0 = state.mean.copy(), state.hess.copy()
    hd = hess0 + cfg.weight_decay
    hhat = np.mean(grads * (thetas - mean0), axis=0) * cfg.ess * hd
    gavg = grads.mean(axis=0)
    gmom = (1.0 - cfg.beta1) * gavg
    hnew = (
        cfg.beta2 * hess0 + (1.0 - cfg.beta2) * hhat
        + 0.5 * (1.0 - cfg.beta2) ** 2 * (hess0 - hhat) ** 2 / hd
    )
    mref = mean0 - 0.02 * (gmom / (1.0 - cfg.beta1)) / (hnew + cfg.weight_decay)

    def objective(theta, batch):
        return 0.5 * float(np.sum(a * theta * theta)), a * theta

    loss, min_hd = optim.ivon_train_step(state, cfg, objective, None,
                                         rng.child(rng.seed_rng(15), 0), 0.02)
    assert loss == pytest.approx(np.mean(0.5 * np.sum(a * thetas * thetas, axis=1)))
    assert np.max(np.abs(state.hess - hnew)) < 1e-12
    assert np.max(np.abs(state.mean - mref)) < 1e-12
    assert min_hd == float(np.min(state.hess)) + cfg.weight_decay


def test_hessian_estimator_unbiased_on_quadratic():
    # loss 0.5*sum(a_i theta_i^2) has exact Hessian diag(a); the
    # estimator grad*(theta-m)/sigma^2 should recover it in expectation
    a = np.array([0.3, 1.0, 2.5, 7.0, 0.8, 4.0])
    cfg = optim.IvonConfig(lr=0.0, ess=1e3, hess_init=5e-2)
    state = optim.init_posterior(_vec(16, 6, scale=0.5), cfg)
    lam_hd = cfg.ess * (state.hess + cfg.weight_decay)
    n = 20_000
    root = rng.seed_rng(17)
    acc = np.zeros((n, 6))
    for i in range(n):
        theta = optim.ivon_sample(state, cfg, rng.child(root, i))
        grad = a * theta
        acc[i] = grad * (theta - state.mean) * lam_hd
    err = np.abs(acc.mean(axis=0) - a)
    se = acc.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(err < 4.0 * se)


def test_hessian_stays_positive_under_adversarial_updates():
    # worst case over hhat gives h'+delta = (h+delta)/2 exactly, so the
    # rounding floor should never fire and h+delta stays positive
    for delta in (0.0, 1e-4):
        cfg = optim.IvonConfig(lr=1e-3, ess=1.0, hess_init=1.0, weight_decay=delta)
        hs = np.concatenate([
            10.0 ** np.linspace(-8, 1, 40),
            np.zeros(1) if delta > 0 else np.full(1, 1e-12),
        ])
        for hh_scale in (-1e6, -1.0, -1e-6, 0.0, 1e-6, 1.0, 1e6):
            state = optim.init_posterior(np.zeros(hs.size), cfg)
            state.hess[:] = hs
            hd = hs + delta
            # choose grads so hhat = hh_scale exactly at theta - m = 1
            grad = np.full(hs.size, hh_scale) / hd
            optim.ivon_step(state, grad, grad, cfg, 0.0)
            assert np.all(state.hess + delta >= 0.499 * hd)


def test_ivon_limit_of_large_ess_is_deterministic():
    # as ess grows the posterior collapses and the mean trajectory loses
    # its dependence on the sampling seed.  The Hessian estimator's noise
    # scales like sqrt(ess), so the seed gap shrinks roughly 100x per
    # 1000x in ess rather than vanishing at any single finite value.
    sizes = (4, 6, 3)
    batches = []
    for k in range(10):
        r = rng.seed_rng(100 + k)
        x = rng.sample_standard_normal(rng.child(r, 0), 8 * 4).reshape(8, 4)
        y = np.floor(rng.sample_uniform(rng.child(r, 1), 8) * 3).astype(np.int64)
        batches.append(Batch(features=x, labels=y))
    m0 = model.init_mlp(sizes, rng.seed_rng(50)).theta

    def trained_mean(noise_seed, ess):
        cfg = optim.IvonConfig(lr=1e-4, ess=ess, hess_init=1e-3)
        state = optim.init_posterior(m0, cfg)
        noise = rng.seed_rng(noise_seed)
        for t, batch in enumerate(batches):
            theta = optim.ivon_sample(state, cfg, rng.child(noise, t))
            _, grad = model.loss_and_grad(
                model.MlpParams(sizes=sizes, theta=theta), batch
            )
            optim.ivon_step(state, (theta - state.mean) * grad, grad, cfg, cfg.lr)
        return state.mean

    gaps = []
    for ess in (1e12, 1e15, 1e18):
        a = trained_mean(1, ess)
        b = trained_mean(2, ess)
        gaps.append(np.max(np.abs(a - b)))
    assert gaps[1] < 0.1 * gaps[0]
    assert gaps[2] < 0.1 * gaps[1]
    assert gaps[2] < 1e-6


def _adamw_reference(params, grad, m, v, lr, b1, b2, eps, wd, bc1, bc2):
    """Scalar per-element form of _kernels.adamw_core."""
    omb1 = 1.0 - b1
    omb2 = 1.0 - b2
    for i in range(params.shape[0]):
        m[i] = b1 * m[i] + omb1 * grad[i]
        v[i] = b2 * v[i] + omb2 * (grad[i] * grad[i])
        mh = m[i] / bc1
        vh = v[i] / bc2
        params[i] = params[i] - lr * (mh / (math.sqrt(vh) + eps) + wd * params[i])


def _ivon_reference(mean, hess, gmom, gprod, gavg, lr, b1, b2, lam, delta, bc1, c3):
    """Scalar per-element form of _kernels.ivon_core."""
    omb1 = 1.0 - b1
    omb2 = 1.0 - b2
    min_hd = math.inf
    floored = 0
    for i in range(mean.shape[0]):
        hd = hess[i] + delta
        hhat = gprod[i] * lam * hd
        gmom[i] = b1 * gmom[i] + omb1 * gavg[i]
        diff = hess[i] - hhat
        hnew = b2 * hess[i] + omb2 * hhat + c3 * (diff * diff) / hd
        min_hd = min(min_hd, hnew + delta)
        if hnew < 0.0:
            floored += 1
            hnew = 0.0
        hess[i] = hnew
        mean[i] = mean[i] - lr * (gmom[i] / bc1 + delta * mean[i]) / (hess[i] + delta)
    return min_hd, floored


def test_adamw_core_matches_scalar_reference():
    p = _vec(60, 256)
    g = _vec(61, 256, scale=0.1)
    args = (0.01, 0.9, 0.999, 1e-8, 0.1, 0.1, 0.001999)
    got = (p.copy(), np.zeros(256), np.zeros(256))
    ref = (p.copy(), np.zeros(256), np.zeros(256))
    for _ in range(3):
        _kernels.adamw_core(got[0], g, got[1], got[2], *args)
        _adamw_reference(ref[0], g, ref[1], ref[2], *args)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


IVON_CASES = pytest.mark.parametrize("gprod_scale, b2, delta, c3, floors", [
    (1e-5, 1.0 - 1e-5, 0.0, 0.5e-10, False),
    # no curvature correction and large products: negative ones push h below 0
    (1e-3, 0.5, 1e-3, 0.0, True),
])


def _ivon_core_against_reference(gprod_scale, b2, delta, c3, floors, before=None):
    g = _vec(61, 256, scale=0.1)
    gprod = _vec(63, 256, scale=gprod_scale)
    fresh = (_vec(60, 256), np.abs(_vec(62, 256)) + 1e-4, np.zeros(256))
    got = tuple(a.copy() for a in fresh)
    ref = tuple(a.copy() for a in fresh)
    args = (0.01, 0.9, b2, 1e6, delta, 0.1, c3)
    if before is not None:
        before()
    ret = _kernels.ivon_core(*got, gprod, g, *args)
    ret_ref = _ivon_reference(*ref, gprod, g, *args)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    assert ret == ret_ref
    assert (ret[1] > 0) == floors


@IVON_CASES
def test_ivon_core_matches_scalar_reference(gprod_scale, b2, delta, c3, floors):
    _ivon_core_against_reference(gprod_scale, b2, delta, c3, floors)


@IVON_CASES
def test_ivon_core_after_normal_fill_matches_reference(gprod_scale, b2, delta, c3, floors):
    # normal_fill at the same length leaves its words in the shared scratch set
    _ivon_core_against_reference(
        gprod_scale, b2, delta, c3, floors,
        before=lambda: _kernels.normal_fill(np.uint64(3), np.uint64(0), 256))


# ------------------------------------------ kernels at the default size ----

P = 16_132  # parameter count of the default model
ADAMW_ARGS = (0.01, 0.9, 0.999, 1e-8, 0.1, 0.1, 0.001999)
IVON_ARGS = (0.01, 0.9, 1.0 - 1e-5, 1e6, 1e-4, 0.1, 0.5e-10)  # delta = 1e-4
# sha256 after 3 steps: (params, m, v) and (mean, hess, gmom, each min(h+delta))
ADAMW_PIN = "267b27058796a31bebe03757fcaf357ce22441e9e1b60eeced12c85c0d54253d"
IVON_PIN = "fc6f3aacc9062e744d7912d554250e66d787dced83d2985644a96389ab12fdde"


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _adamw_inputs(n):
    return _vec(70, n), _vec(71, n, scale=0.1), np.zeros(n), np.zeros(n)


def _ivon_inputs(n):
    mean, hess = _vec(72, n), np.abs(_vec(73, n)) * 1e-3 + 1e-4
    return mean, hess, np.zeros(n), _vec(74, n, scale=1e-5), _vec(75, n, scale=0.1)


def test_adamw_core_pinned_at_default_size():
    params, g, m, v = _adamw_inputs(P)
    for _ in range(3):
        _kernels.adamw_core(params, g, m, v, *ADAMW_ARGS)
    assert _sha256(params, m, v) == ADAMW_PIN


def test_ivon_core_pinned_at_default_size():
    mean, hess, gmom, gprod, g = _ivon_inputs(P)
    rets = [_kernels.ivon_core(mean, hess, gmom, gprod, g, *IVON_ARGS) for _ in range(3)]
    assert _sha256(mean, hess, gmom, [r[0] for r in rets]) == IVON_PIN
    assert [r[1] for r in rets] == [0, 0, 0]


def test_kernels_alternating_lengths_match_reference():
    for n in (P, 256, P, 3):
        params, g, m, v = _adamw_inputs(n)
        ref = tuple(a.copy() for a in (params, m, v))
        _kernels.adamw_core(params, g, m, v, *ADAMW_ARGS)
        _adamw_reference(ref[0], g, ref[1], ref[2], *ADAMW_ARGS)
        for a, b in zip((params, m, v), ref):
            assert np.array_equal(a, b)
        mean, hess, gmom, gprod, g = _ivon_inputs(n)
        ref = tuple(a.copy() for a in (mean, hess, gmom))
        ret = _kernels.ivon_core(mean, hess, gmom, gprod, g, *IVON_ARGS)
        assert ret == _ivon_reference(*ref, gprod, g, *IVON_ARGS)
        for a, b in zip((mean, hess, gmom), ref):
            assert np.array_equal(a, b)


def test_draws_survive_later_kernel_calls():
    z = _kernels.normal_fill(np.uint64(5), np.uint64(0), P)
    kept = z.copy()
    _kernels.normal_fill(np.uint64(6), np.uint64(0), P)
    _kernels.ivon_core(*_ivon_inputs(P), *IVON_ARGS)
    params, g, m, v = _adamw_inputs(P)
    _kernels.adamw_core(params, g, m, v, *ADAMW_ARGS)
    assert np.array_equal(z, kept)


@pytest.mark.parametrize("kernel, limit", [
    ("ivon_core", 32 * 1024),
    ("adamw_core", 32 * 1024),
    ("normal_fill", 2 * 8 * P),  # the returned draws are 8 * P bytes
])
def test_kernels_allocate_no_length_p_temporaries(kernel, limit, traced_peak):
    adamw, ivon = _adamw_inputs(P), _ivon_inputs(P)
    calls = {
        "ivon_core": lambda: _kernels.ivon_core(*ivon, *IVON_ARGS),
        "adamw_core": lambda: _kernels.adamw_core(*adamw, *ADAMW_ARGS),
        "normal_fill": lambda: _kernels.normal_fill(np.uint64(5), np.uint64(0), P),
    }
    assert traced_peak(calls[kernel]) < limit


# --------------------------------------------------------------- schedule --

def test_cosine_schedule_boundaries():
    assert optim.cosine_lr(0, 100, 0.5) == 0.5
    assert optim.cosine_lr(100, 100, 0.5) == pytest.approx(0.0, abs=1e-16)
    assert optim.cosine_lr(50, 100, 0.5) == pytest.approx(0.25, abs=1e-12)
    # monotone non-increasing over the whole range
    vals = [optim.cosine_lr(s, 40, 1.0) for s in range(41)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_cosine_schedule_validation():
    with pytest.raises(ValueError):
        optim.cosine_lr(-1, 10, 0.1)
    with pytest.raises(ValueError):
        optim.cosine_lr(11, 10, 0.1)
    with pytest.raises(ValueError):
        optim.cosine_lr(0, 0, 0.1)
