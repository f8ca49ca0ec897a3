import hashlib
import math

import numpy as np
import pytest

from vical import data, experiment, model, rng
from vical.config import ExperimentConfig


def _toy_batch(key, n, d, c):
    r = rng.seed_rng(key)
    x = rng.sample_standard_normal(rng.child(r, 0), n * d).reshape(n, d)
    y = np.floor(rng.sample_uniform(rng.child(r, 1), n) * c).astype(np.int64)
    return model.Batch(features=x, labels=y)


def _fd_grad(fn, theta, eps=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (fn(up) - fn(dn)) / (2.0 * eps)
    return g


def test_zero_params_loss_is_log_c():
    sizes = (3, 4)
    params = model.MlpParams(sizes=sizes, theta=np.zeros(model.n_params(sizes)))
    batch = _toy_batch(0, 8, 3, 4)
    loss, grad = model.loss_and_grad(params, batch)
    assert abs(loss - math.log(4.0)) < 1e-12
    # with uniform probs the bias gradient is (1/C - freq(class)) exactly
    biases = grad[12:]
    counts = np.bincount(batch.labels, minlength=4) / 8.0
    assert np.max(np.abs(biases - (0.25 - counts))) < 1e-12


def test_init_layout_and_scale():
    sizes = (16, 32, 4)
    params = model.init_mlp(sizes, rng.seed_rng(11))
    assert params.theta.size == model.n_params(sizes) == 16 * 32 + 32 + 32 * 4 + 4
    (w1, b1), (w2, b2) = model.unflatten(params.theta, sizes)
    assert w1.shape == (16, 32) and w2.shape == (32, 4)
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
    # weight std tracks 1/sqrt(fan_in); loose statistical band
    assert abs(w1.std() * 4.0 - 1.0) < 0.15


def test_unflatten_views_layer_major():
    sizes = (5, 7, 3)
    params = model.init_mlp(sizes, rng.seed_rng(2))
    layers = model.unflatten(params.theta, sizes)
    # layer-major order: first weight matrix occupies the leading block
    assert np.array_equal(params.theta[: 5 * 7], layers[0][0].reshape(-1))
    assert all(np.shares_memory(a, params.theta) for layer in layers for a in layer)
    with pytest.raises(ValueError):
        model.unflatten(np.zeros(3), sizes)


def test_gradients_are_new_arrays():
    # ivon_train_step clips and sums into the returned gradient in place
    params, adapter, batch = _pin_inputs((5, 6, 4, 3))
    for call in (lambda: model.loss_and_grad(params, batch)[1],
                 lambda: model.lora_loss_and_grad(params, adapter, batch)[1]):
        first, second = call(), call()
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        for owner in (params.theta, adapter.phi, batch.features):
            assert not np.shares_memory(first, owner)


def test_forward_validates_input():
    sizes = (4, 3)
    params = model.init_mlp(sizes, rng.seed_rng(1))
    with pytest.raises(ValueError):
        model.forward(params, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        model.forward(params, np.array([[np.nan, 0, 0, 0]]))


def test_loss_rejects_bad_labels():
    sizes = (4, 3)
    params = model.init_mlp(sizes, rng.seed_rng(1))
    batch = model.Batch(features=np.zeros((2, 4)), labels=np.array([0, 3]))
    with pytest.raises(ValueError):
        model.loss_and_grad(params, batch)


def test_forward_row_independence():
    sizes = (4, 6, 3)
    params = model.init_mlp(sizes, rng.seed_rng(5))
    x = _toy_batch(9, 4, 4, 3).features
    doubled = model.forward(params, np.vstack([x, x]))
    assert np.array_equal(doubled[:4], doubled[4:])


def test_gradient_matches_finite_differences():
    batch = _toy_batch(21, 12, 5, 3)
    for hidden in ((), (6,), (8, 5)):
        sizes = (5,) + hidden + (3,)
        params = model.init_mlp(sizes, rng.seed_rng(31))
        _, grad = model.loss_and_grad(params, batch)
        fd = _fd_grad(
            lambda t: model.loss_and_grad(
                model.MlpParams(sizes=sizes, theta=t), batch
            )[0],
            params.theta,
        )
        denom = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(grad - fd)) / denom < 1e-5


def test_lora_zero_b_matches_base():
    sizes = (5, 8, 3)
    params = model.init_mlp(sizes, rng.seed_rng(4))
    adapter = model.init_lora(sizes, 2, 4.0, rng.seed_rng(6))
    x = _toy_batch(10, 6, 5, 3).features
    assert np.array_equal(
        model.lora_forward(params, adapter, x), model.forward(params, x)
    )


def test_lora_alpha_scaling():
    sizes = (4, 3)
    params = model.MlpParams(sizes=sizes, theta=np.zeros(model.n_params(sizes)))
    adapter = model.init_lora(sizes, 2, 2.0, rng.seed_rng(6))
    # push B off zero so the update contributes
    adapter.phi[:] = 0.5
    doubled = model.LoraAdapter(sizes=sizes, rank=2, alpha=4.0, phi=adapter.phi.copy())
    x = _toy_batch(12, 5, 4, 3).features
    one = model.lora_forward(params, adapter, x)
    two = model.lora_forward(params, doubled, x)
    assert np.max(np.abs(two - 2.0 * one)) < 1e-12


def test_lora_param_count():
    sizes = (16, 32, 4)
    assert model.lora_n_params(sizes, 8) == 8 * (16 + 32) + 8 * (32 + 4)
    adapter = model.init_lora(sizes, 8, 16.0, rng.seed_rng(3))
    assert adapter.phi.size == model.lora_n_params(sizes, 8)


def test_lora_gradient_matches_finite_differences():
    sizes = (5, 6, 3)
    params = model.init_mlp(sizes, rng.seed_rng(41))
    adapter = model.init_lora(sizes, 2, 3.0, rng.seed_rng(42))
    adapter.phi[:] = rng.sample_standard_normal(rng.seed_rng(43), adapter.phi.size) * 0.3
    batch = _toy_batch(22, 10, 5, 3)
    base = params.theta.copy()
    _, grad = model.lora_loss_and_grad(params, adapter, batch)

    def loss_of(phi):
        probe = model.LoraAdapter(sizes=sizes, rank=2, alpha=3.0, phi=phi)
        return model.lora_loss_and_grad(params, probe, batch)[0]

    fd = _fd_grad(loss_of, adapter.phi)
    denom = max(np.max(np.abs(fd)), 1e-8)
    assert np.max(np.abs(grad - fd)) / denom < 1e-5
    # frozen base must not move
    assert np.array_equal(params.theta, base)


def test_init_lora_validates_rank():
    with pytest.raises(ValueError):
        model.init_lora((4, 3), 0, 1.0, rng.seed_rng(1))


def _digest(loss, *arrays):
    h = hashlib.sha256(repr(loss).encode("ascii"))
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pin_inputs(sizes):
    """Parameters with nonzero biases, a LoRA adapter with nonzero B, a batch."""
    params = model.init_mlp(sizes, rng.seed_rng(61))
    params.theta[:] += rng.sample_standard_normal(rng.seed_rng(62), params.theta.size) * 0.1
    adapter = model.init_lora(sizes, 2, 3.0, rng.seed_rng(63))
    adapter.phi[:] = rng.sample_standard_normal(rng.seed_rng(64), adapter.phi.size) * 0.3
    return params, adapter, _toy_batch(65, 9, sizes[0], sizes[-1])


def _pin_case(sizes):
    params, adapter, batch = _pin_inputs(sizes)
    mlp_loss, mlp_grad = model.loss_and_grad(params, batch)
    lora_loss, lora_grad = model.lora_loss_and_grad(params, adapter, batch)
    return {
        "mlp": _digest(mlp_loss, mlp_grad, model.forward(params, batch.features)),
        "lora": _digest(lora_loss, lora_grad,
                        model.lora_forward(params, adapter, batch.features)),
    }


# sha256 of repr(loss), the gradient bytes and the logits bytes, recorded
# before the MLP and LoRA paths shared one forward/backward; (16, 768, 4),
# the default width, recorded before the forward's bias add and tanh ran
# in place
MODEL_PINS = {
    (5, 3): {
        "mlp": "d88f8888f9f80a40b8498d39dd4a09979d70a46993c337451c4e92f6b9b325d3",
        "lora": "b57bc9563439fae0d4853ec3451c9b5a84c7688052c5ad89478c444542ae1b39",
    },
    (5, 6, 4, 3): {
        "mlp": "95850c9f4d64967a50e9ac65a82a879e4823d0558662a1ae0da07de5fb58eefe",
        "lora": "ff51336b6ed0b11fc0e7043db3e91997281b26e7cef50a4e35f17b80b7ed8025",
    },
    (16, 768, 4): {
        "mlp": "820ea0a9143dd0d54e5e3dbc624f75406653adc385d93fded392bee56b54191d",
        "lora": "ce184f193b38e6539f50926cfba592f9b921dd087171d3781452f24bd760ece1",
    },
}

# sha256 of the final trainable vector of a 1-epoch LoRA train_one
LORA_TRAIN_PINS = {
    "adamw": "dd479eb0ad51dd02db05fd30eb0be7098ab0f7b6f9d8a3fc4d1e3e9c5de6e0f5",
    "ivon": "7489e61f044444694ad63e40fa074d26e5ec1a5d98e0f5382ecc2c107056996d",
}


def test_model_outputs_pinned():
    for sizes, want in MODEL_PINS.items():
        assert _pin_case(sizes) == want, sizes


@pytest.mark.parametrize("sizes", list(MODEL_PINS))
def test_model_calls_leave_inputs_unchanged(sizes):
    # the forward adds the bias and applies tanh in place; those writes must
    # stay inside each layer's fresh matmul output
    params, adapter, batch = _pin_inputs(sizes)
    inputs = (batch.features, batch.labels, params.theta, adapter.phi)
    before = [a.tobytes() for a in inputs]
    model.forward(params, batch.features)
    model.loss_and_grad(params, batch)
    model.lora_forward(params, adapter, batch.features)
    model.lora_loss_and_grad(params, adapter, batch)
    assert [a.tobytes() for a in inputs] == before


def test_forward_holds_one_activation_at_a_time(traced_peak):
    # one 1000 x 768 hidden activation is 1000 * 768 * 8 bytes; a second
    # one alive beside it (an out-of-place bias add or tanh) breaks the bound
    sizes = (16, 768, 4)
    params = model.init_mlp(sizes, rng.seed_rng(3))
    x = _toy_batch(7, 1000, 16, 4).features
    assert traced_peak(lambda: model.forward(params, x)) < 1.5 * 1000 * 768 * 8


def test_lora_training_pinned():
    cfg = ExperimentConfig()
    cfg.dataset = data.DatasetSpec(
        n_classes=3, n_features=6, n_train=96, n_dev=60,
        separation=2.5, label_noise=0.1, seed=5,
    )
    cfg.hidden_sizes = (12,)
    cfg.epochs = 1
    cfg.batch_size = 8
    cfg.lora, cfg.lora_rank, cfg.lora_alpha = True, 2, 4.0
    train_data = experiment.load_data(cfg)
    for method, want in LORA_TRAIN_PINS.items():
        art = experiment.train_one(cfg, 0, method, data=train_data)
        final = art.params if method == "adamw" else art.posterior.mean
        assert hashlib.sha256(final.tobytes()).hexdigest() == want, method
