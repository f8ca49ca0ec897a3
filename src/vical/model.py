"""Small tanh MLP classifier with hand-derived gradients.

Parameters live in one flat float64 vector so the optimizers stay
model-agnostic. The layout is layer-major: for each layer, the weight
matrix in row-major order (shape fan_in x fan_out), then the bias.
``unflatten`` returns views into the flat buffer, never copies.

One forward pass (``_logits``) and one backward pass (``_layer_grads``)
serve both models; they take per-layer weights and biases and return
logits, or the loss with the per-layer (dW, db) written into views of a
flat gradient vector.

The LoRA variant is only a weight map around them. It keeps a frozen
base vector and trains low-rank factors A (fan_in x r) and B (r x out)
per layer. On the way in, the effective weight is W + (alpha/r) * A @ B;
on the way out, dW becomes (alpha/r) * dW @ B^T for A and
(alpha/r) * A^T @ dW for B. Only A and B entries enter the trainable
flat vector; biases stay frozen with the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import numeric, rng as vrng

# rows per forward block in evaluation. A row's logits can depend on how
# many rows share its GEMM: OpenBLAS sends a product of at most 10**6
# multiply-adds down its small-matrix path. Blocks of 500 keep the
# whole-matrix bits of the default width at every numeric level checked;
# at 256 hidden units a block's output product takes that path where the
# 1,000-row dev set's did not, and the last digits of its scores move
EVAL_BLOCK = 500


@dataclass
class Batch:
    """Features [n, d] and integer labels [n] in [0, C)."""

    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.features.shape[0])


@dataclass
class MlpParams:
    sizes: Tuple[int, ...]
    theta: np.ndarray


@dataclass
class LoraAdapter:
    sizes: Tuple[int, ...]
    rank: int
    alpha: float
    phi: np.ndarray  # flat trainable vector over (A, B) pairs, layer-major


def layer_shapes(sizes: Sequence[int]) -> List[Tuple[int, int]]:
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"invalid layer sizes {tuple(sizes)}")
    return [(int(sizes[i]), int(sizes[i + 1])) for i in range(len(sizes) - 1)]


def n_params(sizes: Sequence[int]) -> int:
    return sum(fi * fo + fo for fi, fo in layer_shapes(sizes))


_LAYOUTS: dict = {}  # (sizes, LoRA rank or None) -> (length, per-layer (start, stop, shape))


def _views(flat: np.ndarray, sizes: Sequence[int], rank=None) -> List[Tuple[np.ndarray, ...]]:
    """Per-layer views into ``flat``: (W, b) of an MLP vector, or (A, B) of
    a LoRA vector of ``rank``. The offsets are worked out once per size tuple."""
    key = (tuple(sizes), rank)
    layout = _LAYOUTS.get(key)
    if layout is None:
        if rank is None:
            want = n_params(sizes)
            shapes = [((fi, fo), (fo,)) for fi, fo in layer_shapes(sizes)]
        else:
            want = lora_n_params(sizes, rank)
            shapes = [((fi, rank), (rank, fo)) for fi, fo in layer_shapes(sizes)]
        layers = []
        off = 0
        for blocks in shapes:
            layer = []
            for shape in blocks:
                size = math.prod(shape)
                layer.append((off, off + size, shape))
                off += size
            layers.append(layer)
        layout = _LAYOUTS[key] = (want, layers)
    want, layers = layout
    if flat.shape != (want,):
        raise ValueError(f"flat vector has length {flat.shape}, need {want}")
    return [tuple([flat[start:stop].reshape(shape) for start, stop, shape in layer])
            for layer in layers]


def unflatten(theta: np.ndarray, sizes: Sequence[int]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into per-layer (W, b) views (no copies)."""
    return _views(theta, sizes)


def init_mlp(sizes: Sequence[int], rng: vrng.RngState) -> MlpParams:
    """Weights ~ N(0, 1/fan_in), biases zero, drawn layer by layer."""
    sizes = tuple(int(s) for s in sizes)
    theta = np.zeros(n_params(sizes), dtype=np.float64)
    for w, _ in unflatten(theta, sizes):
        fi, fo = w.shape
        draws = vrng.sample_standard_normal(rng, fi * fo)
        w[:, :] = draws.reshape(fi, fo) / np.sqrt(fi)
    return MlpParams(sizes=sizes, theta=theta)


def _check_features(features: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"features must be [n, {d}], got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite values")
    return x


def _check_labels(labels: np.ndarray, n: int, n_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError(f"labels must be [{n}], got {y.shape}")
    y = y.astype(np.int64)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"labels out of range [0, {n_classes})")
    return y


def _forward_stack(weights, biases, features: np.ndarray):
    """Activations per layer; hidden layers are tanh, output is linear.

    The bias add and tanh write into each layer's fresh matmul output, so
    one activation per layer is allocated and the inputs are never written.
    """
    acts = [features]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w
        z += b
        if i != last:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def _logits(weights, biases, features: np.ndarray) -> np.ndarray:
    """Checked features in, logits out; ``numeric`` checks the logits.

    From 2 * EVAL_BLOCK rows on, the rows go through the layers in blocks
    of EVAL_BLOCK, the last block taking the remainder, so every block has
    EVAL_BLOCK to 2 * EVAL_BLOCK - 1 rows and a hidden activation never
    outgrows that many rows, however large the dev set.
    """
    x = _check_features(features, weights[0].shape[0])
    n = x.shape[0]
    blocks = np.split(x, range(EVAL_BLOCK, n - EVAL_BLOCK + 1, EVAL_BLOCK))
    logits = [_forward_stack(weights, biases, block)[-1] for block in blocks]
    return logits[0] if len(logits) == 1 else np.concatenate(logits)


def _ce_from_logits(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and the output-layer error (P - Y)/n."""
    n = logits.shape[0]
    logp = numeric.log_softmax(logits, axis=1)
    loss = float(-(np.add.reduce(logp[np.arange(n), labels]) / n))
    dz = np.exp(logp)
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    return loss, dz


def _layer_grads(weights, biases, batch: Batch, grads) -> float:
    """Mean cross-entropy for these weights; writes each layer's (dW, db)
    into the views ``grads`` holds."""
    x = _check_features(batch.features, weights[0].shape[0])
    y = _check_labels(batch.labels, x.shape[0], weights[-1].shape[1])
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    acts = _forward_stack(weights, biases, x)
    loss, dz = _ce_from_logits(acts[-1], y)
    for i in range(len(weights) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(acts[i].T, dz, out=gw)
        np.add.reduce(dz, axis=0, out=gb)
        if i > 0:
            dz = (dz @ weights[i].T) * (1.0 - acts[i] * acts[i])  # tanh'
    return loss


def forward(params: MlpParams, features: np.ndarray) -> np.ndarray:
    """Logits [n, C] for a feature matrix [n, d]."""
    weights, biases = zip(*unflatten(params.theta, params.sizes))
    return _logits(weights, biases, features)


def loss_and_grad(params: MlpParams, batch: Batch) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its exact gradient as a new flat vector."""
    weights, biases = zip(*unflatten(params.theta, params.sizes))
    grad = np.empty_like(params.theta)
    return _layer_grads(weights, biases, batch, unflatten(grad, params.sizes)), grad


# ------------------------------------------------------------------ LoRA ---

def lora_n_params(sizes: Sequence[int], rank: int) -> int:
    if rank < 1:
        raise ValueError("LoRA rank must be >= 1")
    return sum(rank * (fi + fo) for fi, fo in layer_shapes(sizes))


def lora_unflatten(adapter: LoraAdapter) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-layer (A, B) views into the adapter's flat vector."""
    return _views(adapter.phi, adapter.sizes, adapter.rank)


def init_lora(sizes: Sequence[int], rank: int, alpha: float, rng: vrng.RngState) -> LoraAdapter:
    """A ~ N(0, 1/fan_in), B = 0, so the adapter starts as a no-op."""
    sizes = tuple(int(s) for s in sizes)
    phi = np.zeros(lora_n_params(sizes, rank), dtype=np.float64)
    adapter = LoraAdapter(sizes=sizes, rank=rank, alpha=float(alpha), phi=phi)
    for a, _ in lora_unflatten(adapter):
        fi = a.shape[0]
        a[:, :] = vrng.sample_standard_normal(rng, fi * rank).reshape(fi, rank) / np.sqrt(fi)
    return adapter


def _effective_weights(base: MlpParams, adapter: LoraAdapter):
    """W + (alpha/r) A @ B per layer, the frozen biases, the (A, B) views and alpha/r."""
    if adapter.sizes != base.sizes:
        raise ValueError("adapter sizes do not match base model")
    scale = adapter.alpha / adapter.rank
    layers = unflatten(base.theta, base.sizes)
    pairs = lora_unflatten(adapter)
    weights = [w + scale * (a @ b) for (w, _), (a, b) in zip(layers, pairs)]
    biases = [b for _, b in layers]
    return weights, biases, pairs, scale


def lora_forward(base: MlpParams, adapter: LoraAdapter, features: np.ndarray) -> np.ndarray:
    weights, biases, _, _ = _effective_weights(base, adapter)
    return _logits(weights, biases, features)


def lora_loss_and_grad(base: MlpParams, adapter: LoraAdapter, batch: Batch) -> Tuple[float, np.ndarray]:
    """Loss with adapted weights; gradient only over the (A, B) entries, as
    a new flat vector."""
    weights, biases, pairs, scale = _effective_weights(base, adapter)
    base_grads = unflatten(np.empty_like(base.theta), base.sizes)
    loss = _layer_grads(weights, biases, batch, base_grads)
    blocks = []
    for (a, b), (dw, _) in zip(pairs, base_grads):
        blocks += [scale * (dw @ b.T), scale * (a.T @ dw)]
    return loss, np.concatenate([g.ravel() for g in blocks])
