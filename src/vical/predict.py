"""From trained state to class probabilities.

A "template" here is any callable mapping (flat parameter vector,
feature matrix) to logits; the harness builds one per model variant so
these functions stay agnostic to plain-vs-LoRA parameterization.

MC prediction averages logits across posterior samples (not
probabilities; the two differ and the logit form is the documented
choice), then applies softmax once. Each sample k draws from an
independently derived child stream keyed by the sample index, so
results do not depend on evaluation order and a K-sample run shares its
first draws with any longer run from the same stream.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import numeric, optim, rng as vrng

LogitFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def predict_mean(state: optim.PosteriorState, template: LogitFn, features: np.ndarray) -> np.ndarray:
    """Probabilities at the posterior mean (no sampling)."""
    return numeric.softmax(template(state.mean, features), axis=1)


def predict_point(theta: np.ndarray, template: LogitFn, features: np.ndarray) -> np.ndarray:
    """Probabilities for a plain point estimate (the AdamW path)."""
    return numeric.softmax(template(theta, features), axis=1)


def predict_mc(
    state: optim.PosteriorState,
    config: optim.IvonConfig,
    template: LogitFn,
    features: np.ndarray,
    k: int,
    temperature: float,
    rng: vrng.RngState,
) -> np.ndarray:
    """Average logits over k posterior samples at temperature T, then softmax."""
    if k < 1:
        raise ValueError("mc sample count must be >= 1")
    total = None
    for i in range(k):
        eps = vrng.sample_standard_normal(vrng.child(rng, i), state.mean.shape[0])
        theta = optim.ivon_sample(state, config, eps, temperature)
        logits = template(theta, features)
        total = logits if total is None else total + logits
    return numeric.softmax(total / k, axis=1)
