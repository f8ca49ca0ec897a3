"""AdamW and IVON on flat parameter vectors, plus the cosine schedule.

IVON maintains a diagonal Gaussian posterior N(m, 1/(lam*(h+delta))).
One step applies, in order:

  (1) hhat = grad * (theta - m) / sigma^2 at a posterior draw theta, with
      sigma^2 the current variance (each term averaged over M draws);
  (2) g_mom <- b1*g_mom + (1-b1)*grad;
  (3) h <- b2*h + (1-b2)*hhat + 0.5*(1-b2)^2*(h-hhat)^2/(h+delta);
  (4) t <- t+1, debiased gbar = g_mom/(1-b1^t);
  (5) m <- m - lr_t*(gbar + delta*m)/(h+delta).

Recursion (3) keeps h+delta > (h+delta)/2 > 0 in exact arithmetic; a
floor at zero guards against rounding and is logged when it fires.
Debiasing applies to g_mom only; h starts at h0, not 0, so it needs no
correction. Both optimizers mutate their vectors in place and are
deterministic given (seed, config, data order).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import _kernels, rng as vrng

log = logging.getLogger(__name__)


@dataclass
class AdamwConfig:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0  # decoupled decay, off in the default comparison


@dataclass
class AdamwState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class IvonConfig:
    lr: float
    ess: float               # lambda, effective sample size
    hess_init: float = 1e-3  # h0
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 1.0 - 1e-5
    train_samples: int = 1   # M, MC samples per training step
    grad_clip: float = 0.0   # elementwise gradient bound in ivon_train_step; 0 = off


@dataclass
class PosteriorState:
    mean: np.ndarray
    hess: np.ndarray
    g_mom: np.ndarray
    t: int = 0


def _finite(arr: np.ndarray) -> bool:
    # one-pass probe: any nan/inf poisons the sum; overflow of the sum
    # itself is the signal here, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(float(np.sum(arr)))


def adamw_init(n: int) -> AdamwState:
    return AdamwState(m=np.zeros(n), v=np.zeros(n), t=0)


def adamw_step(
    state: AdamwState,
    params: np.ndarray,
    grad: np.ndarray,
    config: AdamwConfig,
    lr_t: float,
) -> None:
    """One decoupled-weight-decay Adam update, in place."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/state length mismatch")
    state.t += 1
    bc1 = 1.0 - config.beta1 ** state.t
    bc2 = 1.0 - config.beta2 ** state.t
    _kernels.adamw_core(
        params, grad, state.m, state.v,
        float(lr_t), config.beta1, config.beta2, config.eps,
        config.weight_decay, bc1, bc2,
    )
    if not _finite(params):
        raise FloatingPointError("non-finite parameters after AdamW step")


def init_posterior(m0: np.ndarray, config: IvonConfig) -> PosteriorState:
    """Posterior at t=0: mean m0, h = h0 everywhere, zero momentum."""
    if config.ess <= 0.0:
        raise ValueError("effective sample size must be > 0")
    if config.hess_init + config.weight_decay <= 0.0:
        raise ValueError("h0 + delta must be > 0 for a finite initial variance")
    m0 = np.asarray(m0, dtype=np.float64)
    if not _finite(m0):
        raise ValueError("non-finite initial mean")
    n = m0.shape[0]
    return PosteriorState(
        mean=m0.copy(),
        hess=np.full(n, config.hess_init, dtype=np.float64),
        g_mom=np.zeros(n),
        t=0,
    )


def ivon_sample(
    state: PosteriorState,
    config: IvonConfig,
    rng: vrng.RngState,
    temperature: float = 1.0,
) -> np.ndarray:
    """Draw theta = m + eps*sigma_T with sigma_T = 1/sqrt(T*lam*(h+delta)).

    The temperature rescales the posterior concentration (lam_infer =
    T*lam); it never touches logits. Training uses T=1.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0")
    # built in place: eps becomes theta, var becomes sigma
    theta = vrng.sample_standard_normal(rng, state.mean.shape[0])
    sigma = state.hess + config.weight_decay
    sigma *= temperature * config.ess
    np.sqrt(sigma, out=sigma)
    np.divide(1.0, sigma, out=sigma)
    theta *= sigma
    theta += state.mean
    if not _finite(theta):
        raise FloatingPointError("non-finite posterior sample")
    return theta


def ivon_step(
    state: PosteriorState,
    gprod: np.ndarray,
    gavg: np.ndarray,
    config: IvonConfig,
    lr_t: float,
) -> float:
    """One IVON update, in place; returns min(h+delta) after it.

    ``gprod`` is (theta - m)*grad and ``gavg`` is grad, each averaged over
    the step's posterior draws. See the module docstring for the recursions.
    """
    if gprod.shape != state.mean.shape or gavg.shape != state.mean.shape:
        raise ValueError("gradient length does not match posterior mean")

    state.t += 1
    bc1 = 1.0 - config.beta1 ** state.t
    c3 = 0.5 * (1.0 - config.beta2) ** 2
    min_hd, floored = _kernels.ivon_core(
        state.mean, state.hess, state.g_mom, gprod, gavg,
        float(lr_t), config.beta1, config.beta2,
        config.ess, config.weight_decay, bc1, c3,
    )
    if floored:
        log.warning("ivon_step t=%d: floored %d negative h entries", state.t, floored)
    # the kernel's min is taken before the floor; a floored entry's h+delta is delta
    post_min = config.weight_decay if floored else min_hd
    if not math.isfinite(min_hd) or post_min <= 0.0:
        raise FloatingPointError(
            f"posterior variance collapsed at t={state.t}: min(h+delta)={post_min:g}"
        )
    if not (_finite(state.mean) and _finite(state.hess)):
        raise FloatingPointError(f"non-finite posterior state at t={state.t}")
    return post_min


def ivon_train_step(state: PosteriorState, config: IvonConfig, objective: Callable,
                    batch, rng: vrng.RngState, lr_t: float) -> Tuple[float, float]:
    """One IVON training step, in place: train_samples posterior draws, the
    (loss, gradient) of ``objective(theta, batch)`` at each, clipped to
    +-grad_clip when that is > 0, then one ivon_step on the draws' mean
    (theta - m)*grad and grad. The objective must return a new gradient on
    every call, as it is written in place. Returns the mean loss over the
    draws and min(h+delta) after the step.
    """
    clip = config.grad_clip
    losses = []
    for k in range(config.train_samples):
        theta = ivon_sample(state, config, rng, 1.0)
        loss, grad = objective(theta, batch)
        losses.append(loss)
        if clip > 0.0:
            np.clip(grad, -clip, clip, out=grad)
        theta -= state.mean  # theta becomes (theta - m)*grad
        theta *= grad
        if k == 0:
            gprod, gavg = theta, grad
        else:
            gprod += theta
            gavg += grad
    if config.train_samples > 1:
        gprod /= config.train_samples
        gavg /= config.train_samples
    return float(np.mean(losses)), ivon_step(state, gprod, gavg, config, lr_t)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi * step/total)); lr0 at 0, zero at the end."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
