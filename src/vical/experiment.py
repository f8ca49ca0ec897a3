"""Training runs, evaluation, multi-seed experiments, and sweeps.

Stream layout per run seed (fixed; changing it re-rolls every result):
child 0 of the seed's root stream initializes parameters, child 1
drives the per-epoch shuffles, child 2 supplies IVON's training-time
posterior draws, and child 3 is the evaluation root whose own child k
feeds MC sample k. AdamW and IVON runs for the same seed therefore
share initialization and batch order exactly, which is what makes the
per-seed comparison paired.

Sweeps reuse the trained posterior and evaluate_one's MC path, so a
sweep row at (K=8, T=1) is the experiment's MC-8 row by construction.
This module writes no files; ``report`` writes what it returns.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import data as vdata
from . import metrics, model, optim, predict, rng as vrng
from .config import ConfigError, ExperimentConfig, validate_config

log = logging.getLogger(__name__)

METRIC_KEYS = ("acc", "ece", "nll", "brier", "c_at_1", "c_at_5", "c_at_10", "auc")
SWEEP_KEYS = ("acc", "ece", "c_at_5", "auc")  # the sweep CSV's metric columns


class TrainingDiverged(Exception):
    def __init__(self, method: str, seed: int, step: int, detail: str):
        super().__init__(f"{method} seed {seed} diverged at step {step}: {detail}")
        self.method = method
        self.seed = seed
        self.step = step
        self.detail = detail


@dataclass
class TrainedArtifact:
    """One run's result as plain data; ``template(cfg, art.sizes, art.seed)``
    gives the logit function of its trained vector."""

    method: str  # "adamw" | "ivon"
    seed: int
    sizes: Tuple[int, ...]  # layer widths, input to output
    params: Optional[np.ndarray] = None           # AdamW point estimate
    posterior: Optional[optim.PosteriorState] = None
    epoch_losses: List[float] = field(default_factory=list)
    min_hdelta: Optional[float] = None  # smallest h+delta seen across steps
    steps: int = 0


@dataclass
class EvalResult:
    method: str  # report tag, e.g. "AdamW", "IVON Mean", "IVON MC-8"
    seed: int
    values: Dict[str, float]
    probs: Optional[np.ndarray] = None  # scored dev probabilities, point and mean rows


@dataclass
class ReportRow:
    method: str
    seed_count: int
    mean: Dict[str, float]
    sd: Dict[str, float]


@dataclass
class ExperimentResult:
    rows: List[ReportRow]
    evals: List[EvalResult]
    artifacts: Dict[Tuple[str, int], TrainedArtifact]
    failures: List[dict]
    train: model.Batch
    dev: model.Batch


def load_data(cfg: ExperimentConfig) -> Tuple[model.Batch, model.Batch]:
    if cfg.train_csv is None:
        train, dev = vdata.generate_dataset(cfg.dataset)
    else:
        train, dev = vdata.load_csv(cfg.train_csv), vdata.load_csv(cfg.dev_csv)
    if dev.features.shape[1] != train.features.shape[1]:
        raise vdata.DataError(
            f"the dev set has {dev.features.shape[1]} feature columns, "
            f"the train set {train.features.shape[1]}"
        )
    # the model's class count comes from the train labels, so a larger
    # dev label would index past the last output column when scored
    n_classes = int(train.labels.max()) + 1
    if int(dev.labels.max()) >= n_classes:
        raise vdata.DataError(
            f"dev label {int(dev.labels.max())} never occurs in the train set "
            f"(train labels span 0..{n_classes - 1})"
        )
    return train, dev


def methods(cfg: ExperimentConfig) -> Tuple[str, ...]:
    """The optimizers a run trains, in report order."""
    return ("adamw", "ivon") if cfg.optimizer == "both" else (cfg.optimizer,)


def model_sizes(cfg: ExperimentConfig, d: int, n_classes: int) -> Tuple[int, ...]:
    return (d,) + tuple(cfg.hidden_sizes) + (n_classes,)


def _build_model(cfg: ExperimentConfig, sizes: Tuple[int, ...], seed: int, init: bool = False):
    """Logit and loss functions of the configured model, plus its initial
    trainable vector with ``init`` (else None).

    Child 0 of the seed's stream draws the MLP weights, then the LoRA
    adapter, so the frozen LoRA base is redrawn from the seed alone. The
    plain MLP's functions need only the sizes: it draws only with ``init``.
    """
    init_rng = vrng.child(vrng.seed_rng(seed), 0)
    if not cfg.lora:
        def logits(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
            return model.forward(model.MlpParams(sizes, theta), x)

        def loss(theta: np.ndarray, batch: model.Batch):
            return model.loss_and_grad(model.MlpParams(sizes, theta), batch)

        return logits, loss, model.init_mlp(sizes, init_rng).theta if init else None

    base = model.init_mlp(sizes, init_rng)

    def adapter(phi: np.ndarray) -> model.LoraAdapter:
        return model.LoraAdapter(sizes, cfg.lora_rank, cfg.lora_alpha, phi)

    def logits(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
        return model.lora_forward(base, adapter(phi), x)

    def loss(phi: np.ndarray, batch: model.Batch):
        return model.lora_loss_and_grad(base, adapter(phi), batch)

    phi0 = model.init_lora(sizes, cfg.lora_rank, cfg.lora_alpha, init_rng).phi if init else None
    return logits, loss, phi0


def template(cfg: ExperimentConfig, sizes: Tuple[int, ...], seed: int) -> predict.LogitFn:
    """The logit function of a trained artifact's vector (see TrainedArtifact)."""
    return _build_model(cfg, sizes, seed)[0]


def _epoch_order(shuffle_rng: vrng.RngState, n: int) -> np.ndarray:
    # stable argsort of one uniform per row = a seeded permutation
    return np.argsort(vrng.sample_uniform(shuffle_rng, n), kind="stable")


# numpy's float warnings are silenced where a FloatingPointError becomes a
# reported failure; one errstate each, as numpy < 2 cannot nest one instance
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_one(
    cfg: ExperimentConfig,
    seed: int,
    optimizer: str,
    data: Optional[Tuple[model.Batch, model.Batch]] = None,
) -> TrainedArtifact:
    """Train one model with one optimizer under one seed."""
    if optimizer not in ("adamw", "ivon"):
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    train, _ = data if data is not None else load_data(cfg)
    n = len(train)
    if cfg.batch_size > n:
        raise ConfigError("train.batch_size exceeds the training set size")
    steps_per_epoch = n // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch

    sizes = model_sizes(cfg, train.features.shape[1], int(train.labels.max()) + 1)
    _, objective, theta = _build_model(cfg, sizes, seed, init=True)
    root = vrng.seed_rng(seed)
    shuffle_rng = vrng.child(root, 1)
    noise_rng = vrng.child(root, 2)

    art = TrainedArtifact(method=optimizer, seed=seed, sizes=sizes)
    adamw_state = optim.adamw_init(theta.shape[0]) if optimizer == "adamw" else None
    post = optim.init_posterior(theta, cfg.ivon) if optimizer == "ivon" else None
    min_hd = np.inf
    try:
        for _ in range(cfg.epochs):
            order = _epoch_order(shuffle_rng, n)
            epoch_loss = 0.0
            for s in range(steps_per_epoch):
                rows = order[s * cfg.batch_size:(s + 1) * cfg.batch_size]
                batch = model.Batch(train.features[rows], train.labels[rows])
                if optimizer == "adamw":
                    lr_t = optim.cosine_lr(art.steps, total_steps, cfg.adamw.lr)
                    loss, grad = objective(theta, batch)
                    optim.adamw_step(adamw_state, theta, grad, cfg.adamw, lr_t)
                else:
                    lr_t = optim.cosine_lr(art.steps, total_steps, cfg.ivon.lr)
                    loss, hd = optim.ivon_train_step(post, cfg.ivon, objective, batch,
                                                     noise_rng, lr_t)
                    min_hd = min(min_hd, hd)
                epoch_loss += loss
                art.steps += 1
            art.epoch_losses.append(epoch_loss / steps_per_epoch)
    except FloatingPointError as exc:
        raise TrainingDiverged(optimizer, seed, art.steps, str(exc)) from exc

    if optimizer == "adamw":
        art.params = theta
    else:
        art.posterior = post
        art.min_hdelta = float(min_hd)
    return art


def eval_rng(seed: int) -> vrng.RngState:
    """The evaluation root stream for a run seed (child 3 by layout)."""
    return vrng.child(vrng.seed_rng(seed), 3)


def _metric_values(cfg: ExperimentConfig, probs: np.ndarray, labels: np.ndarray) -> Dict[str, float]:
    conf, correct = metrics.records_from_probs(probs, labels)
    return {
        "acc": metrics.accuracy(probs, labels),
        "ece": metrics.ece(conf, correct, cfg.eval.ece_bins),
        "nll": metrics.nll(probs, labels),
        "brier": metrics.brier(probs, labels),
        "c_at_1": metrics.coverage_at_risk(conf, correct, 0.01),
        "c_at_5": metrics.coverage_at_risk(conf, correct, 0.05),
        "c_at_10": metrics.coverage_at_risk(conf, correct, 0.10),
        "auc": metrics.risk_coverage_auc(conf, correct),
    }


def mc_tag(k: int, temperature: float) -> str:
    tag = f"IVON MC-{k}"
    if temperature != 1.0:
        tag += f" T={temperature:g}"
    return tag


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate_one(
    artifact: TrainedArtifact,
    dev: model.Batch,
    cfg: ExperimentConfig,
) -> List[EvalResult]:
    """All report rows one trained artifact contributes."""
    if len(dev) == 0:
        raise ValueError("empty dev set")
    logits = template(cfg, artifact.sizes, artifact.seed)
    if artifact.method == "adamw":
        tag, probs = "AdamW", predict.predict_point(artifact.params, logits, dev.features)
    else:
        tag, probs = "IVON Mean", predict.predict_mean(artifact.posterior, logits, dev.features)
    out = [EvalResult(tag, artifact.seed, _metric_values(cfg, probs, dev.labels), probs)]
    if artifact.method == "ivon":
        grid = [(k, t) for t in cfg.eval.temperatures for k in cfg.eval.mc_samples]
        out += _mc_evals(artifact, logits, dev, cfg, grid)
    return out


def _mc_evals(artifact: TrainedArtifact, logits: predict.LogitFn, dev: model.Batch,
              cfg: ExperimentConfig, grid: List[Tuple[int, float]]) -> List[EvalResult]:
    """One MC row per (K, T) in ``grid``, every draw from the seed's evaluation root."""
    root = eval_rng(artifact.seed)
    out = []
    for k, t in grid:
        probs = predict.predict_mc(artifact.posterior, cfg.ivon,
                                   logits, dev.features, k, t, root)
        out.append(EvalResult(mc_tag(k, t), artifact.seed,
                              _metric_values(cfg, probs, dev.labels)))
    return out


def _aggregate(evals: List[EvalResult]) -> List[ReportRow]:
    by_method: Dict[str, List[EvalResult]] = {}
    for ev in sorted(evals, key=lambda e: e.seed):
        by_method.setdefault(ev.method, []).append(ev)
    rows = []
    for method, group in by_method.items():
        mean, sd = {}, {}
        for key in METRIC_KEYS:
            vals = np.array([g.values[key] for g in group])
            mean[key] = float(vals.mean())
            sd[key] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        rows.append(ReportRow(method, len(group), mean, sd))
    return rows


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train and evaluate every (seed, method) pair and aggregate."""
    validate_config(cfg)
    train, dev = load_data(cfg)
    evals: List[EvalResult] = []
    artifacts: Dict[Tuple[str, int], TrainedArtifact] = {}
    failures: List[dict] = []
    for seed in sorted(cfg.seeds):
        for method in methods(cfg):
            try:
                art = train_one(cfg, seed, method, data=(train, dev))
                artifacts[(method, seed)] = art
                try:
                    evals.extend(evaluate_one(art, dev, cfg))
                except FloatingPointError as exc:  # e.g. a posterior draw overflows
                    raise TrainingDiverged(method, seed, art.steps, f"evaluation: {exc}") from exc
            except TrainingDiverged as exc:
                log.error("%s", exc)
                failures.append({
                    "method": exc.method, "seed": exc.seed,
                    "step": exc.step, "detail": exc.detail,
                })
    return ExperimentResult(_aggregate(evals), evals, artifacts, failures, train, dev)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def sweep(
    cfg: ExperimentConfig,
    axis: str,
    artifacts: Optional[Dict[Tuple[str, int], TrainedArtifact]] = None,
    data: Optional[Tuple[model.Batch, model.Batch]] = None,
) -> List[dict]:
    """Evaluate the axis's ``[sweep]`` grid on fixed trained posteriors.

    No retraining happens across values; each seed's posterior is
    trained once (or taken from a previous run's artifacts).
    """
    if axis not in ("mc_samples", "temperature"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    key = "mc_grid" if axis == "mc_samples" else "temperature_grid"
    if not getattr(cfg.sweep, key):
        raise ConfigError(f"sweep.{key} must be non-empty")
    validate_config(cfg)
    if axis == "mc_samples":
        grid = [(int(v), 1.0) for v in cfg.sweep.mc_grid]
    else:
        grid = [(cfg.eval.mc_samples[0], float(v)) for v in cfg.sweep.temperature_grid]
    train, dev = data if data is not None else load_data(cfg)
    rows = []
    for seed in sorted(cfg.seeds):
        art = artifacts.get(("ivon", seed)) if artifacts else None
        if art is None:
            art = train_one(cfg, seed, "ivon", data=(train, dev))
        evals = _mc_evals(art, template(cfg, art.sizes, seed), dev, cfg, grid)
        for (k, t), ev in zip(grid, evals):
            rows.append({"axis_value": k if axis == "mc_samples" else t, "seed": seed,
                         **{m: ev.values[m] for m in SWEEP_KEYS}})
    return rows
