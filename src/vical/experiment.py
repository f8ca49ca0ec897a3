"""Training runs, evaluation, multi-seed experiments, and sweeps.

Stream layout per run seed (fixed; changing it re-rolls every result):
child 0 of the seed's root stream initializes parameters, child 1
drives the per-epoch shuffles, child 2 supplies IVON's training-time
posterior draws, and child 3 is the evaluation root whose own child k
feeds MC sample k. AdamW and IVON runs for the same seed therefore
share initialization and batch order exactly, which is what makes the
per-seed comparison paired.

Sweeps reuse the trained posterior and the same evaluation root, so a
sweep row at (K=8, T=1) is bit-identical to the experiment's MC-8 row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import data as vdata
from . import metrics, model, optim, predict, rng as vrng
from .config import ConfigError, ExperimentConfig

log = logging.getLogger(__name__)

METRIC_KEYS = ("acc", "ece", "nll", "brier", "c_at_1", "c_at_5", "c_at_10", "auc")


class TrainingDiverged(Exception):
    def __init__(self, method: str, seed: int, step: int, detail: str):
        super().__init__(f"{method} seed {seed} diverged at step {step}: {detail}")
        self.method = method
        self.seed = seed
        self.step = step
        self.detail = detail


@dataclass
class TrainedArtifact:
    method: str  # "adamw" | "ivon"
    seed: int
    template: predict.LogitFn
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


def model_sizes(cfg: ExperimentConfig, d: int, n_classes: int) -> Tuple[int, ...]:
    return (d,) + tuple(cfg.hidden_sizes) + (n_classes,)


def _build_model(cfg: ExperimentConfig, sizes: Tuple[int, ...], init_rng: vrng.RngState):
    """Initial trainable vector, logit template, and loss closure."""
    if cfg.lora:
        base = model.init_mlp(sizes, init_rng)
        proto = model.init_lora(sizes, cfg.lora_rank, cfg.lora_alpha, init_rng)

        def template(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
            adapter = model.LoraAdapter(sizes, cfg.lora_rank, cfg.lora_alpha, phi)
            return model.lora_forward(base, adapter, x)

        def objective(phi: np.ndarray, batch: model.Batch):
            adapter = model.LoraAdapter(sizes, cfg.lora_rank, cfg.lora_alpha, phi)
            return model.lora_loss_and_grad(base, adapter, batch)

        return proto.phi, template, objective

    params = model.init_mlp(sizes, init_rng)

    def template(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        return model.forward(model.MlpParams(sizes, theta), x)

    def objective(theta: np.ndarray, batch: model.Batch):
        return model.loss_and_grad(model.MlpParams(sizes, theta), batch)

    return params.theta, template, objective


def _epoch_order(shuffle_rng: vrng.RngState, n: int) -> np.ndarray:
    # stable argsort of one uniform per row = a seeded permutation
    return np.argsort(vrng.sample_uniform(shuffle_rng, n), kind="stable")


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

    root = vrng.seed_rng(seed)
    theta, template, objective = _build_model(
        cfg, model_sizes(cfg, train.features.shape[1], int(train.labels.max()) + 1),
        vrng.child(root, 0),
    )
    shuffle_rng = vrng.child(root, 1)
    noise_rng = vrng.child(root, 2)

    art = TrainedArtifact(method=optimizer, seed=seed, template=template)
    adamw_state = optim.adamw_init(theta.shape[0]) if optimizer == "adamw" else None
    post = optim.init_posterior(theta, cfg.ivon) if optimizer == "ivon" else None
    min_hd = np.inf
    clip = cfg.ivon.grad_clip
    gstep = 0
    try:
        for _ in range(cfg.epochs):
            order = _epoch_order(shuffle_rng, n)
            epoch_loss = 0.0
            for s in range(steps_per_epoch):
                rows = order[s * cfg.batch_size:(s + 1) * cfg.batch_size]
                batch = model.Batch(train.features[rows], train.labels[rows])
                if optimizer == "adamw":
                    lr_t = optim.cosine_lr(gstep, total_steps, cfg.adamw.lr)
                    loss, grad = objective(theta, batch)
                    optim.adamw_step(adamw_state, theta, grad, cfg.adamw, lr_t)
                else:
                    lr_t = optim.cosine_lr(gstep, total_steps, cfg.ivon.lr)
                    m = cfg.ivon.train_samples
                    thetas, grads, losses = [], [], []
                    for _ in range(m):
                        th = optim.ivon_sample(post, cfg.ivon, noise_rng, 1.0)
                        l, g = objective(th, batch)
                        if clip > 0.0:
                            g = np.clip(g, -clip, clip)
                        thetas.append(th)
                        grads.append(g)
                        losses.append(l)
                    if m == 1:
                        optim.ivon_step(post, thetas[0], grads[0], cfg.ivon, lr_t)
                    else:
                        optim.ivon_step(post, np.stack(thetas), np.stack(grads),
                                        cfg.ivon, lr_t)
                    loss = float(np.mean(losses))
                    hd = float(post.hess.min()) + cfg.ivon.weight_decay
                    if hd < min_hd:
                        min_hd = hd
                epoch_loss += loss
                gstep += 1
            art.epoch_losses.append(epoch_loss / steps_per_epoch)
    except FloatingPointError as exc:
        raise TrainingDiverged(optimizer, seed, gstep, str(exc)) from exc

    art.steps = gstep
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
    budgets = cfg.eval.risk_budgets
    return {
        "acc": metrics.accuracy(probs, labels),
        "ece": metrics.ece(conf, correct, cfg.eval.ece_bins),
        "nll": metrics.nll(probs, labels),
        "brier": metrics.brier(probs, labels),
        "c_at_1": metrics.coverage_at_risk(conf, correct, budgets[0]),
        "c_at_5": metrics.coverage_at_risk(conf, correct, budgets[1]),
        "c_at_10": metrics.coverage_at_risk(conf, correct, budgets[2]),
        "auc": metrics.risk_coverage_auc(conf, correct),
    }


def mc_tag(k: int, temperature: float) -> str:
    tag = f"IVON MC-{k}"
    if temperature != 1.0:
        tag += f" T={temperature:g}"
    return tag


def evaluate_one(
    artifact: TrainedArtifact,
    dev: model.Batch,
    cfg: ExperimentConfig,
) -> List[EvalResult]:
    """All report rows one trained artifact contributes."""
    if len(dev) == 0:
        raise ValueError("empty dev set")
    out = []
    if artifact.method == "adamw":
        probs = predict.predict_point(artifact.params, artifact.template, dev.features)
        out.append(EvalResult("AdamW", artifact.seed,
                              _metric_values(cfg, probs, dev.labels), probs))
        return out

    probs = predict.predict_mean(artifact.posterior, artifact.template, dev.features)
    out.append(EvalResult("IVON Mean", artifact.seed,
                          _metric_values(cfg, probs, dev.labels), probs))
    root = eval_rng(artifact.seed)
    for t in cfg.eval.temperatures:
        for k in cfg.eval.mc_samples:
            probs = predict.predict_mc(artifact.posterior, cfg.ivon,
                                       artifact.template, dev.features, k, t, root)
            out.append(EvalResult(mc_tag(k, t), artifact.seed,
                                  _metric_values(cfg, probs, dev.labels)))
    return out


def _aggregate(evals: List[EvalResult]) -> List[ReportRow]:
    order: List[str] = []
    by_method: Dict[str, List[EvalResult]] = {}
    for ev in sorted(evals, key=lambda e: e.seed):
        if ev.method not in by_method:
            order.append(ev.method)
            by_method[ev.method] = []
        by_method[ev.method].append(ev)
    rows = []
    for method in order:
        group = by_method[method]
        mean, sd = {}, {}
        for key in METRIC_KEYS:
            vals = np.array([g.values[key] for g in group])
            mean[key] = float(vals.mean())
            sd[key] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        rows.append(ReportRow(method, len(group), mean, sd))
    return rows


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> ExperimentResult:
    """Train and evaluate every (seed, method) pair, aggregate, write reports."""
    from . import report  # local import keeps module load order simple

    train, dev = load_data(cfg)
    methods = ("adamw", "ivon") if cfg.optimizer == "both" else (cfg.optimizer,)
    evals: List[EvalResult] = []
    artifacts: Dict[Tuple[str, int], TrainedArtifact] = {}
    failures: List[dict] = []
    for seed in sorted(cfg.seeds):
        for method in methods:
            try:
                art = train_one(cfg, seed, method, data=(train, dev))
                artifacts[(method, seed)] = art
                evals.extend(evaluate_one(art, dev, cfg))
            except TrainingDiverged as exc:
                log.error("%s", exc)
                failures.append({
                    "method": exc.method, "seed": exc.seed,
                    "step": exc.step, "detail": exc.detail,
                })
    rows = _aggregate(evals)
    result = ExperimentResult(rows, evals, artifacts, failures, train, dev)
    report.emit_report(result, cfg, out_dir or cfg.out_dir)
    return result


def sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: Sequence[float],
    out_dir: Optional[str] = None,
    artifacts: Optional[Dict[Tuple[str, int], TrainedArtifact]] = None,
    data: Optional[Tuple[model.Batch, model.Batch]] = None,
) -> List[dict]:
    """Evaluate an inference-time axis on fixed trained posteriors.

    No retraining happens across values; each seed's posterior is
    trained once (or taken from a previous run's artifacts).
    """
    from . import report

    if axis not in ("mc_samples", "temperature"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ConfigError("sweep values must be non-empty")
    train, dev = data if data is not None else load_data(cfg)
    rows = []
    k_default = cfg.eval.mc_samples[0]
    for seed in sorted(cfg.seeds):
        art = artifacts.get(("ivon", seed)) if artifacts else None
        if art is None:
            art = train_one(cfg, seed, "ivon", data=(train, dev))
        root = eval_rng(seed)
        for value in values:
            if axis == "mc_samples":
                k, t = int(value), 1.0
            else:
                k, t = k_default, float(value)
            probs = predict.predict_mc(art.posterior, cfg.ivon, art.template,
                                       dev.features, k, t, root)
            vals = _metric_values(cfg, probs, dev.labels)
            rows.append({
                "axis_value": int(value) if axis == "mc_samples" else float(value),
                "seed": seed,
                "acc": vals["acc"], "ece": vals["ece"],
                "c_at_5": vals["c_at_5"], "auc": vals["auc"],
            })
    if out_dir is not None:
        report.write_sweep_csv(rows, axis, out_dir)
    return rows
