"""Training runs, evaluation, multi-seed experiments, and sweeps.

Stream layout per run seed (fixed; changing it re-rolls every result):
child 0 of the seed's root stream initializes parameters, child 1
drives the per-epoch shuffles, child 2 supplies IVON's training-time
posterior draws, and child 3 is the evaluation root whose own child k
feeds MC sample k. AdamW and IVON runs for the same seed therefore
share initialization and batch order exactly, which is what makes the
per-seed comparison paired.

An IVON run takes the training draws ``optim.ivon_train_step`` asks for
from ``rng.normal_feed``, which computes them in a forked producer while
the run computes gradients and updates (reaped when training ends or
fails), or makes them in process where no second CPU is usable.

A run's training loop is a generator that yields after each optimizer
step, and ``train_one`` drains it. ``train_seed`` pairs a seed's two
runs: while the IVON run waits on its producer, the feed's ``idle`` hook
advances the AdamW run one step, and AdamW's ``train_one`` finishes the
steps left. On one CPU the feed never waits, and the runs train in turn.

``_run_jobs`` trains each seed's missing runs with ``train_seed``, which
hands a diverged run back as its failure record, then scores every
(seed, method) run in that order with ``run_job``, which passes such a
record on and records a failed evaluation the same way: ``run_experiment``
logs each failure as one ERROR line, ``sweep`` raises the first. Sweeps score through
evaluate_one's MC path, so a sweep row at (K=8, T=1) is the MC-8 row.
This module writes no files; ``report`` writes what it returns.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

import numpy as np

from . import data as vdata
from . import metrics, model, optim, predict, rng as vrng
from .config import ConfigError, ExperimentConfig, validate_config

log = logging.getLogger(__name__)

METRIC_KEYS = ("acc", "ece", "nll", "brier", "c_at_1", "c_at_5", "c_at_10", "auc")
SWEEP_KEYS = ("acc", "ece", "c_at_5", "auc")  # the sweep CSV's metric columns


class TrainingDiverged(Exception):
    def __init__(self, method: str, seed: int, step: int, detail: str):
        super().__init__(f"{method} seed {seed} diverged after {step} completed steps: {detail}")
        self.method, self.seed, self.step, self.detail = method, seed, step, detail

    def record(self) -> dict:
        """The failure record ``metadata.json`` lists; ``TrainingDiverged(**record)``
        rebuilds the exception."""
        return {"method": self.method, "seed": self.seed, "step": self.step, "detail": self.detail}


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


Data = Tuple[model.Batch, model.Batch]  # (train, dev)
Grid = List[Tuple[int, float]]  # (K, T) per MC row
Artifacts = Dict[Tuple[str, int], TrainedArtifact]  # by (method, seed)


@dataclass
class ExperimentResult:
    rows: List[ReportRow]
    evals: List[EvalResult]
    artifacts: Artifacts
    failures: List[dict]
    train: model.Batch
    dev: model.Batch


def load_data(cfg: ExperimentConfig) -> Data:
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


def _steps(cfg: ExperimentConfig, seed: int, optimizer: str, data: Optional[Data],
           idle: Optional[Callable[[], bool]]) -> Generator[None, None, TrainedArtifact]:
    """One run's training loop: yields after each optimizer step and returns
    the artifact. ``idle`` fills an IVON run's waits on its noise feed."""
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
    with (vrng.normal_feed(noise_rng, theta.shape[0], idle) if optimizer == "ivon"
          else contextlib.nullcontext()) as draw:
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
                                                         draw, lr_t)
                        min_hd = min(min_hd, hd)
                    epoch_loss += loss
                    art.steps += 1
                    yield
                art.epoch_losses.append(epoch_loss / steps_per_epoch)
        except FloatingPointError as exc:
            raise TrainingDiverged(optimizer, seed, art.steps, str(exc)) from exc

    if optimizer == "adamw":
        art.params = theta
    else:
        art.posterior = post
        art.min_hdelta = float(min_hd)
    return art


class _Run:
    """A training run taken one optimizer step at a time; once it has ended,
    ``end`` holds its artifact, or the TrainingDiverged that ended it."""

    def __init__(self, steps: Generator[None, None, TrainedArtifact]):
        self.steps = steps
        self.end: Union[TrainedArtifact, TrainingDiverged, None] = None

    def advance(self) -> bool:
        """Take the run's next step; False once it has ended. Any exception
        but a divergence leaves through here."""
        if self.end is None:
            try:
                next(self.steps)
                return True
            except StopIteration as done:
                self.end = done.value
            except TrainingDiverged as exc:
                self.end = exc
        return False


# numpy's float warnings are silenced where a FloatingPointError becomes a
# reported failure; one errstate each, as numpy < 2 cannot nest one instance.
# A run's steps execute only inside a train_one call, so under its errstate.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_one(cfg: ExperimentConfig, seed: int, optimizer: str,
              data: Optional[Data] = None, idle: Optional[Callable[[], bool]] = None,
              run: Optional[_Run] = None) -> TrainedArtifact:
    """Train one model with one optimizer under one seed.

    ``idle`` is called while an IVON run waits on its noise producer (see
    ``rng.normal_feed``); ``run``, a run begun elsewhere, is finished
    instead of a new one.
    """
    run = run or _Run(_steps(cfg, seed, optimizer, data, idle))
    while run.advance():
        pass
    if isinstance(run.end, TrainingDiverged):
        raise run.end
    return run.end


def train_seed(cfg: ExperimentConfig, seed: int, optimizers: Tuple[str, ...],
               data: Data) -> Dict[str, Union[TrainedArtifact, dict]]:
    """Each optimizer's run for one seed: its artifact, or the failure
    record of the TrainingDiverged that ended it; every value pickles.

    With both optimizers, IVON's ``train_one`` advances the AdamW run one
    step per idle call, and AdamW's ``train_one`` finishes it. The runs
    share no state, so the bytes are those of one run after the other, and
    AdamW opens no feed, so nothing forks while it is suspended.
    """
    paired = set(optimizers) == {"adamw", "ivon"}
    adamw = _Run(_steps(cfg, seed, "adamw", data, None)) if paired else None
    out: Dict[str, Union[TrainedArtifact, dict]] = {}
    for method in ("ivon", "adamw") if paired else optimizers:
        try:
            out[method] = train_one(cfg, seed, method, data=data,
                                    idle=adamw.advance if adamw and method == "ivon" else None,
                                    run=adamw if method == "adamw" else None)
        except TrainingDiverged as exc:
            out[method] = exc.record()
    return {method: out[method] for method in optimizers}


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
def evaluate_one(artifact: TrainedArtifact, dev: model.Batch,
                 cfg: ExperimentConfig) -> List[EvalResult]:
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
              cfg: ExperimentConfig, grid: Grid) -> List[EvalResult]:
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
    for ev in evals:  # in (seed, method) order, as _run_jobs gathers them
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_job(cfg: ExperimentConfig, seed: int, method: str, data: Data,
            art: Union[TrainedArtifact, dict], grid: Optional[Grid] = None):
    """Score one run from its artifact, or pass on the failure record that
    ended its training; ``grid`` scores by ``_mc_evals``. Returns (art,
    evals, None) or (art or None, [], failure record); every argument pickles."""
    if isinstance(art, dict):
        return None, [], art
    try:
        return art, (evaluate_one(art, data[1], cfg) if grid is None else
                     _mc_evals(art, template(cfg, art.sizes, seed), data[1], cfg, grid)), None
    except FloatingPointError as exc:  # e.g. a posterior draw overflows
        return art, [], TrainingDiverged(method, seed, art.steps, f"evaluation: {exc}").record()


def _run_jobs(cfg: ExperimentConfig, data: Data, optimizers: Tuple[str, ...],
              artifacts: Optional[Artifacts] = None, grid: Optional[Grid] = None):
    """``run_job`` over every (seed, optimizer) in that order, each seed's
    missing runs trained first by ``train_seed``: the artifacts, every
    EvalResult, and the failure records."""
    artifacts = artifacts or {}
    jobs, results = [], []
    for seed in sorted(cfg.seeds):
        trained = train_seed(cfg, seed, tuple(m for m in optimizers if (m, seed) not in artifacts),
                             data)
        for method in optimizers:
            art = trained.get(method) or artifacts[(method, seed)]
            jobs.append((seed, method))
            results.append(run_job(cfg, seed, method, data, art, grid))
    return ({(m, s): art for (s, m), (art, _, _) in zip(jobs, results) if art is not None},
            [ev for _, evs, _ in results for ev in evs], [f for _, _, f in results if f])


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train and evaluate every (seed, method) pair and aggregate."""
    validate_config(cfg)
    train, dev = load_data(cfg)
    artifacts, evals, failures = _run_jobs(cfg, (train, dev), methods(cfg))
    for failure in failures:
        log.error("%s", TrainingDiverged(**failure))
    return ExperimentResult(_aggregate(evals), evals, artifacts, failures, train, dev)


def sweep(cfg: ExperimentConfig, axis: str, artifacts: Optional[Artifacts] = None,
          data: Optional[Data] = None) -> List[dict]:
    """Evaluate the axis's ``[sweep]`` grid on fixed trained posteriors.

    No retraining happens across values; each seed's posterior is
    trained once (or taken from a previous run's artifacts). A failed
    run raises the first failure in seed order, once every seed has run.
    """
    if axis not in ("mc_samples", "temperature"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    key = "mc_grid" if axis == "mc_samples" else "temperature_grid"
    if not getattr(cfg.sweep, key):
        raise ConfigError(f"sweep.{key} must be non-empty")
    validate_config(cfg)
    grid = ([(int(v), 1.0) for v in cfg.sweep.mc_grid] if axis == "mc_samples" else
            [(cfg.eval.mc_samples[0], float(v)) for v in cfg.sweep.temperature_grid])
    data = data if data is not None else load_data(cfg)
    _, evals, failures = _run_jobs(cfg, data, ("ivon",), artifacts, grid)
    if failures:
        raise TrainingDiverged(**failures[0])
    return [{"axis_value": k if axis == "mc_samples" else t, "seed": ev.seed,
             **{m: ev.values[m] for m in SWEEP_KEYS}}
            for (k, t), ev in zip(itertools.cycle(grid), evals)]
