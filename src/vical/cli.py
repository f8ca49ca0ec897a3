"""Command-line interface.

Subcommands: gen-data, train, eval, run, sweep. Exit codes: 0 success,
2 configuration error, 3 data error, 4 run failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

import numpy as np

from . import experiment, metrics, report
from .config import ConfigError, ExperimentConfig, load_config
from .data import DataError, generate_dataset, save_csv
from .experiment import TrainingDiverged

log = logging.getLogger("vical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vical",
        description="Train a small classifier with a variational (IVON) or "
                    "AdamW optimizer and measure accuracy, calibration, and "
                    "selective prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, optimizer: bool = True) -> None:
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--seed", type=int, help="run a single seed")
        p.add_argument("--seeds", type=int, metavar="N",
                       help="run seeds 0..N-1 (overrides the config list)")
        p.add_argument("--out", metavar="DIR", help="output directory")
        if optimizer:
            p.add_argument("--optimizer", choices=["adamw", "ivon", "both"])

    p = sub.add_parser("gen-data", help="write train.csv/dev.csv for the "
                                        "configured synthetic task")
    common(p, optimizer=False)

    p = sub.add_parser("train", help="train one seed and save the artifact")
    common(p)

    p = sub.add_parser("eval", help="train one seed, evaluate, export curves")
    common(p)
    p.add_argument("--mc-samples", type=int, metavar="K",
                   help="evaluate MC prediction with K samples")
    p.add_argument("--temperature", type=float, metavar="T",
                   help="sampling temperature for MC evaluation")

    p = sub.add_parser("run", help="full multi-seed experiment with reports")
    common(p)

    p = sub.add_parser("sweep", help="sweep an inference-time axis on fixed "
                                     "trained posteriors")
    common(p, optimizer=False)
    p.add_argument("--axis", choices=["mc_samples", "temperature"],
                   required=True)
    return parser


def _configure(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seeds", None) is not None:
        if args.seeds < 1:
            raise ConfigError("--seeds must be >= 1")
        cfg.seeds = list(range(args.seeds))
    if getattr(args, "seed", None) is not None:
        cfg.seeds = [args.seed]
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "optimizer", None):
        cfg.optimizer = args.optimizer
    if getattr(args, "mc_samples", None) is not None:
        if args.mc_samples < 1:
            raise ConfigError("--mc-samples must be >= 1")
        cfg.eval.mc_samples = [args.mc_samples]
    if getattr(args, "temperature", None) is not None:
        if args.temperature <= 0:
            raise ConfigError("--temperature must be > 0")
        cfg.eval.temperatures = [args.temperature]
    return cfg


def _cmd_gen_data(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    spec = cfg.dataset
    if args.seed is not None:
        spec.seed = args.seed
    train, dev = generate_dataset(spec)
    os.makedirs(cfg.out_dir, exist_ok=True)
    train_path = os.path.join(cfg.out_dir, "train.csv")
    dev_path = os.path.join(cfg.out_dir, "dev.csv")
    save_csv(train, train_path)
    save_csv(dev, dev_path)
    print(f"wrote {train_path} ({len(train)} rows) and {dev_path} ({len(dev)} rows)")
    return 0


def _save_artifact(art: experiment.TrainedArtifact, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"artifact_{art.method}_seed{art.seed}.npz")
    if art.method == "adamw":
        np.savez(path, method=art.method, seed=art.seed, params=art.params,
                 epoch_losses=np.array(art.epoch_losses))
    else:
        np.savez(path, method=art.method, seed=art.seed,
                 mean=art.posterior.mean, hess=art.posterior.hess,
                 g_mom=art.posterior.g_mom, t=art.posterior.t,
                 min_hdelta=art.min_hdelta,
                 epoch_losses=np.array(art.epoch_losses))
    return path


def _cmd_train(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    seed = cfg.seeds[0]
    data = experiment.load_data(cfg)
    methods = ("adamw", "ivon") if cfg.optimizer == "both" else (cfg.optimizer,)
    for method in methods:
        art = experiment.train_one(cfg, seed, method, data=data)
        losses = ", ".join(f"{v:.4f}" for v in art.epoch_losses)
        print(f"{method} seed {seed}: {art.steps} steps, epoch losses [{losses}]")
        path = _save_artifact(art, cfg.out_dir)
        print(f"saved {path}")
    return 0


def _cmd_eval(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    seed = cfg.seeds[0]
    data = experiment.load_data(cfg)
    dev = data[1]
    methods = ("adamw", "ivon") if cfg.optimizer == "both" else (cfg.optimizer,)
    results = []
    for method in methods:
        art = experiment.train_one(cfg, seed, method, data=data)
        results.extend(experiment.evaluate_one(art, dev, cfg))

    for ev in results:
        vals = "  ".join(f"{k}={v:.4f}" for k, v in ev.values.items())
        print(f"{ev.method} (seed {ev.seed}): {vals}")

    if args.out:
        os.makedirs(cfg.out_dir, exist_ok=True)
        report.write_eval_csv(results, os.path.join(cfg.out_dir, "eval_metrics.csv"))
        # curve export covers the point and mean predictors
        scores = {ev.method: metrics.records_from_probs(ev.probs, dev.labels)
                  for ev in results if ev.probs is not None}
        report.write_curve_csv(scores, os.path.join(cfg.out_dir, "risk_coverage.csv"))
        report.write_reliability_csv(scores, cfg.eval.ece_bins,
                                     os.path.join(cfg.out_dir, "reliability.csv"))
        print(f"wrote metrics and curves under {cfg.out_dir}")
    return 0


def _cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    result = experiment.run_experiment(cfg)
    with open(os.path.join(cfg.out_dir, "report.txt"), "r", encoding="utf-8") as fh:
        print(fh.read(), end="")
    if result.failures:
        log.error("%d run(s) failed; see metadata.json", len(result.failures))
        return 4
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    values = (cfg.sweep.mc_grid if args.axis == "mc_samples"
              else cfg.sweep.temperature_grid)
    rows = experiment.sweep(cfg, args.axis, values, out_dir=cfg.out_dir)
    print(f"wrote sweep_{args.axis}.csv with {len(rows)} rows under {cfg.out_dir}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
}


def run_cli(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = _configure(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except DataError as exc:
        log.error("data error: %s", exc)
        return 3
    except TrainingDiverged as exc:
        log.error("run failure: %s", exc)
        return 4


def main() -> None:
    sys.exit(run_cli())
