"""Command-line interface.

Subcommands: gen-data, train, eval, run, sweep. Exit codes: 0 success,
2 configuration or output error (a bad INI file or flag, a size past
``data.MAX_ELEMENTS`` = 2**26 values, or an output directory that cannot be
created, all found before any data is read; or a write that fails later,
which leaves the old file whole), 3 data error, 4 run failure. ``run_cli``
alone picks the code: each command returns its failures.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys
from typing import List, Optional

from . import experiment, report
from .config import ConfigError, ExperimentConfig, load_config, validate_config
from .data import DataError, csv_text, generate_dataset
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

    def common(p: argparse.ArgumentParser, optimizer: bool = True,
               seeds: bool = False, out: bool = True) -> None:
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--seed", type=int, help="run a single seed")
        if seeds:
            p.add_argument("--seeds", type=int, metavar="N",
                           help="run seeds 0..N-1 (overrides the config list)")
        if out:
            p.add_argument("--out", metavar="DIR", help="output directory")
        if optimizer:
            p.add_argument("--optimizer", choices=["adamw", "ivon", "both"])

    p = sub.add_parser("gen-data", help="write train.csv/dev.csv for the "
                                        "configured synthetic task")
    common(p, optimizer=False)

    p = sub.add_parser("train", help="train one seed and print its epoch losses")
    common(p, out=False)

    p = sub.add_parser("eval", help="train one seed, evaluate, export curves")
    common(p)
    p.add_argument("--mc-samples", type=int, metavar="K",
                   help="evaluate MC prediction with K samples")
    p.add_argument("--temperature", type=float, metavar="T",
                   help="sampling temperature for MC evaluation")

    p = sub.add_parser("run", help="full multi-seed experiment with reports")
    common(p, seeds=True)

    p = sub.add_parser("sweep", help="sweep an inference-time axis on fixed "
                                     "trained posteriors")
    common(p, optimizer=False, seeds=True)
    p.add_argument("--axis", choices=["mc_samples", "temperature"],
                   required=True)
    return parser


def _configure(args: argparse.Namespace) -> ExperimentConfig:
    """The loaded config with the command-line overrides, validated."""
    cfg = load_config(args.config)
    if getattr(args, "seeds", None) is not None:
        cfg.seeds = list(range(args.seeds))
    if getattr(args, "seed", None) is not None:
        cfg.seeds = [args.seed]
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "optimizer", None):
        cfg.optimizer = args.optimizer
    if getattr(args, "mc_samples", None) is not None:
        cfg.eval.mc_samples = [args.mc_samples]
    if getattr(args, "temperature", None) is not None:
        cfg.eval.temperatures = [args.temperature]
    validate_config(cfg)
    return cfg


def _cmd_gen_data(cfg: ExperimentConfig, args: argparse.Namespace) -> List[TrainingDiverged]:
    spec = cfg.dataset
    if args.seed is not None:
        spec.seed = args.seed
    train, dev = generate_dataset(spec)
    train_path = os.path.join(cfg.out_dir, "train.csv")
    dev_path = os.path.join(cfg.out_dir, "dev.csv")
    report.write_text(train_path, csv_text(train))
    report.write_text(dev_path, csv_text(dev))
    print(f"wrote {train_path} ({len(train)} rows) and {dev_path} ({len(dev)} rows)")
    return []


def _cmd_train(cfg: ExperimentConfig, args: argparse.Namespace) -> List[TrainingDiverged]:
    seed = cfg.seeds[0]
    data = experiment.load_data(cfg)
    for method, art in experiment.train_seed(cfg, seed, experiment.methods(cfg), data).items():
        if isinstance(art, TrainingDiverged):
            raise art
        losses = ", ".join(f"{v:.4f}" for v in art.epoch_losses)
        print(f"{method} seed {seed}: {art.steps} steps, epoch losses [{losses}]")
    return []


def _cmd_eval(cfg: ExperimentConfig, args: argparse.Namespace) -> List[TrainingDiverged]:
    cfg.seeds = cfg.seeds[:1]
    result = experiment.run_experiment(cfg)
    for ev in result.evals:
        vals = "  ".join(f"{k}={v:.4f}" for k, v in ev.values.items())
        print(f"{ev.method} (seed {ev.seed}): {vals}")
    if args.out:
        report.emit_eval(result, cfg, cfg.out_dir)
        print(f"wrote metrics and curves under {cfg.out_dir}")
    return result.failures  # run_experiment logged each one


def _cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> List[TrainingDiverged]:
    result = experiment.run_experiment(cfg)
    print(report.emit_report(result, cfg, cfg.out_dir), end="")
    if result.failures:
        log.error("%d run(s) failed; see metadata.json", len(result.failures))
    return result.failures


def _cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> List[TrainingDiverged]:
    rows = experiment.sweep(cfg, args.axis)
    report.write_sweep_csv(rows, args.axis, cfg.out_dir)
    print(f"wrote sweep_{args.axis}.csv with {len(rows)} rows under {cfg.out_dir}")
    return []  # a failed run raised TrainingDiverged


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
}


def _openblas_libs() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []


def _openblas_symbol(*names: str):
    """The first of ``names`` that a loaded OpenBLAS exports, or None."""
    for lib in _openblas_libs():
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # e.g. a mapping whose file was deleted
            continue
        for name in names:
            found = getattr(handle, name, None)
            if found is not None:
                return found
    return None


def _set_blas_threads(n: int) -> None:
    """Run the loaded OpenBLAS on n threads, or log that it cannot be set."""
    setter = _openblas_symbol("scipy_openblas_set_num_threads64_",
                              "openblas_set_num_threads64_", "openblas_set_num_threads")
    if setter is None:
        log.info("no OpenBLAS thread setter found; BLAS keeps its thread count")
        return
    setter.restype, setter.argtypes = None, [ctypes.c_int]
    setter(n)


def run_cli(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    # vical's GEMMs (4 x 16 x 768 per training step, 1,000 x 16 x 768 at
    # most) are too small to share: a second thread costs CPU and memory for
    # little or no wall time, and gives the same bytes. Library callers keep
    # their own setting.
    _set_blas_threads(1)
    try:
        cfg = _configure(args)
        if args.command in ("gen-data", "run", "sweep") or getattr(args, "out", None):
            os.makedirs(cfg.out_dir, exist_ok=True)  # before any data is read
        return 4 if _COMMANDS[args.command](cfg, args) else 0
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except DataError as exc:
        log.error("data error: %s", exc)
        return 3
    except TrainingDiverged as exc:
        log.error("run failure: %s", exc)
        return 4
    except OSError as exc:  # the output directory, or a write under it
        log.error("output error: %s", exc)
        return 2


def main() -> None:
    sys.exit(run_cli())
