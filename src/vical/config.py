"""Experiment configuration: defaults, INI parsing, validation, hashing.

Config files are flat INI (section.key = value). Every hyperparameter
has a key; the shipped defaults define the standard desk-scale task.
Two deliberate departures from the reference training recipe are
documented in the repository notes: the effective sample size default
(1e6 instead of 1e7, so posterior noise is visible at this parameter
count) and elementwise gradient clipping for IVON (its learning rate
assumes gradient scales this small task does not produce).
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, asdict
from typing import List, Optional, Tuple

from .data import DatasetSpec
from .optim import AdamwConfig, IvonConfig


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2 in the CLI."""


@dataclass
class EvalSettings:
    mc_samples: List[int] = field(default_factory=lambda: [8])
    temperatures: List[float] = field(default_factory=lambda: [1.0])
    ece_bins: int = 10
    risk_budgets: List[float] = field(default_factory=lambda: [0.01, 0.05, 0.10])


@dataclass
class SweepSettings:
    mc_grid: List[int] = field(default_factory=lambda: [1, 2, 4, 8, 16, 32])
    temperature_grid: List[float] = field(default_factory=lambda: [1.0, 10.0, 1e3, 1e12])


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=lambda: DatasetSpec(
        n_classes=4, n_features=16, n_train=2000, n_dev=1000,
        separation=3.25, label_noise=0.1, seed=17,
    ))
    train_csv: Optional[str] = None  # set both to use files instead of synthesis
    dev_csv: Optional[str] = None
    hidden_sizes: Tuple[int, ...] = (768,)
    lora: bool = False
    lora_rank: int = 8
    lora_alpha: float = 16.0
    adamw: AdamwConfig = field(default_factory=lambda: AdamwConfig(
        lr=5e-5, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0,
    ))
    ivon: IvonConfig = field(default_factory=lambda: IvonConfig(
        lr=0.03, ess=1e6, hess_init=1e-3, weight_decay=0.0,
        beta1=0.9, beta2=1.0 - 1e-5, train_samples=1, grad_clip=1e-5,
    ))
    epochs: int = 3
    batch_size: int = 4
    eval: EvalSettings = field(default_factory=EvalSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    seeds: List[int] = field(default_factory=lambda: list(range(10)))
    optimizer: str = "both"  # adamw | ivon | both
    out_dir: str = "runs/default"


_SCHEMA = {
    "dataset": {
        "n_classes": int, "n_features": int, "n_train": int, "n_dev": int,
        "separation": float, "label_noise": float, "seed": int,
        "train_csv": str, "dev_csv": str,
    },
    "model": {"hidden_sizes": "int_list", "lora": bool, "lora_rank": int,
              "lora_alpha": float},
    "adamw": {"lr": float, "beta1": float, "beta2": float, "eps": float,
              "weight_decay": float},
    "ivon": {"lr": float, "ess": float, "hess_init": float, "weight_decay": float,
             "beta1": float, "beta2": float, "train_samples": int,
             "grad_clip": float},
    "train": {"epochs": int, "batch_size": int},
    "eval": {"mc_samples": "int_list", "temperatures": "float_list",
             "ece_bins": int, "risk_budgets": "float_list"},
    "sweep": {"mc_grid": "int_list", "temperature_grid": "float_list"},
    "run": {"seeds": "int_list", "optimizer": str, "out_dir": str},
}


def _coerce(raw: str, kind, where: str):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "int_list":
            return [int(v) for v in raw.split(",") if v.strip()] if raw else []
        if kind == "float_list":
            return [float(v) for v in raw.split(",") if v.strip()] if raw else []
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {where}: {raw!r}") from None


def load_config(path: Optional[str]) -> ExperimentConfig:
    """Defaults, overridden by an INI file when given."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            value = _coerce(raw, _SCHEMA[section][key], f"{section}.{key}")
            _apply(cfg, section, key, value)
    validate_config(cfg)
    return cfg


def _apply(cfg: ExperimentConfig, section: str, key: str, value) -> None:
    if section == "dataset":
        if key in ("train_csv", "dev_csv"):
            setattr(cfg, key, value)
        else:
            setattr(cfg.dataset, key, value)
    elif section == "model":
        if key == "hidden_sizes":
            cfg.hidden_sizes = tuple(value)
        else:
            setattr(cfg, key, value)
    elif section == "adamw":
        setattr(cfg.adamw, key, value)
    elif section == "ivon":
        setattr(cfg.ivon, key, value)
    elif section == "train":
        setattr(cfg, key, value)
    elif section == "eval":
        setattr(cfg.eval, key, value)
    elif section == "sweep":
        setattr(cfg.sweep, key, value)
    elif section == "run":
        setattr(cfg, key, value)


def validate_config(cfg: ExperimentConfig) -> None:
    ds = cfg.dataset
    if ds.n_classes < 2:
        raise ConfigError("dataset.n_classes must be >= 2")
    if not 0.0 <= ds.label_noise < 1.0:
        raise ConfigError("dataset.label_noise must lie in [0, 1)")
    if (cfg.train_csv is None) != (cfg.dev_csv is None):
        raise ConfigError("set both dataset.train_csv and dataset.dev_csv, or neither")
    if any(h < 1 for h in cfg.hidden_sizes):
        raise ConfigError("model.hidden_sizes entries must be >= 1")
    if cfg.lora and cfg.lora_rank < 1:
        raise ConfigError("model.lora_rank must be >= 1")
    for name, opt in (("adamw", cfg.adamw), ("ivon", cfg.ivon)):
        if opt.lr <= 0:
            raise ConfigError(f"{name}.lr must be > 0")
        if not (0.0 < opt.beta1 < 1.0 and 0.0 < opt.beta2 < 1.0):
            raise ConfigError(f"{name}.beta1/beta2 must lie in (0, 1)")
    if cfg.adamw.eps <= 0:
        raise ConfigError("adamw.eps must be > 0")
    if cfg.ivon.ess <= 0:
        raise ConfigError("ivon.ess must be > 0")
    if cfg.ivon.hess_init + cfg.ivon.weight_decay <= 0:
        raise ConfigError("ivon.hess_init + ivon.weight_decay must be > 0")
    if cfg.ivon.train_samples < 1:
        raise ConfigError("ivon.train_samples must be >= 1")
    if cfg.ivon.grad_clip < 0:
        raise ConfigError("ivon.grad_clip must be >= 0 (0 disables)")
    if cfg.epochs < 1 or cfg.batch_size < 1:
        raise ConfigError("train.epochs and train.batch_size must be >= 1")
    if not cfg.eval.mc_samples or any(k < 1 for k in cfg.eval.mc_samples):
        raise ConfigError("eval.mc_samples must be a non-empty list of counts >= 1")
    if not cfg.eval.temperatures or any(t <= 0 for t in cfg.eval.temperatures):
        raise ConfigError("eval.temperatures must be positive")
    if cfg.eval.ece_bins < 1:
        raise ConfigError("eval.ece_bins must be >= 1")
    if len(cfg.eval.risk_budgets) != 3:
        raise ConfigError("eval.risk_budgets needs exactly 3 entries "
                          "(the c_at_1/c_at_5/c_at_10 report columns)")
    if any(not 0.0 <= r <= 1.0 for r in cfg.eval.risk_budgets):
        raise ConfigError("eval.risk_budgets must lie in [0, 1]")
    if sorted(cfg.eval.risk_budgets) != list(cfg.eval.risk_budgets):
        raise ConfigError("eval.risk_budgets must be non-decreasing")
    if any(k < 1 for k in cfg.sweep.mc_grid):
        raise ConfigError("sweep.mc_grid values must be >= 1")
    if any(t <= 0 for t in cfg.sweep.temperature_grid):
        raise ConfigError("sweep.temperature_grid values must be > 0")
    if cfg.optimizer not in ("adamw", "ivon", "both"):
        raise ConfigError("run.optimizer must be adamw, ivon, or both")
    if not cfg.seeds:
        raise ConfigError("run.seeds must be non-empty")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError("run.seeds contains duplicates")


def config_dict(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    out["hidden_sizes"] = list(cfg.hidden_sizes)
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_dict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
