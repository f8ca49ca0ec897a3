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
import math
from dataclasses import dataclass, field, fields, asdict
from typing import List, Optional, Tuple, get_args, get_origin, get_type_hints

from .data import MAX_ELEMENTS, DataError, DatasetSpec, validate_spec
from .model import lora_n_params, n_params
from .optim import AdamwConfig, IvonConfig


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2 in the CLI."""


# metrics.reliability_table loops once per bin and reliability.csv gets a row per bin
MAX_ECE_BINS = 10_000


@dataclass
class EvalSettings:
    mc_samples: List[int] = field(default_factory=lambda: [8])
    temperatures: List[float] = field(default_factory=lambda: [1.0])
    ece_bins: int = 10


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


# INI section -> (the nested dataclass field it writes to, or None, and the
# ExperimentConfig fields it writes directly). Key types come from the
# dataclass annotations.
_SECTIONS = {
    "dataset": ("dataset", ("train_csv", "dev_csv")),
    "model": (None, ("hidden_sizes", "lora", "lora_rank", "lora_alpha")),
    "adamw": ("adamw", ()),
    "ivon": ("ivon", ()),
    "train": (None, ("epochs", "batch_size")),
    "eval": ("eval", ()),
    "sweep": ("sweep", ()),
    "run": (None, ("seeds", "optimizer", "out_dir")),
}


def _section_keys(cfg: ExperimentConfig, section: str) -> dict:
    """Each INI key of ``section`` mapped to the object that holds it."""
    nested, top = _SECTIONS[section]
    keys = {}
    if nested:
        obj = getattr(cfg, nested)
        keys = {f.name: obj for f in fields(obj)}
    keys.update((key, cfg) for key in top)
    return keys


def _parse(raw: str, hint):
    """An INI value as the annotated type: int, float, bool, str,
    Optional[str] or a comma-separated List/Tuple of int or float."""
    origin = get_origin(hint)
    if origin in (list, tuple):
        item = get_args(hint)[0]
        return origin(_parse(v.strip(), item) for v in raw.split(",") if v.strip())
    if hint is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES  # 1/yes/true/on, 0/no/false/off
        if raw.lower() not in states:
            raise ValueError(raw)
        return states[raw.lower()]
    if hint == Optional[str]:
        return raw or None  # an empty value means unset
    return hint(raw) if hint in (int, float) else raw


def load_config(path: Optional[str]) -> ExperimentConfig:
    """Defaults, overridden by an INI file when given."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
        items = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:  # items() interpolates "%"
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section, pairs in items.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        targets = _section_keys(cfg, section)
        for key, raw in pairs:
            if key not in targets:
                raise ConfigError(f"unknown key {section}.{key}")
            obj = targets[key]
            try:
                value = _parse(raw.strip(), get_type_hints(type(obj))[key])
            except ValueError:
                raise ConfigError(f"bad value for {section}.{key}: {raw.strip()!r}") from None
            setattr(obj, key, value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Every check a config must pass before any data or training."""
    for section in _SECTIONS:
        for key, obj in _section_keys(cfg, section).items():
            value = getattr(obj, key)
            values = value if isinstance(value, (list, tuple)) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{section}.{key} must be finite")
    try:
        validate_spec(cfg.dataset)
    except DataError as exc:
        raise ConfigError(f"dataset: {exc}") from None
    if any("\0" in (path or "") for path in (cfg.out_dir, cfg.train_csv, cfg.dev_csv)):
        raise ConfigError("run.out_dir, dataset.train_csv and dataset.dev_csv "
                          "must not hold a NUL byte")
    if (cfg.train_csv is None) != (cfg.dev_csv is None):
        raise ConfigError("set both dataset.train_csv and dataset.dev_csv, or neither")
    if any(h < 1 for h in cfg.hidden_sizes):
        raise ConfigError("model.hidden_sizes entries must be >= 1")
    sizes = (cfg.dataset.n_features, *cfg.hidden_sizes, cfg.dataset.n_classes)
    if n_params(sizes) > MAX_ELEMENTS:
        raise ConfigError(f"model.hidden_sizes give more than {MAX_ELEMENTS:,} parameters "
                          "(for [dataset]'s n_features and n_classes)")
    if cfg.lora and cfg.lora_rank < 1:
        raise ConfigError("model.lora_rank must be >= 1")
    if cfg.lora and lora_n_params(sizes, cfg.lora_rank) > MAX_ELEMENTS:
        raise ConfigError(f"model.lora_rank gives more than {MAX_ELEMENTS:,} LoRA factor "
                          "entries (for model.hidden_sizes and [dataset])")
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
    if len(set(cfg.eval.mc_samples)) != len(cfg.eval.mc_samples):
        raise ConfigError("eval.mc_samples contains duplicates")
    if not cfg.eval.temperatures or any(t <= 0 for t in cfg.eval.temperatures):
        raise ConfigError("eval.temperatures must be positive")
    # each temperature names its report rows by f"{t:g}" (experiment.mc_tag)
    if len({f"{t:g}" for t in cfg.eval.temperatures}) != len(cfg.eval.temperatures):
        raise ConfigError("eval.temperatures must differ in their first 6 "
                          "significant digits (they name the report rows)")
    if not 1 <= cfg.eval.ece_bins <= MAX_ECE_BINS:
        raise ConfigError(f"eval.ece_bins must lie in [1, {MAX_ECE_BINS:,}]")
    if any(k < 1 for k in cfg.sweep.mc_grid):
        raise ConfigError("sweep.mc_grid values must be >= 1")
    if any(t <= 0 for t in cfg.sweep.temperature_grid):
        raise ConfigError("sweep.temperature_grid values must be > 0")
    for grid in ("mc_grid", "temperature_grid"):  # a repeat repeats its sweep rows
        if len(set(getattr(cfg.sweep, grid))) != len(getattr(cfg.sweep, grid)):
            raise ConfigError(f"sweep.{grid} contains duplicates")
    if cfg.optimizer not in ("adamw", "ivon", "both"):
        raise ConfigError("run.optimizer must be adamw, ivon, or both")
    if not cfg.seeds:
        raise ConfigError("run.seeds must be non-empty")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError("run.seeds contains duplicates")


def config_dict(cfg: ExperimentConfig) -> dict:
    """The experiment's settings; ``out_dir`` says only where outputs go."""
    out = asdict(cfg)
    out["hidden_sizes"] = list(cfg.hidden_sizes)
    del out["out_dir"]
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_dict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
