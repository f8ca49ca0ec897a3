import ast
import configparser
import copy
import hashlib
import importlib.util
import inspect
import json
import logging
import os
import pickle
import subprocess
import sys
import time
import warnings
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import host_fingerprint
from vical import _kernels, cli, config, data, experiment, model, optim, report, rng
from vical.config import (
    MAX_ECE_BINS, ConfigError, EvalSettings, ExperimentConfig, config_dict, config_hash,
    load_config, validate_config,
)
from vical.experiment import ReportRow, TrainingDiverged

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _small_cfg(out_dir=None, **overrides):
    cfg = ExperimentConfig()
    cfg.dataset = data.DatasetSpec(
        n_classes=3, n_features=6, n_train=96, n_dev=60,
        separation=2.5, label_noise=0.1, seed=5,
    )
    cfg.hidden_sizes = (12,)
    cfg.epochs = 1
    cfg.batch_size = 8
    cfg.seeds = [0, 1]
    if out_dir is not None:
        cfg.out_dir = str(out_dir)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


SMALL_INI = """\
[dataset]
n_classes = 3
n_features = 6
n_train = 96
n_dev = 60
separation = 2.5
label_noise = 0.1
seed = 5

[model]
hidden_sizes = 12

[train]
epochs = 1
batch_size = 8

[run]
seeds = 0,1
"""


# ---------------------------------------------------------------- config ---

def test_default_config_is_valid():
    cfg = ExperimentConfig()
    validate_config(cfg)
    assert cfg.optimizer == "both"


def test_config_hash_is_stable_and_sensitive():
    assert config_hash(ExperimentConfig()) == config_hash(ExperimentConfig())
    changed = ExperimentConfig()
    changed.epochs += 1
    assert config_hash(changed) != config_hash(ExperimentConfig())
    # where the outputs go is not part of the experiment
    moved = ExperimentConfig()
    moved.out_dir = "elsewhere"
    assert config_hash(moved) == config_hash(ExperimentConfig())


def test_config_dict_is_json_serializable():
    blob = json.dumps(config_dict(ExperimentConfig()), sort_keys=True)
    assert "hidden_sizes" in blob


def test_load_config_overrides_defaults(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[dataset]\nn_classes = 5\nseed = 3  # inline comment\n"
        "[model]\nhidden_sizes = 32,16\nlora = yes\n"
        "[ivon]\ness = 1e7\n"
        "[eval]\nmc_samples = 4,8\n"
        "[run]\nseeds = 0,1,2\noptimizer = ivon\n",
        encoding="utf-8",
    )
    cfg = load_config(str(path))
    assert cfg.dataset.n_classes == 5 and cfg.dataset.seed == 3
    assert cfg.hidden_sizes == (32, 16) and cfg.lora is True
    assert cfg.ivon.ess == 1e7
    assert cfg.eval.mc_samples == [4, 8]
    assert cfg.seeds == [0, 1, 2] and cfg.optimizer == "ivon"


def test_shipped_configs_load():
    here = os.path.dirname(os.path.abspath(__file__))
    configs = os.path.join(os.path.dirname(here), "configs")
    default = load_config(os.path.join(configs, "default.ini"))
    assert config_dict(default) == config_dict(ExperimentConfig())
    assert default.out_dir == ExperimentConfig().out_dir
    assert load_config(os.path.join(configs, "large-ess.ini")).ivon.ess == 1e7


def test_load_config_rejects_unknown_names(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[nosuch]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(str(path))
    path.write_text("[dataset]\nnosuch = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key dataset.nosuch"):
        load_config(str(path))
    # the C@1%/C@5%/C@10% columns name their budgets, so they are not settable
    path.write_text("[eval]\nrisk_budgets = 0.02, 0.05, 0.2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key eval.risk_budgets"):
        load_config(str(path))
    path.write_text("[train]\nepochs = three\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value for train.epochs"):
        load_config(str(path))
    path.write_text("[model]\nlora = maybe\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value for model.lora"):
        load_config(str(path))
    path.write_text("[ivon]\ness = nan\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="ivon.ess must be finite"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.ini"))
    # malformed INI text and non-UTF-8 bytes name the file
    for body in (b"foo = 1\n", b"[run]\nseeds = 0\nseeds = 1\n", b"[run]\n  orphan\n",
                 b"[run]\nout_dir = 100%\n", b"\x89PNG\r\n\x1a\n\xff\xfe"):
        path.write_bytes(body)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value).startswith(f"{path}: ") and "\n" not in str(exc.value), body
    # a NUL byte in a path value would reach the OS and raise ValueError there
    for body in (b"[run]\nout_dir = a\0b\n", b"[dataset]\ntrain_csv = a\0b\ndev_csv = c\n",
                 b"[dataset]\ntrain_csv = a\ndev_csv = c\0\n"):
        path.write_bytes(body)
        with pytest.raises(ConfigError, match="must not hold a NUL byte"):
            load_config(str(path))


def test_validate_config_invariants():
    for breakage in (
        {"optimizer": "sgd"},
        {"seeds": []},
        {"seeds": [1, 1]},
        {"epochs": 0},
        {"batch_size": 0},
        {"hidden_sizes": (0,)},
        {"hidden_sizes": (99999999999,)},  # past data.MAX_ELEMENTS parameters
        {"lora": True, "lora_rank": 99999999999},  # past data.MAX_ELEMENTS LoRA factors
        {"eval": EvalSettings(ece_bins=0)},
        {"eval": EvalSettings(ece_bins=MAX_ECE_BINS + 1)},
    ):
        cfg = _small_cfg(**breakage)
        with pytest.raises(ConfigError):
            validate_config(cfg)
    validate_config(_small_cfg(eval=EvalSettings(ece_bins=MAX_ECE_BINS)))

    cfg = _small_cfg()
    cfg.train_csv = "only_train.csv"
    with pytest.raises(ConfigError, match="both"):
        validate_config(cfg)
    cfg = _small_cfg()
    cfg.sweep.mc_grid = [0, 1]
    with pytest.raises(ConfigError, match="mc_grid"):
        validate_config(cfg)
    cfg = _small_cfg()
    cfg.sweep.temperature_grid = [-1.0]
    with pytest.raises(ConfigError, match="temperature_grid"):
        validate_config(cfg)
    # a repeated grid value would repeat its rows in the sweep CSV
    for grid, values in (("mc_grid", [4, 4]), ("temperature_grid", [10.0, 10.0])):
        cfg = _small_cfg()
        setattr(cfg.sweep, grid, values)
        with pytest.raises(ConfigError, match=f"sweep.{grid} contains duplicates"):
            validate_config(cfg)

    # two MC settings with one report tag would merge their rows
    cfg = _small_cfg()
    cfg.eval.mc_samples = [2, 2]
    with pytest.raises(ConfigError, match="mc_samples contains duplicates"):
        validate_config(cfg)
    cfg = _small_cfg()
    cfg.eval.temperatures = [10.0, 10.000001]
    with pytest.raises(ConfigError, match="eval.temperatures must differ"):
        validate_config(cfg)
    # the dataset spec is checked here too, and every float must be finite
    cfg = _small_cfg()
    cfg.dataset.n_features = 2
    with pytest.raises(ConfigError, match="n_features >= n_classes"):
        validate_config(cfg)
    for owner, key, where in (("ivon", "grad_clip", "ivon.grad_clip"),
                              ("dataset", "separation", "dataset.separation")):
        for bad in (float("nan"), float("inf")):
            cfg = _small_cfg()
            setattr(getattr(cfg, owner), key, bad)
            with pytest.raises(ConfigError, match=f"{where} must be finite"):
                validate_config(cfg)
    cfg = _small_cfg(lora_alpha=float("nan"))
    with pytest.raises(ConfigError, match="model.lora_alpha must be finite"):
        validate_config(cfg)
    cfg = _small_cfg()
    cfg.sweep.temperature_grid = [1.0, float("inf")]
    with pytest.raises(ConfigError, match="sweep.temperature_grid must be finite"):
        validate_config(cfg)


def test_default_ini_names_every_key_once():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(os.path.dirname(here), "configs", "default.ini")
    named, section = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if line.startswith("["):
                section = line.strip("[]")
            elif "=" in line:
                named.append(f"{section}.{line.split('=')[0].strip()}")
    cfg = ExperimentConfig()
    every = [f"{section}.{key}" for section in config._SECTIONS
             for key in config._section_keys(cfg, section)]
    assert sorted(named) == sorted(every)
    assert len(set(every)) == len(every)
    # and every config field is an INI key (config_dict leaves out run.out_dir)
    fields = config_dict(cfg).values()
    assert len(every) == 1 + sum(len(v) if isinstance(v, dict) else 1 for v in fields)


# -------------------------------------------------------------- training ---

def test_train_one_is_deterministic():
    cfg = _small_cfg()
    a = experiment.train_one(cfg, 0, "adamw")
    b = experiment.train_one(cfg, 0, "adamw")
    assert np.array_equal(a.params, b.params)
    assert a.epoch_losses == b.epoch_losses
    pa = experiment.train_one(cfg, 0, "ivon")
    pb = experiment.train_one(cfg, 0, "ivon")
    assert np.array_equal(pa.posterior.mean, pb.posterior.mean)
    assert np.array_equal(pa.posterior.hess, pb.posterior.hess)


def test_train_one_seed_changes_result():
    cfg = _small_cfg()
    a = experiment.train_one(cfg, 0, "adamw")
    b = experiment.train_one(cfg, 1, "adamw")
    assert not np.array_equal(a.params, b.params)


def test_training_reduces_loss():
    cfg = _small_cfg(epochs=3)
    cfg.dataset.n_train = 240
    cfg.adamw.lr = 5e-3
    art = experiment.train_one(cfg, 0, "adamw")
    assert art.epoch_losses[-1] < art.epoch_losses[0]
    assert art.steps == 3 * (240 // 8)

    cfg.ivon.lr = 0.05
    cfg.ivon.ess = 1e5
    cfg.ivon.grad_clip = 1e-2
    ivon_art = experiment.train_one(cfg, 0, "ivon")
    assert ivon_art.epoch_losses[-1] < ivon_art.epoch_losses[0]
    assert ivon_art.min_hdelta > 0.0


def test_train_one_validates_optimizer_and_batch():
    cfg = _small_cfg()
    with pytest.raises(ConfigError):
        experiment.train_one(cfg, 0, "sgd")
    cfg.batch_size = 1000
    with pytest.raises(ConfigError, match="batch_size"):
        experiment.train_one(cfg, 0, "adamw")


def test_divergence_is_reported():
    cfg = _small_cfg()
    # a first step of size ~1e308 overflows the parameter vector
    cfg.adamw.lr = 1e308
    with pytest.raises(TrainingDiverged) as err:
        experiment.train_one(cfg, 0, "adamw")
    assert err.value.method == "adamw" and err.value.seed == 0


def test_ivon_divergence_step_pinned(tmp_path, caplog):
    # the mean's weight-decay term multiplies it by about -lr*delta/(h+delta)
    # per step until it overflows; the step is pinned so that moving the
    # finiteness checks cannot move the reported step unnoticed; the
    # overflow reaches the user as that report, never as a numpy warning
    cfg = _small_cfg(out_dir=str(tmp_path / "diverged"), optimizer="ivon", seeds=[0])
    cfg.ivon.lr = 1e60
    cfg.ivon.weight_decay = 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as err:
            experiment.train_one(cfg, 0, "ivon")
        result = experiment.run_experiment(cfg)
    assert (err.value.method, err.value.seed, err.value.step) == ("ivon", 0, 5)
    report.emit_report(result, cfg, cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "metadata.json"), encoding="utf-8") as fh:
        failures = json.load(fh)["failures"]
    assert [(f["method"], f["seed"], f["step"]) for f in failures] == [("ivon", 0, 5)]

    # through the CLI, AdamW's parameters and IVON's logits overflow too;
    # each failed run is one ERROR line and one metadata.json entry
    logits = "softmax input contains non-finite values"
    cases = [
        ("\n[adamw]\nlr = 1e307\n",
         [("adamw", 0, 4, "non-finite parameters after AdamW step"),
          ("adamw", 2, 2, "non-finite parameters after AdamW step")]),
        ("\n[ivon]\nlr = 1e305\ngrad_clip = 0\n",
         [("ivon", 0, 2, "non-finite posterior state at t=3"),
          ("ivon", 1, 2, logits), ("ivon", 2, 2, logits)]),
    ]
    for i, (extra, expected) in enumerate(cases):
        ini = _write_ini(tmp_path, SMALL_INI.replace("seeds = 0,1", "seeds = 0,1,2") + extra)
        out = str(tmp_path / f"cli{i}")
        caplog.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run_cli(["run", "--config", ini, "--out", out]) == 4
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"{m} seed {s} diverged after {t} completed steps: {d}"
                          for m, s, t, d in expected] \
            + [f"{len(expected)} run(s) failed; see metadata.json"]
        with open(os.path.join(out, "metadata.json"), encoding="utf-8") as fh:
            failures = json.load(fh)["failures"]
        assert [(f["method"], f["seed"], f["step"], f["detail"]) for f in failures] == expected


def test_lora_variant_trains():
    cfg = _small_cfg(lora=True, lora_rank=2, lora_alpha=4.0)
    art = experiment.train_one(cfg, 0, "ivon")
    # trainable vector is the adapter, far smaller than the full model
    assert art.posterior.mean.size == 2 * (6 + 12) + 2 * (12 + 3)
    rows = experiment.evaluate_one(art, data.generate_dataset(cfg.dataset)[1], cfg)
    assert [r.method for r in rows] == ["IVON Mean", "IVON MC-8"]


# sha256 of repr((epoch losses, min_hdelta)), then of the final mean and h
# bytes, of a 2-epoch IVON run with M = 2 posterior draws per step
IVON_TRAIN_SAMPLES_PIN = "3419102c4c41600d1938c8329187c0cb05fe97b89c658004e9db56b50208c933"


def test_ivon_train_samples_pinned():
    cfg = _small_cfg(epochs=2)
    cfg.ivon.train_samples = 2
    art = experiment.train_one(cfg, 0, "ivon")
    h = hashlib.sha256(repr((art.epoch_losses, art.min_hdelta)).encode("ascii"))
    h.update(art.posterior.mean.tobytes())
    h.update(art.posterior.hess.tobytes())
    assert h.hexdigest() == IVON_TRAIN_SAMPLES_PIN, host_fingerprint()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _feed_used(monkeypatch):
    """Make train_one see two usable CPUs; returns the list of its forks."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("train_samples, missing", [
    pytest.param(1, None, id="1"),
    pytest.param(2, None, id="2"),
    # no producer where the platform lacks either call: the same draws, in process
    pytest.param(1, "sched_getaffinity", id="1-no_sched_getaffinity"),
    pytest.param(1, "fork", id="1-no_fork"),
])
def test_train_one_feed_matches_one_cpu(monkeypatch, train_samples, missing):
    cfg = _small_cfg(epochs=2)
    cfg.ivon.train_samples = train_samples

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    alone = experiment.train_one(cfg, 0, "ivon")
    monkeypatch.undo()

    forks = _feed_used(monkeypatch)
    if missing:
        monkeypatch.delattr(os, missing)
    fed = experiment.train_one(cfg, 0, "ivon")
    assert forks == ([] if missing else [1])
    _no_child_left()
    assert (fed.epoch_losses, fed.min_hdelta, fed.steps) == \
        (alone.epoch_losses, alone.min_hdelta, alone.steps)
    for name in ("mean", "hess", "g_mom"):
        assert getattr(fed.posterior, name).tobytes() == getattr(alone.posterior, name).tobytes()


def test_training_leaves_no_producer_behind(monkeypatch):
    forks = _feed_used(monkeypatch)
    experiment.train_one(_small_cfg(), 0, "ivon")
    _no_child_left()

    cfg = _small_cfg()
    cfg.ivon.lr = 1e60
    cfg.ivon.weight_decay = 1e-3
    with pytest.raises(TrainingDiverged):
        experiment.train_one(cfg, 0, "ivon")
    _no_child_left()

    calls, loss = [], model.loss_and_grad

    def fails_on_fourth(params, batch):
        calls.append(1)
        if len(calls) == 4:
            raise KeyError("objective failed")
        return loss(params, batch)

    monkeypatch.setattr(model, "loss_and_grad", fails_on_fourth)
    with pytest.raises(KeyError, match="objective failed"):
        experiment.train_one(_small_cfg(), 0, "ivon")
    _no_child_left()
    experiment.train_one(_small_cfg(), 0, "adamw")  # draws no noise, so forks nothing
    assert forks == [1, 1, 1]


def _slow_feed(monkeypatch):
    """Make the feed's producer sleep before each draw, so that an IVON run
    waits on it; returns what each idle call answered (True: AdamW took a
    step in IVON's wait)."""
    answers, feed, fill = [], rng.normal_feed, _kernels.normal_fill

    def slow_fill(key, counter, n):
        time.sleep(0.002)
        return fill(key, counter, n)

    def counted_feed(state, n, idle=None):
        def counted():
            answers.append(idle())
            return answers[-1]
        return feed(state, n, counted if idle else None)

    monkeypatch.setattr(_kernels, "normal_fill", slow_fill)
    monkeypatch.setattr(rng, "normal_feed", counted_feed)
    return answers


def _same_artifact(a, b):
    assert (a.method, a.seed, a.sizes, a.epoch_losses, a.min_hdelta, a.steps) == \
        (b.method, b.seed, b.sizes, b.epoch_losses, b.min_hdelta, b.steps)
    vectors = ([a.params, b.params] if a.method == "adamw" else
               [getattr(art.posterior, name) for name in ("mean", "hess", "g_mom")
                for art in (a, b)])
    for got, want in zip(vectors[::2], vectors[1::2]):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", ["train_samples_2", "lora"])
def test_paired_runs_match_sequential_runs(monkeypatch, variant):
    # AdamW steps taken in IVON's waits change no byte of either run
    cfg = _small_cfg(epochs=2)
    if variant == "lora":
        cfg.lora, cfg.lora_rank, cfg.lora_alpha = True, 2, 4.0
    else:
        cfg.ivon.train_samples = 2
    data_ = data.generate_dataset(cfg.dataset)
    jobs = [(seed, method) for seed in cfg.seeds for method in ("adamw", "ivon")]
    alone = {(m, s): experiment.train_one(cfg, s, m, data=data_) for s, m in jobs}
    want = [ev for s, m in jobs for ev in experiment.evaluate_one(alone[(m, s)], data_[1], cfg)]

    forks = _feed_used(monkeypatch)
    answers = _slow_feed(monkeypatch)
    arts, evals, failures = experiment._run_jobs(cfg, data_, ("adamw", "ivon"))
    assert forks == [1, 1] and sum(answers) > 0 and failures == []
    _no_child_left()
    assert list(arts) == [(m, s) for s, m in jobs]
    for key, art in arts.items():
        _same_artifact(art, alone[key])
    assert _eval_digest(evals) == _eval_digest(want)


def test_paired_divergence_stays_with_its_run(monkeypatch):
    cfg = _small_cfg(seeds=[0])
    data_ = data.generate_dataset(cfg.dataset)
    for diverging, other, lr, decay, answered in [
        # AdamW overflows after 4 steps, all taken in IVON's waits
        ("adamw", "ivon", 1e307, 0.0, [True] * 4 + [False]),
        # IVON overflows after 5 steps; AdamW then finishes alone
        ("ivon", "adamw", 1e60, 1e-3, None),
    ]:
        run_cfg = copy.deepcopy(cfg)
        getattr(run_cfg, diverging).lr = lr
        getattr(run_cfg, diverging).weight_decay = decay
        # the two runs one after the other, each alone
        with pytest.raises(TrainingDiverged) as err:
            experiment.train_one(run_cfg, 0, diverging, data=data_)
        alone = experiment.train_one(run_cfg, 0, other, data=data_)
        with monkeypatch.context() as patch:
            _feed_used(patch)
            answers = _slow_feed(patch)
            arts, evals, failures = experiment._run_jobs(run_cfg, data_, ("adamw", "ivon"))
        _no_child_left()
        assert (answers == answered) if answered else (sum(answers) > 0)
        exc = err.value
        assert failures == [{"method": diverging, "seed": 0, "step": exc.step,
                             "detail": exc.detail}]
        assert list(arts) == [(other, 0)]
        _same_artifact(arts[(other, 0)], alone)
        assert _eval_digest(evals) == _eval_digest(experiment.evaluate_one(alone, data_[1], run_cfg))


def test_paired_training_lets_other_errors_through(monkeypatch):
    # only a divergence becomes a failure record; any other error from an
    # AdamW step taken in IVON's wait leaves through the feed, which reaps
    # its producer
    calls, step = [], optim.adamw_step

    def fails_on_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise KeyError("adamw step failed")
        step(*args)

    _feed_used(monkeypatch)
    _slow_feed(monkeypatch)
    monkeypatch.setattr(optim, "adamw_step", fails_on_second)
    cfg = _small_cfg(seeds=[0])
    with pytest.raises(KeyError, match="adamw step failed") as err:
        experiment._run_jobs(cfg, data.generate_dataset(cfg.dataset), ("adamw", "ivon"))
    assert "draw" in [entry.name for entry in err.traceback]  # raised in IVON's wait
    _no_child_left()


def test_cli_run_leaves_no_process(tmp_path):
    # the process group of a `vical run` is empty once the run has exited
    with subprocess.Popen(
        [sys.executable, "-m", "vical", "run", "--config", _write_ini(tmp_path),
         "--out", str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# ------------------------------------------------------------- evaluation --

def test_evaluate_one_row_tags():
    cfg = _small_cfg()
    train, dev = data.generate_dataset(cfg.dataset)
    adamw_art = experiment.train_one(cfg, 0, "adamw", data=(train, dev))
    rows = experiment.evaluate_one(adamw_art, dev, cfg)
    assert [r.method for r in rows] == ["AdamW"]
    assert set(rows[0].values) == set(experiment.METRIC_KEYS)

    ivon_art = experiment.train_one(cfg, 0, "ivon", data=(train, dev))
    cfg.eval.mc_samples = [2, 8]
    cfg.eval.temperatures = [1.0, 10.0]
    rows = experiment.evaluate_one(ivon_art, dev, cfg)
    assert [r.method for r in rows] == [
        "IVON Mean", "IVON MC-2", "IVON MC-8",
        "IVON MC-2 T=10", "IVON MC-8 T=10",
    ]
    empty = data.Batch(features=np.zeros((0, 6)), labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        experiment.evaluate_one(ivon_art, empty, cfg)


def _eval_digest(rows):
    h = hashlib.sha256()
    for ev in rows:
        h.update(f"{ev.method}|{ev.seed}|{sorted(ev.values.items())!r}".encode("ascii"))
        if ev.probs is not None:
            h.update(ev.probs.tobytes())
    return h.hexdigest()


# sha256 of every evaluate_one row (tag, seed, metric values, scored
# probabilities) of 1-epoch LoRA runs; evaluation redraws their frozen base
LORA_EVAL_PINS = {
    "adamw": "fb113c7aa1529de979d4d26fe51c6b4b0db43f8ca7dd52a3505925c094789f6c",
    "ivon": "307ef50ab31d680257c39a349875567480ed0a480e6db741b49e2ccb3c21e72d",
}


def test_lora_evaluation_pinned():
    cfg = _small_cfg(lora=True, lora_rank=2, lora_alpha=4.0)
    cfg.eval.mc_samples = [2, 8]
    train, dev = data.generate_dataset(cfg.dataset)
    for method, want in LORA_EVAL_PINS.items():
        art = experiment.train_one(cfg, 0, method, data=(train, dev))
        assert _eval_digest(experiment.evaluate_one(art, dev, cfg)) == want, \
            f"{method}; {host_fingerprint()}"


def test_mc_tag_format():
    assert experiment.mc_tag(8, 1.0) == "IVON MC-8"
    assert experiment.mc_tag(4, 10.0) == "IVON MC-4 T=10"
    assert experiment.mc_tag(1, 1e12) == "IVON MC-1 T=1e+12"


# ------------------------------------------------------------ experiment ---

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    cfg = _small_cfg(out_dir=str(out))
    result = experiment.run_experiment(cfg)
    report.emit_report(result, cfg, cfg.out_dir)
    return cfg, result, out


def test_run_experiment_rows(small_run):
    cfg, result, out = small_run
    assert [row.method for row in result.rows] == ["AdamW", "IVON Mean", "IVON MC-8"]
    assert all(row.seed_count == 2 for row in result.rows)
    assert len(result.evals) == 6
    assert not result.failures
    for name in ("report.txt", "report.csv", "metadata.json"):
        assert os.path.isfile(os.path.join(str(out), name))


def test_run_experiment_is_deterministic(small_run, tmp_path):
    cfg, result, out = small_run
    rerun_dir = tmp_path / "rerun"
    cfg2 = _small_cfg(out_dir=str(rerun_dir))
    report.emit_report(experiment.run_experiment(cfg2), cfg2, cfg2.out_dir)
    for name in ("report.csv", "report.txt", "metadata.json"):
        with open(os.path.join(str(out), name), "rb") as fh:
            first = fh.read()
        with open(str(rerun_dir / name), "rb") as fh:
            second = fh.read()
        assert first == second, f"{name} differs between identical runs"


def test_artifacts_pickle(small_run):
    cfg, result, _ = small_run
    lora_cfg = _small_cfg(lora=True, lora_rank=2, lora_alpha=4.0)
    runs = [(cfg, art) for art in result.artifacts.values()]
    runs.append((lora_cfg, experiment.train_one(lora_cfg, 0, "ivon",
                                                data=(result.train, result.dev))))
    assert {art.method for _, art in runs} == {"adamw", "ivon"}
    for run_cfg, art in runs:
        back = pickle.loads(pickle.dumps(art))
        assert (_eval_digest(experiment.evaluate_one(back, result.dev, run_cfg))
                == _eval_digest(experiment.evaluate_one(art, result.dev, run_cfg)))


def test_run_job_arguments_pickle(small_run):
    # a seed trained and scored from pickled arguments and results, as a
    # process pool would hand them over, gives the same run
    cfg, result, _ = small_run
    data_ = (result.train, result.dev)

    def handed_over(*args):
        return pickle.loads(pickle.dumps(args))

    trained = experiment.train_seed(*handed_over(cfg, 1, ("adamw",), data_))
    (trained,) = handed_over(trained)
    evals = experiment.run_job(*handed_over(cfg, 1, "adamw", data_, trained["adamw"]))[1]
    assert _eval_digest(evals) == _eval_digest(
        [ev for ev in result.evals if (ev.method, ev.seed) == ("AdamW", 1)])
    # so does a divergence (seed 0 overflows after 4 steps), with the
    # record of the run trained alone
    run_cfg = copy.deepcopy(cfg)
    run_cfg.adamw.lr, run_cfg.adamw.weight_decay = 1e307, 0.0
    with pytest.raises(TrainingDiverged) as err:
        experiment.train_one(run_cfg, 0, "adamw", data=data_)
    (trained,) = handed_over(experiment.train_seed(*handed_over(run_cfg, 0, ("adamw",), data_)))
    assert trained == {"adamw": err.value.record()}
    assert (experiment.run_job(*handed_over(run_cfg, 0, "adamw", data_, trained["adamw"]))
            == (None, [], err.value.record()))
    assert str(TrainingDiverged(**err.value.record())) == str(err.value)
    sweep_job = (cfg, 0, "ivon", data_, result.artifacts[("ivon", 0)], [(2, 10.0)])
    _, evals, failure = experiment.run_job(*pickle.loads(pickle.dumps(sweep_job)))
    assert failure is None and [ev.method for ev in evals] == ["IVON MC-2 T=10"]
    assert _eval_digest(evals) == _eval_digest(experiment.run_job(*sweep_job)[1])


def test_sweep_matches_experiment_rows(small_run):
    _, result, out = small_run
    cfg = _small_cfg()
    cfg.sweep.mc_grid = [8]
    rows = experiment.sweep(
        cfg, "mc_samples",
        artifacts=result.artifacts, data=(result.train, result.dev),
    )
    mc_rows = {ev.seed: ev for ev in result.evals if ev.method == "IVON MC-8"}
    assert len(rows) == 2
    for row in rows:
        ev = mc_rows[row["seed"]]
        for key in ("acc", "ece", "c_at_5", "auc"):
            assert row[key] == ev.values[key]


def test_sweep_temperature_axis(small_run):
    _, result, out = small_run
    cfg = _small_cfg()
    cfg.sweep.temperature_grid = [1, 1e3]  # a code-built grid may hold ints
    rows = experiment.sweep(
        cfg, "temperature",
        artifacts=result.artifacts, data=(result.train, result.dev),
    )
    report.write_sweep_csv(rows, "temperature", str(out))
    assert len(rows) == 4
    assert {r["axis_value"] for r in rows} == {1.0, 1e3}
    assert all(isinstance(r["axis_value"], float) for r in rows)
    path = os.path.join(str(out), "sweep_temperature.csv")
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "axis_value,seed,acc,ece,c_at_5,auc"


# sha256 of sweep_temperature.csv over the default temperature grid
SWEEP_TEMPERATURE_PIN = "49a88b4b016c39408034032491606188359f99a2f4bcfdd8dc79c30232d59a1d"


def test_sweep_temperature_pinned(small_run, tmp_path):
    cfg, result, _ = small_run
    assert cfg.sweep.temperature_grid == [1.0, 10.0, 1e3, 1e12]
    rows = experiment.sweep(cfg, "temperature",
                            artifacts=result.artifacts, data=(result.train, result.dev))
    report.write_sweep_csv(rows, "temperature", str(tmp_path))
    with open(tmp_path / "sweep_temperature.csv", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SWEEP_TEMPERATURE_PIN, host_fingerprint()


def test_sweep_validation():
    cfg = _small_cfg()
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        experiment.sweep(cfg, "nosuch")
    cfg.sweep.mc_grid = []
    with pytest.raises(ConfigError, match="sweep.mc_grid must be non-empty"):
        experiment.sweep(cfg, "mc_samples")


def test_code_built_config_is_validated_before_training(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the config was rejected")

    monkeypatch.setattr(experiment, "train_one", no_training)
    cfg = _small_cfg(out_dir=str(tmp_path / "nan_clip"))
    cfg.ivon.grad_clip = float("nan")  # `clip > 0.0` is False: would train unclipped
    with pytest.raises(ConfigError, match="ivon.grad_clip must be finite"):
        experiment.run_experiment(cfg)
    with pytest.raises(ConfigError, match="ivon.grad_clip must be finite"):
        experiment.sweep(cfg, "mc_samples")
    # a grid set in code meets the [sweep] grid rules before any training
    for axis, grid, values in (("mc_samples", "mc_grid", [0]),
                               ("mc_samples", "mc_grid", [4, 4]),
                               ("temperature", "temperature_grid", [0.0]),
                               ("temperature", "temperature_grid", [float("nan")]),
                               ("temperature", "temperature_grid", [10.0, 10.0])):
        cfg = _small_cfg(out_dir=str(tmp_path / "bad_values"))
        setattr(cfg.sweep, grid, values)
        with pytest.raises(ConfigError, match="sweep"):
            experiment.sweep(cfg, axis)
    assert not os.path.exists(cfg.out_dir)


def test_failed_runs_are_excluded_not_fatal(tmp_path):
    cfg = _small_cfg(out_dir=str(tmp_path / "failed"))
    cfg.seeds = [0]
    cfg.adamw.lr = 1e308
    result = experiment.run_experiment(cfg)
    assert [f["method"] for f in result.failures] == ["adamw"]
    assert {row.method for row in result.rows} == {"IVON Mean", "IVON MC-8"}
    table = report.emit_report(result, cfg, cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "report.txt"), encoding="utf-8") as fh:
        assert fh.read() == table
    assert "WARNING: 1 failed run(s) excluded: adamw/seed0" in table


def test_experiment_writes_no_files(tmp_path):
    cfg = _small_cfg(out_dir=str(tmp_path / "never_made"))
    cfg.seeds = [0]
    cfg.sweep.mc_grid = [2]
    result = experiment.run_experiment(cfg)
    experiment.sweep(cfg, "mc_samples")
    experiment.sweep(cfg, "temperature", artifacts=result.artifacts,
                     data=(result.train, result.dev))
    assert os.listdir(tmp_path) == []  # not even the out_dir


def test_experiment_does_not_import_report():
    # report imports experiment; the reverse import would make a cycle
    with open(experiment.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
    assert not [name for name in imported if name.split(".")[-1] == "report"]


# ----------------------------------------------------------------- report --

def _fake_row():
    mean = {"acc": 0.8153, "ece": 0.162, "nll": 0.6254, "brier": 0.3118,
            "c_at_1": 0.123, "c_at_5": 0.456, "c_at_10": 0.789, "auc": 0.0912}
    sd = {k: 0.01 for k in mean}
    return ReportRow("IVON MC-8", 10, mean, sd)


def test_table_scales_selected_columns():
    text = report.format_table([_fake_row()])
    # ece 0.162 renders as 16.2 (x100), acc stays a raw fraction
    assert "16.2±1.0" in text
    assert "0.815±0.010" in text
    assert "9.1±1.0" in text  # auc x100
    assert "0.6254±0.0100" in text  # nll keeps 4 decimals
    assert "ECE, Brier, and AUC are x100" in text
    header = text.splitlines()[0]
    for tag in ("ACC↑", "ECE↓", "NLL↓", "Brier↓", "C@1%↑", "C@5%↑", "C@10%↑", "AUC↓"):
        assert tag in header


def test_report_csv_keeps_raw_fractions(tmp_path):
    path = str(tmp_path / "report.csv")
    report.write_report_csv([_fake_row()], path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        line = fh.readline().strip()
    assert header == ("method,seed_count,acc,ece,nll,brier,c_at_1,c_at_5,"
                      "c_at_10,auc,acc_sd,ece_sd,nll_sd,brier_sd,c_at_1_sd,"
                      "c_at_5_sd,c_at_10_sd,auc_sd")
    cells = line.split(",")
    assert cells[0] == "IVON MC-8" and cells[1] == "10"
    assert float(cells[3]) == 0.162  # raw, not x100


def test_metadata_has_no_timestamps(small_run):
    cfg, result, out = small_run
    with open(os.path.join(str(out), "metadata.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["seeds"] == [0, 1]
    assert meta["backend"] == "numpy"
    assert set(meta["versions"]) == {"python", "numpy", "vical"}
    assert not any("time" in k or "date" in k for k in meta)


def test_curve_and_reliability_exports(tmp_path):
    scores = {"AdamW": (np.array([0.9, 0.4]), np.array([1.0, 0.0]))}
    curve_path = str(tmp_path / "risk_coverage.csv")
    report.write_curve_csv(scores, curve_path)
    with open(curve_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,coverage,risk"
    assert lines[1] == "AdamW,0.5,0.0"
    rel_path = str(tmp_path / "reliability.csv")
    report.write_reliability_csv(scores, 10, rel_path)
    with open(rel_path, encoding="utf-8") as fh:
        rel_lines = fh.read().splitlines()
    assert rel_lines[0] == "method,bin_lo,bin_hi,count,mean_confidence,accuracy"
    assert len(rel_lines) == 11


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "risk_coverage.csv"
    path.write_text("old contents\n", encoding="utf-8")
    scores = {"AdamW": (np.array([0.9, 0.4]), np.array([1.0, 0.0])),
              "IVON Mean": (np.array([1.5, 0.4]), np.array([1.0, 0.0]))}
    with pytest.raises(ValueError, match="confidence"):
        report.write_curve_csv(scores, str(path))
    assert path.read_text(encoding="utf-8") == "old contents\n"
    assert os.listdir(tmp_path) == ["risk_coverage.csv"]


# -------------------------------------------------------------------- cli --

def _write_ini(tmp_path, body=SMALL_INI):
    path = tmp_path / "exp.ini"
    path.write_text(body, encoding="utf-8")
    return str(path)


# sha256 of `vical gen-data` on SMALL_INI, recorded while data.save_csv still
# streamed each row into the target file
GEN_DATA_PINS = {
    "train.csv": "5e222078bc13ef661fab1d343f5e7847a0b0595a149b62ffdb0f2f056976c813",
    "dev.csv": "01ef7469c65c05be3dc747efd3e28edde58fc32ad104dd3e16291c942c6483a3",
}


def test_cli_gen_data(tmp_path):
    ini = _write_ini(tmp_path)
    out = str(tmp_path / "data")
    assert cli.run_cli(["gen-data", "--config", ini, "--out", out]) == 0
    train = data.load_csv(os.path.join(out, "train.csv"))
    dev = data.load_csv(os.path.join(out, "dev.csv"))
    assert len(train) == 96 and len(dev) == 60
    for name, digest in GEN_DATA_PINS.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, f"{name}; {host_fingerprint()}"


def test_cli_gen_data_failed_write_leaves_nothing(tmp_path, monkeypatch, caplog):
    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "data"
    assert cli.run_cli(["gen-data", "--config", _write_ini(tmp_path), "--out", str(out)]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
        "output error: [Errno 28] No space left on device"]
    assert os.listdir(out) == []


def test_cli_run_and_rerun_identical(tmp_path):
    ini = _write_ini(tmp_path)
    outs = []
    for name in ("run1", "run2"):
        out = str(tmp_path / name)
        assert cli.run_cli(["run", "--config", ini, "--out", out]) == 0
        with open(os.path.join(out, "report.csv"), "rb") as fh:
            outs.append(fh.read())
        assert os.path.isfile(os.path.join(out, "report.txt"))
    assert outs[0] == outs[1]


def test_cli_train_prints_losses_and_writes_nothing(tmp_path, monkeypatch, capsys):
    ini = _write_ini(tmp_path)
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    assert cli.run_cli(["train", "--config", ini, "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" seed 3: ")[0] for line in lines] == ["adamw", "ivon"]
    assert all(" seed 3: 12 steps, epoch losses [" in line for line in lines)
    assert sorted(os.listdir(tmp_path)) == ["cwd", "exp.ini"]
    assert os.listdir(work) == []


# sha256 of `vical eval --seed 0 --mc-samples 4 --temperature 10` on SMALL_INI
EVAL_PINS = {
    "eval_metrics.csv": "2d97238eb84dfc21344fbef813c1be459cbe726b9df2aa770b2eb1bc2e2ce7d8",
    "risk_coverage.csv": "aeb4b5da789f8410a20f406081f91cf2c6ffa08f5550ff83002269ef3ddd8ba0",
    "reliability.csv": "79cf0d127d41a5c119d4e9166a00dec705833aed1ae6c2eba52f11f09c2b6e37",
}


def test_cli_eval_exports_curves(tmp_path, monkeypatch):
    forward = model.forward
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counted)
    ini = _write_ini(tmp_path)
    out = str(tmp_path / "eval_out")
    code = cli.run_cli(
        ["eval", "--config", ini, "--out", out, "--seed", "0",
         "--mc-samples", "4", "--temperature", "10"]
    )
    assert code == 0
    # one point, one mean and k = 4 MC forwards: each prediction made once
    assert len(calls) == 2 + 4
    for name, digest in EVAL_PINS.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, f"{name}; {host_fingerprint()}"
    with open(os.path.join(out, "eval_metrics.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip()
        body = fh.read()
    assert header == "method,seed,acc,ece,nll,brier,c_at_1,c_at_5,c_at_10,auc"
    assert "IVON MC-4 T=10" in body
    assert os.path.isfile(os.path.join(out, "risk_coverage.csv"))
    assert os.path.isfile(os.path.join(out, "reliability.csv"))


def test_cli_sweep(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI + "\n[sweep]\nmc_grid = 1,4\n")
    out = str(tmp_path / "sweep_out")
    code = cli.run_cli(
        ["sweep", "--config", ini, "--out", out, "--axis", "mc_samples",
         "--seeds", "2"]
    )
    assert code == 0
    with open(os.path.join(out, "sweep_mc_samples.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "axis_value,seed,acc,ece,c_at_5,auc"
    assert len(lines) == 1 + 2 * 2  # two seeds, two grid values


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    bad_ini = tmp_path / "bad.ini"
    bad_ini.write_text("[dataset]\nnot_a_key = 1\n", encoding="utf-8")
    assert cli.run_cli(["run", "--config", str(bad_ini)]) == 2

    missing_csv = _write_ini(
        tmp_path,
        SMALL_INI.replace(
            "seed = 5",
            f"seed = 5\ntrain_csv = {tmp_path}/no.csv\ndev_csv = {tmp_path}/no2.csv",
        ),
    )
    assert cli.run_cli(["run", "--config", missing_csv,
                        "--out", str(tmp_path / "x")]) == 3

    # a bad or repeated sweep grid value exits before any training
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the config was rejected")

    monkeypatch.setattr(experiment, "train_one", no_training)
    for axis, grid in (("mc_samples", "mc_grid = 0, 1"), ("mc_samples", "mc_grid = 4, 4"),
                       ("temperature", "temperature_grid = 10, 10")):
        grid_ini = _write_ini(tmp_path, SMALL_INI + f"\n[sweep]\n{grid}\n")
        assert cli.run_cli(["sweep", "--config", grid_ini, "--axis", axis,
                            "--out", str(tmp_path / "sweep_out")]) == 2, grid

    # so does an output directory that is a file or lies under one
    afile = tmp_path / "afile"
    afile.write_text("x\n", encoding="utf-8")
    for command in (["gen-data"], ["eval", "--seed", "0"], ["run"], ["sweep", "--axis", "mc_samples"]):
        for out in (afile, afile / "x"):
            assert cli.run_cli([*command, "--config", _write_ini(tmp_path),
                                "--out", str(out)]) == 2, (command, out)
    assert afile.read_text(encoding="utf-8") == "x\n"

    # the single-seed commands have no --seeds to ignore
    for command in ("eval", "train", "gen-data"):
        with pytest.raises(SystemExit) as exc:
            cli.run_cli([command, "--config", _write_ini(tmp_path), "--seeds", "3",
                         "--out", str(tmp_path / "seeds_out")])
        assert exc.value.code == 2, command
        assert "unrecognized arguments: --seeds 3" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "seeds_out")

    # non-finite floats exit 2 before any training, from the INI or the flag
    for bad in ("nan", "inf"):
        for body in (SMALL_INI.replace("separation = 2.5", f"separation = {bad}"),
                     SMALL_INI + f"\n[eval]\ntemperatures = {bad}\n"):
            assert cli.run_cli(["run", "--config", _write_ini(tmp_path, body),
                                "--out", str(tmp_path / "nonfinite")]) == 2, body
        assert cli.run_cli(["eval", "--config", _write_ini(tmp_path), "--seed", "0",
                            "--temperature", bad]) == 2, bad

    # flag overrides, the dataset spec and report-tag clashes: all exit 2
    ini = _write_ini(tmp_path)
    out = str(tmp_path / "rejected")
    assert cli.run_cli(["run", "--config", ini, "--seeds", "0", "--out", out]) == 2
    assert cli.run_cli(["eval", "--config", ini, "--seed", "0", "--mc-samples", "0",
                        "--out", out]) == 2
    for body in (SMALL_INI.replace("n_features = 6", "n_features = 2"),
                 SMALL_INI + "\n[eval]\nmc_samples = 2, 2\n",
                 SMALL_INI + "\n[eval]\ntemperatures = 10, 10.000001\n"):
        assert cli.run_cli(["run", "--config", _write_ini(tmp_path, body),
                            "--out", out]) == 2, body
    assert not os.path.exists(out)


def test_cli_failed_run_exit_code(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI + "\n[adamw]\nlr = 1e308\n")
    out = str(tmp_path / "failed_run")
    assert cli.run_cli(["run", "--config", ini, "--out", out,
                        "--seed", "0"]) == 4

    # every run diverges: still exit 4, with the failure in metadata.json
    ini = _write_ini(tmp_path, SMALL_INI.replace(
        "seeds = 0,1", "seeds = 0,1\noptimizer = adamw") + "\n[adamw]\nlr = 1e308\n")
    out = str(tmp_path / "all_failed")
    assert cli.run_cli(["run", "--config", ini, "--out", out,
                        "--seed", "0"]) == 4
    with open(os.path.join(out, "metadata.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    assert [f["method"] for f in meta["failures"]] == ["adamw"]
    with open(os.path.join(out, "report.txt"), encoding="utf-8") as fh:
        assert "WARNING: 1 failed run(s) excluded: adamw/seed0" in fh.read()

    # eval trains and exports the surviving run, then exits 4
    ini = _write_ini(tmp_path, SMALL_INI + "\n[adamw]\nlr = 1e308\n")
    out = str(tmp_path / "failed_eval")
    assert cli.run_cli(["eval", "--config", ini, "--seed", "0", "--out", out]) == 4
    with open(os.path.join(out, "eval_metrics.csv"), encoding="utf-8") as fh:
        methods = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
    assert methods == ["IVON Mean", "IVON MC-8"]


def test_cli_evaluation_failure_exit_code(tmp_path, caplog):
    # ess = 1 with T = 5e-324 underflows the posterior variance, so every
    # MC draw is non-finite once training has succeeded
    ini = _write_ini(tmp_path, SMALL_INI + "\n[ivon]\ness = 1\n"
                     "\n[eval]\ntemperatures = 5e-324\n"
                     "\n[sweep]\ntemperature_grid = 1.0, 5e-324\n")

    def errors():
        found = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        caplog.clear()
        return found

    out = str(tmp_path / "run")
    assert cli.run_cli(["run", "--config", ini, "--out", out, "--seed", "0"]) == 4
    assert errors() == ["ivon seed 0 diverged after 12 completed steps: "
                        "evaluation: non-finite posterior sample",
                        "1 run(s) failed; see metadata.json"]
    with open(os.path.join(out, "metadata.json"), encoding="utf-8") as fh:
        assert json.load(fh)["failures"] == [{
            "method": "ivon", "seed": 0, "step": 12,
            "detail": "evaluation: non-finite posterior sample"}]
    with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
        assert [line.split(",")[0] for line in fh.read().splitlines()[1:]] == ["AdamW"]

    out = str(tmp_path / "eval")
    assert cli.run_cli(["eval", "--config", ini, "--seed", "0", "--out", out]) == 4
    assert len(errors()) == 1
    with open(os.path.join(out, "eval_metrics.csv"), encoding="utf-8") as fh:
        assert [line.split(",")[0] for line in fh.read().splitlines()[1:]] == ["AdamW"]

    assert cli.run_cli(["sweep", "--config", ini, "--axis", "temperature", "--seed", "0",
                        "--out", str(tmp_path / "sweep")]) == 4
    assert errors() == ["run failure: ivon seed 0 diverged after 12 completed steps: "
                        "evaluation: non-finite posterior sample"]


def test_cli_sweep_training_divergence_exit_code(tmp_path, caplog):
    # the pinned IVON divergence (step 5) fails a sweep like a run: exit 4,
    # one ERROR line naming the run, and no sweep CSV
    ini = _write_ini(tmp_path, SMALL_INI + "\n[ivon]\nlr = 1e60\nweight_decay = 1e-3\n")
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run_cli(["sweep", "--config", ini, "--axis", "mc_samples",
                            "--out", str(out)]) == 4
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
        "run failure: ivon seed 0 diverged after 5 completed steps: "
        "non-finite posterior state at t=6"]
    assert not (out / "sweep_mc_samples.csv").exists()


def test_cli_run_report_ignores_seed_order(tmp_path):
    # runs are gathered in (seed, method) order whatever order the config
    # lists; with three seeds a different float summation order shows
    reports = []
    for name, seeds in (("ascending", "0, 1, 2"), ("shuffled", "2, 0, 1")):
        ini = _write_ini(tmp_path, SMALL_INI.replace("seeds = 0,1", f"seeds = {seeds}"))
        out = tmp_path / name
        assert cli.run_cli(["run", "--config", ini, "--out", str(out)]) == 0
        reports.append([(out / f).read_bytes() for f in ("report.csv", "report.txt")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("dev_features, dev_labels", [
    (np.zeros((2, 2)), np.array([1, 3])),  # label 3 never occurs in train
    (np.zeros((2, 3)), np.array([0, 1])),  # one feature column too many
    (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),  # header only
])
def test_cli_dev_csv_incompatible_with_train(tmp_path, dev_features, dev_labels):
    train = data.Batch(np.zeros((12, 2)), np.arange(12) % 3)
    report.write_text(str(tmp_path / "train.csv"), data.csv_text(train))
    report.write_text(str(tmp_path / "dev.csv"),
                      data.csv_text(data.Batch(dev_features, dev_labels)))
    ini = _write_ini(tmp_path, SMALL_INI.replace(
        "seed = 5",
        f"seed = 5\ntrain_csv = {tmp_path}/train.csv\ndev_csv = {tmp_path}/dev.csv",
    ))
    assert cli.run_cli(["eval", "--config", ini, "--seed", "0",
                        "--out", str(tmp_path / "eval_out")]) == 3


# ------------------------------------------------------ generated inputs --

class _Trained(Exception):
    """Raised in place of training: the command passed every input check."""


# lines configparser cannot read, a "%" it cannot interpolate, a section vical lacks
MALFORMED_LINES = ["foo = 1", "  orphan", "orphan", "[run]", "[run", "[nosuch]",
                   "[DEFAULT]", "x = %(nosuch)s", "out_dir = 100%"]


def _ini_value(hint):
    """Text for one value of the annotated type: valid, out of range or of
    the wrong type. An int is small, or so large that no allocation of its
    size can succeed, so a size that slipped past the ceiling would fail
    fast instead of taking the host's memory."""
    if get_origin(hint) in (list, tuple):
        return st.lists(_ini_value(get_args(hint)[0]), max_size=3).map(", ".join)
    if hint is bool:
        return st.sampled_from(["yes", "off", "1", "maybe", ""])
    if hint is int:
        return (st.integers(-2, 40) | st.integers(10**13, 10**30)).map(str) \
            | st.sampled_from(["", "x", "1.5"])
    if hint is float:
        return st.floats().map(repr) | st.sampled_from(["", "x"])
    if hint == Optional[str]:  # the dataset CSVs
        return st.sampled_from(["", "good.csv", "binary.csv", "missing.csv", "afile", "out"])
    return st.sampled_from(["", "out", "afile", "afile/x", "100%", "adamw", "ivon", "both"])


@st.composite
def _ini_files(draw):
    """INI bytes: SMALL_INI with up to two of config's own keys redrawn,
    maybe both dataset CSVs, and maybe a malformed line or a byte that is
    not UTF-8."""
    cfg = ExperimentConfig()
    hints = {(section, key): get_type_hints(type(obj))[key] for section in config._SECTIONS
             for key, obj in config._section_keys(cfg, section).items()}
    base = configparser.ConfigParser()
    base.read_string(SMALL_INI)
    values = {section: dict(base[section]) for section in base.sections()}
    chosen = draw(st.lists(st.sampled_from(sorted(hints)), max_size=2))
    chosen += draw(st.sampled_from([[], [("dataset", "train_csv"), ("dataset", "dev_csv")]]))
    for section, key in chosen:
        values.setdefault(section, {})[key] = draw(_ini_value(hints[section, key]))
    lines = [line for section, pairs in values.items()
             for line in [f"[{section}]", *(f"{k} = {v}" for k, v in pairs.items())]]
    flaw = draw(st.sampled_from([None, None, "line", "byte"]))
    if flaw == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED_LINES)))
    text = ("\n".join(lines) + "\n").encode("utf-8")
    if flaw == "byte":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + b"\xff" + text[cut:]
    return text


def _small_ini_with(old, new):
    return SMALL_INI.replace(old, new).encode("utf-8")


def test_cli_generated_inputs_end_with_an_exit_code(tmp_path, monkeypatch):
    """Every command, on generated INI files and --out targets that are a
    file or lie under one, exits 0, 2, 3 or 4 or reaches training; any
    other exception fails the test with its traceback."""
    def trained(*args, **kwargs):
        raise _Trained

    monkeypatch.setattr(experiment, "train_one", trained)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("x\n", encoding="utf-8")
    (tmp_path / "binary.csv").write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    report.write_text("good.csv", data.csv_text(data.Batch(np.zeros((6, 3)), np.arange(6) % 3)))
    seen = set()

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(_ini_files(), st.sampled_from(sorted(cli._COMMANDS)),
           st.sampled_from([None, "out", "afile", "afile/x"]))
    # the measured classes that ended in a traceback: a malformed INI, a binary
    # config or dataset CSV, an impossible size, an output path under a file
    @example(b"foo = 1\n", "run", None)
    @example(_small_ini_with("seeds = 0,1", "seeds = 0\nseeds = 1"), "run", None)
    @example(b"[run]\n  orphan\n", "run", None)
    @example(b"\x89PNG\r\n\x1a\n\xff\xfe", "run", None)
    @example(_small_ini_with("seed = 5", "seed = 5\ntrain_csv = binary.csv\ndev_csv = good.csv"),
             "run", None)
    @example(_small_ini_with("n_train = 96", "n_train = 99999999999999999999"), "sweep", None)
    @example(SMALL_INI.encode("utf-8"), "eval", "afile/x")
    @example(b"[run]\nout_dir = a\0b\n", "gen-data", None)
    @example(SMALL_INI.encode("utf-8"), "gen-data", "out")  # exits 0
    @example(SMALL_INI.encode("utf-8"), "run", "out")  # reaches training
    def check(ini, command, out):
        (tmp_path / "gen.ini").write_bytes(ini)
        argv = [command, "--config", "gen.ini"]
        argv += ["--out", out] if out and command != "train" else []
        argv += ["--axis", "mc_samples"] if command == "sweep" else []
        try:
            code = cli.run_cli(argv)
        except _Trained:
            code = "trained"
        assert code in (0, 2, 3, 4, "trained"), argv
        if out in ("afile", "afile/x") and command != "train":
            assert code == 2, argv  # found before any data is read
        seen.add(code)

    check()
    assert seen == {0, 2, 3, "trained"}  # no run can fail when nothing trains


def test_python_m_vical_help():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vical", "--help"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: vical")


# every function perfbench/spans.py wraps must still exist and be called by
# `vical eval` and `vical run`, or the benchmark's traced runs fall short
SPAN_GUARD = """
import json, sys
import spans

class Recording(spans.Tracer):
    wrapped = set()

    def wrap(self, name, fn, count=None):
        self.wrapped.add(name)
        return super().wrap(name, fn, count)

tracer = Recording()
spans.instrument(tracer)
from vical import cli
ini, out = sys.argv[1], sys.argv[2]
codes = [cli.run_cli(["eval", "--config", ini, "--seed", "0", "--out", out + "/eval"]),
         cli.run_cli(["run", "--config", ini, "--out", out + "/run"])]
print(json.dumps({"codes": codes, "wrapped": sorted(tracer.wrapped),
                  "called": sorted(tracer.calls)}))
"""


def test_benchmark_span_wrappers_are_called(tmp_path):
    path = os.pathsep.join(os.path.join(REPO, d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", SPAN_GUARD, _write_ini(tmp_path), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert set(got["wrapped"]) >= {
        "kernels.normal_fill", "kernels.uniform_fill", "kernels.adamw_core",
        "kernels.ivon_core", "model.loss_and_grad", "model.forward",
        "optim.adamw_step", "optim.ivon_step", "optim.ivon_sample",
        "predict.predict_mc", "predict.predict_point", "predict.predict_mean",
        "metrics", "experiment.train_one", "experiment.evaluate_one",
        "experiment.run_experiment", "report", "cli",
    }
    assert got["called"] == got["wrapped"]


# Functions no command reaches by design: the console-script entry point
# (tests call run_cli), and the feed's producer, which runs in a forked child
REACH_EXEMPT = {"cli.main", "rng._produce"}


def _defined_functions():
    """Every function and method defined in src/vical, nested ones too, as
    {(file, first line, name): "module.qualname"}; class bodies, lambdas
    and comprehensions are left out."""
    pkg = os.path.dirname(cli.__file__)
    found = {}
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(pkg, name)
        with open(path, encoding="utf-8") as fh:
            todo = [compile(fh.read(), path, "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                qualname = getattr(code, "co_qualname", code.co_name)
                found[(path, code.co_firstlineno, code.co_name)] = f"{name[:-3]}.{qualname}"
    return found


def _every_command(tmp_path):
    """Ten CLI invocations on SMALL_INI-sized configs that between them
    enter every function of src/vical; the last one exits 4."""
    ini = _write_ini(tmp_path)
    csv_dir = tmp_path / "data"
    inis = {}
    for name, body in {
        "lora": SMALL_INI.replace("hidden_sizes = 12\n",
                                  "hidden_sizes = 12\nlora = yes\nlora_rank = 2\nlora_alpha = 4\n"),
        "csv": SMALL_INI.replace("[dataset]\n", f"[dataset]\ntrain_csv = {csv_dir / 'train.csv'}\n"
                                                 f"dev_csv = {csv_dir / 'dev.csv'}\n"),
        "diverging": SMALL_INI + "\n[adamw]\nlr = 1e308\n",
    }.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(body, encoding="utf-8")
        inis[name] = str(path)
    return [
        ["gen-data", "--config", ini, "--out", str(csv_dir)],
        ["train", "--config", ini, "--seed", "0"],
        ["eval", "--config", ini, "--out", str(tmp_path / "eval1"), "--seed", "0"],
        ["eval", "--config", ini, "--out", str(tmp_path / "eval2"), "--seed", "0",
         "--mc-samples", "3", "--temperature", "2"],
        ["run", "--config", ini, "--out", str(tmp_path / "run1")],
        ["run", "--config", inis["lora"], "--out", str(tmp_path / "run2")],
        ["run", "--config", inis["csv"], "--out", str(tmp_path / "run3")],
        ["sweep", "--config", ini, "--out", str(tmp_path / "sweep1"), "--axis", "mc_samples"],
        ["sweep", "--config", ini, "--out", str(tmp_path / "sweep2"), "--axis", "temperature"],
        # a diverging run (exit 4) is the only way into TrainingDiverged
        ["run", "--config", inis["diverging"], "--out", str(tmp_path / "run4"), "--seed", "0"],
    ]


def _run_every_command(tmp_path):
    commands = _every_command(tmp_path)
    assert [cli.run_cli(argv) for argv in commands] == [0] * (len(commands) - 1) + [4]


# The noise feed's reader, which runs only where a producer forks
FED_ONLY = {"rng.normal_feed.<locals>.draw"}


def test_every_function_is_reached_from_a_command(tmp_path, monkeypatch):
    # whatever the host's CPU count: with a forked producer every function
    # is entered, and on one CPU every function but the feed's reader
    defined = _defined_functions()
    assert REACH_EXEMPT <= set(defined.values()) and FED_ONLY <= set(defined.values())
    for cpus, unreached in (({0, 1}, set()), ({0}, FED_ONLY)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        entered = set()

        def profile(frame, event, arg):
            if event == "call":
                entered.add(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            (tmp_path / str(len(cpus))).mkdir()
            _run_every_command(tmp_path / str(len(cpus)))
        finally:
            sys.setprofile(previous)
        reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
        missed = sorted(qual for key, qual in defined.items()
                        if key not in reached and qual not in REACH_EXEMPT)
        assert missed == sorted(unreached), \
            f"on {len(cpus)} CPU(s) no command enters {', '.join(missed)}"


def test_every_config_key_is_read_by_a_command(tmp_path, monkeypatch):
    cfg = ExperimentConfig()
    keys = {(type(obj), key): f"{section}.{key}" for section in config._SECTIONS
            for key, obj in config._section_keys(cfg, section).items()}
    pkg = os.path.dirname(cli.__file__)
    read = set()

    def spy(obj, name):
        key = keys.get((type(obj), name))
        caller = sys._getframe(1).f_code
        # config reads every key to validate and hash it, and validate_spec
        # checks the dataset's; a key that only they read changes no output
        if (key is not None and caller.co_filename.startswith(pkg)
                and caller.co_filename != config.__file__
                and caller is not data.validate_spec.__code__):
            read.add(key)
        return object.__getattribute__(obj, name)

    for cls in {cls for cls, _ in keys}:
        monkeypatch.setattr(cls, "__getattribute__", spy)
    _run_every_command(tmp_path)
    unread = sorted(set(keys.values()) - read)
    assert unread == [], f"no command reads {', '.join(unread)}"


# ------------------------------------------------------------ BLAS threads --

def _blas_threads():
    """The loaded OpenBLAS's thread count, read by perfbench's own getter
    (None when numpy's BLAS is not an OpenBLAS that can be asked)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(REPO, "perfbench", "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.blas_facts()["blas_threads"]


# the small config through the library, as a user's script runs it; prints
# the BLAS thread count the run used
LIBRARY_RUN = """
import sys
import worker
from vical import config, experiment, report
ini, out = sys.argv[1], sys.argv[2]
cfg = config.load_config(ini)
cfg.out_dir = out
report.emit_report(experiment.run_experiment(cfg), cfg, out)
print(worker.blas_facts()["blas_threads"])
"""


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its thread count at the core count, so one "
                    "core cannot run 2 threads")
    ini = _write_ini(tmp_path)
    path = os.pathsep.join(os.path.join(REPO, d) for d in ("src", "perfbench"))
    runs = {}
    for threads in (1, 2):
        out = str(tmp_path / f"library_{threads}")
        proc = subprocess.run(
            [sys.executable, "-c", LIBRARY_RUN, ini, out],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # the library keeps the caller's setting
        assert proc.stdout.split()[-1] == str(threads)
        runs[f"library, {threads} BLAS threads"] = out
    out = str(tmp_path / "cli")
    proc = subprocess.run(
        [sys.executable, "-m", "vical", "run", "--config", ini, "--out", out],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs["vical run"] = out
    for name in ("report.csv", "report.txt", "metadata.json"):
        blobs = {}
        for run, run_dir in runs.items():
            with open(os.path.join(run_dir, name), "rb") as fh:
                blobs[run] = fh.read()
        assert len(set(blobs.values())) == 1, f"{name} differs: {sorted(blobs)}"


def test_cli_runs_blas_on_one_thread(tmp_path):
    if _blas_threads() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its thread count")
    if (os.cpu_count() or 1) >= 2:
        cli._set_blas_threads(2)  # so that reading 1 below shows the CLI set it
        assert _blas_threads() == 2
    assert cli.run_cli(["run", "--config", _write_ini(tmp_path),
                        "--out", str(tmp_path / "run")]) == 0
    assert _blas_threads() == 1


def test_cli_runs_without_a_blas_thread_setter(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(cli, "_openblas_libs", lambda: [])
    caplog.set_level(logging.INFO, logger="vical")
    assert cli.run_cli(["run", "--config", _write_ini(tmp_path),
                        "--out", str(tmp_path / "run")]) == 0
    notes = [r for r in caplog.records if "OpenBLAS" in r.getMessage()]
    assert [r.levelno for r in notes] == [logging.INFO]
