import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vical import cli, data, experiment, model, report
from vical.config import (
    ConfigError, ExperimentConfig, config_dict, config_hash, load_config,
    validate_config,
)
from vical.experiment import ReportRow, TrainingDiverged


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
    assert cfg.eval.risk_budgets == [0.01, 0.05, 0.10]


def test_config_hash_is_stable_and_sensitive():
    assert config_hash(ExperimentConfig()) == config_hash(ExperimentConfig())
    changed = ExperimentConfig()
    changed.epochs += 1
    assert config_hash(changed) != config_hash(ExperimentConfig())


def test_config_dict_is_json_serializable():
    blob = json.dumps(config_dict(ExperimentConfig()), sort_keys=True)
    assert "hidden_sizes" in blob


def test_load_config_overrides_defaults(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[dataset]\nn_classes = 5\nseed = 3  # inline comment\n"
        "[model]\nhidden_sizes = 32,16\nlora = yes\n"
        "[ivon]\ness = 1e7\n"
        "[eval]\nmc_samples = 4,8\nrisk_budgets = 0.02,0.05,0.2\n"
        "[run]\nseeds = 0,1,2\noptimizer = ivon\n",
        encoding="utf-8",
    )
    cfg = load_config(str(path))
    assert cfg.dataset.n_classes == 5 and cfg.dataset.seed == 3
    assert cfg.hidden_sizes == (32, 16) and cfg.lora is True
    assert cfg.ivon.ess == 1e7
    assert cfg.eval.mc_samples == [4, 8]
    assert cfg.eval.risk_budgets == [0.02, 0.05, 0.2]
    assert cfg.seeds == [0, 1, 2] and cfg.optimizer == "ivon"


def test_load_config_rejects_unknown_names(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[nosuch]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(str(path))
    path.write_text("[dataset]\nnosuch = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key dataset.nosuch"):
        load_config(str(path))
    path.write_text("[train]\nepochs = three\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value for train.epochs"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.ini"))


def test_validate_config_invariants():
    for breakage in (
        {"optimizer": "sgd"},
        {"seeds": []},
        {"seeds": [1, 1]},
        {"epochs": 0},
        {"batch_size": 0},
        {"hidden_sizes": (0,)},
    ):
        cfg = _small_cfg(**breakage)
        with pytest.raises(ConfigError):
            validate_config(cfg)

    cfg = _small_cfg()
    cfg.eval.risk_budgets = [0.01, 0.05]
    with pytest.raises(ConfigError, match="exactly 3"):
        validate_config(cfg)
    cfg.eval.risk_budgets = [0.10, 0.05, 0.01]
    with pytest.raises(ConfigError, match="non-decreasing"):
        validate_config(cfg)
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


def test_lora_variant_trains():
    cfg = _small_cfg(lora=True, lora_rank=2, lora_alpha=4.0)
    art = experiment.train_one(cfg, 0, "ivon")
    # trainable vector is the adapter, far smaller than the full model
    assert art.posterior.mean.size == 2 * (6 + 12) + 2 * (12 + 3)
    rows = experiment.evaluate_one(art, data.generate_dataset(cfg.dataset)[1], cfg)
    assert [r.method for r in rows] == ["IVON Mean", "IVON MC-8"]


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
    experiment.run_experiment(cfg2)
    for name in ("report.csv", "report.txt"):
        with open(os.path.join(str(out), name), "rb") as fh:
            first = fh.read()
        with open(str(rerun_dir / name), "rb") as fh:
            second = fh.read()
        assert first == second, f"{name} differs between identical runs"


def test_sweep_matches_experiment_rows(small_run):
    cfg, result, out = small_run
    rows = experiment.sweep(
        cfg, "mc_samples", [8],
        artifacts=result.artifacts, data=(result.train, result.dev),
    )
    mc_rows = {ev.seed: ev for ev in result.evals if ev.method == "IVON MC-8"}
    assert len(rows) == 2
    for row in rows:
        ev = mc_rows[row["seed"]]
        for key in ("acc", "ece", "c_at_5", "auc"):
            assert row[key] == ev.values[key]


def test_sweep_temperature_axis(small_run):
    cfg, result, out = small_run
    rows = experiment.sweep(
        cfg, "temperature", [1.0, 1e3],
        artifacts=result.artifacts, data=(result.train, result.dev),
        out_dir=str(out),
    )
    assert len(rows) == 4
    assert {r["axis_value"] for r in rows} == {1.0, 1e3}
    path = os.path.join(str(out), "sweep_temperature.csv")
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "axis_value,seed,acc,ece,c_at_5,auc"


def test_sweep_validation(small_run):
    cfg, result, _ = small_run
    with pytest.raises(ConfigError):
        experiment.sweep(cfg, "nosuch", [1])
    with pytest.raises(ConfigError):
        experiment.sweep(cfg, "mc_samples", [])


def test_failed_runs_are_excluded_not_fatal(tmp_path):
    cfg = _small_cfg(out_dir=str(tmp_path / "failed"))
    cfg.seeds = [0]
    cfg.adamw.lr = 1e308
    result = experiment.run_experiment(cfg)
    assert [f["method"] for f in result.failures] == ["adamw"]
    assert {row.method for row in result.rows} == {"IVON Mean", "IVON MC-8"}
    with open(os.path.join(cfg.out_dir, "report.txt"), encoding="utf-8") as fh:
        assert "WARNING: 1 failed run(s) excluded: adamw/seed0" in fh.read()


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


# -------------------------------------------------------------------- cli --

def _write_ini(tmp_path, body=SMALL_INI):
    path = tmp_path / "exp.ini"
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_cli_gen_data(tmp_path):
    ini = _write_ini(tmp_path)
    out = str(tmp_path / "data")
    assert cli.run_cli(["gen-data", "--config", ini, "--out", out]) == 0
    train = data.load_csv(os.path.join(out, "train.csv"))
    dev = data.load_csv(os.path.join(out, "dev.csv"))
    assert len(train) == 96 and len(dev) == 60


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


def test_cli_train_saves_artifacts(tmp_path):
    ini = _write_ini(tmp_path)
    out = str(tmp_path / "train_out")
    code = cli.run_cli(
        ["train", "--config", ini, "--out", out, "--seed", "3",
         "--optimizer", "ivon"]
    )
    assert code == 0
    blob = np.load(os.path.join(out, "artifact_ivon_seed3.npz"))
    assert blob["mean"].shape[0] > 0 and float(blob["min_hdelta"]) > 0.0


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
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name
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


def test_cli_exit_codes(tmp_path, monkeypatch):
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

    ini = _write_ini(tmp_path)
    assert cli.run_cli(["run", "--config", ini, "--seeds", "0"]) == 2

    # a bad sweep grid exits before any training
    grid_ini = _write_ini(tmp_path, SMALL_INI + "\n[sweep]\nmc_grid = 0, 1\n")

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the config was rejected")

    monkeypatch.setattr(experiment, "train_one", no_training)
    assert cli.run_cli(["sweep", "--config", grid_ini, "--axis", "mc_samples",
                        "--out", str(tmp_path / "sweep_out")]) == 2


def test_cli_failed_run_exit_code(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI + "\n[adamw]\nlr = 1e308\n")
    out = str(tmp_path / "failed_run")
    assert cli.run_cli(["run", "--config", ini, "--out", out,
                        "--seed", "0"]) == 4


@pytest.mark.parametrize("dev_features, dev_labels", [
    (np.zeros((2, 2)), np.array([1, 3])),  # label 3 never occurs in train
    (np.zeros((2, 3)), np.array([0, 1])),  # one feature column too many
    (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),  # header only
])
def test_cli_dev_csv_incompatible_with_train(tmp_path, dev_features, dev_labels):
    train = data.Batch(np.zeros((12, 2)), np.arange(12) % 3)
    data.save_csv(train, str(tmp_path / "train.csv"))
    data.save_csv(data.Batch(dev_features, dev_labels), str(tmp_path / "dev.csv"))
    ini = _write_ini(tmp_path, SMALL_INI.replace(
        "seed = 5",
        f"seed = 5\ntrain_csv = {tmp_path}/train.csv\ndev_csv = {tmp_path}/dev.csv",
    ))
    assert cli.run_cli(["eval", "--config", ini, "--seed", "0",
                        "--out", str(tmp_path / "eval_out")]) == 3


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
