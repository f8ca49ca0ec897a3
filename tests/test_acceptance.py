"""Acceptance gate: one test per numbered criterion.

Each test ends with a single verdict line.  The heavy fixture trains the
default configuration once (10 seeds, both optimizers) and runs the
MC-sample sweep on the trained posteriors; criteria 3 and 5 through 10
read from it.  Criteria 1, 2, and 4 are self-contained oracle checks.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from vical import experiment, metrics, model, optim, predict
from vical import rng as vrng
from vical.config import ExperimentConfig


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept")
    cfg = ExperimentConfig()
    cfg.out_dir = str(base / "run1")
    t0 = time.perf_counter()
    result = experiment.run_experiment(cfg)
    sweep_rows = experiment.sweep(
        cfg, "mc_samples", cfg.sweep.mc_grid,
        out_dir=cfg.out_dir, artifacts=result.artifacts,
        data=(result.train, result.dev),
    )
    elapsed = time.perf_counter() - t0
    return {
        "cfg": cfg,
        "result": result,
        "sweep_rows": sweep_rows,
        "elapsed": elapsed,
        "out_dir": cfg.out_dir,
    }


def _per_seed(evals, method: str, key: str) -> dict:
    return {e.seed: e.values[key] for e in evals if e.method == method}


def _sign_test_p(wins: int, n: int) -> float:
    # exact one-sided binomial tail under the fair-coin null
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n


# -- criterion 1: analytic gradients vs central finite differences ----------


def _fd(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (fn(up) - fn(dn)) / (2.0 * eps)
    return g


def test_criterion_1_gradients(verdict):
    hiddens = [(), (4,), (8,), (6, 3)]
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        r = vrng.seed_rng(4000 + i)
        d = 2 + i % 4
        c = 2 + i % 3
        n = 4 + i % 13
        sizes = (d, *hiddens[i % 4], c)
        x = vrng.sample_standard_normal(vrng.child(r, 0), n * d).reshape(n, d)
        y = np.floor(vrng.sample_uniform(vrng.child(r, 1), n) * c).astype(np.int64)
        batch = model.Batch(features=x, labels=y)
        params = model.init_mlp(sizes, vrng.child(r, 2))
        if i % 2 == 0:
            params.theta += 0.3 * vrng.sample_standard_normal(
                vrng.child(r, 3), params.theta.size)
            _, grad = model.loss_and_grad(params, batch)
            fd = _fd(lambda t: model.loss_and_grad(
                model.MlpParams(sizes=sizes, theta=t), batch)[0], params.theta)
        else:
            rank = 1 + i % 3
            alpha = 0.5 + i % 4
            adapter = model.init_lora(sizes, rank, alpha, vrng.child(r, 3))
            adapter.phi[:] = 0.3 * vrng.sample_standard_normal(
                vrng.child(r, 4), adapter.phi.size)
            _, grad = model.lora_loss_and_grad(params, adapter, batch)
            fd = _fd(lambda p: model.lora_loss_and_grad(
                params,
                model.LoraAdapter(sizes=sizes, rank=rank, alpha=alpha, phi=p),
                batch)[0], adapter.phi)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-8)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    verdict(1, worst < 1e-5 and elapsed < 10.0,
            f"max relative error {worst:.3e} over 50 instances "
            f"(25 plain, 25 LoRA) in {elapsed:.1f}s")


# -- criterion 2: Hessian estimator unbiased on a quadratic -----------------


def test_criterion_2_hessian_estimator(verdict):
    lam, h0 = 1e3, 5e-2
    n_coords, draws = 24, 100_000
    root = vrng.seed_rng(991)
    a = 0.1 + 9.9 * vrng.sample_uniform(vrng.child(root, 0), n_coords)
    m = 0.5 * vrng.sample_standard_normal(vrng.child(root, 1), n_coords)
    cfg = optim.IvonConfig(lr=1e-3, ess=lam, hess_init=h0)
    state = optim.init_posterior(m, cfg)
    sample_root = vrng.child(root, 2)

    t0 = time.perf_counter()
    acc = np.zeros(n_coords)
    acc2 = np.zeros(n_coords)
    for k in range(draws):
        theta = optim.ivon_sample(state, cfg, vrng.child(sample_root, k))
        # the estimator the optimizer applies: grad * (theta - m) * lam * (h + delta)
        hhat = (a * theta) * (theta - m) * lam * (state.hess + cfg.weight_decay)
        acc += hhat
        acc2 += hhat * hhat
    elapsed = time.perf_counter() - t0
    mean = acc / draws
    se = np.sqrt((acc2 / draws - mean ** 2) / draws)
    dev = np.abs(mean - a) / se
    verdict(2, float(dev.max()) <= 3.0 and elapsed < 30.0,
            f"max |mean(hhat) - a| = {float(dev.max()):.2f} standard errors "
            f"over {n_coords} coordinates, {draws} draws in {elapsed:.1f}s")


# -- criterion 3: posterior variance positivity ------------------------------


def test_criterion_3_positivity(default_run, verdict):
    result = default_run["result"]
    cfg = default_run["cfg"]
    mins = [result.artifacts[("ivon", s)].min_hdelta for s in cfg.seeds]
    ok = all(v is not None and v > 0.0 for v in mins) and not result.failures
    verdict(3, ok,
            f"min(h+delta) over every step of {len(mins)} runs: "
            f"{min(mins):.3e} > 0, {len(result.failures)} failures")


# -- criterion 4: metric oracle equivalence ----------------------------------


def _bf_sorted(conf, correct):
    pairs = sorted(zip(conf, correct), key=lambda p: (-p[0], p[1]))
    return [c for _, c in pairs]


def _bf_coverage_at_risk(conf, correct, budget):
    ranked = _bf_sorted(conf, correct)
    n = len(ranked)
    for k in range(n, 0, -1):
        errors = sum(1 for c in ranked[:k] if not c)
        if errors / k <= budget:
            return k / n
    return 0.0


def _bf_auc(conf, correct):
    ranked = _bf_sorted(conf, correct)
    risks = []
    errors = 0
    for k, c in enumerate(ranked, start=1):
        errors += 0 if c else 1
        risks.append(errors / k)
    return sum(risks) / len(risks)


def _bf_ece(conf, correct, n_bins):
    bins = {}
    for c, ok in zip(conf, correct):
        b = min(int(c * n_bins), n_bins - 1)
        cnt, csum, asum = bins.get(b, (0, 0.0, 0.0))
        bins[b] = (cnt + 1, csum + c, asum + (1.0 if ok else 0.0))
    n = len(conf)
    return sum(cnt / n * abs(asum / cnt - csum / cnt)
               for cnt, csum, asum in bins.values())


def _scores(conf, correct):
    return (np.asarray(conf, dtype=np.float64),
            np.asarray(correct, dtype=np.float64))


def test_criterion_4_metric_oracles(verdict):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        r = vrng.seed_rng(7000 + i)
        n = 1 + int(vrng.sample_uniform(vrng.child(r, 0), 1)[0] * 64)
        conf = vrng.sample_uniform(vrng.child(r, 1), n)
        if i % 3 == 0:
            conf = np.round(conf, 1)  # force confidence ties
        p_ok = 0.5 + 0.4 * vrng.sample_uniform(vrng.child(r, 2), 1)[0]
        correct = vrng.sample_uniform(vrng.child(r, 3), n) < p_ok
        scores = _scores(conf, correct)
        for budget in (0.0, 0.01, 0.05, 0.1, 0.5):
            worst = max(worst, abs(metrics.coverage_at_risk(*scores, budget)
                                   - _bf_coverage_at_risk(conf, correct, budget)))
        worst = max(worst, abs(metrics.risk_coverage_auc(*scores)
                               - _bf_auc(conf, correct)))
        for n_bins in (1, 7, 10):
            worst = max(worst, abs(metrics.ece(*scores, n_bins)
                                   - _bf_ece(conf, correct, n_bins)))
    # hand oracles
    scores = _scores([0.9, 0.8, 0.7, 0.6], [True, False, True, True])
    hand_ok = (
        metrics.risk_coverage_auc(*scores) == 13.0 / 48.0
        and metrics.coverage_at_risk(*scores, 0.05) == 0.25
        and metrics.ece(*_scores([0.9, 0.9, 0.9, 0.9],
                                 [True, True, True, False]), 10) == pytest.approx(0.15, abs=1e-15)
    )
    elapsed = time.perf_counter() - t0
    verdict(4, worst < 1e-12 and hand_ok and elapsed < 5.0,
            f"max |library - brute force| = {worst:.2e} over 200 instances; "
            f"hand oracles exact (AUC 13/48, C@5% 0.25); {elapsed:.1f}s")


# -- criterion 5: T -> inf recovers the posterior mean ------------------------


def test_criterion_5_mean_limit(default_run, verdict):
    result = default_run["result"]
    cfg = default_run["cfg"]
    dev = result.dev
    worst = 0.0
    for seed in cfg.seeds:
        art = result.artifacts[("ivon", seed)]
        base = predict.predict_mean(art.posterior, art.template, dev.features)
        root = vrng.child(experiment.eval_rng(seed), 9)
        for k in (1, 3, 8, 32):
            probs = predict.predict_mc(art.posterior, cfg.ivon, art.template,
                                       dev.features, k, 1e12,
                                       vrng.child(root, k))
            worst = max(worst, float(np.max(np.abs(probs - base))))
    verdict(5, worst < 1e-6,
            f"max |MC(T=1e12) - mean| probability gap {worst:.2e} "
            f"over 10 seeds x K in (1,3,8,32)")


# -- criteria 6-7: calibration trend and accuracy parity ---------------------


def test_criterion_6_calibration_trend(default_run, verdict):
    evals = default_run["result"].evals
    ece_a = _per_seed(evals, "AdamW", "ece")
    ece_i = _per_seed(evals, "IVON MC-8", "ece")
    auc_a = _per_seed(evals, "AdamW", "auc")
    auc_i = _per_seed(evals, "IVON MC-8", "auc")
    seeds = sorted(ece_a)

    ece_pairs = [(ece_i[s], ece_a[s]) for s in seeds if ece_i[s] != ece_a[s]]
    ece_wins = sum(1 for i, a in ece_pairs if i < a)
    p_ece = _sign_test_p(ece_wins, len(ece_pairs))
    auc_pairs = [(auc_i[s], auc_a[s]) for s in seeds if auc_i[s] != auc_a[s]]
    auc_wins = sum(1 for i, a in auc_pairs if i < a)
    p_auc = _sign_test_p(auc_wins, len(auc_pairs))

    mean_ece_i = np.mean([ece_i[s] for s in seeds])
    mean_ece_a = np.mean([ece_a[s] for s in seeds])
    mean_auc_i = np.mean([auc_i[s] for s in seeds])
    mean_auc_a = np.mean([auc_a[s] for s in seeds])
    elapsed = default_run["elapsed"]
    ok = (mean_ece_i < mean_ece_a and p_ece < 0.05
          and mean_auc_i <= mean_auc_a and p_auc < 0.05
          and elapsed < 600.0)
    verdict(6, ok,
            f"ECE x100: MC-8 {100 * mean_ece_i:.2f} < AdamW {100 * mean_ece_a:.2f} "
            f"(wins {ece_wins}/{len(ece_pairs)}, p={p_ece:.4f}); "
            f"AUC x100: {100 * mean_auc_i:.2f} <= {100 * mean_auc_a:.2f} "
            f"(wins {auc_wins}/{len(auc_pairs)}, p={p_auc:.4f}); "
            f"run took {elapsed:.0f}s")


def test_criterion_7_accuracy_parity(default_run, verdict):
    evals = default_run["result"].evals
    acc_mean = np.mean(list(_per_seed(evals, "IVON Mean", "acc").values()))
    acc_adamw = np.mean(list(_per_seed(evals, "AdamW", "acc").values()))
    gap = abs(acc_mean - acc_adamw)
    verdict(7, gap <= 0.02,
            f"|ACC(IVON Mean) - ACC(AdamW)| = {100 * gap:.2f}pp "
            f"({100 * acc_mean:.2f} vs {100 * acc_adamw:.2f})")


# -- criterion 8: ECE non-increasing in the MC sample count ------------------


def test_criterion_8_mc_trend(default_run, verdict):
    rows = default_run["sweep_rows"]
    ks = sorted({row["axis_value"] for row in rows})
    means = [float(np.mean([r["ece"] for r in rows if r["axis_value"] == k]))
             for k in ks]
    inversions = [(ks[j + 1], means[j + 1] - means[j])
                  for j in range(len(ks) - 1) if means[j + 1] > means[j]]
    ok = (ks == [1, 2, 4, 8, 16, 32]
          and len(inversions) <= 1
          and all(delta <= 0.003 for _, delta in inversions))
    trend = ", ".join(f"K={k}: {100 * m:.2f}" for k, m in zip(ks, means))
    verdict(8, ok,
            f"mean ECE x100 [{trend}]; "
            f"{len(inversions)} inversion(s), largest "
            f"{100 * max((d for _, d in inversions), default=0.0):.3f}")


# -- criterion 9: C@R monotone in the risk budget ----------------------------


def test_criterion_9_coverage_monotone(default_run, verdict):
    result = default_run["result"]
    rows = [(row.method, row.mean) for row in result.rows]
    rows += [(e.method, e.values) for e in result.evals]
    bad = [m for m, v in rows
           if not v["c_at_1"] <= v["c_at_5"] <= v["c_at_10"]]
    verdict(9, not bad,
            f"C@1% <= C@5% <= C@10% on all {len(rows)} rows "
            f"(aggregated + per seed)" + (f"; violated by {bad}" if bad else ""))


# -- criterion 10: byte-identical reports on rerun ---------------------------


def test_criterion_10_determinism(default_run, tmp_path, verdict):
    cfg = ExperimentConfig()
    cfg.out_dir = str(tmp_path / "run2")
    experiment.run_experiment(cfg)
    names = ("report.csv", "report.txt")
    same = {}
    for name in names:
        with open(f"{default_run['out_dir']}/{name}", "rb") as fh:
            first = fh.read()
        with open(f"{cfg.out_dir}/{name}", "rb") as fh:
            second = fh.read()
        same[name] = first == second
    verdict(10, all(same.values()),
            "rerun with the default config: " +
            ", ".join(f"{n} {'identical' if ok else 'DIFFERS'}"
                      for n, ok in same.items()))


# -- golden pin: the default run's report bytes -----------------------------

GOLDEN_SHA256 = {
    "report.csv": "86d0adb38a79ac75e56e30f51d87d1f044d1584d467223ce23ba53364c6f35a8",
    "report.txt": "7c0838f6ecb316dbb210101f73e0efbe972b097ce418610e76aae483152a13d4",
    "sweep_mc_samples.csv": "21acb1b723af5f0ead0183a411350a4af0aafe499082fc7994a5a1c50e7d48bd",
}


def test_golden_report_pin(default_run):
    got = {}
    for name in GOLDEN_SHA256:
        with open(f"{default_run['out_dir']}/{name}", "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == GOLDEN_SHA256
