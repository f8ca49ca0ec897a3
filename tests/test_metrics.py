import math

import numpy as np
import pytest

from vical import metrics, rng


def _scores(pairs):
    """(conf, correct) arrays from (confidence, is-correct) pairs."""
    conf = np.array([c for c, _ in pairs], dtype=np.float64)
    correct = np.array([1.0 if ok else 0.0 for _, ok in pairs])
    return conf, correct


ORACLE = _scores([(0.9, True), (0.8, False), (0.7, True), (0.6, True)])


# ----------------------------------------------------- brute-force twins ---

def _bf_sorted(conf, correct):
    # descending confidence, incorrect before correct on ties
    return sorted(zip(conf.tolist(), correct.tolist()), key=lambda r: (-r[0], r[1]))


def _bf_coverage_at_risk(conf, correct, budget):
    rs = _bf_sorted(conf, correct)
    n = len(rs)
    best = 0.0
    errs = 0
    for k, (_, ok) in enumerate(rs, start=1):
        errs += not ok
        if errs / k <= budget:
            best = k / n
    return best


def _bf_auc(conf, correct):
    rs = _bf_sorted(conf, correct)
    errs, total = 0, 0.0
    for k, (_, ok) in enumerate(rs, start=1):
        errs += not ok
        total += errs / k
    return total / len(rs)


def _bf_ece(conf, correct, bins):
    sums = {}
    for c, ok in zip(conf.tolist(), correct.tolist()):
        b = min(int(c * bins), bins - 1)
        cnt, s, oks = sums.get(b, (0, 0.0, 0))
        sums[b] = (cnt + 1, s + c, oks + bool(ok))
    n = len(conf)
    return sum(
        (c / n) * abs(ok / c - s / c) for c, s, ok in sums.values()
    )


def _random_scores(key, n, c):
    r = rng.seed_rng(key)
    conf = rng.sample_uniform(rng.child(r, 0), n)
    pred = np.floor(rng.sample_uniform(rng.child(r, 1), n) * c).astype(int)
    gold = np.floor(rng.sample_uniform(rng.child(r, 2), n) * c).astype(int)
    return conf, (pred == gold).astype(np.float64)


# ----------------------------------------------------------- hand oracles --

def test_ece_single_bin_oracle():
    conf, correct = _scores([(0.7, i < 5) for i in range(10)])
    assert abs(metrics.ece(conf, correct, n_bins=10) - 0.2) < 1e-12


def test_ece_perfect_calibration_is_zero():
    assert metrics.ece(np.ones(6), np.ones(6), n_bins=10) == 0.0


def test_ece_confidence_one_falls_in_last_bin():
    table = metrics.reliability_table(np.ones(1), np.ones(1), n_bins=10)
    assert table[-1][0] == 1 and sum(row[0] for row in table) == 1


def test_coverage_at_risk_oracle():
    assert metrics.coverage_at_risk(*ORACLE, 0.05) == 0.25
    assert metrics.coverage_at_risk(*ORACLE, 0.25) == 1.0
    # inclusive budget boundary
    two = _scores([(0.9, False), (0.8, True)])
    assert metrics.coverage_at_risk(*two, 0.5) == 1.0
    assert metrics.coverage_at_risk(*two, 0.49) == 0.0


def test_risk_coverage_auc_oracle():
    assert abs(metrics.risk_coverage_auc(*ORACLE) - 13.0 / 48.0) < 1e-15


def test_pessimistic_tie_break():
    tied = _scores([(0.8, True), (0.8, False)])
    assert metrics.coverage_at_risk(*tied, 0.0) == 0.0
    assert abs(metrics.risk_coverage_auc(*tied) - 0.75) < 1e-15
    curve = metrics.risk_coverage_curve(*tied)
    assert curve[0][1] == 1.0 and curve[1][1] == 0.5


def test_risk_coverage_curve_shape():
    curve = metrics.risk_coverage_curve(*ORACLE)
    assert [coverage for coverage, _ in curve] == [0.25, 0.5, 0.75, 1.0]
    assert abs(np.mean([risk for _, risk in curve]) - metrics.risk_coverage_auc(*ORACLE)) < 1e-15


def test_accuracy_nll_brier_oracles():
    probs, labels = np.array([[0.25, 0.75], [0.9, 0.1]]), np.array([1, 1])
    assert metrics.accuracy(probs, labels) == 0.5
    expected_nll = -(math.log(0.75) + math.log(0.1)) / 2.0
    assert abs(metrics.nll(probs, labels) - expected_nll) < 1e-15
    expected_brier = ((0.25 ** 2 + 0.25 ** 2) + (0.9 ** 2 + 0.9 ** 2)) / 2.0
    assert abs(metrics.brier(probs, labels) - expected_brier) < 1e-15


def test_brier_range_endpoints():
    onehot = np.array([[1.0, 0.0]])
    assert metrics.brier(onehot, np.array([0])) == 0.0
    assert metrics.brier(onehot, np.array([1])) == 2.0
    assert metrics.brier(np.array([[0.5, 0.5]]), np.array([0])) == 0.5


def test_nll_clamps_zero_probability():
    probs, labels = np.array([[1.0, 0.0]]), np.array([1])
    assert abs(metrics.nll(probs, labels) + math.log(1e-12)) < 1e-9


# --------------------------------------------------------------- property --

def test_matches_brute_force_on_random_instances():
    for i in range(60):
        r = rng.seed_rng(1000 + i)
        n = 2 + int(rng.sample_uniform(rng.child(r, 10), 1)[0] * 63)
        c = 2 + int(rng.sample_uniform(rng.child(r, 11), 1)[0] * 4)
        conf, correct = _random_scores(2000 + i, n, c)
        for budget in (0.0, 0.01, 0.05, 0.1, 0.5):
            got = metrics.coverage_at_risk(conf, correct, budget)
            assert abs(got - _bf_coverage_at_risk(conf, correct, budget)) < 1e-12
        assert abs(metrics.risk_coverage_auc(conf, correct) - _bf_auc(conf, correct)) < 1e-12
        for bins in (1, 7, 10):
            assert abs(metrics.ece(conf, correct, bins) - _bf_ece(conf, correct, bins)) < 1e-12


def test_coverage_monotone_in_budget():
    scores = _random_scores(5, 200, 4)
    c1 = metrics.coverage_at_risk(*scores, 0.01)
    c5 = metrics.coverage_at_risk(*scores, 0.05)
    c10 = metrics.coverage_at_risk(*scores, 0.10)
    assert 0.0 <= c1 <= c5 <= c10 <= 1.0


def test_permutation_invariance():
    conf, correct = _random_scores(6, 100, 3)
    shuffled = (conf[::-1], correct[::-1])
    assert abs(metrics.ece(conf, correct) - metrics.ece(*shuffled)) < 1e-12
    assert metrics.risk_coverage_auc(conf, correct) == metrics.risk_coverage_auc(*shuffled)
    assert (metrics.coverage_at_risk(conf, correct, 0.1)
            == metrics.coverage_at_risk(*shuffled, 0.1))


def test_reliability_table_consistent_with_ece():
    scores = _random_scores(7, 500, 4)
    table = metrics.reliability_table(*scores, n_bins=10)
    assert sum(row[0] for row in table) == 500
    n = scores[0].shape[0]
    recomposed = sum(
        (cnt / n) * abs(acc - conf) for cnt, conf, acc in table if cnt
    )
    assert abs(recomposed - metrics.ece(*scores, 10)) < 1e-12


def test_calibrated_stream_has_low_ece():
    r = rng.seed_rng(8)
    conf = rng.sample_uniform(rng.child(r, 0), 100_000)
    coin = rng.sample_uniform(rng.child(r, 1), 100_000)
    correct = (coin < conf).astype(np.float64)
    assert metrics.ece(conf, correct, n_bins=10) < 0.03


def test_records_from_probs():
    probs = np.array([[0.2, 0.8], [0.6, 0.4]])
    conf, correct = metrics.records_from_probs(probs, np.array([1, 1]))
    # arg-max classes are [1, 0] against gold [1, 1]
    assert conf.tolist() == [0.8, 0.6]
    assert correct.tolist() == [1.0, 0.0]


def test_validation_errors():
    with pytest.raises(ValueError):
        metrics.ece(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        metrics.ece(*ORACLE, n_bins=0)
    with pytest.raises(ValueError):
        metrics.coverage_at_risk(*ORACLE, 1.5)
    with pytest.raises(ValueError):
        metrics.ece(np.array([1.2]), np.ones(1))
    with pytest.raises(ValueError):
        metrics.risk_coverage_auc(np.array([0.9, 0.8]), np.ones(3))
    with pytest.raises(ValueError):
        metrics.accuracy(np.array([[0.5, 0.6]]), np.array([0]))
    with pytest.raises(ValueError):
        metrics.nll(np.zeros((0, 2)), np.zeros(0, dtype=int))
