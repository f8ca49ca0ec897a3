"""Accuracy, calibration, and selective-prediction metrics on arrays.

Two kinds of input, one per metric family:

* ``accuracy``, ``nll`` and ``brier`` score a probability matrix
  ``probs`` [n, C] against integer gold ``labels`` [n].
* ``ece``, ``reliability_table``, ``coverage_at_risk``,
  ``risk_coverage_curve`` and ``risk_coverage_auc`` score MaxProb
  confidences ``conf`` [n] in [0, 1] against ``correct`` [n] (1 where
  the arg-max class is the gold class, else 0).
  ``records_from_probs`` turns a probability matrix into that pair.

Conventions, fixed here and relied on by the report layer:

* ECE uses equal-width confidence bins; interior bins are right-open
  and the last bin includes 1.0 (bin index floor(c*B) clipped to B-1).
* Confidence sorts break ties pessimistically, incorrect before
  correct, so coverage-at-risk and the risk-coverage AUC are
  deterministic and conservative.
* Coverage at risk uses error rate <= budget (inclusive).
* The AUC is the mean prefix risk, a step integral over coverage.
* All values here are raw fractions; the report layer scales ECE,
  Brier, and AUC by 100 for display.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def records_from_probs(probs: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """MaxProb (confidence, correct) arrays for a probability matrix."""
    preds = np.argmax(probs, axis=1)
    conf = probs[np.arange(probs.shape[0]), preds]
    return conf, (preds == labels).astype(np.float64)


def _check_probs(probs: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("empty prediction batch")
    if labels.shape != (probs.shape[0],):
        raise ValueError("labels do not match probability rows")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9) or np.any(probs < -1e-9):
        raise ValueError("probability rows are not valid distributions")
    return probs, labels


def _check_scores(conf: np.ndarray, correct: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    conf = np.asarray(conf, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    if conf.ndim != 1 or conf.shape[0] == 0:
        raise ValueError("empty confidence array")
    if correct.shape != conf.shape:
        raise ValueError("correct does not match confidence rows")
    if np.any(conf < 0.0) or np.any(conf > 1.0):
        raise ValueError("confidence outside [0, 1]")
    return conf, correct


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    probs, labels = _check_probs(probs, labels)
    preds = np.argmax(probs, axis=1)
    return float(np.mean(preds == labels))


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; gold probabilities clamped at 1e-12."""
    probs, labels = _check_probs(probs, labels)
    gold = probs[np.arange(probs.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(gold, 1e-12))))


def brier(probs: np.ndarray, labels: np.ndarray) -> float:
    """Full multiclass Brier score, range [0, 2]."""
    probs, labels = _check_probs(probs, labels)
    onehot = np.zeros_like(probs)
    onehot[np.arange(probs.shape[0]), labels] = 1.0
    return float(np.mean(np.sum((probs - onehot) ** 2, axis=1)))


def _reliability_rows(
    conf: np.ndarray, correct: np.ndarray, n_bins: int
) -> List[Tuple[int, float, float]]:
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    conf, correct = _check_scores(conf, correct)
    # interior bins right-open; confidence 1.0 folds into the last bin
    idx = np.minimum(np.floor(conf * n_bins).astype(np.int64), n_bins - 1)
    rows = []
    for b in range(n_bins):
        mask = idx == b
        cnt = int(mask.sum())
        if cnt == 0:
            rows.append((0, 0.0, 0.0))
        else:
            rows.append((cnt, float(conf[mask].mean()), float(correct[mask].mean())))
    return rows


def reliability_table(
    conf: np.ndarray, correct: np.ndarray, n_bins: int = 10
) -> List[Tuple[int, float, float]]:
    """Per-bin (count, mean confidence, accuracy); empty bins keep count 0."""
    return _reliability_rows(conf, correct, n_bins)


def ece(conf: np.ndarray, correct: np.ndarray, n_bins: int = 10) -> float:
    # perfbench/spans.py times each public metric as one span, so the
    # rows come from the helper: via reliability_table one ECE counts twice
    rows = _reliability_rows(conf, correct, n_bins)
    n = sum(cnt for cnt, _, _ in rows)
    total = 0.0
    for cnt, mean_conf, acc in rows:
        if cnt:
            gap = abs(acc - mean_conf)
            total += (cnt / n) * gap
    return total


def _prefix_risk(conf: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """Error rate of each prefix of the pessimistically sorted rows."""
    conf, correct = _check_scores(conf, correct)
    # descending confidence; at equal confidence incorrect rows come first
    order = np.lexsort((correct, -conf))
    errors = np.cumsum(1.0 - correct[order])
    return errors / np.arange(1, conf.shape[0] + 1, dtype=np.float64)


def coverage_at_risk(conf: np.ndarray, correct: np.ndarray, risk_budget: float) -> float:
    """Largest answerable fraction keeping prefix error rate <= budget."""
    if not 0.0 <= risk_budget <= 1.0:
        raise ValueError("risk budget must lie in [0, 1]")
    ok = _prefix_risk(conf, correct) <= risk_budget
    if not ok.any():
        return 0.0
    return float((int(np.nonzero(ok)[0].max()) + 1) / ok.shape[0])


def risk_coverage_curve(conf: np.ndarray, correct: np.ndarray) -> List[Tuple[float, float]]:
    """(coverage, risk) after each answered row, most confident first."""
    risks = _prefix_risk(conf, correct)
    n = risks.shape[0]
    coverage = np.arange(1, n + 1, dtype=np.float64) / n
    return list(zip(coverage.tolist(), risks.tolist()))


def risk_coverage_auc(conf: np.ndarray, correct: np.ndarray) -> float:
    """Mean prefix risk over the pessimistically sorted rows."""
    return float(np.mean(_prefix_risk(conf, correct)))
