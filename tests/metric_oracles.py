"""Brute-force twins of the selective-prediction and calibration metrics.

Plain Python loops over (confidence, correct) pairs, written from the
metric definitions rather than from ``vical.metrics``: criterion 4 and
the metric properties compare the library against them.
"""


def bf_sorted(conf, correct):
    # descending confidence, incorrect before correct on ties
    pairs = sorted(zip(conf, correct), key=lambda p: (-p[0], p[1]))
    return [c for _, c in pairs]


def bf_coverage_at_risk(conf, correct, budget):
    ranked = bf_sorted(conf, correct)
    n = len(ranked)
    for k in range(n, 0, -1):
        errors = sum(1 for c in ranked[:k] if not c)
        if errors / k <= budget:
            return k / n
    return 0.0


def bf_auc(conf, correct):
    ranked = bf_sorted(conf, correct)
    risks = []
    errors = 0
    for k, c in enumerate(ranked, start=1):
        errors += 0 if c else 1
        risks.append(errors / k)
    return sum(risks) / len(risks)


def bf_ece(conf, correct, n_bins):
    bins = {}
    for c, ok in zip(conf, correct):
        b = min(int(c * n_bins), n_bins - 1)
        cnt, csum, asum = bins.get(b, (0, 0.0, 0.0))
        bins[b] = (cnt + 1, csum + c, asum + (1.0 if ok else 0.0))
    n = len(conf)
    return sum(cnt / n * abs(asum / cnt - csum / cnt)
               for cnt, csum, asum in bins.values())
