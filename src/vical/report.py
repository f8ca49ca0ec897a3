"""Every file vical writes, through ``write_text``: the aligned text table,
raw CSV, sweep curves, eval exports, metadata and gen-data's dataset CSVs.

``report.csv`` keeps raw fractions. The text table multiplies ECE, Brier, and
AUC by 100 (the usual presentation scale for these metrics) and tags
each column with its improvement direction. Outputs contain no
timestamps, so a rerun with the same config writes identical bytes.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Iterable, List, Sequence

import numpy as np

from . import __version__, backend
from .config import ExperimentConfig, config_dict, config_hash
from .experiment import METRIC_KEYS, SWEEP_KEYS, EvalResult, ExperimentResult, ReportRow
from .metrics import records_from_probs, reliability_table, risk_coverage_curve

_SCALED = ("ece", "brier", "auc")  # shown as x100 in the table
_HEADERS = {
    "acc": "ACC↑", "ece": "ECE↓", "nll": "NLL↓",
    "brier": "Brier↓", "c_at_1": "C@1%↑", "c_at_5": "C@5%↑",
    "c_at_10": "C@10%↑", "auc": "AUC↓",
}


def _fmt_mean_sd(key: str, mean: float, sd: float) -> str:
    if key in _SCALED:
        return f"{100.0 * mean:.1f}±{100.0 * sd:.1f}"
    if key == "acc" or key.startswith("c_at"):
        return f"{mean:.3f}±{sd:.3f}"
    return f"{mean:.4f}±{sd:.4f}"


def format_table(rows: Sequence[ReportRow]) -> str:
    headers = ["Method", "Seeds"] + [_HEADERS[k] for k in METRIC_KEYS]
    body = []
    for row in rows:
        cells = [row.method, str(row.seed_count)]
        cells += [_fmt_mean_sd(k, row.mean[k], row.sd[k]) for k in METRIC_KEYS]
        body.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    lines.append("")
    lines.append("ECE, Brier, and AUC are x100; other columns are raw fractions. "
                 "Values are mean±sd over seeds.")
    return "\n".join(lines) + "\n"


def _csv_line(cells: Sequence) -> str:
    return ",".join(repr(c) if isinstance(c, float) else str(c) for c in cells)


def write_text(path: str, text: str) -> None:
    """Write ``text`` to a temp file next to ``path``, in a directory made if missing, then
    rename it over ``path``: a reader sees the old file or the new one, never a part."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """All lines are formatted before the file is touched, so a row that
    raises leaves ``path`` as it was."""
    write_text(path, "".join(_csv_line(cells) + "\n" for cells in [header, *rows]))


def write_report_csv(rows: Sequence[ReportRow], path: str) -> None:
    header = (["method", "seed_count"] + list(METRIC_KEYS)
              + [f"{k}_sd" for k in METRIC_KEYS])
    _write_csv(path, header, (
        [row.method, row.seed_count]
        + [float(row.mean[k]) for k in METRIC_KEYS]
        + [float(row.sd[k]) for k in METRIC_KEYS]
        for row in rows))


def write_sweep_csv(rows: List[dict], axis: str, out_dir: str) -> str:
    path = os.path.join(out_dir, f"sweep_{axis}.csv")
    _write_csv(path, ["axis_value", "seed", *SWEEP_KEYS], (
        [r["axis_value"], r["seed"]] + [float(r[k]) for k in SWEEP_KEYS]
        for r in rows))
    return path


def write_eval_csv(results: Sequence[EvalResult], path: str) -> None:
    """Per-seed metric rows of one evaluation, raw fractions."""
    _write_csv(path, ["method", "seed", *METRIC_KEYS], (
        [ev.method, ev.seed] + [float(ev.values[k]) for k in METRIC_KEYS]
        for ev in results))


def write_curve_csv(scores_by_method: dict, path: str) -> None:
    """Risk-coverage curves, one block per method tag.

    ``scores_by_method`` maps a tag to its (confidence, correct) arrays.
    """
    rows = []
    for method, (conf, correct) in scores_by_method.items():
        for coverage, risk in risk_coverage_curve(conf, correct):
            rows.append([method, coverage, risk])
    _write_csv(path, ["method", "coverage", "risk"], rows)


def write_reliability_csv(scores_by_method: dict, n_bins: int, path: str) -> None:
    rows = []
    for method, (conf, correct) in scores_by_method.items():
        for b, (count, mean_conf, acc) in enumerate(reliability_table(conf, correct, n_bins)):
            rows.append([method, float(b) / n_bins, float(b + 1) / n_bins,
                         count, float(mean_conf), float(acc)])
    _write_csv(path, ["method", "bin_lo", "bin_hi", "count", "mean_confidence", "accuracy"],
               rows)


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vical": __version__,
    }


def emit_report(result: ExperimentResult, cfg: ExperimentConfig, out_dir: str) -> str:
    """Write report.txt, report.csv, and metadata.json; return the table text.

    When every run failed, the table and CSV have no rows and the
    WARNING line and metadata.json name the failures.
    """
    table = format_table(result.rows)
    if result.failures:
        tags = ", ".join(f"{f.method}/seed{f.seed}" for f in result.failures)
        table += f"WARNING: {len(result.failures)} failed run(s) excluded: {tags}\n"
    write_text(os.path.join(out_dir, "report.txt"), table)
    write_report_csv(result.rows, os.path.join(out_dir, "report.csv"))
    meta = {
        "config_hash": config_hash(cfg),
        "config": config_dict(cfg),
        "backend": backend.active(),
        "seeds": sorted(cfg.seeds),
        "methods": [row.method for row in result.rows],
        "failures": [f.record() for f in result.failures],
        "versions": _versions(),
    }
    write_text(os.path.join(out_dir, "metadata.json"),
               json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return table


def emit_eval(result: ExperimentResult, cfg: ExperimentConfig, out_dir: str) -> None:
    """Write eval_metrics.csv (every per-seed row), risk_coverage.csv and
    reliability.csv (the point and mean rows, which keep their probabilities)."""
    write_eval_csv(result.evals, os.path.join(out_dir, "eval_metrics.csv"))
    scores = {ev.method: records_from_probs(ev.probs, result.dev.labels)
              for ev in result.evals if ev.probs is not None}
    write_curve_csv(scores, os.path.join(out_dir, "risk_coverage.csv"))
    write_reliability_csv(scores, cfg.eval.ece_bins, os.path.join(out_dir, "reliability.csv"))
