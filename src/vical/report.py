"""Report files: aligned text table, raw CSV, sweep curves, metadata.

The CSV keeps raw fractions. The text table multiplies ECE, Brier, and
AUC by 100 (the usual presentation scale for these metrics) and tags
each column with its improvement direction. Outputs contain no
timestamps, so a rerun with the same config writes identical bytes.
"""

from __future__ import annotations

import json
import os
import platform
from typing import List, Sequence

import numpy as np

from . import __version__, backend
from .config import ExperimentConfig, config_dict, config_hash
from .experiment import METRIC_KEYS, EvalResult, ExperimentResult, ReportRow
from .metrics import reliability_table, risk_coverage_curve

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


def write_report_csv(rows: Sequence[ReportRow], path: str) -> None:
    header = (["method", "seed_count"] + list(METRIC_KEYS)
              + [f"{k}_sd" for k in METRIC_KEYS])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [row.method, row.seed_count]
            cells += [float(row.mean[k]) for k in METRIC_KEYS]
            cells += [float(row.sd[k]) for k in METRIC_KEYS]
            fh.write(_csv_line(cells) + "\n")


def write_sweep_csv(rows: List[dict], axis: str, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"sweep_{axis}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("axis_value,seed,acc,ece,c_at_5,auc\n")
        for r in rows:
            cells = [r["axis_value"], r["seed"], float(r["acc"]),
                     float(r["ece"]), float(r["c_at_5"]), float(r["auc"])]
            fh.write(_csv_line(cells) + "\n")
    return path


def write_eval_csv(results: Sequence[EvalResult], path: str) -> None:
    """Per-seed metric rows of one evaluation, raw fractions."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,seed," + ",".join(METRIC_KEYS) + "\n")
        for ev in results:
            cells = [ev.method, ev.seed] + [float(ev.values[k]) for k in METRIC_KEYS]
            fh.write(_csv_line(cells) + "\n")


def write_curve_csv(scores_by_method: dict, path: str) -> None:
    """Risk-coverage curves, one block per method tag.

    ``scores_by_method`` maps a tag to its (confidence, correct) arrays.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,coverage,risk\n")
        for method, (conf, correct) in scores_by_method.items():
            for coverage, risk in risk_coverage_curve(conf, correct):
                fh.write(_csv_line([method, coverage, risk]) + "\n")


def write_reliability_csv(scores_by_method: dict, n_bins: int, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,bin_lo,bin_hi,count,mean_confidence,accuracy\n")
        for method, (conf, correct) in scores_by_method.items():
            rows = reliability_table(conf, correct, n_bins)
            for b, (count, mean_conf, acc) in enumerate(rows):
                cells = [method, float(b) / n_bins, float(b + 1) / n_bins,
                         count, float(mean_conf), float(acc)]
                fh.write(_csv_line(cells) + "\n")


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vical": __version__,
    }


def emit_report(result: ExperimentResult, cfg: ExperimentConfig, out_dir: str) -> dict:
    """Write report.txt, report.csv, and metadata.json; return the paths."""
    if not result.rows:
        raise ValueError("no report rows to emit (all runs failed?)")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "table": os.path.join(out_dir, "report.txt"),
        "csv": os.path.join(out_dir, "report.csv"),
        "metadata": os.path.join(out_dir, "metadata.json"),
    }
    table = format_table(result.rows)
    if result.failures:
        tags = ", ".join(f"{f['method']}/seed{f['seed']}" for f in result.failures)
        table += f"WARNING: {len(result.failures)} failed run(s) excluded: {tags}\n"
    with open(paths["table"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table)
    write_report_csv(result.rows, paths["csv"])
    meta = {
        "config_hash": config_hash(cfg),
        "config": config_dict(cfg),
        "backend": backend.active(),
        "seeds": sorted(cfg.seeds),
        "methods": [row.method for row in result.rows],
        "failures": result.failures,
        "versions": _versions(),
    }
    with open(paths["metadata"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
