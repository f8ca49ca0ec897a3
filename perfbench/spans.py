"""Span tracing for the benchmark's traced runs.

The program carries no tracing code. Instead ``instrument`` replaces
public functions of the vical modules with wrappers, from outside the
package, before any module that binds those names at import time is
loaded. Each wrapped call is a span. A span's self time is its duration
minus the durations of the wrapped calls it encloses (its children), so
optimizer self time excludes the kernels it calls.

Spans are aggregated in memory as they close: call counts, summed self
time, inclusive durations, and work counters such as rows or draws.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Bytes a kernel call reads plus writes, per element of its flat vector,
# computed from the argument arrays (float64), not measured traffic:
# adamw_core reads params, grad, m, v and writes params, m, v;
# ivon_core reads mean, hess, g_mom, gprod, gavg and writes mean, hess, g_mom;
# normal_fill writes one float64 per draw.
ADAMW_BYTES_PER_ELEM = 8 * (4 + 3)
IVON_BYTES_PER_ELEM = 8 * (5 + 3)

METRIC_FUNCS = (
    "records_from_probs", "accuracy", "nll", "brier", "ece",
    "reliability_table", "coverage_at_risk", "risk_coverage_curve",
    "risk_coverage_auc",
)
REPORT_FUNCS = (
    "emit_report", "format_table", "write_report_csv", "write_sweep_csv",
    "write_curve_csv", "write_reliability_csv",
)


class Tracer:
    """Collects spans from wrapped functions; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open = []  # child time accumulated by each open span
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(int)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counts": dict(self.counts),
        }

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording each call as a span called ``name``.

        ``count(*args, **kwargs)`` returns work counters to add per call.
        """
        clock, stack = self._clock, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, n in count(*args, **kwargs).items():
                    self.counts[key] += n
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - child
                self.durations[name].append(dur)

        return traced


def _rows(first, *_args, **_kwargs) -> int:
    """Rows scored by a metrics call: a PredictionBatch, a probability
    matrix, or a record list."""
    probs = getattr(first, "probs", first)
    return int(probs.shape[0]) if hasattr(probs, "shape") else len(probs)


def instrument(tracer: Tracer) -> None:
    """Wrap the vical layers' public functions; call before importing
    ``vical.report`` or ``vical.cli``, which bind names at import."""
    late = [m for m in ("vical.report", "vical.cli") if m in sys.modules]
    if late:
        raise RuntimeError(f"instrument() must run before importing {late}")
    mod = {name: importlib.import_module(f"vical.{name}") for name in (
        "_kernels", "model", "numeric", "optim", "predict", "metrics",
        "experiment", "data")}

    def wrap(module, func, span, count=None):
        setattr(mod[module], func, tracer.wrap(span, getattr(mod[module], func), count))

    wrap("_kernels", "normal_fill", "kernels.normal_fill",
         lambda key, counter, n: {"rng.normal_draws": n,
                                  "kernels.normal_fill.bytes_computed": 8 * n})
    wrap("_kernels", "uniform_fill", "kernels.uniform_fill",
         lambda key, counter, n: {"rng.uniform_draws": n})
    wrap("_kernels", "adamw_core", "kernels.adamw_core",
         lambda params, *a: {"kernels.adamw_core.bytes_computed":
                             ADAMW_BYTES_PER_ELEM * params.shape[0]})
    wrap("_kernels", "ivon_core", "kernels.ivon_core",
         lambda mean, *a: {"kernels.ivon_core.bytes_computed":
                           IVON_BYTES_PER_ELEM * mean.shape[0]})
    wrap("model", "loss_and_grad", "model.loss_and_grad")
    wrap("model", "forward", "model.forward",
         lambda params, features: {"model.forward.rows": features.shape[0]})
    wrap("numeric", "softmax", "numeric.softmax")
    wrap("numeric", "log_softmax", "numeric.log_softmax")
    for func in ("adamw_step", "ivon_step", "ivon_sample"):
        wrap("optim", func, f"optim.{func}")
    for func in ("predict_mc", "predict_point", "predict_mean"):
        wrap("predict", func, f"predict.{func}")
    for func in METRIC_FUNCS:
        wrap("metrics", func, "metrics",
             lambda *a, **k: {"metrics.rows_scored": _rows(*a, **k)})
    for func in ("train_one", "evaluate_one", "run_experiment"):
        wrap("experiment", func, f"experiment.{func}")
    wrap("data", "generate_dataset", "data.generate_dataset")

    mod["report"] = importlib.import_module("vical.report")
    for func in REPORT_FUNCS:
        wrap("report", func, "report")
    mod["cli"] = importlib.import_module("vical.cli")
    wrap("cli", "run_cli", "cli")
