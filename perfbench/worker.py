"""One benchmark worker process: set up a workload, warm up, time repetitions.

run.py starts each worker as a fresh interpreter with ``src`` on the path,
``VICAL_BACKEND=numpy`` and the BLAS thread count set, and reads the JSON
the worker writes to ``--result``:

  ready      CLOCK_MONOTONIC when set-up finished (run.py subtracts the
             moment it started the process, giving ``setup_s``)
  facts      library and machine facts seen from inside the process
  reps       per timed repetition: wall and CPU seconds, ops attempted and
             failed, work units, sha256 of each checked output file,
             whether the files parse, and with --trace 1 the span totals
  implied    the call counts the workload's config implies per repetition
  setup_trace  span totals of set-up (--trace 1 only)

Workload inputs come from the workload seed n alone: the dataset seed is
17 + n and the run seeds follow n, so n = 0 is the shipped default config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

# (seed, optimizer) runs per `vical run` repetition: 2 seeds x 2 optimizers
# = 2 x nproc on the 2-core reference machine, so a seed-level process pool
# has work to spread.
RUN_SEEDS = 2
DATASET_SEED_BASE = 17  # the shipped default, reached at workload seed 0

OUTPUT_FILES = {
    "run-default": ("report.csv", "report.txt"),
    "eval-seed": ("eval_metrics.csv", "risk_coverage.csv", "reliability.csv"),
}
# Files the report module writes; their sizes give report.bytes_written.
REPORT_FILES = ("report.txt", "report.csv", "metadata.json", "sweep_mc_samples.csv",
                "risk_coverage.csv", "reliability.csv")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parses(path: str) -> bool:
    """A CSV output is sane when every row has the header's width and every
    numeric cell is finite; a text output when it is non-empty."""
    if not path.endswith(".csv"):
        return os.path.getsize(path) > 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        return False
    for row in rows[1:]:
        if len(row) != len(rows[0]):
            return False
        for cell in row:
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                pass  # method tags
    return True


def output_record(out: str, files) -> dict:
    """sha256 of each checked output file, and whether all exist and parse."""
    paths = {f: os.path.join(out, f) for f in files}
    present = all(os.path.isfile(p) for p in paths.values())
    return {"digests": {f: _sha256(p) for f, p in paths.items()} if present else {},
            "sane": present and all(_parses(p) for p in paths.values())}


def _write_ini(path: str, sections: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
    return path


def blas_facts() -> dict:
    """BLAS name and version from numpy's build info, and the thread count
    the loaded OpenBLAS reports (None when it cannot be asked)."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = int(fn())
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


class Workload:
    """Set-up, warm-up and one timed repetition of a benchmark workload."""

    def __init__(self, name: str, seed: int, tmp: str):
        from vical import config

        self.name, self.seed, self.tmp = name, seed, tmp
        self.files = OUTPUT_FILES[name]
        per_rep = {"run-default": RUN_SEEDS, "eval-seed": 1}[name]
        seeds = [seed * per_rep + i for i in range(per_rep)]
        base = {"dataset": {"seed": DATASET_SEED_BASE + seed},
                "run": {"seeds": ", ".join(map(str, seeds))}}
        self.ini = _write_ini(os.path.join(tmp, "workload.ini"), base)
        # Warm-up: the same model, code path and dev set on 100 steps per run.
        short = dict(base, train={"epochs": 1})
        short["dataset"] = dict(base["dataset"], n_train=400)
        self.warm_ini = _write_ini(os.path.join(tmp, "warmup.ini"), short)
        self.cfg = config.load_config(self.ini)

    def setup(self) -> None:
        from vical import experiment

        self.data = experiment.load_data(self.cfg)

    def _run(self, out: str, warm: bool = False) -> int:
        from vical import cli

        ini = self.warm_ini if warm else self.ini
        if self.name == "run-default":
            return cli.run_cli(["run", "--config", ini, "--out", out])
        return cli.run_cli(["eval", "--config", ini, "--seed", str(self.seed), "--out", out])

    def ops(self) -> int:
        """Ops per repetition: (seed, optimizer) runs."""
        return 2 * len(self.cfg.seeds)

    def work(self) -> int:
        """Optimizer steps per repetition."""
        return self.ops() * self.steps_per_run()

    def steps_per_run(self) -> int:
        return self.cfg.epochs * (self.cfg.dataset.n_train // self.cfg.batch_size)

    def implied(self) -> dict:
        """Wrapped calls per repetition that the config implies; fewer
        means work escaped the wrappers."""
        cfg = self.cfg
        seeds = len(cfg.seeds)
        t, m = self.steps_per_run(), cfg.ivon.train_samples
        k = sum(cfg.eval.mc_samples) * len(cfg.eval.temperatures)
        return {
            "model.loss_and_grad": seeds * t * (1 + m),
            "kernels.adamw_core": seeds * t,
            "kernels.ivon_core": seeds * t,
            "optim.ivon_sample": seeds * (t * m + k),
            # one point, one mean and k MC forwards per seed
            "model.forward": seeds * (2 + k),
            "experiment.train_one": 2 * seeds,
        }

    def failed_ops(self, rc: int, out: str) -> int:
        if rc == 0:
            return 0
        meta = os.path.join(out, "metadata.json")
        if rc == 4 and self.name == "run-default" and os.path.exists(meta):
            with open(meta) as fh:
                return len(json.load(fh)["failures"])
        return self.ops()

    def warm_up(self) -> None:
        out = os.path.join(self.tmp, "warmup")
        self._run(out, warm=True)
        shutil.rmtree(out, ignore_errors=True)

    def rep(self, index: int, tracer=None) -> dict:
        out = os.path.join(self.tmp, f"rep{index}")
        if tracer is not None:
            tracer.reset()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            rc = self._run(out)
        except Exception:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            rc = -1
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        rec = {"wall_s": wall, "cpu_s": cpu, "ops": self.ops(),
               "failed": self.failed_ops(rc, out), "work": self.work(), "trace": None,
               **output_record(out, self.files)}
        if tracer is not None:
            rec["trace"] = tracer.snapshot()
            rec["trace"]["report_bytes"] = sum(
                os.path.getsize(os.path.join(out, f)) for f in REPORT_FILES
                if os.path.isfile(os.path.join(out, f)))
        shutil.rmtree(out, ignore_errors=True)
        return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OUTPUT_FILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="timed seconds to aim for; at least one repetition runs, "
                         "none when 0 (set-up only)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True, help="scratch directory for outputs")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    from vical import backend, cli, experiment, model  # noqa: F401  (cli: import cost is set-up)

    wl = Workload(args.workload, args.seed, args.tmp)
    wl.setup()
    ready = time.monotonic()
    setup_trace = tracer.snapshot() if tracer else None

    reps = []
    if args.budget > 0:
        wl.warm_up()
        spent = 0.0
        while not reps or spent + reps[-1]["wall_s"] / 2 < args.budget:  # nearest count
            reps.append(wl.rep(len(reps), tracer))
            spent += reps[-1]["wall_s"]

    import numpy as np

    cfg = wl.cfg
    sizes = experiment.model_sizes(cfg, cfg.dataset.n_features, cfg.dataset.n_classes)
    facts = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        **blas_facts(),
        "backend": backend.active(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "P": model.n_params(sizes),
    }
    with open(args.result, "w") as fh:
        json.dump({"ready": ready, "facts": facts, "reps": reps,
                   "implied": wl.implied(), "setup_trace": setup_trace}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
