"""vical benchmark: time the harness the way users run it, check its outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run-default --seed 0 --seconds 50 --trace 0

Workloads:
  run-default  `vical run` on the default config via vical.cli.run_cli,
               2 seeds x 2 optimizers per repetition (3,000 steps each seed).
  eval-seed    `vical eval --seed N --out DIR` via run_cli: one seed, both
               optimizers, plus the risk-coverage and reliability curves.

Every repetition runs in a fresh worker process (worker.py) started by
this script, with VICAL_BACKEND=numpy and the BLAS thread count set to the
number of usable cores. Each worker sets up, warms up once on a 100-step
version of the same command (discarded), then times repetitions for its
share of --seconds. Three workers run one after another. Workers that stop
once set up add set-up samples while these cost under a tenth of --seconds,
up to 15 set-up samples in all.

--trace 0 prints the end-to-end metrics: medians over repetitions of the
timed wall and CPU time, the median set-up time (interpreter start to ready:
imports and data generation), the peak RSS of the largest worker, and work
per second (optimizer steps).

--trace 1 alternates untraced workers with workers whose vical functions
are wrapped by spans.py, the two kinds sharing --seconds, and prints the
per-layer metrics of the traced repetitions: calls, self time, work
counts, and the tracing overhead.
Each count is checked against what the workload's config implies; a
shortfall means work escaped the wrappers and fails the run.

Every output file named in OUTPUT_FILES must be byte-identical across all
repetitions and parse as sane CSV. At workload seed 0 its sha256 must also
equal the value pinned in PINS; at other seeds the check reports
"unpinned". A failed check fails every op of the run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is non-zero, with no result
line, when a worker cannot run (for example without src/vical).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("run-default", "eval-seed")
PINNED_SEED = 0
WORKERS = 3  # timed workers per kind
MAX_SETUPS = 15  # set-up samples per run, while they cost under SETUP_SHARE
SETUP_SHARE = 0.1  # of --seconds
WORKER_TIMEOUT_S = 150.0

# sha256 of each checked output at workload seed 0, numpy backend.
PINS = {
    "run-default": {
        "report.csv": "3f1e2dd0d966f2efeb684bc54d7104478bcd4dd5646612f1e40f4fe40f43176f",
        "report.txt": "ff4a53ff15887fc581b6b1b271f3f33458daa8c1888246a5d969494cadb986c8",
    },
    "eval-seed": {
        "eval_metrics.csv": "c688d7f149129c4e06295fdcfa71aa1934924acfaaaceddc7e004df6d2b3614b",
        "risk_coverage.csv": "40b5389576d6e5a9689bd79effc9ab2d357ef6637c50940c2a95371ac6cc4fa7",
        "reliability.csv": "d17c0cf74d662cf197a7da5523c0ba75202f33d4a8589fec91decb960bd4448e",
    },
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)
# The summary also prints work_per_s under the name of its work unit.
WORK_ALIAS = {"run-default": "steps_per_s", "eval-seed": "steps_per_s"}

_KERNEL_FIELDS = (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"),
                  ("bytes_computed", "B"))
PER_LAYER = (
    *((f"kernels.{k}.{f}", u) for k in ("normal_fill", "adamw_core", "ivon_core")
      for f, u in _KERNEL_FIELDS),
    ("kernels.uniform_fill.calls", "count"),
    ("kernels.uniform_fill.self_s", "s"),
    ("rng.normal_draws", "count"),
    ("rng.uniform_draws", "count"),
    ("model.loss_and_grad.calls", "count"),
    ("model.loss_and_grad.self_s", "s"),
    ("model.loss_and_grad.us_per_call", "us"),
    ("model.forward.calls", "count"),
    ("model.forward.self_s", "s"),
    ("model.forward.rows", "count"),
    ("model.forward.useful_ratio", "ratio"),
    ("numeric.softmax.self_s", "s"),
    ("numeric.log_softmax.self_s", "s"),
    *((f"optim.{f}.{x}", u) for f in ("adamw_step", "ivon_step", "ivon_sample")
      for x, u in (("calls", "count"), ("self_s", "s"))),
    ("predict.predict_mc.calls", "count"),
    ("predict.predict_mc.self_s", "s"),
    ("predict.predict_point.calls", "count"),
    ("predict.predict_mean.calls", "count"),
    ("metrics.calls", "count"),
    ("metrics.self_s", "s"),
    ("metrics.rows_scored", "count"),
    ("experiment.train_one.calls", "count"),
    ("experiment.train_one.self_s", "s"),
    ("experiment.train_one.run_p50_s", "s"),
    ("experiment.train_one.run_max_s", "s"),
    ("experiment.evaluate_one.self_s", "s"),
    ("experiment.run_experiment.self_s", "s"),
    ("report.self_s", "s"),
    ("report.bytes_written", "B"),
    ("data.generate_dataset.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.count_shortfall", "count"),
)


class WorkerFailed(Exception):
    pass


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _source_digest(root: str) -> str:
    """sha256 over the package sources, standing in for the commit when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "vical")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit(root: str):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _spawn(args, traced: int, index: int, tmp: str, env: dict, budget: float) -> dict:
    wdir = os.path.join(tmp, f"w{index}-t{traced}")
    os.makedirs(wdir)
    result, log = os.path.join(wdir, "result.json"), os.path.join(wdir, "worker.log")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--trace", str(traced),
           "--tmp", wdir, "--result", result]
    started = time.monotonic()
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
    if proc is None or proc.returncode != 0 or not os.path.isfile(result):
        with open(log) as fh:
            tail = fh.read()[-3000:]
        raise WorkerFailed(f"worker {index} (trace {traced}) failed:\n{tail}")
    with open(result) as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - started
    return res


def drive(args, tmp: str, env: dict) -> dict:
    """Start WORKERS workers of each kind, each timing an equal share of
    --seconds, alternating which kind goes first; return them by kind."""
    kinds = (0, 1) if args.trace else (0,)
    budget = args.seconds / (WORKERS * len(kinds))
    workers = {k: [] for k in kinds}
    for index in range(WORKERS):
        for kind in (kinds if index % 2 == 0 else kinds[::-1]):
            workers[kind].append(_spawn(args, kind, index, tmp, env, budget))
    if not args.trace:
        # Where set-up is cheap, sample it more, in workers that stop when ready.
        plain = workers[0]
        while (len(plain) < MAX_SETUPS
               and sum(w["setup_s"] for w in plain) < SETUP_SHARE * args.seconds):
            plain.append(_spawn(args, 0, len(plain), tmp, env, 0.0))
    return workers


def output_check(pins: dict, seed: int, reps) -> tuple:
    """(ok, status): outputs identical across repetitions, sane, and at the
    pinned seed equal to the pins."""
    digests = [r["digests"] for r in reps]
    if not all(r["sane"] for r in reps) or any(d != digests[0] for d in digests):
        return False, "FAILED: outputs missing, malformed or not byte-identical across repetitions"
    if seed != PINNED_SEED:
        return True, f"unpinned (seed {seed}); byte-identical across {len(reps)} repetitions"
    bad = sorted(f for f in set(pins) | set(digests[0]) if pins.get(f) != digests[0].get(f))
    if bad:
        return False, f"FAILED: pinned sha256 mismatch for {', '.join(bad)}"
    return True, "pinned, match (" + ", ".join(
        f"{f}={h[:8]}" for f, h in sorted(digests[0].items())) + ")"


def end_to_end(workers: list) -> dict:
    reps = [r for w in workers for r in w["reps"]]
    return {
        "wall_s": _median([r["wall_s"] for r in reps]),
        "setup_s": _median([w["setup_s"] for w in workers]),
        "cpu_s": _median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "work_per_s": _median([r["work"] / r["wall_s"] for r in reps]),
    }


def shortfalls(traced: list) -> list:
    """Implied call counts some traced repetition fell short of."""
    out = []
    for w in traced:
        for name, want in w["implied"].items():
            got = min(r["trace"]["calls"].get(name, 0) for r in w["reps"])
            if got < want:
                out.append(f"{name}: {got} calls < {want} implied")
    return sorted(set(out))


def per_layer(plain: list, traced: list) -> dict:
    reps = [r["trace"] for w in traced for r in w["reps"]]

    def calls(name):
        return _median([t["calls"].get(name, 0) for t in reps])

    def self_s(name):
        return _median([t["self_s"].get(name, 0.0) for t in reps])

    def count(key):
        return _median([t["counts"].get(key, 0) for t in reps])

    def us_per_call(name):
        n = calls(name)
        return self_s(name) / n * 1e6 if n else 0.0

    m = {}
    for k in ("normal_fill", "adamw_core", "ivon_core"):
        name = f"kernels.{k}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.us_per_call"] = us_per_call(name)
        m[f"{name}.bytes_computed"] = count(f"{name}.bytes_computed")
    m["kernels.uniform_fill.calls"] = calls("kernels.uniform_fill")
    m["kernels.uniform_fill.self_s"] = self_s("kernels.uniform_fill")
    m["rng.normal_draws"] = count("rng.normal_draws")
    m["rng.uniform_draws"] = count("rng.uniform_draws")
    for name in ("model.loss_and_grad", "model.forward"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["model.loss_and_grad.us_per_call"] = us_per_call("model.loss_and_grad")
    m["model.forward.rows"] = count("model.forward.rows")
    forwards = m["model.forward.calls"]
    m["model.forward.useful_ratio"] = (traced[0]["implied"]["model.forward"] / forwards
                                       if forwards else 0.0)
    for name in ("numeric.softmax", "numeric.log_softmax"):
        m[f"{name}.self_s"] = self_s(name)
    for name in ("optim.adamw_step", "optim.ivon_step", "optim.ivon_sample",
                 "predict.predict_mc", "metrics", "experiment.train_one"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["predict.predict_point.calls"] = calls("predict.predict_point")
    m["predict.predict_mean.calls"] = calls("predict.predict_mean")
    m["metrics.rows_scored"] = count("metrics.rows_scored")
    runs = [t["durations"].get("experiment.train_one", []) for t in reps]
    m["experiment.train_one.run_p50_s"] = _median([_median(d) for d in runs if d])
    m["experiment.train_one.run_max_s"] = _median([max(d) for d in runs if d])
    for name in ("experiment.evaluate_one", "experiment.run_experiment", "report", "cli"):
        m[f"{name}.self_s"] = self_s(name)
    m["report.bytes_written"] = _median([t["report_bytes"] for t in reps])
    # Data is generated once in every set-up; that call is the one reported.
    m["data.generate_dataset.self_s"] = _median(
        [w["setup_trace"]["self_s"].get("data.generate_dataset", 0.0) for w in traced])
    plain_wall = _median([r["wall_s"] for w in plain for r in w["reps"]])
    traced_wall = _median([r["wall_s"] for w in traced for r in w["reps"]])
    m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    m["trace.count_shortfall"] = len(shortfalls(traced))
    return m


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="vical benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="workload seed; 0 is pinned")
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed seconds per run, shared by both kinds with --trace 1")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _terminate(signum, _frame):
    # An exception, unlike the default action, lets subprocess.run kill and
    # reap the running worker and lets main() remove its scratch directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vical", "__init__.py")):
        print("perfbench: run from a checkout root that holds src/vical", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, VICAL_BACKEND="numpy",
               OPENBLAS_NUM_THREADS=str(nproc), OMP_NUM_THREADS=str(nproc),
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(root, "src")]
                   + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    scratch = os.path.join(root, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        workers = drive(args, tmp, env)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)

    plain, traced = workers[0], workers.get(1, [])
    all_reps = [r for w in plain + traced for r in w["reps"]]
    ok, status = output_check(PINS[args.workload], args.seed, all_reps)
    attempted = sum(r["ops"] for r in all_reps)
    failed = attempted if not ok else sum(r["failed"] for r in all_reps)
    facts = {"nproc": nproc, **plain[0]["facts"], "commit": _commit(root),
             "src_sha256": _source_digest(root)}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced workers, "
          f"{len(all_reps)} timed repetitions")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"output check: {status}")
    print("outputs sha256 " + json.dumps(all_reps[0]["digests"], sort_keys=True))
    if args.trace:
        missing = shortfalls(traced)
        for line in missing:
            print(f"trace failure: {line}")
        metrics = per_layer(plain, traced)
        units = dict(PER_LAYER)
        correct = ok and not missing and failed == 0
    else:
        metrics = end_to_end(plain)
        units = dict(END_TO_END)
        correct = ok and failed == 0
        alias = WORK_ALIAS[args.workload]
        print(f"{alias} {metrics['work_per_s']:.6g} 1/s  (reported as work_per_s)")
    print(f"ops_failed_frac {failed / attempted:.6g} frac  ({failed} of {attempted} ops)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
