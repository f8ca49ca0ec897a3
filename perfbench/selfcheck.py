"""Checks of the benchmark's own code. Run from the repository root:

    python3 perfbench/selfcheck.py

1. Metric names and units in BENCHMARK.json match what run.py reports,
   and follow the naming rules.
2. The output check passes the pinned eval-seed outputs, and fires on a
   corrupted copy, on repetitions that disagree, and on a malformed CSV;
   under another seed it reports "unpinned", never a match.
3. Span self time equals span time minus child time on a synthetic
   nested call, and a call-count shortfall is reported.

Exits 0 when every check passes. Check 2 runs the real eval-seed
workload once (a few seconds).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.setdefault("VICAL_BACKEND", "numpy")

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    check(e2e == list(run.END_TO_END), "end_to_end names and units match run.END_TO_END")
    check(layer == list(run.PER_LAYER), "per_layer names and units match run.PER_LAYER")
    names = [n for n, _ in e2e + layer] + [w["name"] for w in bench["workloads"]]
    check(len(names) == len(set(names)), "metric and workload names are unique")
    check(all(NAME.match(n) for n in names), "names follow the name rule")
    check(all(UNIT.match(u) for _, u in e2e + layer), "units follow the unit rule")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "workloads match run.WORKLOADS")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s is lower-is-better with the largest bound")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds lie in (0, 0.25]")

    # The aggregators return exactly the declared metrics.
    rep = {"wall_s": 2.0, "cpu_s": 2.5, "work": 100, "ops": 2, "failed": 0,
           "trace": {"calls": {"model.forward": 10}, "self_s": {}, "counts": {},
                     "durations": {"experiment.train_one": [1.0, 2.0]},
                     "report_bytes": 10}}
    w = {"setup_s": 0.2, "reps": [rep], "implied": {"model.forward": 10},
         "setup_trace": {"self_s": {"data.generate_dataset": 0.01}}}
    check(set(run.end_to_end([w])) == {n for n, _ in run.END_TO_END},
          "end_to_end() reports every end-to-end metric")
    check(set(run.per_layer([w], [w])) == {n for n, _ in run.PER_LAYER},
          "per_layer() reports every per-layer metric")


def check_output_pins() -> None:
    tmp = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-selfcheck-")
    try:
        wl = worker.Workload("eval-seed", run.PINNED_SEED, tmp)
        wl.setup()
        out = os.path.join(tmp, "out")
        check(wl._run(out) == 0, "eval-seed workload runs")
        good = worker.output_record(out, wl.files)
        pins = run.PINS["eval-seed"]
        ok, status = run.output_check(pins, run.PINNED_SEED, [good, good])
        check(ok and status.startswith("pinned, match"), "pinned outputs match: " + status)

        path = os.path.join(out, "risk_coverage.csv")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-2] = ord("7") if data[-2] != ord("7") else ord("8")  # last digit of the last risk
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        bad = worker.output_record(out, wl.files)
        check(bad["sane"], "corrupted file still parses, so only the pin can catch it")
        ok, status = run.output_check(pins, run.PINNED_SEED, [bad, bad])
        check(not ok and "risk_coverage.csv" in status, "corrupted output fails: " + status)
        ok, _ = run.output_check(pins, 5, [good, bad])
        check(not ok, "repetitions that disagree fail, pinned or not")
        ok, status = run.output_check(pins, 5, [bad, bad])
        check(ok and status.startswith("unpinned"), "another seed is unpinned: " + status)

        with open(path, "a") as fh:
            fh.write("AdamW,nan,0.5\n")
        check(not worker.output_record(out, wl.files)["sane"], "non-finite CSV cell is caught")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_self_time() -> None:
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    inner = tracer.wrap("inner", lambda: tick(2.0))
    leaf = tracer.wrap("leaf", lambda: tick(0.5))

    def middle_body():
        tick(1.0)
        inner()
        leaf()
        tick(1.0)

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        tick(3.0)
        middle()
        inner()

    tracer.wrap("outer", outer_body)()
    # outer spans 3 + middle (1 + 2 + 0.5 + 1) + inner 2 = 9.5
    check(tracer.durations["outer"] == [9.5], "outer span time 9.5")
    check(tracer.self_s["outer"] == 9.5 - 4.5 - 2.0, "outer self = span - children = 3")
    check(tracer.self_s["middle"] == 4.5 - 2.0 - 0.5, "middle self = span - children = 2")
    check(tracer.calls["inner"] == 2 and tracer.self_s["inner"] == 4.0,
          "inner counted twice, self 4")

    w = {"implied": {"model.forward": 12},
         "reps": [{"trace": {"calls": {"model.forward": 12}}},
                  {"trace": {"calls": {"model.forward": 11}}}]}
    check(run.shortfalls([w]) == ["model.forward: 11 calls < 12 implied"],
          "a call-count shortfall in any repetition is reported")


def main() -> int:
    check_metric_names()
    check_self_time()
    check_output_pins()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
