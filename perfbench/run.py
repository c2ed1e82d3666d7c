"""The demflag benchmark.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports demflag from ``./src``.  The
workloads (``ladder``, ``flags``, ``paths``, ``cli``) and why each exists
are in ``workloads.py``.

One client issues one request at a time (a closed loop).  Each pass covers
the workload's whole request family, in an order drawn from the seed, in a
fresh worker interpreter, so no in-process memo carries from one pass to
the next.  Passes repeat until ``--seconds`` have gone by and at least
``MIN_ISSUED`` requests were issued.  Every output is checked against the
reference digests in ``reference.json``, outside the timed region; a
request fails if it raises, exits with the wrong code or its digest
differs.

Timings are scaled to a reference machine speed.  On a shared machine the
other tenants slow every process, by up to half, for seconds to minutes at
a time; the worker times a fixed piece of work between requests (see
``worker.loop_slowness`` and ``worker.start_slowness``), and each timing is
divided by the mean slowness measured within ``SPEED_WINDOW_S`` of it.
The unscaled figures are in the line before the result.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``throughput_rps``: requests issued over the time spent in them;
* ``latency_p50_ms``, ``latency_p90_ms``: wall time per request, pooled
  over passes (see ``quantile_ms``);
* ``hit_latency_p50_ms``, ``miss_latency_p50_ms``: the second issue of a
  re-issued request (served from the on-disk cache by the cli, recomputed
  or memoized by the library) and the first issue of the same requests;
* ``peak_rss_mb``: the worker's maximum resident set (for the cli, its
  largest subprocess), median over passes;
* ``setup_s``: the time a fresh worker takes to import demflag (for the
  cli, demflag.cli) and build every root datum the workload uses, median
  over ``SETUP_SAMPLES`` workers that only set up.

``--trace 1`` alternates untraced and traced passes over the same order
and reports the per-layer metrics of ``tracer.py`` (median over traced
passes, times scaled as above), the tracing overhead and the share of
traced time that the layers' self times cover.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the Python version,
``nproc``, the seed, the sample counts, the failed share, the workload's
property shares and the unscaled figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
MIN_ISSUED = 110            # so that at least ten samples lie beyond p90
SPEED_WINDOW_S = 1.0
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("hit_latency_p50_ms", "ms"),
    ("miss_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

EXTRA_LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.interpreter_start_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("workload.non_simply_laced_frac", "frac"),
    ("workload.hit_frac", "frac"),
)
PER_LAYER = tracer.LAYER_METRICS + EXTRA_LAYER_METRICS


def start_worker(root: str, job: dict) -> dict:
    """Run one worker interpreter on a job and return its result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    # Imports read cached bytecode, as an installed package's would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, env=env, cwd=root,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


class Run:
    """Passes of one workload with one seed, and their checks."""

    def __init__(self, root: str, workload: str, seed: int, scratch: str):
        self.root = root
        self.workload = workload
        self.family = workloads.family(workload)
        self.reissue = workloads.reissued(workload, self.family)
        self.rng = random.Random(seed)
        self.scratch = scratch
        with open(os.path.join(HERE, "reference.json"),
                  encoding="utf-8") as fh:
            self.reference = json.load(fh)[workload]
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, order: list[int], traced: bool, **extra) -> dict:
        return {"workload": self.workload,
                "requests": [self.family[i] for i in order],
                "reissue": [self.reissue[i] for i in order],
                "trace": traced,
                "labels": workloads.labels(self.family),
                "scratch": tempfile.mkdtemp(dir=self.scratch), **extra}

    def setup_only(self) -> dict:
        return start_worker(self.root, self.job([], False, setup_only=True))

    def new_order(self) -> list[int]:
        order = list(range(len(self.family)))
        self.rng.shuffle(order)
        return order

    def one_pass(self, order: list[int], traced: bool) -> dict:
        result = start_worker(self.root, self.job(order, traced))
        self.check(order, result["records"])
        return result

    def check(self, order: list[int], records: list) -> None:
        for index, kind, _, got, _ in records:
            request = self.family[order[index]]
            want = self.reference.get(workloads.request_id(request))
            self.attempted += 1
            if got != want:
                self.failures.append(f"{kind} {request}: got {got}, "
                                     f"want {want}")


def speed(result: dict, start: float = -math.inf,
          end: float = math.inf) -> float:
    """Factor that scales a worker's timings from ``start`` to ``end``
    (seconds from the end of its set-up) to the reference speed."""
    calibration = result["calibration"]
    near = [d for t, d in calibration
            if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
    # The mean, not the median: calibrations are spread evenly in time, so
    # their mean weighs fast and slow spells as the timed work does.
    return 1 / statistics.fmean(near or [d for _, d in calibration])


def scaled(result: dict) -> list:
    """The pass's records with each wall time at the reference speed."""
    return [[i, kind, wall * speed(result, start, start + wall), d, start]
            for i, kind, wall, d, start in result["records"]]


def scaled_setup(result: dict) -> float:
    return result["setup_s"] * speed(result, -result["setup_s"], 0.0)


def quantile_ms(values: list[float], q: float, band: float) -> float:
    """The q-quantile in ms, as the mean of the samples ranked within
    ``band`` of it.  The requests of a family differ in cost by orders of
    magnitude, so neighbouring ranks can lie far apart; a single order
    statistic would jump whenever noise swaps two of them."""
    xs = sorted(values)
    last = len(xs) - 1
    return 1000 * statistics.fmean(
        xs[round((q - band) * last):round((q + band) * last) + 1])


def latency_metrics(records: list) -> dict[str, float]:
    """Throughput and latencies over ``[index, kind, wall, ...]`` records."""
    walls = [r[2] for r in records]
    return {
        "throughput_rps": len(walls) / sum(walls),
        "latency_p50_ms": quantile_ms(walls, 0.5, 0.1),
        "latency_p90_ms": quantile_ms(walls, 0.9, 0.05),
        "hit_latency_p50_ms": quantile_ms(
            [r[2] for r in records if r[1] == "hit"], 0.5, 0.1),
        "miss_latency_p50_ms": quantile_ms(
            [r[2] for r in records if r[1] == "miss"], 0.5, 0.1),
    }


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    run.setup_only()                      # compiles bytecode; not timed
    setups = [run.setup_only() for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = time.monotonic()
    while (time.monotonic() - t0 < seconds
           or sum(len(p["records"]) for p in passes) < MIN_ISSUED):
        passes.append(run.one_pass(run.new_order(), False))
    raw = [r for p in passes for r in p["records"]]
    records = [r for p in passes for r in scaled(p)]
    metrics = latency_metrics(records)
    metrics["peak_rss_mb"] = (
        statistics.median(p["rss_kb"] for p in passes) / 1024)
    metrics["setup_s"] = statistics.median(map(scaled_setup, setups))
    p90 = statistics.quantiles([r[2] for r in records], n=10)[8]
    samples = {"passes": len(passes), "issues": len(raw),
               "beyond_p90": sum(r[2] > p90 for r in records),
               **{kind: sum(r[1] == kind for r in raw)
                  for kind in ("once", "miss", "hit", "invalid")},
               "setup": len(setups), "measured_s": time.monotonic() - t0}
    unscaled = {**latency_metrics(raw), "setup_s": statistics.median(
        r["setup_s"] for r in setups)}
    return metrics, {"samples": samples,
                     "speed": [speed(p) for p in passes],
                     "unscaled": unscaled}


def _traced_wall(workload: str, records: list) -> float:
    # Library re-issues run with the tracer paused; cli runs trace all.
    return sum(r[2] for r in records if workload == "cli" or r[1] != "hit")


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    run.setup_only()                      # compiles bytecode; not timed
    traced_metrics, overheads = [], []
    t0 = time.monotonic()
    while not traced_metrics or time.monotonic() - t0 < seconds:
        order = run.new_order()
        # Alternate which side of the pair runs first.
        sides = (True, False) if len(traced_metrics) % 2 else (False, True)
        results = {traced: run.one_pass(order, traced) for traced in sides}
        plain, traced = results[False], results[True]
        overheads.append(_traced_wall(run.workload, scaled(traced))
                         / _traced_wall(run.workload, scaled(plain)) - 1)
        metrics = tracer.layer_metrics(traced["stats"])
        metrics["root_data.build.self_s"] += (
            traced["setup_stats"].get("root_data.build", {}).get("self_s", 0))
        metrics["cli.import_s"] = traced.get("import_s", 0.0)
        metrics["cli.interpreter_start_ms"] = traced.get(
            "interpreter_start_ms", 0.0)
        for name in metrics:
            if name.endswith("_s"):
                metrics[name] *= speed(traced)
        metrics["trace.coverage_frac"] = (
            tracer.self_total(traced["stats"])
            / _traced_wall(run.workload, traced["records"]))
        traced_metrics.append(metrics)
    metrics = tracer.median_metrics(traced_metrics)
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    samples = {"pairs": len(traced_metrics),
               "measured_s": time.monotonic() - t0}
    return metrics, {"samples": samples}


def properties(run: Run) -> dict[str, float]:
    """Shares of the workload's requests with properties a change may
    depend on."""
    issued = len(run.family) + sum(run.reissue)
    non_simply_laced = sum(map(workloads.non_simply_laced, run.family))
    return {"workload.non_simply_laced_frac":
            non_simply_laced / len(run.family),
            "workload.hit_frac": sum(run.reissue) / issued}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "demflag", "__init__.py")):
        print("perfbench: ./src/demflag not found; run from the root of a "
              "demflag checkout", file=sys.stderr)
        return 2
    scratch_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        run = Run(root, args.workload, args.seed, scratch)
        if args.trace:
            metrics, detail = per_layer(run, args.seconds)
            metrics.update(properties(run))
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass        # another run still uses it

    for line in run.failures[:20]:
        print(f"perfbench: failed {line}", file=sys.stderr)
    failed = len(run.failures)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            **detail, "failed_frac": failed / run.attempted,
            **properties(run), "why": workloads.WHY[args.workload]}
    print(json.dumps({"perfbench": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
