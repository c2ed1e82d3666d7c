"""One pass of a perfbench workload, in a fresh interpreter.

Reads a job as JSON on standard input and writes one JSON object on
standard output.  The job names the workload, the requests in issue order,
which of them are issued a second time, whether to trace, and for the cli
workload a scratch directory for its cache.  ``run.py`` starts this
script; it is not meant to be run by hand.

The worker first sets up (imports demflag, or demflag.cli, and builds every
root datum the requests use), then issues the requests one at a time.  The
wall time of each issue covers the library call (or the cli subprocess)
alone; the output's canonical digest is taken after the clock stops.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from tracer import Tracer, merge

HERE = os.path.dirname(os.path.abspath(__file__))


# -- canonical outputs --------------------------------------------------------
#
# Through the public API only: character terms sorted, flag pieces as a
# sorted multiset, so a change that reorders pieces keeps its digest.


def _char(character) -> list:
    out = []
    for key, coeff in character.terms():
        h, d = (key.h, key.d) if hasattr(key, "h") else key
        out.append([list(h), d, coeff])
    return sorted(out)


def _flag(fd) -> dict:
    return {"level": fd.level,
            "pieces": sorted([list(w.h), g, c] for w, g, c in fd.pieces)}


def _sort_pieces(obj):
    if isinstance(obj, dict):
        return {k: (sorted(v, key=json.dumps) if k == "pieces"
                    else _sort_pieces(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sort_pieces(v) for v in obj]
    return obj


def _cli_content(text: str, fmt: str):
    if not text:
        return None
    if fmt == "json":
        return _sort_pieces(json.loads(text))
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
    else:
        rows = [line.split() for line in text.splitlines() if line.strip()]
    return [rows[0], sorted(rows[1:])]


CANONICAL = {
    "demazure_character": _char,
    "demazure_dim": lambda dim: dim,
    "weyl_character_finite": _char,
    "level_flag": _flag,
    "graded_weyl_character": lambda r: [_char(r[0]), _flag(r[1])],
    "weyl_dim_product_check": lambda r: [r[0], list(r[1])],
    "local_weyl_character": _char,
    "crystal_check": lambda r: [r[0], _char(r[1]), r[2]],
    "joseph_highest": lambda pairs: sorted([list(nu.h), nu.d]
                                           for _, nu in pairs),
}


def digest(canonical) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- machine speed ------------------------------------------------------------
#
# Other tenants of a shared machine slow the processes on it by up to half,
# for seconds to minutes at a time.  A fixed piece of work timed between
# requests tracks that: a pure-Python loop for the library workloads, a
# bare interpreter start for the cli.  Each calibration is reported as its
# time over the same work's typical time on the machine the benchmark was
# defined on (2 vCPU Xeon at 2.0 GHz, Python 3.11.7), and run.py scales
# every timing by the calibrations taken near it.

LOOP_REFERENCE_S = 0.004
START_REFERENCE_S = 0.075


def loop_slowness() -> float:
    """A fixed loop of tuple, dict and integer work, against its reference.

    The collector is off meanwhile: its pauses depend on the heap the
    requests left behind, not on the machine's speed.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(10_000):
            key = (i & 255, i >> 8)
            table[key] = table.get(key, 0) + i * i
        return (time.perf_counter() - t0) / LOOP_REFERENCE_S
    finally:
        gc.enable()


def interpreter_start_s() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def start_slowness() -> float:
    """A bare interpreter start, against its reference."""
    return interpreter_start_s() / START_REFERENCE_S


# -- library requests ---------------------------------------------------------


class Library:
    """Issues library requests through the package's module attributes,
    so that tracing wrappers installed there see every call."""

    calibrate = staticmethod(loop_slowness)
    calibrate_every_s = 0.25

    def __init__(self, labels: list[str]):
        import demflag          # imports every library module
        self.demflag = demflag
        self.labels = labels
        self.data: dict = {}

    def build(self) -> None:
        root_data = self.demflag.root_data
        for label in self.labels:
            rd = root_data.datum_from_label(label)
            self.data[label] = (rd, root_data.affinize(rd))

    def call(self, req: list):
        d = self.demflag
        rd, ad = self.data[req[1]]
        kind = req[0]
        if kind in ("demazure_character", "demazure_dim"):
            lab = d.demazure.DemazureLabel(req[2], rd.weight(req[3]))
            return getattr(d.demazure, kind)(ad, lab)
        if kind == "weyl_character_finite":
            return d.characters.weyl_character_finite(rd, rd.weight(req[2]))
        if kind == "level_flag":
            return d.flags.level_flag(ad, req[2], req[3], rd.weight(req[4]))
        if kind in ("graded_weyl_character", "weyl_dim_product_check"):
            return getattr(d.flags, kind)(rd, rd.weight(req[2]))
        if kind == "local_weyl_character":
            varpi = d.flags.DominantLWeight(
                tuple((rd.weight(h), label) for h, label in req[2]))
            return d.flags.local_weyl_character(rd, varpi)
        if kind == "crystal_check":
            lam, word = ad.weight(req[2], req[3]), req[4]
            ps = d.lspath.generate_demazure_set(ad, lam, word)
            by_paths = d.lspath.crystal_character(ps)
            by_ladders = d.characters.demazure_word_char(ad, word, lam)
            return len(ps), by_paths, by_paths == by_ladders
        if kind == "joseph_highest":
            return d.lspath.joseph_highest(ad, ad.weight(req[2]),
                                           ad.weight(req[3], req[4]), req[5])
        raise ValueError(f"unknown request kind {kind!r}")

    def issue(self, req: list) -> tuple[float, str]:
        t0 = time.perf_counter()
        try:
            result = self.call(req)
        except Exception as e:        # a failed request, not a failed run
            return time.perf_counter() - t0, f"error {type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        return wall, digest(CANONICAL[req[0]](result))


# -- cli requests -------------------------------------------------------------


class Cli:
    """Issues cli requests as subprocesses, one at a time."""

    calibrate = staticmethod(start_slowness)
    calibrate_every_s = 0.5

    def __init__(self, labels: list[str], scratch: str, traced: bool):
        import demflag.cli
        self.demflag = demflag
        self.labels = labels
        self.scratch = scratch
        self.cache_dir = os.path.join(scratch, "cache")
        self.traced = traced
        self.stats: dict = {}
        self.import_s: list[float] = []
        self.count = 0

    def build(self) -> None:
        root_data = self.demflag.root_data
        for label in self.labels:
            root_data.affinize(root_data.datum_from_label(label))

    def issue(self, req: list) -> tuple[float, str]:
        argv = req[1].split() + ["--cache-dir", self.cache_dir]
        fmt = (argv[argv.index("--format") + 1] if "--format" in argv
               else "json")
        env = dict(os.environ)
        if self.traced:
            self.count += 1
            spans = os.path.join(self.scratch, f"spans-{self.count}.json")
            env["PERFBENCH_SPANS"] = spans
            cmd = [sys.executable, os.path.join(HERE, "trace_cli.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "demflag.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120)
        wall = time.perf_counter() - t0
        if self.traced:
            with open(spans, encoding="utf-8") as fh:
                record = json.load(fh)
            os.unlink(spans)
            self.import_s.append(record["import_s"])
            merge(self.stats, record["stats"])
        if proc.returncode != req[2]:
            return wall, f"error exit code {proc.returncode}, want {req[2]}"
        try:
            content = _cli_content(proc.stdout, fmt)
        except (ValueError, IndexError) as e:
            return wall, f"error unparsable output: {e}"
        return wall, digest([proc.returncode, content])


# -- the pass -----------------------------------------------------------------


def run(job: dict) -> dict:
    workload = job["workload"]
    requests = job["requests"]
    labels = job["labels"]
    traced = job["trace"]

    t0 = time.perf_counter()
    if workload == "cli":
        server = Cli(labels, job["scratch"], traced)
    else:
        server = Library(labels)
    tracer = None
    if traced and workload != "cli":
        tracer = Tracer()
        tracer.install()
    server.build()
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if job.get("setup_only"):
        out["calibration"] = [[time.perf_counter() - t0 - setup_s,
                               loop_slowness()] for _ in range(5)]
        return out

    setup_stats = tracer.take() if tracer is not None else {}
    # Times are in seconds from the end of set-up.
    t0 = time.perf_counter()
    records = []
    calibration = [[0.0, server.calibrate()]]
    last = time.perf_counter()
    for index, (req, again) in enumerate(zip(requests, job["reissue"])):
        if req[0] == "cli" and req[2] != 0:
            kinds = ["invalid"]
        else:
            kinds = ["miss", "hit"] if again else ["once"]
        for kind in kinds:
            if tracer is not None:
                tracer.active = kind != "hit"
            start = time.perf_counter() - t0
            wall, dig = server.issue(req)
            records.append([index, kind, wall, dig, start])
            if time.perf_counter() - last >= server.calibrate_every_s:
                calibration.append([time.perf_counter() - t0,
                                    server.calibrate()])
                last = time.perf_counter()
    calibration.append([time.perf_counter() - t0, server.calibrate()])
    out["records"] = records
    out["calibration"] = calibration
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["rss_kb"] = usage
    if tracer is not None:
        out["stats"] = tracer.take()
        out["setup_stats"] = setup_stats
    elif traced:
        out["stats"] = server.stats
        out["setup_stats"] = {}
        out["import_s"] = statistics.median(server.import_s)
        out["interpreter_start_ms"] = 1000 * statistics.median(
            interpreter_start_s() for _ in range(5))
    return out


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(run(job), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
