"""The benchmark's own test.

    python3 -m pytest -q perfbench/selftest.py

Run it from the repository root.  Each workload runs at its smallest size
(``--seconds 0``: the fewest passes) with a fixed seed, untraced and
traced; the test checks that every metric ``BENCHMARK.json`` declares is
reported with its unit and that no request failed.  It has no timing
thresholds.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(names) == sorted(workloads.FAMILIES)
    assert sorted(names) == sorted(workloads.WHY)


def test_reference_covers_every_request():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in workloads.FAMILIES:
        ids = [workloads.request_id(r) for r in workloads.family(workload)]
        assert len(set(ids)) == len(ids), workload
        assert set(ids) == set(reference[workload]), workload


def test_tracer_wraps_present_bindings_and_skips_missing(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.twice = lambda x: 2 * x
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    monkeypatch.setattr(tracer, "TARGETS", {
        "flags.greedy_decompose": ("fake_layer:twice",),
        "lspath.root_op_f": ("fake_layer:gone", "no_such_module:root_op_f"),
    })
    t = tracer.Tracer()
    t.install()
    assert module.twice(3) == 6
    metrics = tracer.layer_metrics(t.take())
    assert metrics["flags.greedy_decompose.calls"] == 1
    assert metrics["lspath.root_op_f.calls"] == 0
    assert metrics["lspath.root_op_f.defined_frac"] == 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.FAMILIES))
def test_smallest_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {name: m["unit"] for name, m in result["metrics"].items()})
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    meta = json.loads(meta_line)["perfbench"]
    assert meta["failed_frac"] == 0
    assert meta["seed"] == 7 and meta["python"] and meta["nproc"] >= 1
    assert meta["samples"]
    if not trace:
        assert meta["samples"]["beyond_p90"] >= 10


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "ladder", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
