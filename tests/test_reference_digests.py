"""Outputs against the benchmark's recorded digests.

``perfbench/reference.json`` holds the canonical digest of every benchmark
request's output.  The ``ladder`` family (without its E8 rungs, which take
seconds), the ``flags`` family and the ``paths`` family are issued again
here through the benchmark's own request code, and every digest must match.
The digests sort what they cover, so the order of each ``paths`` path set is
checked on its own, against the order of the rational segments.  Nothing
under ``perfbench/`` is written.
"""

import json
import os
import sys

import pytest

from demflag import generate_demazure_set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402
from worker import CANONICAL, Library, digest  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


def _requests(workload):
    return [r for r in workloads.family(workload) if r[1] != "E8"]


@pytest.mark.parametrize("workload", ["ladder", "flags", "paths"])
def test_outputs_match_reference_digests(workload):
    requests = _requests(workload)
    library = Library(workloads.labels(requests))
    library.build()
    expected = REFERENCE[workload]
    wrong = [workloads.request_id(r) for r in requests
             if digest(CANONICAL[r[0]](library.call(r)))
             != expected[workloads.request_id(r)]]
    assert wrong == []


def test_path_sets_come_in_segment_order():
    requests = workloads.family("paths")
    library = Library(workloads.labels(requests))
    library.build()
    for req in requests:
        _, ad = library.data[req[1]]
        h, grade, word = req[-3:]       # both request kinds end this way
        ps = generate_demazure_set(ad, ad.weight(h, grade), word)
        assert list(ps.paths) == sorted(ps.paths, key=lambda p: p.segments)
