"""Outputs against the benchmark's recorded digests.

``perfbench/reference.json`` holds the canonical digest of every benchmark
request's output.  The ``ladder``, ``flags`` and ``paths`` families are
issued again here through the benchmark's own request code, each request
twice in a row, and every digest must match both times.  The sets of one
top share a crystal table, so the ``paths`` family is also issued from
cold in three seeded shuffled orders.  The ``cli``
family runs in-process through ``cli.main``, each request first as a cache
miss and then as a hit.  The digests sort what they cover, so the order of
each ``paths`` path set is checked on its own, against the order of the
rational segments.  Nothing under ``perfbench/`` is written.
"""

import json
import os
import random
import sys

import pytest

from demflag import cli, generate_demazure_set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402
from worker import CANONICAL, Library, _cli_content, digest  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


@pytest.mark.parametrize("workload", ["ladder", "flags", "paths"])
def test_outputs_match_reference_digests(workload, cold_memos):
    # Each request twice, as the benchmark re-issues them: the second
    # answer comes from the memos, so a changed or stale entry shows.
    requests = workloads.family(workload)
    library = Library(workloads.labels(requests))
    library.build()
    expected = REFERENCE[workload]
    wrong = [(kind, workloads.request_id(r)) for r in requests
             for kind in ("first", "again")
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


@pytest.mark.parametrize("seed", [5, 23, 2718])
def test_paths_digests_hold_in_any_request_order(seed, cold_memos):
    """The sets of one top grow in one shared crystal table, so a set may
    be grown in a table that earlier sets of its top filled.  From cold,
    in a shuffled order, each request twice: every digest and every set's
    segment order must be those of the reference."""
    requests = workloads.family("paths")
    random.Random(seed).shuffle(requests)
    library = Library(workloads.labels(requests))
    library.build()
    expected = REFERENCE["paths"]
    wrong = []
    for req in requests:
        for kind in ("first", "again"):
            if (digest(CANONICAL[req[0]](library.call(req)))
                    != expected[workloads.request_id(req)]):
                wrong.append((kind, workloads.request_id(req)))
        _, ad = library.data[req[1]]
        h, grade, word = req[-3:]
        ps = generate_demazure_set(ad, ad.weight(h, grade), word)
        if list(ps.paths) != sorted(ps.paths, key=lambda p: p.segments):
            wrong.append(("order", workloads.request_id(req)))
    assert wrong == []


def test_cli_outputs_match_reference_digests(capsys, tmp_path):
    requests = workloads.family("cli")
    cache = str(tmp_path / "cache")
    expected = REFERENCE["cli"]
    wrong = []
    for req in requests:
        argv = req[1].split()
        fmt = (argv[argv.index("--format") + 1] if "--format" in argv
               else "json")
        for kind in ("miss", "hit"):
            code = cli.main(argv + ["--cache-dir", cache])
            out = capsys.readouterr().out
            if (code != req[2] or digest([code, _cli_content(out, fmt)])
                    != expected[workloads.request_id(req)]):
                wrong.append((kind, req[1]))
    assert wrong == []
    assert len(os.listdir(cache)) == sum(r[2] == 0 for r in requests)
