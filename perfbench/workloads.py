"""Request families of the perfbench workloads, and why each exists.

A request is a JSON-ready list whose first item names the call:

* ``["demazure_character" | "demazure_dim", type, level, h]``
* ``["weyl_character_finite", type, h]``
* ``["level_flag", type, level, to_level, h]``
* ``["graded_weyl_character" | "weyl_dim_product_check", type, h]``
* ``["local_weyl_character", type, [[h, label], ...]]``
* ``["crystal_check", type, h, grade, word]``: affine weight ``h`` on
  nodes ``0..n``; path-crystal character against the ladder character
* ``["joseph_highest", type, mu, h, grade, word]``
* ``["cli", "argument string", expected exit code]``

Every run covers a whole family per pass, in an order drawn from the
seed, so two seeds time the same requests and differ only in order.  A
fixed third of each library family (the cli: every valid request) is
issued a second time right after its first issue; that second issue is a
hit, the first a miss.  The reference digests in ``reference.json`` cover
every request of every family.
"""

from __future__ import annotations

import itertools
import json

# Why each workload exists: the layers it loads and the ROADMAP item 3
# parts it is meant to show or to leave unchanged.
WHY = {
    "ladder": "Demazure ladders over A1-D4 and exceptional fundamentals; "
              "demazure_step dominates, peeling and paths do no work, so "
              "3(c) shows and 3(a), 3(b), 3(d) predict no change",
    "flags": "higher-level flags, graded Weyl characters and their checks; "
             "leading-term choice and piece ladders dominate, so 3(a), "
             "3(b) and 3(d) show",
    "paths": "path-crystal cross-checks and Joseph highest terms on affine "
             "A1, A2, C2, G2; root operators and path-set hashing "
             "dominate, ladders are about 2 percent",
    "cli": "demflag as a subprocess, each request as a miss then a hit; "
           "interpreter start, import, parsing, rendering and cache I/O "
           "dominate, so a change trading reads against writes shows",
}

# Which per-layer metric should move which end-to-end metric, on which
# workloads.  A change that claims a gain names one of these arrows.
ARROWS = (
    ("root_data.build.self_s", "setup_s", ("ladder", "flags", "paths", "cli")),
    ("root_data.make_dominant.self_s", "throughput_rps", ("ladder",)),
    ("root_data.dominance_leq.self_s", "throughput_rps", ("flags",)),
    ("root_data.dominance_leq.self_s", "latency_p90_ms", ("flags",)),
    ("linalg.solve_unique.self_s", "throughput_rps", ("flags",)),
    ("linalg.solve_unique.self_s", "latency_p90_ms", ("flags",)),
    ("root_data.eta_lambda.self_s", "throughput_rps", ("flags",)),
    ("characters.demazure_step.self_s", "throughput_rps", ("ladder", "flags")),
    ("characters.project_graded_classical.self_s", "throughput_rps",
     ("ladder",)),
    ("characters.check_w_invariance_per_grade.self_s", "throughput_rps",
     ("flags",)),
    ("characters.arith.self_s", "throughput_rps", ("flags",)),
    ("demazure.solve_extremal.self_s", "throughput_rps", ("ladder",)),
    ("demazure.demazure_character.repeat_frac", "throughput_rps", ("flags",)),
    ("flags.greedy_decompose.self_s", "throughput_rps", ("flags",)),
    ("flags.local_weyl_character.self_s", "throughput_rps", ("flags",)),
    ("lspath.root_op_f.self_s", "throughput_rps", ("paths",)),
    ("lspath.root_op_f.self_s", "latency_p90_ms", ("paths",)),
    ("lspath.LSPath.make.self_s", "throughput_rps", ("paths",)),
    ("lspath.generate_demazure_set.self_s", "latency_p90_ms", ("paths",)),
    ("lspath.crystal_character.self_s", "throughput_rps", ("paths",)),
    ("lspath.joseph_highest.self_s", "throughput_rps", ("paths",)),
    ("cli.import_s", "setup_s", ("cli",)),
    ("cli.import_s", "hit_latency_p50_ms", ("cli",)),
    ("cli.cache_read.self_s", "hit_latency_p50_ms", ("cli",)),
    ("cli.compute.self_s", "miss_latency_p50_ms", ("cli",)),
    ("cli.render.self_s", "miss_latency_p50_ms", ("cli",)),
    ("cli.cache_write.self_s", "miss_latency_p50_ms", ("cli",)),
)

REISSUE_EVERY = 3
NON_SIMPLY_LACED = "BCFG"


def _box(rank: int, top: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(top + 1), repeat=rank))


def _nonzero(weights):
    return [list(h) for h in weights if any(h)]


def _ladder() -> list[list]:
    weights = {
        "A1": _box(1, 20),
        "A2": [h for h in _box(2, 6) if sum(h) <= 6] + [(6, 6)],
        "A3": _box(3, 2),
        "A4": _box(4, 1),
        "C2": _box(2, 3),
        "G2": _box(2, 2),
        "B3": _box(3, 1),
        "C3": _box(3, 1),
        "D4": _box(4, 1),
    }
    out = []
    for label, hs in weights.items():
        for h in hs:
            for level in (1, 2, 3):
                kind = ("demazure_dim" if len(out) % 2
                        else "demazure_character")
                out.append([kind, label, level, list(h)])
    # Exceptional fundamentals of dimension at most 133, plus E8 w1 (3875,
    # about 2 s) and w8 (248); E8 w2 and w3 take minutes.
    for label, rank, nodes in (("E6", 6, (1, 2, 6)), ("E7", 7, (1, 7)),
                               ("E8", 8, (1, 8))):
        for i in nodes:
            out.append(["weyl_character_finite", label,
                        [int(k == i - 1) for k in range(rank)]])
    return out


def _flags() -> list[list]:
    out = []
    simply_laced = {
        "A1": _nonzero(_box(1, 12)),
        "A2": [h for h in _nonzero(_box(2, 3)) if sum(h) <= 3],
        "A3": [h for h in _nonzero(_box(3, 2)) if sum(h) <= 2],
        "D4": [h for h in _nonzero(_box(4, 1)) if sum(h) == 1],
    }
    for label, hs in simply_laced.items():
        for h in hs:
            for level, to_level in ((1, 2), (1, 3), (2, 3)):
                out.append(["level_flag", label, level, to_level, h])
    # The two large ROADMAP rungs.
    out.append(["level_flag", "A2", 1, 2, [4, 4]])
    out.append(["level_flag", "A3", 1, 2, [2, 1, 2]])
    short_lift = {
        "B2": _nonzero(_box(2, 2)),
        "C2": _nonzero(_box(2, 2)),
        "G2": _nonzero(_box(2, 2)),
        "B3": _nonzero(_box(3, 1)),
        "C3": _nonzero(_box(3, 1)),
        "F4": [h for h in _nonzero(_box(4, 1)) if sum(h) == 1],
    }
    for label, hs in short_lift.items():
        for h in hs:
            out.append(["graded_weyl_character", label, h])
            out.append(["weyl_dim_product_check", label, h])
    for label, factors in (
            ("A1", [[1]]), ("A1", [[2]]), ("A1", [[1], [1]]),
            ("A1", [[2], [1]]), ("A1", [[1], [1], [1]]), ("A1", [[3], [2]]),
            ("A2", [[1, 0]]), ("A2", [[1, 0], [0, 1]]),
            ("A2", [[1, 1], [1, 0]]), ("A2", [[1, 0], [1, 0]]),
            ("A2", [[0, 1], [0, 1], [1, 0]]), ("A2", [[2, 0], [0, 1]])):
        out.append(["local_weyl_character", label,
                    [[h, "abc"[k]] for k, h in enumerate(factors)]])
    return out


# Reduced words of length 5-8 on small dominant weights of level 1 and 2,
# chosen so that no single path set takes more than about 0.3 s.
_PATHS = (
    ["crystal_check", "A1", [0, 1], 0, [1, 0, 1, 0, 1]],
    ["crystal_check", "A1", [0, 2], 0, [1, 0, 1, 0, 1]],
    ["crystal_check", "A1", [1, 0], 1, [0, 1, 0, 1, 0]],
    ["joseph_highest", "A1", [1, 0], [1, 1], 0, [0, 1, 0, 1, 0]],
    ["crystal_check", "A1", [1, 1], 0, [1, 0, 1, 0, 1]],
    ["crystal_check", "A1", [2, 0], 1, [0, 1, 0, 1, 0]],
    ["crystal_check", "A1", [0, 1], 0, [0, 1, 0, 1, 0, 1]],
    ["joseph_highest", "A1", [1, 0], [1, 0], 0, [1, 0, 1, 0, 1, 0]],
    ["crystal_check", "A1", [1, 1], 1, [1, 0, 1, 0, 1, 0]],
    ["crystal_check", "A1", [0, 1], 0, [1, 0, 1, 0, 1, 0, 1]],
    ["crystal_check", "A1", [1, 0], 0, [0, 1, 0, 1, 0, 1, 0]],
    ["joseph_highest", "A1", [1, 0], [0, 1], 1, [0, 1, 0, 1, 0, 1, 0, 1]],
    ["crystal_check", "A1", [1, 0], 0, [1, 0, 1, 0, 1, 0, 1, 0]],
    ["crystal_check", "A2", [0, 1, 0], 0, [0, 1, 2, 0, 1]],
    ["crystal_check", "A2", [0, 1, 0], 0, [1, 0, 2, 0, 1]],
    ["crystal_check", "A2", [0, 1, 1], 1, [0, 2, 0, 1, 2]],
    ["joseph_highest", "A2", [1, 0, 0], [0, 1, 1], 0, [1, 0, 2, 0, 1]],
    ["crystal_check", "A2", [0, 1, 1], 0, [2, 0, 1, 0, 2]],
    ["crystal_check", "A2", [0, 1, 1], 1, [2, 1, 0, 2, 1]],
    ["crystal_check", "A2", [1, 0, 0], 0, [1, 0, 2, 1, 0]],
    ["joseph_highest", "A2", [1, 0, 0], [1, 0, 1], 0, [0, 1, 0, 2, 0]],
    ["crystal_check", "A2", [1, 0, 1], 1, [0, 2, 1, 0, 2]],
    ["crystal_check", "A2", [1, 0, 1], 0, [1, 0, 2, 1, 0]],
    ["crystal_check", "A2", [1, 0, 1], 0, [1, 2, 0, 1, 2]],
    ["joseph_highest", "A2", [1, 0, 0], [1, 0, 1], 1, [2, 0, 1, 2, 0]],
    ["crystal_check", "A2", [1, 1, 0], 0, [0, 1, 2, 0, 1]],
    ["crystal_check", "A2", [1, 1, 0], 0, [1, 2, 0, 1, 0]],
    ["crystal_check", "A2", [0, 0, 2], 1, [0, 2, 0, 1, 0, 2]],
    ["joseph_highest", "A2", [1, 0, 0], [0, 1, 0], 0, [0, 1, 0, 2, 0, 1]],
    ["crystal_check", "A2", [0, 1, 0], 0, [1, 2, 1, 0, 2, 1]],
    ["crystal_check", "A2", [0, 1, 1], 1, [1, 0, 2, 0, 1, 2]],
    ["crystal_check", "A2", [0, 1, 1], 0, [1, 2, 0, 1, 0, 2]],
    ["joseph_highest", "A2", [1, 0, 0], [0, 2, 0], 0, [0, 1, 0, 2, 0, 1]],
    ["crystal_check", "A2", [0, 2, 0], 1, [0, 2, 1, 0, 2, 1]],
    ["crystal_check", "A2", [1, 1, 0], 0, [1, 0, 2, 0, 1, 0]],
    ["crystal_check", "A2", [0, 1, 0], 0, [0, 1, 2, 1, 0, 2, 1]],
    ["joseph_highest", "A2", [1, 0, 0], [0, 1, 0], 1, [2, 0, 1, 0, 2, 0, 1]],
    ["crystal_check", "A2", [0, 1, 1], 0, [2, 1, 0, 2, 1, 0, 2]],
    ["crystal_check", "A2", [1, 0, 0], 0, [0, 2, 1, 0, 2, 1, 0]],
    ["crystal_check", "A2", [1, 0, 0], 1, [1, 0, 2, 0, 1, 2, 0]],
    ["joseph_highest", "A2", [1, 0, 0], [1, 0, 1], 0, [0, 1, 2, 0, 1, 0, 2]],
    ["crystal_check", "A2", [1, 1, 0], 0, [1, 0, 2, 0, 1, 2, 0]],
    ["crystal_check", "A2", [1, 1, 0], 1, [1, 0, 2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [0, 0, 1], 0, [1, 0, 2, 1, 2]],
    ["crystal_check", "C2", [0, 0, 2], 0, [2, 1, 0, 1, 2]],
    ["crystal_check", "C2", [0, 1, 0], 1, [1, 2, 1, 0, 1]],
    ["joseph_highest", "C2", [1, 0, 0], [0, 1, 0], 0, [2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [0, 1, 1], 0, [1, 2, 1, 0, 1]],
    ["crystal_check", "C2", [0, 1, 1], 1, [2, 1, 0, 1, 2]],
    ["crystal_check", "C2", [0, 2, 0], 0, [1, 2, 1, 0, 1]],
    ["joseph_highest", "C2", [1, 0, 0], [1, 0, 0], 0, [0, 1, 2, 1, 0]],
    ["crystal_check", "C2", [1, 0, 0], 1, [1, 0, 2, 1, 0]],
    ["crystal_check", "C2", [1, 0, 1], 0, [1, 0, 2, 1, 2]],
    ["crystal_check", "C2", [1, 1, 0], 0, [0, 2, 1, 0, 1]],
    ["joseph_highest", "C2", [1, 0, 0], [1, 1, 0], 1, [1, 0, 1, 2, 1]],
    ["crystal_check", "C2", [1, 1, 0], 0, [1, 0, 2, 1, 0]],
    ["crystal_check", "C2", [0, 0, 1], 0, [2, 1, 0, 2, 1, 2]],
    ["crystal_check", "C2", [0, 0, 2], 1, [0, 1, 0, 2, 1, 2]],
    ["joseph_highest", "C2", [1, 0, 0], [0, 1, 0], 0, [0, 1, 0, 1, 2, 1]],
    ["crystal_check", "C2", [0, 1, 0], 0, [0, 2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [0, 1, 0], 1, [1, 2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [0, 1, 1], 0, [0, 1, 0, 2, 1, 2]],
    ["joseph_highest", "C2", [1, 0, 0], [0, 1, 1], 0, [1, 2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [0, 2, 0], 1, [0, 1, 0, 1, 2, 1]],
    ["crystal_check", "C2", [0, 2, 0], 0, [0, 1, 2, 1, 0, 1]],
    ["crystal_check", "C2", [0, 2, 0], 0, [0, 2, 1, 0, 2, 1]],
    ["joseph_highest", "C2", [1, 0, 0], [0, 2, 0], 1, [1, 2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [1, 0, 1], 0, [0, 1, 0, 2, 1, 2]],
    ["crystal_check", "C2", [1, 0, 1], 0, [1, 0, 1, 2, 1, 0]],
    ["crystal_check", "C2", [1, 0, 1], 1, [1, 2, 1, 0, 1, 2]],
    ["joseph_highest", "C2", [1, 0, 0], [1, 0, 1], 0, [2, 1, 0, 2, 1, 2]],
    ["crystal_check", "C2", [1, 1, 0], 0, [0, 1, 0, 2, 1, 0]],
    ["crystal_check", "C2", [1, 1, 0], 1, [0, 2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [1, 1, 0], 0, [1, 2, 1, 0, 2, 1]],
    ["joseph_highest", "C2", [1, 0, 0], [0, 0, 1], 0, [0, 1, 2, 1, 0, 1, 2]],
    ["crystal_check", "C2", [0, 1, 0], 1, [0, 1, 2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [1, 0, 0], 0, [0, 1, 0, 1, 2, 1, 0]],
    ["crystal_check", "C2", [1, 0, 0], 0, [0, 2, 1, 0, 2, 1, 0]],
    ["joseph_highest", "C2", [1, 0, 0], [1, 1, 0], 1, [0, 1, 2, 1, 0, 2, 1]],
    ["crystal_check", "C2", [1, 1, 0], 0, [1, 2, 1, 0, 1, 2, 1]],
    ["crystal_check", "C2", [0, 1, 0], 0, [0, 1, 0, 2, 1, 0, 2, 1]],
    ["crystal_check", "G2", [0, 0, 1], 0, [0, 1, 2, 1, 2]],
    ["crystal_check", "G2", [0, 0, 1], 0, [0, 2, 0, 1, 2]],
    ["crystal_check", "G2", [0, 0, 1], 1, [2, 1, 2, 1, 2]],
    ["joseph_highest", "G2", [1, 0, 0], [0, 1, 0], 0, [0, 2, 1, 2, 1]],
    ["crystal_check", "G2", [0, 1, 0], 0, [1, 2, 1, 2, 1]],
    ["crystal_check", "G2", [0, 2, 0], 1, [0, 2, 1, 2, 1]],
    ["crystal_check", "G2", [1, 0, 0], 0, [1, 2, 1, 2, 0]],
    ["joseph_highest", "G2", [1, 0, 0], [1, 1, 0], 0, [0, 1, 2, 0, 1]],
    ["crystal_check", "G2", [1, 1, 0], 1, [0, 2, 1, 2, 0]],
    ["crystal_check", "G2", [1, 1, 0], 0, [0, 2, 1, 2, 1]],
    ["crystal_check", "G2", [1, 1, 0], 0, [1, 2, 1, 2, 1]],
    ["joseph_highest", "G2", [1, 0, 0], [2, 0, 0], 1, [1, 2, 1, 2, 0]],
    ["crystal_check", "G2", [0, 0, 1], 0, [0, 1, 2, 0, 1, 2]],
    ["crystal_check", "G2", [0, 0, 1], 0, [2, 1, 2, 0, 1, 2]],
    ["crystal_check", "G2", [0, 1, 0], 1, [0, 1, 2, 1, 2, 1]],
    ["joseph_highest", "G2", [1, 0, 0], [0, 2, 0], 0, [0, 2, 0, 1, 2, 1]],
    ["crystal_check", "G2", [1, 1, 0], 0, [0, 1, 2, 1, 2, 0]],
    ["crystal_check", "G2", [1, 1, 0], 1, [0, 1, 2, 1, 2, 1]],
    ["crystal_check", "G2", [1, 1, 0], 0, [0, 2, 0, 1, 2, 1]],
    ["joseph_highest", "G2", [1, 0, 0], [1, 1, 0], 0, [1, 2, 0, 1, 2, 1]],
    ["crystal_check", "G2", [2, 0, 0], 1, [0, 1, 2, 1, 2, 0]],
    ["crystal_check", "G2", [0, 0, 1], 0, [0, 2, 0, 1, 2, 1, 2]],
    ["crystal_check", "G2", [0, 0, 1], 0, [1, 2, 0, 1, 2, 1, 2]],
    ["joseph_highest", "G2", [1, 0, 0], [0, 0, 1], 1, [1, 2, 1, 2, 0, 1, 2]],
    ["crystal_check", "G2", [0, 1, 0], 0, [0, 1, 2, 0, 1, 2, 1]],
    ["crystal_check", "G2", [0, 1, 0], 0, [2, 0, 1, 2, 1, 2, 1]],
    ["crystal_check", "G2", [0, 2, 0], 1, [0, 1, 2, 0, 1, 2, 1]],
    ["joseph_highest", "G2", [1, 0, 0], [0, 2, 0], 0, [2, 0, 1, 2, 1, 2, 1]],
    ["crystal_check", "G2", [1, 0, 0], 0, [0, 2, 1, 2, 1, 2, 0]],
    ["crystal_check", "G2", [1, 0, 0], 1, [2, 0, 1, 2, 1, 2, 0]],
    ["crystal_check", "G2", [1, 1, 0], 0, [0, 1, 2, 1, 2, 0, 1]],
    ["joseph_highest", "G2", [1, 0, 0], [1, 1, 0], 0, [2, 0, 1, 2, 1, 2, 0]],
    ["crystal_check", "G2", [1, 1, 0], 1, [2, 0, 1, 2, 1, 2, 1]],
    ["crystal_check", "G2", [1, 1, 0], 0, [2, 1, 2, 0, 1, 2, 1]],
    ["crystal_check", "G2", [0, 1, 0], 0, [0, 2, 1, 2, 0, 1, 2, 1]],
    ["joseph_highest", "G2", [1, 0, 0], [0, 1, 0], 1,
     [2, 0, 1, 2, 0, 1, 2, 1]],
    ["crystal_check", "G2", [1, 0, 0], 0, [1, 2, 0, 1, 2, 1, 2, 0]],
    ["crystal_check", "G2", [1, 1, 0], 0, [0, 1, 2, 1, 2, 1, 2, 0]],
)

_CLI_VALID = (
    ("demazure-dim --type A1 --level 1 --lambda 3", "json"),
    ("demazure-dim --type A2 --level 2 --lambda 1,1", "csv"),
    ("demazure-dim --type C2 --level 1 --lambda 1,0 --grade 2", "table"),
    ("demazure-char --type C2 --level 1 --lambda 1,1", "table"),
    ("demazure-char --type A1 --level 2 --lambda 2", "json"),
    ("demazure-char --type G2 --level 1 --lambda 0,1", "csv"),
    ("weyl-char --type C2 --lambda 2,0", "json"),
    ("weyl-char --type G2 --lambda 1,0", "csv"),
    ("weyl-char --type B2 --lambda 0,1", "table"),
    ("flag --type G2 --lambda 2,0", "csv"),
    ("flag --type C3 --lambda 0,1,0", "json"),
    ("flag --type A2 --lambda 1,1", "table"),
    ("level-flag --type A1 --level 1 --to-level 2 --lambda 2", "json"),
    ("level-flag --type A2 --level 1 --to-level 3 --lambda 1,0", "table"),
    ("level-flag --type A1 --level 2 --to-level 3 --lambda 4", "csv"),
    ("local-weyl --type A1 --factor 1@a --factor 1@b", "json"),
    ("local-weyl --type A2 --factor 1,0@a --factor 0,1@b", "csv"),
    ("local-weyl --type C2 --factor 1,0@x", "table"),
    ("weyl-finite --type G2 --lambda 1,0", "json"),
    ("weyl-finite --type E6 --lambda 1,0,0,0,0,0", "csv"),
    ("weyl-finite --type B3 --lambda 0,0,1", "table"),
    ("crystal-check --type A1 --lambda 1,0 --grade 1 --sigma 1,0", "json"),
    ("crystal-check --type A2 --lambda 1,0,0 --sigma 1,2,0", "csv"),
    ("crystal-check --type C2 --lambda 0,1,0 --sigma 0,1,2", "table"),
    ("joseph --type A1 --mu 1,0 --lambda 1,0 --grade 1 --sigma 1,0", "json"),
    ("joseph --type A1 --mu 0,1 --lambda 1,1 --sigma 0,1", "table"),
    ("joseph --type A2 --mu 1,0,0 --lambda 0,1,0 --sigma 1,0", "csv"),
    ("dim-check --type C2 --lambda 1,1", "json"),
    ("dim-check --type G2 --lambda 1,0", "csv"),
    ("dim-check --type B3 --lambda 1,0,0", "table"),
)

_CLI_INVALID = (
    ("no-such-command", 2),
    ("demazure-dim --type Z9 --level 1 --lambda 1", 2),
    ("weyl-finite --type A2 --lambda 1,x", 2),
    ("demazure-dim --type A1 --level 0 --lambda 1", 3),
    ("weyl-char --type C2 --lambda=-1,0", 3),
    ("level-flag --type C2 --level 1 --to-level 2 --lambda 1,0", 3),
)


def _cli() -> list[list]:
    out = [["cli", f"{args} --format {fmt}", 0] for args, fmt in _CLI_VALID]
    out += [["cli", args, code] for args, code in _CLI_INVALID]
    return out


FAMILIES = {
    "ladder": _ladder,
    "flags": _flags,
    "paths": lambda: [list(r) for r in _PATHS],
    "cli": _cli,
}


def family(workload: str) -> list[list]:
    """Requests of a workload in canonical order."""
    return FAMILIES[workload]()


def reissued(workload: str, requests: list[list]) -> list[bool]:
    """Which requests are issued a second time, as a hit."""
    if workload == "cli":
        return [r[2] == 0 for r in requests]
    return [k % REISSUE_EVERY == 0 for k in range(len(requests))]


def type_label(request: list) -> str:
    if request[0] == "cli":
        words = request[1].split()
        return words[words.index("--type") + 1] if "--type" in words else ""
    return request[1]


def labels(requests: list[list]) -> list[str]:
    """Type labels of the valid requests: the root data set-up builds."""
    return sorted({type_label(r) for r in requests
                   if r[0] != "cli" or r[2] == 0})


def non_simply_laced(request: list) -> bool:
    label = type_label(request)
    return bool(label) and label[0] in NON_SIMPLY_LACED


def request_id(request: list) -> str:
    return json.dumps(request, separators=(",", ":"))
