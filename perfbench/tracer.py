"""Outside-in tracing of demflag's layers.

The package is never edited.  Instead each public function is replaced,
at every name its callers look it up by, with a wrapper that times the
call.  The modules use ``from ... import``, so ``flags.dominance_leq`` and
``root_data.dominance_leq`` are two bindings of one layer and both are
wrapped.  A binding that is missing (renamed or deleted at a later commit)
is skipped, so its layer reports zero calls instead of failing.

Spans are kept in memory, aggregated by layer: the number of calls, the
self time (span time minus the time of child spans) and a few counters.
``Tracer.stats`` is written out by the caller when its work ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

# Layer name -> bindings "module:attribute" or "module:Class.attribute".
TARGETS = {
    "root_data.build": (
        "demflag.root_data:datum_from_label",
        "demflag.root_data:build_finite_datum",
        "demflag.root_data:affinize",
        "demflag.root_data:short_subdatum",
        "demflag.flags:affinize", "demflag.flags:short_subdatum",
        "demflag.cli:datum_from_label", "demflag.cli:affinize"),
    "root_data.make_dominant": (
        "demflag.root_data:make_dominant", "demflag.demazure:make_dominant"),
    "root_data.dominance_leq": (
        "demflag.root_data:dominance_leq", "demflag.flags:dominance_leq"),
    "linalg.solve_unique": (
        "demflag._linalg:solve_unique", "demflag.root_data:solve_unique"),
    "root_data.eta_lambda": (
        "demflag.root_data:eta_lambda", "demflag.flags:eta_lambda"),
    "characters.demazure_step": ("demflag.characters:demazure_step",),
    "characters.demazure_word_char": (
        "demflag.characters:demazure_word_char",
        "demflag.demazure:demazure_word_char",
        "demflag.cli:demazure_word_char"),
    "characters.weyl_character_finite": (
        "demflag.characters:weyl_character_finite",
        "demflag.cli:weyl_character_finite"),
    "characters.project_graded_classical": (
        "demflag.demazure:project_graded_classical",),
    "characters.check_w_invariance_per_grade": (
        "demflag.flags:check_w_invariance_per_grade",),
    "characters.arith": (
        "demflag.flags:shift_grade",
        "demflag.characters:GradedClassicalCharacter.__add__",
        "demflag.characters:GradedClassicalCharacter.__sub__",
        "demflag.characters:GradedClassicalCharacter.__neg__",
        "demflag.characters:GradedClassicalCharacter.scale"),
    "demazure.solve_extremal": ("demflag.demazure:solve_extremal",),
    "demazure.demazure_character": (
        "demflag.demazure:demazure_character",
        "demflag.flags:demazure_character",
        "demflag.cli:demazure_character"),
    "demazure.demazure_dim": (
        "demflag.demazure:demazure_dim", "demflag.cli:demazure_dim"),
    "flags.greedy_decompose": ("demflag.flags:greedy_decompose",),
    "flags.level_flag": ("demflag.flags:level_flag", "demflag.cli:level_flag"),
    "flags.graded_weyl_character": (
        "demflag.flags:graded_weyl_character",
        "demflag.cli:graded_weyl_character"),
    "flags.weyl_dim_product_check": (
        "demflag.flags:weyl_dim_product_check",
        "demflag.cli:weyl_dim_product_check"),
    "flags.local_weyl_character": (
        "demflag.flags:local_weyl_character",
        "demflag.cli:local_weyl_character"),
    "lspath.root_op_f": ("demflag.lspath:root_op_f",),
    "lspath.LSPath.make": ("demflag.lspath:LSPath.make",),
    "lspath.generate_demazure_set": (
        "demflag.lspath:generate_demazure_set",
        "demflag.cli:generate_demazure_set"),
    "lspath.crystal_character": (
        "demflag.lspath:crystal_character", "demflag.cli:crystal_character"),
    "lspath.joseph_highest": (
        "demflag.lspath:joseph_highest", "demflag.cli:joseph_highest"),
    "cli.main": ("demflag.cli:main",),
    "cli.parse": (
        "demflag.cli:build_parser", "argparse:ArgumentParser.parse_args"),
    "cli.cache_read": ("demflag.cli:cache_read",),
    "cli.render": ("demflag.cli:render",),
    "cli.cache_write": ("demflag.cli:cache_write",),
}


# Counters kept beside calls and self time.  Each takes the layer's stats,
# the call's arguments and its result.
def _terms(st, args, result):
    st["terms_in"] += len(args[2])
    st["terms_out"] += len(result)


def _true(st, args, result):
    st["true"] += bool(result)


def _defined(st, args, result):
    st["defined"] += result is not None


def _pieces(st, args, result):
    st["pieces"] += len(result.pieces)


def _paths(st, args, result):
    st["paths"] += len(result)


def _hit(st, args, result):
    st["hit"] += result is not None


def _rendered(st, args, result):
    st["bytes"] += len(result.encode("utf-8"))


def _written(st, args, result):
    st["bytes"] += len(args[2].encode("utf-8"))


COUNTERS = {
    "characters.demazure_step": _terms,
    "root_data.dominance_leq": _true,
    "lspath.root_op_f": _defined,
    "flags.greedy_decompose": _pieces,
    "lspath.generate_demazure_set": _paths,
    "cli.cache_read": _hit,
    "cli.render": _rendered,
    "cli.cache_write": _written,
}

# Per-layer metrics: (name, unit).  A ``_frac`` metric is its counter over
# the layer's calls.
LAYER_METRICS = (
    ("root_data.build.self_s", "s"),
    ("root_data.make_dominant.calls", "count"),
    ("root_data.make_dominant.self_s", "s"),
    ("root_data.dominance_leq.calls", "count"),
    ("root_data.dominance_leq.self_s", "s"),
    ("root_data.dominance_leq.true_frac", "frac"),
    ("linalg.solve_unique.calls", "count"),
    ("linalg.solve_unique.self_s", "s"),
    ("root_data.eta_lambda.calls", "count"),
    ("root_data.eta_lambda.self_s", "s"),
    ("characters.demazure_step.calls", "count"),
    ("characters.demazure_step.self_s", "s"),
    ("characters.demazure_step.terms_in", "count"),
    ("characters.demazure_step.terms_out", "count"),
    ("characters.demazure_word_char.self_s", "s"),
    ("characters.weyl_character_finite.self_s", "s"),
    ("characters.project_graded_classical.self_s", "s"),
    ("characters.check_w_invariance_per_grade.self_s", "s"),
    ("characters.arith.self_s", "s"),
    ("demazure.solve_extremal.self_s", "s"),
    ("demazure.demazure_character.calls", "count"),
    ("demazure.demazure_character.self_s", "s"),
    ("demazure.demazure_character.repeat_frac", "frac"),
    ("demazure.demazure_dim.self_s", "s"),
    ("flags.greedy_decompose.calls", "count"),
    ("flags.greedy_decompose.self_s", "s"),
    ("flags.greedy_decompose.pieces", "count"),
    ("flags.level_flag.self_s", "s"),
    ("flags.graded_weyl_character.self_s", "s"),
    ("flags.weyl_dim_product_check.self_s", "s"),
    ("flags.local_weyl_character.self_s", "s"),
    ("lspath.root_op_f.calls", "count"),
    ("lspath.root_op_f.self_s", "s"),
    ("lspath.root_op_f.defined_frac", "frac"),
    ("lspath.LSPath.make.calls", "count"),
    ("lspath.LSPath.make.self_s", "s"),
    ("lspath.generate_demazure_set.self_s", "s"),
    ("lspath.generate_demazure_set.paths", "count"),
    ("lspath.crystal_character.self_s", "s"),
    ("lspath.joseph_highest.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.cache_read.calls", "count"),
    ("cli.cache_read.self_s", "s"),
    ("cli.cache_read.hit_frac", "frac"),
    ("cli.compute.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.render.bytes", "bytes"),
    ("cli.cache_write.self_s", "s"),
    ("cli.cache_write.bytes", "bytes"),
)


def _resolve(binding: str):
    """(owner, attribute) for a binding, or None when it is missing."""
    modname, _, path = binding.partition(":")
    owner = sys.modules.get(modname)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Wrappers over demflag's bindings with per-layer aggregates."""

    def __init__(self) -> None:
        self.stats: dict[str, Counter] = {}
        self.active = True
        self._stack: list[float] = []
        self._seen: set = set()
        self._counters = {**COUNTERS,
                          "demazure.demazure_character": self._repeat}

    def take(self) -> dict[str, dict]:
        """The stats so far; the counts start again from zero."""
        out = {name: dict(st) for name, st in self.stats.items()}
        for st in self.stats.values():
            st.clear()
        return out

    def _repeat(self, st, args, result):
        # The share of calls whose (datum, level, lambda) was already
        # computed in this process: what a memo of pieces could save.
        ad, lab = args[0], args[1]
        key = (ad.label, lab.level, tuple(lab.lam.h))
        st["repeat"] += key in self._seen
        self._seen.add(key)

    def wrap(self, name: str, fn):
        st = self.stats.setdefault(name, Counter())
        count = self._counters.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st["calls"] += 1
                st["self_s"] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if count is not None:
                try:
                    count(st, args, result)
                except (AttributeError, IndexError, TypeError):
                    pass    # a later signature; the counter stays short
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding whose module is already imported."""
        for name, bindings in TARGETS.items():
            self.stats.setdefault(name, Counter())
            for binding in bindings:
                found = _resolve(binding)
                if found is None:
                    continue
                owner, attr = found
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
        self._split_cli_handlers()

    def _split_cli_handlers(self) -> None:
        # A handler validates its request (part of cli.parse) and returns
        # the thunk that computes the result (cli.compute).
        handlers = getattr(sys.modules.get("demflag.cli"), "_HANDLERS", None)
        if not isinstance(handlers, dict):
            return

        def split(handler):
            parse = self.wrap("cli.parse", handler)

            def traced(args):
                result = parse(args)
                if isinstance(result, tuple) and len(result) == 2 \
                        and callable(result[1]):
                    return result[0], self.wrap("cli.compute", result[1])
                return result
            return traced

        for command, handler in list(handlers.items()):
            handlers[command] = split(handler)


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer metric values from one pass's aggregated stats."""
    out = {}
    for name, _ in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        st = stats.get(layer, {})
        calls = st.get("calls", 0)
        if field.endswith("_frac"):
            part = st.get(field[:-len("_frac")], 0)
            out[name] = part / calls if calls else 0.0
        else:
            out[name] = st.get(field, 0)
    return out


def merge(total: dict, stats: dict) -> None:
    """Add one process's stats into a running total."""
    for layer, st in stats.items():
        acc = total.setdefault(layer, {})
        for field, value in st.items():
            acc[field] = acc.get(field, 0) + value


def self_total(stats: dict) -> float:
    return sum(st.get("self_s", 0.0) for st in stats.values())


def median_metrics(passes: list[dict]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}
