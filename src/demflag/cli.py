"""Command line over the library, with cached, deterministic output.

Subcommands mirror the library surface: Demazure characters and dimensions,
graded Weyl characters with their flags, higher-level flags, labelled
tensor characters, the path-crystal cross-check, highest-term extraction,
finite Weyl characters, and the dimension product check.

Output formats: ``json`` (canonical, sorted keys), ``csv`` (one flat table,
leading ``section`` column), ``table`` (same rows, aligned).  Empty cells
print as ``-``.  All record orders are deterministic, so output for a given
request is byte-stable.

Results are cached under a content address built from a digest of the
package's source files, the subcommand, the canonicalized parameters, and
the format, so any change to the code gets fresh entries.  The cache
directory comes from ``--cache-dir``, else ``DEMAZURE_CACHE_DIR``, else a
per-user cache path; ``--no-cache`` skips both lookup and write.  Cache
writes go through a temporary file and an atomic rename.

Exit codes: 0 success, 2 invalid request, 3 mathematical domain error,
4 cache input/output failure (the result is still printed).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import time
from functools import cache
from typing import Callable, NamedTuple, Optional

from . import errors
from .characters import Character, demazure_word_char, weyl_character_finite
from .demazure import DemazureLabel, demazure_character, demazure_dim
from .flags import (DominantLWeight, FlagDecomposition, graded_weyl_character,
                    level_flag, local_weyl_character, weyl_dim_product_check)
from .lspath import crystal_character, generate_demazure_set, joseph_highest
from .root_data import AffineDatum, RootDatum, affinize, datum_from_label

_LABEL_OK = re.compile(r"^[A-Za-z0-9_.-]+$")


class Table(NamedTuple):
    name: str
    columns: list[str]
    rows: list[list]


# -- parsing helpers ---------------------------------------------------------


def _ints(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers: {text!r}")


def _classical(rd: RootDatum, text: str):
    return rd.weight(_ints(text, "--lambda"))


def _affine(ad: AffineDatum, text: str, grade: int, what: str):
    return ad.weight(_ints(text, what), grade)


def _word(ad: AffineDatum, text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    word = tuple(_ints(text, "--sigma"))
    for i in word:
        ad.pos(i)
    return word


def _factor(rd: RootDatum, text: str):
    if "@" not in text:
        raise ValueError(f"--factor needs the form H,..,H@label: {text!r}")
    coords, label = text.rsplit("@", 1)
    if not _LABEL_OK.match(label):
        raise ValueError(f"bad factor label {label!r}")
    return rd.weight(_ints(coords, "--factor")), label


# -- tables ------------------------------------------------------------------


def _h_cols(datum) -> list[str]:
    return [f"h{i}" for i in datum.indices]


def _graded_char_table(g: Character) -> Table:
    cols = ["grade"] + _h_cols(g.datum) + ["coeff"]
    rows = [[grade, *h, c] for (h, grade), c in g.terms()]
    return Table("character", cols, rows)


def _graded_char_records(g: Character) -> list[dict]:
    return [{"weight": {"h": list(h)}, "grade": grade, "coeff": c}
            for (h, grade), c in g.terms()]


def _finite_char_table(f: Character) -> Table:
    cols = _h_cols(f.datum) + ["coeff"]
    rows = [[*h, c] for (h, _), c in f.terms()]
    return Table("character", cols, rows)


def _finite_char_records(f: Character) -> list[dict]:
    return [{"weight": {"h": list(h)}, "coeff": c} for (h, _), c in f.terms()]


def _flag_table(fd: FlagDecomposition, rd: RootDatum) -> Table:
    cols = ["level", "grade"] + _h_cols(rd) + ["mult"]
    rows = [[fd.level, g, *w.h, c] for w, g, c in fd.pieces]
    return Table("flag", cols, rows)


# -- rendering ---------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def flatten(tables: list[Table]) -> tuple[list[str], list[list[str]]]:
    cols = ["section"]
    for t in tables:
        for c in t.columns:
            if c not in cols:
                cols.append(c)
    rows = []
    for t in tables:
        for r in t.rows:
            named = dict(zip(t.columns, r))
            rows.append([t.name] + [_cell(named.get(c)) for c in cols[1:]])
    return cols, rows


def render_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def render_csv_raw(cols: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rows)
    return buf.getvalue()


def render_table_raw(cols: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(cols[k]), *(len(r[k]) for r in rows), 1)
              if rows else len(cols[k]) for k in range(len(cols))]
    lines = []
    for r in [cols] + rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render(obj, tables: list[Table], fmt: str) -> str:
    if fmt == "json":
        return render_json(obj)
    cols, rows = flatten(tables)
    if fmt == "csv":
        return render_csv_raw(cols, rows)
    return render_table_raw(cols, rows)


# -- cache -------------------------------------------------------------------


def resolve_cache_dir(explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    env = os.environ.get("DEMAZURE_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "demflag")


@cache
def _source_digest() -> str:
    """sha256 over the package's ``*.py`` files, in sorted name order.

    Taken once per process, and only by a request that uses the cache.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(here) if f.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            h.update(name.encode("utf-8") + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def cache_key(command: str, params: dict, fmt: str) -> str:
    blob = json.dumps([_source_digest(), command, params, fmt],
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_read(cdir: str, key: str) -> Optional[str]:
    path = os.path.join(cdir, key + ".json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            entry = json.load(fh)
        except (ValueError, RecursionError):
            return None       # not UTF-8, not JSON or absurdly nested: a miss
    out = entry.get("output") if isinstance(entry, dict) else None
    return out if isinstance(out, str) else None


def cache_write(cdir: str, key: str, output: str) -> None:
    os.makedirs(cdir, exist_ok=True)
    path = os.path.join(cdir, key + ".json")
    entry = {"key": key, "created": time.time(), "output": output}
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- subcommand handlers ------------------------------------------------------
#
# Each handler validates its request up front and returns the canonical
# parameter dictionary plus a thunk computing (json object, tables); the
# thunk is skipped entirely on a cache hit.


def _cmd_demazure_char(args):
    rd = datum_from_label(args.type)
    ad = affinize(rd)
    lam = _classical(rd, args.lam)
    params = {"type": rd.label, "level": args.level, "lambda": list(lam.h),
              "grade": args.grade}

    def run():
        g = demazure_character(ad, DemazureLabel(args.level, lam, args.grade))
        obj = {"command": args.command, **params,
               "character": _graded_char_records(g)}
        return obj, [_graded_char_table(g)]
    return params, run


def _cmd_demazure_dim(args):
    rd = datum_from_label(args.type)
    ad = affinize(rd)
    lam = _classical(rd, args.lam)
    params = {"type": rd.label, "level": args.level, "lambda": list(lam.h),
              "grade": args.grade}

    def run():
        dim = demazure_dim(ad, DemazureLabel(args.level, lam, args.grade))
        obj = {"command": args.command, **params, "dim": dim}
        return obj, [Table("result", ["dim"], [[dim]])]
    return params, run


def _cmd_weyl_char(args):
    rd = datum_from_label(args.type)
    lam = _classical(rd, args.lam)
    params = {"type": rd.label, "lambda": list(lam.h)}

    def run():
        g, fd = graded_weyl_character(rd, lam)
        obj = {"command": args.command, **params,
               "character": _graded_char_records(g), "flag": fd.to_obj()}
        return obj, [_graded_char_table(g), _flag_table(fd, rd)]
    return params, run


def _cmd_flag(args):
    rd = datum_from_label(args.type)
    lam = _classical(rd, args.lam)
    params = {"type": rd.label, "lambda": list(lam.h)}

    def run():
        fd = graded_weyl_character(rd, lam)[1]
        obj = {"command": args.command, **params, "flag": fd.to_obj()}
        return obj, [_flag_table(fd, rd)]
    return params, run


def _cmd_level_flag(args):
    rd = datum_from_label(args.type)
    ad = affinize(rd)
    lam = _classical(rd, args.lam)
    params = {"type": rd.label, "level": args.level,
              "to_level": args.to_level, "lambda": list(lam.h)}

    def run():
        fd = level_flag(ad, args.level, args.to_level, lam)
        obj = {"command": args.command, **params, "flag": fd.to_obj()}
        return obj, [_flag_table(fd, rd)]
    return params, run


def _cmd_local_weyl(args):
    rd = datum_from_label(args.type)
    if not args.factor:
        raise ValueError("at least one --factor is required")
    factors = tuple(_factor(rd, f) for f in args.factor)
    varpi = DominantLWeight(factors)
    params = {"type": rd.label,
              "factors": [{"lambda": list(w.h), "label": a}
                          for w, a in factors]}

    def run():
        f = local_weyl_character(rd, varpi)
        obj = {"command": args.command, **params,
               "character": _finite_char_records(f)}
        return obj, [_finite_char_table(f)]
    return params, run


def _cmd_weyl_finite(args):
    rd = datum_from_label(args.type)
    lam = _classical(rd, args.lam)
    params = {"type": rd.label, "lambda": list(lam.h)}

    def run():
        f = weyl_character_finite(rd, lam)
        obj = {"command": args.command, **params,
               "character": _finite_char_records(f)}
        return obj, [_finite_char_table(f)]
    return params, run


def _cmd_crystal_check(args):
    rd = datum_from_label(args.type)
    ad = affinize(rd)
    lam = _affine(ad, args.lam, args.grade, "--lambda")
    word = _word(ad, args.sigma)
    params = {"type": rd.label, "lambda": list(lam.h), "grade": args.grade,
              "sigma": list(word)}

    def run():
        ps = generate_demazure_set(ad, lam, word)
        by_paths = crystal_character(ps)
        by_ladders = demazure_word_char(ad, word, lam)
        equal = by_paths == by_ladders
        obj = {"command": args.command, **params, "paths": len(ps),
               "mass": by_ladders.mass(), "equal": equal}
        return obj, [Table("result", ["paths", "mass", "equal"],
                           [[len(ps), by_ladders.mass(), equal]])]
    return params, run


def _cmd_joseph(args):
    rd = datum_from_label(args.type)
    ad = affinize(rd)
    mu = _affine(ad, args.mu, 0, "--mu")
    lam = _affine(ad, args.lam, args.grade, "--lambda")
    word = _word(ad, args.sigma)
    params = {"type": rd.label, "mu": list(mu.h), "lambda": list(lam.h),
              "grade": args.grade, "sigma": list(word)}

    def run():
        pairs = joseph_highest(ad, mu, lam, word)
        obj = {"command": args.command, **params, "count": len(pairs),
               "highest": [{"nu": nu.to_obj()} for _, nu in pairs]}
        cols = _h_cols(ad) + ["d"]
        rows = [[*nu.h, nu.d] for _, nu in pairs]
        return obj, [Table("highest", cols, rows)]
    return params, run


def _cmd_dim_check(args):
    rd = datum_from_label(args.type)
    lam = _classical(rd, args.lam)
    params = {"type": rd.label, "lambda": list(lam.h)}

    def run():
        equal, (mass, product) = weyl_dim_product_check(rd, lam)
        obj = {"command": args.command, **params, "equal": equal,
               "mass": mass, "product": product}
        return obj, [Table("result", ["mass", "product", "equal"],
                           [[mass, product, equal]])]
    return params, run


_HANDLERS: dict[str, Callable] = {
    "demazure-char": _cmd_demazure_char,
    "demazure-dim": _cmd_demazure_dim,
    "weyl-char": _cmd_weyl_char,
    "flag": _cmd_flag,
    "level-flag": _cmd_level_flag,
    "local-weyl": _cmd_local_weyl,
    "weyl-finite": _cmd_weyl_finite,
    "crystal-check": _cmd_crystal_check,
    "joseph": _cmd_joseph,
    "dim-check": _cmd_dim_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demflag",
        description="Exact Demazure and graded Weyl module computations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True,
                       help="finite type label, e.g. A1, C2, G2")
        p.add_argument("--format", choices=["json", "csv", "table"],
                       default="json")
        p.add_argument("--no-cache", action="store_true",
                       help="skip cache lookup and write")
        p.add_argument("--cache-dir", default=None,
                       help="override the cache directory")

    p = sub.add_parser("demazure-char",
                       help="graded classical Demazure character")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="classical weight, comma-separated coroot values")
    p.add_argument("--grade", type=int, default=0)
    common(p)

    p = sub.add_parser("demazure-dim", help="Demazure module dimension")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--grade", type=int, default=0)
    common(p)

    p = sub.add_parser("weyl-char",
                       help="graded local Weyl character and its flag")
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)

    p = sub.add_parser("flag", help="level-one flag of a local Weyl module")
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)

    p = sub.add_parser("level-flag",
                       help="flag by higher-level Demazure characters")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--to-level", dest="to_level", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)

    p = sub.add_parser("local-weyl",
                       help="tensor character over labelled summands")
    p.add_argument("--factor", action="append", default=[],
                   help="summand as H,..,H@label; repeatable")
    common(p)

    p = sub.add_parser("weyl-finite",
                       help="finite simple-module character")
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)

    p = sub.add_parser("crystal-check",
                       help="path-crystal character versus operator ladders")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="affine weight, coroot values for nodes 0..n")
    p.add_argument("--grade", type=int, default=0)
    p.add_argument("--sigma", required=True,
                   help="word as comma-separated node indices")
    common(p)

    p = sub.add_parser("joseph",
                       help="highest terms of straight(mu) * crystal")
    p.add_argument("--mu", required=True,
                   help="dominant affine weight, nodes 0..n")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="dominant affine weight, nodes 0..n")
    p.add_argument("--grade", type=int, default=0)
    p.add_argument("--sigma", required=True)
    common(p)

    p = sub.add_parser("dim-check",
                       help="Weyl dimension against the fundamental product")
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)

    return parser


# Exit code of each error family; a cache failure (exit 4) is reported
# after the result is printed, so it never reaches this map.
_EXIT_CODES = {errors.InputError: 2, ValueError: 2, errors.DomainError: 3}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _serve(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(e, kind))


def _serve(args) -> int:
    """Validate, answer from the cache or compute, print; the exit code.

    A cache that cannot be read counts as a miss and one that cannot be
    written loses only the entry: either way the result is printed, and
    the exit code is 4.
    """
    params, run = _HANDLERS[args.command](args)
    status = 0
    if not args.no_cache:
        cdir = resolve_cache_dir(args.cache_dir)
        key = cache_key(args.command, params, args.format)
        try:
            cached = cache_read(cdir, key)
        except OSError as e:
            print(f"cache error: {e}", file=sys.stderr)
            cached, status = None, 4
        if cached is not None:
            sys.stdout.write(cached)
            return 0

    obj, tables = run()
    text = render(obj, tables, args.format)
    sys.stdout.write(text)
    if not args.no_cache:
        try:
            cache_write(cdir, key, text)
        except OSError as e:
            print(f"cache error: {e}", file=sys.stderr)
            status = 4
    return status


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
