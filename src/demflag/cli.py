"""Command line over the library, with cached, deterministic output.

Subcommands mirror the library surface: Demazure characters and dimensions,
graded Weyl characters with their flags, higher-level flags, labelled
tensor characters, the path-crystal cross-check, highest-term extraction,
finite Weyl characters, and the dimension product check.  A new subcommand
is one more ``_COMMANDS`` entry: its help line, its options in validation
order (kinds from ``_OPTIONS``, which parse and canonicalize them) and a
function computing its sections.  One handler validates every request, and
``build_parser`` adds every subcommand in one loop.

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

_LABEL_OK = re.compile(r"[A-Za-z0-9_.-]+")


class Table(NamedTuple):
    name: str
    columns: list[str]
    rows: list[list]


# -- sections ----------------------------------------------------------------
#
# A section is one part of a result: its JSON fields and the table that
# shows the same part in the flat formats.


def _h_cols(datum) -> list[str]:
    return [f"h{i}" for i in datum.indices]


def _graded_section(g: Character):
    terms = g.terms()
    return ({"character": [{"weight": {"h": list(h)}, "grade": d, "coeff": c}
                           for (h, d), c in terms]},
            Table("character", ["grade", *_h_cols(g.datum), "coeff"],
                  [[d, *h, c] for (h, d), c in terms]))


def _finite_section(f: Character):
    terms = f.terms()
    return ({"character": [{"weight": {"h": list(h)}, "coeff": c}
                           for (h, _), c in terms]},
            Table("character", [*_h_cols(f.datum), "coeff"],
                  [[*h, c] for (h, _), c in terms]))


def _flag_section(fd: FlagDecomposition, rd: RootDatum):
    pieces = [{"lambda": {"h": list(w.h)}, "grade": g, "mult": c}
              for w, g, c in fd.pieces]
    return ({"flag": {"level": fd.level, "pieces": pieces}},
            Table("flag", ["level", "grade", *_h_cols(rd), "mult"],
                  [[fd.level, g, *w.h, c] for w, g, c in fd.pieces]))


def _result(**fields):
    return fields, Table("result", list(fields), [list(fields.values())])


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
    try:
        fh = open(os.path.join(cdir, key + ".json"), "r", encoding="utf-8")
    except FileNotFoundError:
        return None           # no entry, or one removed since: a miss
    with fh:
        try:
            entry = json.load(fh)
        except (ValueError, RecursionError):
            return None       # not UTF-8, not JSON or absurdly nested: a miss
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None           # not an object, or another request's entry
    out = entry.get("output")
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


# -- options -----------------------------------------------------------------
#
# An option kind is its flag, its argparse keywords, the canonical parameter
# it fills, how the parsed arguments give its value and how that value
# reads as a plain JSON parameter.  Argparse keeps every value as text; the
# value functions parse it, so every refusal is one ``error:`` line.
#
# Every number on the command line goes through ``integer``.

_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """An ASCII decimal integer, ``-?[0-9]+``, or ``ValueError``.  ``int``
    alone would also take other scripts' digits, ``_`` between digits, a
    ``+`` sign and surrounding blanks."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _int(text: str, what: str) -> int:
    try:
        return integer(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer: {text!r}") from None


def _ints(text: str, what: str) -> list[int]:
    try:
        return [integer(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers: "
                         f"{text!r}") from None


def _word(rd: RootDatum, ad: AffineDatum, args) -> tuple[int, ...]:
    if args.sigma == "":
        return ()
    word = tuple(_ints(args.sigma, "--sigma"))
    for i in word:
        ad.pos(i)
    return word


def _factors(rd: RootDatum, ad: AffineDatum, args) -> DominantLWeight:
    if not args.factor:
        raise ValueError("at least one --factor is required")
    factors = []
    for text in args.factor:
        if "@" not in text:
            raise ValueError(f"--factor needs the form H,..,H@label: {text!r}")
        coords, label = text.rsplit("@", 1)
        if not _LABEL_OK.fullmatch(label):
            raise ValueError(f"bad factor label {label!r}")
        factors.append((rd.weight(_ints(coords, "--factor")), label))
    return DominantLWeight(tuple(factors))


class _Option(NamedTuple):
    flag: str
    kwargs: dict
    param: str
    value: Callable                        # (rd, ad, args) -> value
    plain: Callable = lambda value: value


def _h(w) -> list[int]:
    return list(w.h)


def _integer_option(flag: str, kwargs: dict) -> _Option:
    param = flag[2:].replace("-", "_")
    return _Option(flag, kwargs, param,
                   lambda rd, ad, args: _int(getattr(args, param), flag))


_LAMBDA = {"dest": "lam", "required": True}

_OPTIONS = {
    "level": _integer_option("--level", {"required": True}),
    "to_level": _integer_option("--to-level", {"required": True}),
    "lambda": _Option("--lambda", _LAMBDA, "lambda",
                      lambda rd, ad, args: rd.weight(
                          _ints(args.lam, "--lambda")), _h),
    "affine_lambda": _Option("--lambda", _LAMBDA, "lambda",
                             lambda rd, ad, args: ad.weight(
                                 _ints(args.lam, "--lambda"),
                                 _int(args.grade, "--grade")), _h),
    "mu": _Option("--mu", {"required": True}, "mu",
                  lambda rd, ad, args: ad.weight(_ints(args.mu, "--mu")), _h),
    "grade": _integer_option("--grade", {"default": "0"}),
    "sigma": _Option("--sigma", {"required": True}, "sigma", _word, list),
    "factor": _Option("--factor", {"action": "append", "default": []},
                      "factors", _factors,
                      lambda varpi: [{"lambda": list(w.h), "label": a}
                                     for w, a in varpi.factors]),
}


# -- subcommands -------------------------------------------------------------
#
# A subcommand is its help line, its options in validation order with the
# help text each shows there, and a ``compute(rd, ad, values)`` giving its
# sections from the option values, keyed by parameter name.


class _Command(NamedTuple):
    help: str
    options: tuple             # (option kind, help text or None)
    compute: Callable


def _demazure_label(v: dict) -> DemazureLabel:
    return DemazureLabel(v["level"], v["lambda"], v["grade"])


def _weyl_char(rd, ad, v):
    g, fd = graded_weyl_character(rd, v["lambda"])
    return [_graded_section(g), _flag_section(fd, rd)]


def _crystal_check(rd, ad, v):
    ps = generate_demazure_set(ad, v["lambda"], v["sigma"])
    by_paths = crystal_character(ps)
    by_ladders = demazure_word_char(ad, v["sigma"], v["lambda"])
    return [_result(paths=len(ps), mass=by_ladders.mass(),
                    equal=by_paths == by_ladders)]


def _joseph(rd, ad, v):
    nus = [nu for _, nu in joseph_highest(ad, v["mu"], v["lambda"],
                                          v["sigma"])]
    return [({"count": len(nus),
              "highest": [{"nu": {"h": list(nu.h), "d": nu.d}} for nu in nus]},
             Table("highest", [*_h_cols(ad), "d"],
                   [[*nu.h, nu.d] for nu in nus]))]


def _dim_check(rd, ad, v):
    equal, (mass, product) = weyl_dim_product_check(rd, v["lambda"])
    return [_result(mass=mass, product=product, equal=equal)]


_AFFINE = "dominant affine weight, nodes 0..n"

_COMMANDS = {
    "demazure-char": _Command(
        "graded classical Demazure character",
        (("level", None),
         ("lambda", "classical weight, comma-separated coroot values"),
         ("grade", None)),
        lambda rd, ad, v: [_graded_section(
            demazure_character(ad, _demazure_label(v)))]),
    "demazure-dim": _Command(
        "Demazure module dimension",
        (("level", None), ("lambda", None), ("grade", None)),
        lambda rd, ad, v: [_result(dim=demazure_dim(ad, _demazure_label(v)))]),
    "weyl-char": _Command(
        "graded local Weyl character and its flag", (("lambda", None),),
        _weyl_char),
    "flag": _Command(
        "level-one flag of a local Weyl module", (("lambda", None),),
        lambda rd, ad, v: [_flag_section(
            graded_weyl_character(rd, v["lambda"])[1], rd)]),
    "level-flag": _Command(
        "flag by higher-level Demazure characters",
        (("level", None), ("to_level", None), ("lambda", None)),
        lambda rd, ad, v: [_flag_section(
            level_flag(ad, v["level"], v["to_level"], v["lambda"]), rd)]),
    "local-weyl": _Command(
        "tensor character over labelled summands",
        (("factor", "summand as H,..,H@label; repeatable"),),
        lambda rd, ad, v: [_finite_section(
            local_weyl_character(rd, v["factors"]))]),
    "weyl-finite": _Command(
        "finite simple-module character", (("lambda", None),),
        lambda rd, ad, v: [_finite_section(
            weyl_character_finite(rd, v["lambda"]))]),
    "crystal-check": _Command(
        "path-crystal character versus operator ladders",
        (("affine_lambda", "affine weight, coroot values for nodes 0..n"),
         ("grade", None), ("sigma", "word as comma-separated node indices")),
        _crystal_check),
    "joseph": _Command(
        "highest terms of straight(mu) * crystal",
        (("mu", _AFFINE), ("affine_lambda", _AFFINE), ("grade", None),
         ("sigma", None)),
        _joseph),
    "dim-check": _Command(
        "Weyl dimension against the fundamental product", (("lambda", None),),
        _dim_check),
}


def _handle(args):
    """Validate a request; its canonical parameters and a thunk computing
    (json object, tables), which a cache hit never calls."""
    command = _COMMANDS[args.command]
    rd = datum_from_label(args.type)
    ad = affinize(rd)
    params, values = {"type": rd.label}, {}
    for kind, _ in command.options:
        opt = _OPTIONS[kind]
        value = values[opt.param] = opt.value(rd, ad, args)
        params[opt.param] = opt.plain(value)

    def run():
        obj, tables = {"command": args.command, **params}, []
        for fields, table in command.compute(rd, ad, values):
            obj.update(fields)
            tables.append(table)
        return obj, tables
    return params, run


# One handler serves every subcommand: it returns the canonical parameters
# and the thunk, so validation and computation can be timed apart.
_HANDLERS: dict[str, Callable] = dict.fromkeys(_COMMANDS, _handle)


# Options every subcommand takes after its own, with argparse's keywords.
_SHARED = (
    ("--type", {"required": True,
                "help": "finite type label, e.g. A1, C2, G2"}),
    ("--format", {"choices": ["json", "csv", "table"], "default": "json"}),
    ("--no-cache", {"action": "store_true",
                    "help": "skip cache lookup and write"}),
    ("--cache-dir", {"default": None, "help": "override the cache directory"}),
)


def _arguments(name: str) -> list[tuple[str, dict]]:
    """The options of a subcommand, in the order its help lists them."""
    return [(_OPTIONS[kind].flag, {"help": text, **_OPTIONS[kind].kwargs})
            for kind, text in _COMMANDS[name].options] + list(_SHARED)


def build_parser() -> argparse.ArgumentParser:
    # The usage line as argparse wraps it at 80 columns up to Python 3.12;
    # from 3.13 on it keeps ``...`` beside the choices.  Spelled out, it is
    # the same bytes on every supported version.
    indent = "\n" + " " * len("usage: demflag ")
    parser = argparse.ArgumentParser(
        prog="demflag",
        usage=f"%(prog)s [-h]{indent}{{{','.join(_COMMANDS)}}}{indent}...",
        description="Exact Demazure and graded Weyl module computations.")
    sub = parser.add_subparsers(dest="command", required=True, prog="demflag")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in _arguments(name):
            p.add_argument(flag, **kwargs)
    return parser


def _join_values(argv: list[str]) -> list[str]:
    """``argv`` with each option that takes a value joined to a next token
    that starts with ``-`` but names no option of the subcommand, nor
    abbreviates one: ``--level --1`` becomes ``--level=--1``.  argparse
    would read ``--1`` as an unknown option and answer with its usage
    block; joined, the value reaches its own one-line refusal.  A missing
    value before a real option, as in ``--lambda --format json``, is left
    to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return argv
    options = _arguments(argv[0])
    names = [flag for flag, _ in options] + ["-h", "--help"]
    valued = {flag for flag, kwargs in options
              if kwargs.get("action") != "store_true"}
    out, i = argv[:1], 1
    while i < len(argv):
        tok, nxt = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        if tok in valued and nxt.startswith("-") and not any(
                name.startswith(nxt.split("=", 1)[0]) for name in names):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# Exit code of each error family; a cache failure (exit 4) is reported
# after the result is printed, so it never reaches this map.
_EXIT_CODES = {errors.InputError: 2, ValueError: 2, errors.DomainError: 3}

# Characters of a message an ``error:`` line shows, then ``...`` if cut.
_ERROR_CHARS = 200


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _join_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _serve(args)
    except tuple(_EXIT_CODES) as e:
        msg = str(e)
        if len(msg) > _ERROR_CHARS:
            msg = msg[:_ERROR_CHARS] + "..."
        print(f"error: {msg}", file=sys.stderr)
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
