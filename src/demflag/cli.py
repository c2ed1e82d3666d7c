"""Command line over the library, with cached, deterministic output.

Subcommands mirror the library surface: Demazure characters and dimensions,
graded Weyl characters with their flags, higher-level flags, labelled
tensor characters, the path-crystal cross-check, highest-term extraction,
finite Weyl characters, and the dimension product check.  A new subcommand
is one more ``_COMMANDS`` entry: its help line, its options in validation
order (kinds from ``_OPTIONS``, which parse and canonicalize them) and a
function computing its sections.  Every command line is read from that
table as argparse would read it, every value kept as text; argparse is
loaded only to print a help screen.  A refusal, of the line's shape or
of a value, is one ``error:`` line.

Output formats: ``json`` (canonical, sorted keys), ``csv`` (one flat table,
leading ``section`` column), ``table`` (same rows, aligned).  Empty cells
print as ``-``.  All record orders are deterministic, so output for a given
request is byte-stable.

Results are cached per command line.  An answer depends on nothing but
the command line and the code, so the key is one line, the ``repr`` of a
digest of the package's source files and the command line as typed: any
change to the code gets fresh entries, and two spellings of one request
(``--lambda 2,0``, ``--lambda=2,0``) are two entries.  An entry is written
only after its command line succeeds, so it is read before any value is
checked: a hit builds no root datum and imports none of ``argparse``,
``json``, ``tempfile``, ``typing`` and ``re``; the package itself imports
neither of the last two.  A help screen or a refused shape reads no
entry.  An entry is a plain-text file: the key's line, then the output
bytes unchanged.  Its name is the 64-bit ``importlib.util.source_hash``
of the key, and a read that finds any other first line under the name
is a miss, so a name shared by two keys costs a recompute, never a wrong
answer.  That hash loads no OpenSSL.  The cache directory comes from
``--cache-dir``, else ``DEMAZURE_CACHE_DIR``, else a per-user cache path;
``--no-cache`` skips both lookup and write.  Cache writes go through a
temporary file and an atomic rename.

Exit codes: 0 success, 2 invalid request, 3 mathematical domain error,
4 cache or output I/O failure (the result is still printed and cached).
A standard error that cannot be written loses its line, not the code.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from functools import cache
from importlib.util import source_hash
from types import SimpleNamespace

from . import errors
from .characters import Character, demazure_word_char, weyl_character_finite
from .demazure import DemazureLabel, demazure_character, demazure_dim
from .flags import (DominantLWeight, FlagDecomposition, graded_weyl_character,
                    level_flag, local_weyl_character, weyl_dim_product_check)
from .lspath import crystal_character, generate_demazure_set, joseph_highest
from .root_data import (MAX_DIGITS, AffineDatum, RootDatum, affinize,
                        datum_from_label, printable)

# ``MAX_DIGITS`` is the most digits of a number read (``integer``) or
# printed (``render``, which checks the JSON object, whatever the format,
# with ``root_data.printable``, the digit test that refusals use too).


# A table: its ``name``, a ``str``, its ``columns``, a ``list[str]``, and
# its ``rows``, a ``list[list]``.
Table = namedtuple("Table", "name columns rows")


# -- sections ----------------------------------------------------------------
#
# A section is one part of a result: its JSON fields and the table that
# shows the same part in the flat formats.


def _h_cols(datum) -> list[str]:
    return [f"h{i}" for i in datum.indices]


def _character_section(c: Character, graded: bool):
    """The terms of ``c``, each with its grade first if ``graded``."""
    grade = ["grade"] if graded else []
    rows = [([d] if graded else []) + [*h, n] for (h, d), n in c.terms()]
    return ({"character": [{"weight": {"h": r[graded:-1]}, "coeff": r[-1],
                            **({"grade": r[0]} if graded else {})}
                           for r in rows]},
            Table("character", [*grade, *_h_cols(c.datum), "coeff"], rows))


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
    import json            # here, so that a cache hit does not load it
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def render_csv_raw(cols: list[str], rows: list[list[str]]) -> str:
    # Every cell is an int, a bool, ``-`` or a fixed name, so none needs
    # quoting: ``csv.writer`` would write the same bytes.
    return "".join(",".join(row) + "\n" for row in [cols, *rows])


def render_table_raw(cols: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(cols[k]), *(len(r[k]) for r in rows), 1)
              if rows else len(cols[k]) for k in range(len(cols))]
    lines = []
    for r in [cols] + rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _fits(obj) -> bool:
    """Whether no integer in ``obj`` has more than ``MAX_DIGITS`` digits."""
    if isinstance(obj, (dict, list, tuple)):
        return all(map(_fits, obj.values() if isinstance(obj, dict) else obj))
    return not isinstance(obj, int) or printable(obj)


def render(obj, tables: list[Table], fmt: str) -> str:
    if not _fits(obj):
        raise errors.TooLarge(f"a result has a number of more than "
                              f"{MAX_DIGITS} digits")
    if fmt == "json":
        return render_json(obj)
    cols, rows = flatten(tables)
    if fmt == "csv":
        return render_csv_raw(cols, rows)
    return render_table_raw(cols, rows)


# -- cache -------------------------------------------------------------------


def resolve_cache_dir(explicit: str | None) -> str:
    """``explicit``, else ``DEMAZURE_CACHE_DIR``, else the per-user path;
    an empty value counts as unset.  The per-user path is under
    ``XDG_CACHE_HOME`` when that is an absolute path, else under
    ``~/.cache``: the XDG Base Directory spec ignores an empty or relative
    value."""
    if explicit:
        return explicit
    env = os.environ.get("DEMAZURE_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "demflag")


@cache
def _source_digest() -> str:
    """``importlib.util.source_hash`` over the package's ``*.py`` files, in
    sorted name order, as 16 hex digits.

    The hash is the keyed 64-bit SipHash of hash-based ``.pyc`` files.  Its
    key is the interpreter's bytecode magic number, so the digest, and with
    it every cache key, differs between Python versions.  Taken once per
    process, and only by a request that uses the cache.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    parts = []
    for name in sorted(f for f in os.listdir(here) if f.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            parts.append(name.encode("utf-8") + b"\0" + fh.read() + b"\0")
    return source_hash(b"".join(parts)).hex()


def cache_key(argv: list[str]) -> str:
    """The command line as typed, as one line: ``repr`` escapes any newline
    or lone surrogate in an argument."""
    return repr([_source_digest(), argv])


def _entry_path(cdir: str, key: str) -> str:
    """Where the entry of ``key`` lives: 16 hex digits of its 64-bit hash.
    Other keys may share the name; the entry's first line tells them apart."""
    return os.path.join(cdir, source_hash(key.encode("utf-8")).hex() + ".txt")


def cache_read(cdir: str, key: str) -> str | None:
    try:
        fh = open(_entry_path(cdir, key), encoding="utf-8", newline="")
    except FileNotFoundError:
        return None           # no entry, or one removed since: a miss
    with fh:
        try:
            if fh.readline() != key + "\n":
                return None   # empty, no newline or another request's entry
            return fh.read()
        except ValueError:
            return None       # not UTF-8: a miss


def cache_write(cdir: str, key: str, output: str) -> None:
    import tempfile        # here, so that a cache hit does not load it
    os.makedirs(cdir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(key + "\n")
            fh.write(output)
        os.replace(tmp, _entry_path(cdir, key))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- options -----------------------------------------------------------------
#
# An option kind is its flag, its argparse keywords, the canonical parameter
# it fills, how the parsed arguments give its value and how that value
# reads as a plain JSON parameter.  The value functions parse the text
# argparse keeps.
#
# Every number on the command line goes through ``integer``.


def integer(text: str) -> int:
    """An ASCII decimal integer of at most ``MAX_DIGITS`` digits, or
    ``ValueError``.  ``int`` alone would also take other scripts' digits,
    ``_`` between digits, a ``+`` sign and surrounding blanks."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()
            and len(digits) <= MAX_DIGITS):
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


# The characters of a ``--factor`` label besides ASCII letters and digits,
# each read as a letter.
_LABEL_PUNCTUATION = str.maketrans("_.-", "aaa")


def _factors(rd: RootDatum, ad: AffineDatum, args) -> DominantLWeight:
    if not args.factor:
        raise ValueError("at least one --factor is required")
    factors = []
    for text in args.factor:
        if "@" not in text:
            raise ValueError(f"--factor needs the form H,..,H@label: {text!r}")
        coords, label = text.rsplit("@", 1)
        if not (label.isascii()
                and label.translate(_LABEL_PUNCTUATION).isalnum()):
            raise ValueError(f"bad factor label {label!r}")
        factors.append((rd.weight(_ints(coords, "--factor")), label))
    return DominantLWeight(tuple(factors))


# An option kind: its ``flag``, ``kwargs`` and ``param``, then two
# functions, ``value``, (rd, ad, args) -> value, and ``plain``, value ->
# its plain JSON form, by default the value itself.
_Option = namedtuple("_Option", "flag kwargs param value plain",
                     defaults=(lambda value: value,))


def _integer_option(flag: str, kwargs: dict) -> _Option:
    param = flag[2:].replace("-", "_")
    return _Option(flag, kwargs, param,
                   lambda rd, ad, args: _int(getattr(args, param), flag))


def _weight_option(flag: str, dest: str, affine: bool) -> _Option:
    return _Option(flag, {"dest": dest, "required": True}, flag[2:],
                   lambda rd, ad, args: (ad if affine else rd).weight(
                       _ints(getattr(args, dest), flag)),
                   lambda w: list(w.h))


_OPTIONS = {
    "level": _integer_option("--level", {"required": True}),
    "to_level": _integer_option("--to-level", {"required": True}),
    "lambda": _weight_option("--lambda", "lam", False),
    "affine_lambda": _weight_option("--lambda", "lam", True),
    "mu": _weight_option("--mu", "mu", True),
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


# A subcommand: its ``help`` line, its ``options``, each an (option
# kind, help text or None), and its ``compute`` function.
_Command = namedtuple("_Command", "help options compute")


def _demazure_label(v: dict) -> DemazureLabel:
    return DemazureLabel(v["level"], v["lambda"], v["grade"])


def _weyl_char(rd, ad, v):
    g, fd = graded_weyl_character(rd, v["lambda"])
    return [_character_section(g, graded=True), _flag_section(fd, rd)]


def _crystal_check(rd, ad, v):
    lam = v["lambda"]._replace(d=v["grade"])
    ps = generate_demazure_set(ad, lam, v["sigma"])
    by_paths = crystal_character(ps)
    by_ladders = demazure_word_char(ad, v["sigma"], lam)
    return [_result(paths=len(ps), mass=by_ladders.mass(),
                    equal=by_paths == by_ladders)]


def _joseph(rd, ad, v):
    lam = v["lambda"]._replace(d=v["grade"])
    nus = [nu for _, nu in joseph_highest(ad, v["mu"], lam, v["sigma"])]
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
        lambda rd, ad, v: [_character_section(
            demazure_character(ad, _demazure_label(v)), graded=True)]),
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
        lambda rd, ad, v: [_character_section(
            local_weyl_character(rd, v["factors"]), graded=False)]),
    "weyl-finite": _Command(
        "finite simple-module character", (("lambda", None),),
        lambda rd, ad, v: [_character_section(
            weyl_character_finite(rd, v["lambda"]), graded=False)]),
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


def _invalid_choice(value: str, choices) -> str:
    # argparse quotes the choices in this line on some versions and not on
    # others; spelled out, it is the same bytes on all.
    return (f"invalid choice: {value!r} "
            f"(choose from {', '.join(map(repr, choices))})")


_FORMATS = ("json", "csv", "table")


def _answer(args):
    """The answer to the request ``args``: its JSON object, which holds
    its canonical parameters, and its tables.  The request is checked
    before anything is computed: the options every subcommand shares
    first, then ``--type`` and the subcommand's own options in their
    order."""
    if args.format not in _FORMATS:
        raise ValueError("argument --format: "
                         + _invalid_choice(args.format, _FORMATS))
    if args.cache_dir == "":           # not unset: it names no directory
        raise ValueError("argument --cache-dir: an empty value names no "
                         "directory")
    command = _COMMANDS[args.command]
    rd = datum_from_label(args.type)
    ad = affinize(rd)
    obj, values, tables = {"command": args.command, "type": rd.label}, {}, []
    for kind, _ in command.options:
        opt = _OPTIONS[kind]
        value = values[opt.param] = opt.value(rd, ad, args)
        obj[opt.param] = opt.plain(value)
    for fields, table in command.compute(rd, ad, values):
        obj.update(fields)
        tables.append(table)
    return obj, tables


# Options every subcommand takes after its own, with argparse's keywords.
_SHARED = (
    ("--type", {"required": True,
                "help": "finite type label, e.g. A1, C2, G2"}),
    ("--format", {"metavar": "{" + ",".join(_FORMATS) + "}",
                  "default": "json"}),
    ("--no-cache", {"action": "store_true",
                    "help": "skip cache lookup and write"}),
    ("--cache-dir", {"default": None,
                     "help": "override the cache directory"}),
)


def _arguments(name: str) -> list[tuple[str, dict]]:
    """The options of a subcommand, in the order its help lists them."""
    return [(_OPTIONS[kind].flag, {"help": text, **_OPTIONS[kind].kwargs})
            for kind, text in _COMMANDS[name].options] + list(_SHARED)


def build_parser():
    """The ``argparse.ArgumentParser`` of every subcommand.  It only prints
    help screens: ``_read_args`` reads every command line."""
    import argparse        # here, so that a cache hit does not load it
    # The usage line as argparse wraps it at 80 columns up to Python 3.12;
    # from 3.13 on it keeps ``...`` beside the choices.  Spelled out, it is
    # the same bytes on every supported version.
    indent = "\n" + " " * len("usage: demflag ")
    parser = argparse.ArgumentParser(
        prog="demflag",
        usage=f"%(prog)s [-h]{indent}{{{','.join(_COMMANDS)}}}{indent}...",
        description="Exact Demazure and graded Weyl module computations.")
    sub = parser.add_subparsers(dest="command", required=True, prog="demflag")
    for name in _COMMANDS:
        p = sub.add_parser(name, help=_COMMANDS[name].help)
        for flag, kwargs in _arguments(name):
            p.add_argument(flag, **kwargs)
    return parser


_HELP = ["-h", "--help"]


def _option(tok: str, names: list[str]) -> tuple[str | None, str | None]:
    """The option among ``names`` that ``tok`` names, as argparse reads
    it, and the value after its ``=`` (None without one); ``(None, None)``
    for a token that names none.  A ``--`` token names an option by the
    part before any ``=``, in full or as a prefix of exactly one name, and
    a prefix of more is refused as ambiguous; ``-hX`` is ``-h`` with the
    value ``X``."""
    head, eq, value = tok.partition("=")
    if head in names:
        return head, value if eq else None
    if tok.startswith("-h"):
        return "-h", tok[2:]
    hits = [name for name in names if name.startswith(head)]
    if not tok.startswith("--") or not hits:
        return None, None
    if len(hits) > 1:
        raise ValueError(f"ambiguous option: {tok} could match "
                         f"{', '.join(hits)}")
    return hits[0], value if eq else None


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of the command line ``argv``, read from the command
    table as argparse reads it, every value kept as text; None for a help
    screen.  A line of the wrong shape raises ``ValueError`` with
    argparse's message.

    The line is a subcommand, or help.  Every token before a lone ``--``
    is resolved by ``_option`` first, so an ambiguous prefix refuses
    before anything else.  Then, from the left, an option takes the value
    after its ``=`` or else the next token, unless that names an option
    too: ``--1`` or a lone ``-`` is a value, unlike ``--lam`` or a lone
    ``--`` (argparse would refuse ``--1`` as an option); the last value
    wins and ``--factor`` appends; an explicit value for ``--no-cache``
    or help refuses, and help returns.  Then the required options must be
    given, and no token may stray: neither one naming no option nor any
    from a lone ``--`` on."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    name, tail = argv[0], argv[1:]
    if name not in _COMMANDS:
        flag, value = _option(name, _HELP)
        if flag and value is None:
            return None
        raise ValueError(f"argument command: "
                         f"{_invalid_choice(name, _COMMANDS)}")
    options = dict(_arguments(name))
    dests = {flag: kwargs.get("dest", flag[2:].replace("-", "_"))
             for flag, kwargs in options.items()}
    values = {"command": name}
    for flag, kwargs in options.items():
        values[dests[flag]] = kwargs.get(
            "default", False if kwargs.get("action") == "store_true" else None)
    end = tail.index("--") if "--" in tail else len(tail)
    names = [*_HELP, *options]
    tokens = iter([(tok, _option(tok, names)) for tok in tail[:end]])
    given, strays = set(), []
    for tok, (flag, value) in tokens:
        if flag is None:
            strays.append(tok)
            continue
        if flag in _HELP or options[flag].get("action") == "store_true":
            if value is not None:
                shown = "/".join(_HELP) if flag in _HELP else flag
                raise ValueError(f"argument {shown}: ignored explicit "
                                 f"argument {value!r}")
            if flag in _HELP:
                return None
            values[dests[flag]] = True
        else:
            if value is None:
                nxt = next(tokens, None)
                if nxt is None or nxt[1][0] is not None:
                    raise ValueError(f"argument {flag}: expected one "
                                     f"argument")
                value = nxt[0]
            dest = dests[flag]
            values[dest] = ([*values[dest], value]  # the default stays empty
                            if options[flag].get("action") == "append"
                            else value)
        given.add(flag)
    missing = [flag for flag, kwargs in options.items()
               if kwargs.get("required") and flag not in given]
    if missing:
        raise ValueError(f"the following arguments are required: "
                         f"{', '.join(missing)}")
    strays += tail[end:]
    if strays:
        raise ValueError(f"unrecognized arguments: {' '.join(strays)}")
    return SimpleNamespace(**values)


# Exit code of each error family; a cache failure (exit 4) is reported
# after the result is printed, so it never reaches this map.
_EXIT_CODES = {errors.InputError: 2, ValueError: 2, errors.DomainError: 3}

# Characters of a message an ``error:`` line shows, then ``...`` if cut.
# A message at most three longer is shown whole: the cut would not shorten
# it (the unknown-command line, with its choices, is 201 characters).
_ERROR_CHARS = 200


def main(argv=None) -> int:
    """Answer the command line ``argv``; the exit code.  The line is read
    from the command table; argparse is loaded only to print a help
    screen.  Every refusal, of the line's shape or of a value, is one
    ``error:`` line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_args(argv)
        return _help(argv[0]) if args is None else _serve(args, argv)
    except tuple(_EXIT_CODES) as e:
        msg = str(e)
        if len(msg) > _ERROR_CHARS + len("..."):
            msg = msg[:_ERROR_CHARS] + "..."
        _complain(f"error: {msg}")
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(e, kind))


def _help(name: str) -> int:
    """Print, by argparse, the help screen of the subcommand ``name`` or
    else the top-level one; the exit code, 0."""
    try:
        build_parser().parse_args([name, "-h"] if name in _COMMANDS
                                  else ["-h"])
    except SystemExit:
        pass
    return 0


def _complain(line: str) -> None:
    """Print ``line`` on standard error.  One that cannot be written loses
    the line, not the exit code."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _write(text: str) -> int:
    """Print ``text``; the exit code, 4 if it cannot be written.  Standard
    output then points at ``os.devnull``, as the Python docs on SIGPIPE
    advise, so the flush at interpreter exit raises nothing more."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        _complain(f"error: cannot write the result: {e}")
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 4
    return 0


def _serve(args, argv: list[str]) -> int:
    """Answer the request ``args`` that ``argv`` spells; the exit code.
    Unless the request skips the cache, its entry is read before any
    value is checked, and a hit is printed as it is; a miss is validated,
    computed, printed and written under the same key.

    A cache that cannot be read counts as a miss and one that cannot be
    written loses only the entry: either way the result is printed, and
    the exit code is 4, as for a result that cannot be printed.  A read
    error is reported once the result is rendered, so a refused request
    prints only its refusal.
    """
    cache = not args.no_cache and args.cache_dir != ""
    if cache:
        cdir, key = resolve_cache_dir(args.cache_dir), cache_key(argv)
        try:
            cached, error = cache_read(cdir, key), None
        except OSError as e:
            cached, error = None, e
        if cached is not None:
            return _write(cached)
    text = render(*_answer(args), args.format)
    if not cache:
        return _write(text)
    status = 0
    if error is not None:
        _complain(f"cache error: {error}")
        status = 4
    status = _write(text) or status
    try:
        cache_write(cdir, key, text)
    except OSError as e:
        _complain(f"cache error: {e}")
        status = 4
    return status


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
