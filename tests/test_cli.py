"""End-to-end command line behavior: outputs, errors, formats, caching."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from demflag import cli

NC = ["--no-cache"]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    reader = list(csv.reader(io.StringIO(text)))
    return reader[0], reader[1:]


def parse_table(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[0].split(), [ln.split() for ln in lines[1:]]


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + NC)
    assert rc == 0, err
    return json.loads(out)


# ---- happy paths, one per subcommand ----


def test_demazure_dim(capsys):
    obj = run_json(capsys, ["demazure-dim", "--type", "A1",
                            "--level", "1", "--lambda", "3"])
    assert obj["dim"] == 8
    assert obj["lambda"] == [3]
    assert obj["command"] == "demazure-dim"


def test_demazure_char_grade_is_a_shift(capsys):
    base = ["demazure-char", "--type", "A1", "--level", "1", "--lambda", "2"]
    at0 = run_json(capsys, base)["character"]
    at5 = run_json(capsys, base + ["--grade", "5"])["character"]
    shifted = [{**r, "grade": r["grade"] + 5} for r in at0]
    assert at5 == shifted


def test_weyl_char(capsys):
    obj = run_json(capsys, ["weyl-char", "--type", "A1", "--lambda", "2"])
    assert obj["character"] == [
        {"weight": {"h": [-2]}, "grade": 0, "coeff": 1},
        {"weight": {"h": [0]}, "grade": 0, "coeff": 1},
        {"weight": {"h": [2]}, "grade": 0, "coeff": 1},
        {"weight": {"h": [0]}, "grade": 1, "coeff": 1},
    ]
    assert obj["flag"] == {"level": 1, "pieces": [
        {"lambda": {"h": [2]}, "grade": 0, "mult": 1}]}


def test_flag(capsys):
    obj = run_json(capsys, ["flag", "--type", "C2", "--lambda", "2,0"])
    assert obj["flag"]["pieces"] == [
        {"lambda": {"h": [2, 0]}, "grade": 0, "mult": 1},
        {"lambda": {"h": [0, 1]}, "grade": 1, "mult": 1},
    ]


def test_level_flag(capsys):
    obj = run_json(capsys, ["level-flag", "--type", "A1", "--level", "1",
                            "--to-level", "2", "--lambda", "2"])
    assert obj["flag"] == {"level": 2, "pieces": [
        {"lambda": {"h": [2]}, "grade": 0, "mult": 1},
        {"lambda": {"h": [0]}, "grade": 1, "mult": 1},
    ]}


def test_local_weyl(capsys):
    obj = run_json(capsys, ["local-weyl", "--type", "A1",
                            "--factor", "1@a", "--factor", "1@b"])
    assert obj["character"] == [
        {"weight": {"h": [-2]}, "coeff": 1},
        {"weight": {"h": [0]}, "coeff": 2},
        {"weight": {"h": [2]}, "coeff": 1},
    ]


def test_weyl_finite(capsys):
    obj = run_json(capsys, ["weyl-finite", "--type", "A1", "--lambda", "1"])
    assert obj["character"] == [
        {"weight": {"h": [-1]}, "coeff": 1},
        {"weight": {"h": [1]}, "coeff": 1},
    ]


def test_crystal_check(capsys):
    obj = run_json(capsys, ["crystal-check", "--type", "A1",
                            "--lambda", "1,0", "--grade", "1",
                            "--sigma", "1,0"])
    assert obj["paths"] == 4
    assert obj["mass"] == 4
    assert obj["equal"] is True


def test_joseph(capsys):
    obj = run_json(capsys, ["joseph", "--type", "A1", "--mu", "1,0",
                            "--lambda", "1,0", "--grade", "1",
                            "--sigma", "1,0"])
    assert obj["count"] == 2
    assert obj["highest"] == [
        {"nu": {"h": [0, 2], "d": 0}},
        {"nu": {"h": [2, 0], "d": 1}},
    ]


# ---- byte pins ----
#
# Exit code and sha256 of what each request prints: stdout on exit 0, else
# stderr, and the other stream must stay empty.  The table holds every
# `cli` request of the benchmark in its format (the benchmark's digests sort
# rows and pieces, so they miss row order and whitespace), the three
# `JOSEPH_PINS`, every help screen at 80 columns, and the bare command.
# Requests other than help screens and the bare command run with --no-cache.

# `joseph --format json` requests whose highest terms come in path-set order,
# which the benchmark digests do not pin: they sort the terms.
JOSEPH_PINS = {
    "A2": ("joseph --type A2 --mu 1,0,0 --lambda 0,1,1 --sigma 1,0,2,0,1"
           " --format json", 0,
           "d1bf202be9edc5111d78d1bc57069bfd87146c8087a0480b40a82839008d600b"),
    "C2": ("joseph --type C2 --mu 1,0,0 --lambda 0,1,0 --sigma 2,1,0,2,1"
           " --format json", 0,
           "b84bb4b4f25de4bf2a35147bf03207e327fcbe2c0afb1b6bbd014d9dfa86ace3"),
    "G2": ("joseph --type G2 --mu 1,0,0 --lambda 1,1,0 --sigma 0,1,2,0,1"
           " --format json", 0,
           "cc2bb1f07b3ce055dda6038b0451cd5793b52064b152885147a3b4746051ea7b"),
}

PINS = [
    ("demazure-dim --type A1 --level 1 --lambda 3 --format json", 0,
     "73e080b7ab086f07c423c06a759e6bf01fdc053c39111d0791c18e35811814a8"),
    ("demazure-dim --type A2 --level 2 --lambda 1,1 --format csv", 0,
     "1cd835ecaa715cf31568797622494155fda06c86c375d3d9030a8caea3780e6c"),
    ("demazure-dim --type C2 --level 1 --lambda 1,0 --grade 2 --format"
     " table", 0,
     "69e0f782d39fc2240d1d309c8f51fa3764e7d32b5c85170e6ca56b9469c08ead"),
    ("demazure-char --type C2 --level 1 --lambda 1,1 --format table", 0,
     "fc8fb3370fb5e200b4110163728c3bf566ec7691bf2a7c92dda2a2a06ab2b74e"),
    ("demazure-char --type A1 --level 2 --lambda 2 --format json", 0,
     "2edf061088d22e719d79cb4d49ed30da5ea7f518fbadad03c7e1f2977b22dfc5"),
    ("demazure-char --type G2 --level 1 --lambda 0,1 --format csv", 0,
     "e8822c4911e2f03a8beb0c397e4cdb49e74fc3a97415acffe809a463f8fee13a"),
    ("weyl-char --type C2 --lambda 2,0 --format json", 0,
     "d66a4a1aa272f7df1d41ae10db92eef784065330b8d46c54f7bbf59247661f1a"),
    ("weyl-char --type G2 --lambda 1,0 --format csv", 0,
     "a7811990ea2d180640c1816fe7321ceb7e37a0250e18793e70e68cd7882565dc"),
    ("weyl-char --type B2 --lambda 0,1 --format table", 0,
     "3ba9c3dd08f1e3ed250ff65d6bf926e096fd7558932bdf281d1a40bffd58d266"),
    ("flag --type G2 --lambda 2,0 --format csv", 0,
     "fe1321fae1e7690436f385b90df6e48a1a6d4538abdf6a4191354eb5e53ef9cd"),
    ("flag --type C3 --lambda 0,1,0 --format json", 0,
     "327ba1d1f29bf5369cdecc4fa7aa642fcf66aa50575723be972edd35dd5d4e8c"),
    ("flag --type A2 --lambda 1,1 --format table", 0,
     "1970370146e7e1c8f1ae8bac8e97d29df7ae60e5bd5d1a793925d1573a31991e"),
    ("level-flag --type A1 --level 1 --to-level 2 --lambda 2 --format json", 0,
     "2be2a9405165cba0403ee4c1ee7f568960a4fa57fcfad4e96c957ecbc555a7f8"),
    ("level-flag --type A2 --level 1 --to-level 3 --lambda 1,0 --format"
     " table", 0,
     "ee4ff8cf918ab369350c635b4923f1dfa0e1c6655f1bd04e76fe74d043954432"),
    ("level-flag --type A1 --level 2 --to-level 3 --lambda 4 --format csv", 0,
     "711bb08a0ff552d540284f7c14df55df1fe8daf608de39056313eedb9c2fd353"),
    ("local-weyl --type A1 --factor 1@a --factor 1@b --format json", 0,
     "4f4f6697a705df9e1f816fffce6c47c15d12a4048611b053b5dc2235b7594936"),
    ("local-weyl --type A2 --factor 1,0@a --factor 0,1@b --format csv", 0,
     "7fd3698f9e9ac655064d0bacfefa646ce9a597de58cee9f47afc3334e09584be"),
    ("local-weyl --type C2 --factor 1,0@x --format table", 0,
     "af1290016ede76ca6890995f6fc0edc9e26d645b798c4e097f4ee51ebc613992"),
    ("weyl-finite --type G2 --lambda 1,0 --format json", 0,
     "c27fda07303fbc18243a0249118fc1df5f2aa48c64dfbac7491f376ec7ccf73c"),
    ("weyl-finite --type E6 --lambda 1,0,0,0,0,0 --format csv", 0,
     "fa3c9cbb2d3e1c81adba693b7787a884f0fa66880c2a82d1503151f81d529a7b"),
    ("weyl-finite --type B3 --lambda 0,0,1 --format table", 0,
     "dfe5b6cb42641586a38aef665f89e0d370c30b2e2f56a111e515d8eaaecb64a4"),
    ("crystal-check --type A1 --lambda 1,0 --grade 1 --sigma 1,0"
     " --format json", 0,
     "fdd1c4e054cdccde3f099e3dd94d36423444e15999f4736b47ef21b8d66c39b5"),
    ("crystal-check --type A2 --lambda 1,0,0 --sigma 1,2,0 --format csv", 0,
     "25c35f191157ebed4872e6583f42e1a4f6111a2e58e2b4fcf2c6e697988f962c"),
    ("crystal-check --type C2 --lambda 0,1,0 --sigma 0,1,2 --format table", 0,
     "86c863cf26324e089337d208d006bae206c4e8d7be751b9211d39b0e57c02108"),
    ("joseph --type A1 --mu 1,0 --lambda 1,0 --grade 1 --sigma 1,0"
     " --format json", 0,
     "f78d95c9fbacebd06d3f721b36bb51b141f1f6be1612c871c508a574a247bd3f"),
    ("joseph --type A1 --mu 0,1 --lambda 1,1 --sigma 0,1 --format table", 0,
     "bb64ab47ccd49ab6dea9fb17f1dc0faa92f1c395a1e6479761feaafc95da5868"),
    ("joseph --type A2 --mu 1,0,0 --lambda 0,1,0 --sigma 1,0 --format csv", 0,
     "99b3dc9a9c727a42dbf31208e89f01aee2f87350e01c383eba9ac1a5a6fa303e"),
    ("dim-check --type C2 --lambda 1,1 --format json", 0,
     "389ebe1dca07d9ddb7521ba2f927dd4e7d3da3c8fb14f4d94de4a958c499fe74"),
    ("dim-check --type G2 --lambda 1,0 --format csv", 0,
     "7ad7ded3cebb0d415eb093ec0c88ebfab5a53999c9c1c5d33e7bc610853f6bff"),
    ("dim-check --type B3 --lambda 1,0,0 --format table", 0,
     "2534d7e0a67e050719b1e42fef7c6e9c6fdce5d586ff670c139e0ad3a1315a51"),
    *JOSEPH_PINS.values(),
    ("no-such-command", 2,
     "4c0ab10f173f249635ea49b6baf240a31ce92e1e8f774a50e6db80e516429b74"),
    ("demazure-dim --type Z9 --level 1 --lambda 1", 2,
     "293ecbe676786e1898064f204cd09e9f1b54cbcb46bbbe9450ee909014131a4c"),
    ("weyl-finite --type A2 --lambda 1,x", 2,
     "ed7bbffb694841eb64ecf7f6bc9e26e547309f324d49e86f799829476640ed4d"),
    ("demazure-dim --type A1 --level 1 --lambda \u0661\u0662", 2,
     "8d20a3af5390384948df93422dd8bb6df9e4f67c20a05cfc4eacb5e6f8a92f88"),
    ("demazure-dim --type A1 --level 1_0 --lambda 1", 2,
     "7818f9ca82363ae7333d92d1f64cb88dcd57182c4b6759b9118cc38b283ac735"),
    ("demazure-dim --type A1 --level 0 --lambda 1", 3,
     "20496c111557d7e760bd2da5d39f1364e8377b6154d01227a81f94d3811f09b0"),
    ("weyl-char --type C2 --lambda=-1,0", 3,
     "1bf1e339a89ddf9facaee46d6450b903badeb9fa582766ad4bf78393b2d2e105"),
    ("demazure-dim --type A1 --level --1 --lambda 1", 2,
     "41e5663819089ab4b74d65b9e03be91677de6cf4154ef8c14f54f0bed96553fe"),
    ("level-flag --type C2 --level 1 --to-level 2 --lambda 1,0", 3,
     "f7af5b730a8d943d75ee9c16e172325bc44a716465de97df57bf6da3e88a83c0"),
    ("demazure-dim --type A1 --level 1 --lambda=-1", 3,
     "490a7b41682548f1e7e5856460e60db8734544b28e8b3e47e01f076ec6cd51ef"),
    # A refused value of 5,000 characters prints 200 of the message, then
    # "...".
    ("demazure-dim --type A1 --level 1 --lambda " + "x" * 5000, 2,
     "ff0cf338277ceff46f7892d08ff03c5fb3b51aeef5fb9cd2ffce4974cd4741ba"),
    ("--help", 0,
     "ef859e211eecb0728ac27c269e9fabb0106f3c921406f49fca576ea9564a2896"),
    ("demazure-char --help", 0,
     "3a38aec67877f10e26b0b7ae25044e1463102a64243ea1f4fc1cc994a2629282"),
    ("demazure-dim --help", 0,
     "c8c76224c8423e8acbfa1f282620266be746d17e0ebc034708110c2db1196ef1"),
    ("weyl-char --help", 0,
     "b5475f1d814bb5bb36cf904638316c7cc5a1c346abd66f1a8cb38bcce2aca736"),
    ("flag --help", 0,
     "05bc578f0da9429ffb14f1ebc5e37442540310dcc55cbb4362a85e12565e3329"),
    ("level-flag --help", 0,
     "0fc973af032d344bb062087e3c77fd8283a6794282d851234483ca9e531fdbc4"),
    ("local-weyl --help", 0,
     "0b3dc3b06149211678df4e63262a048fbf4e2d5618f288a8f3d6d319c3b29a7f"),
    ("weyl-finite --help", 0,
     "2cfc61fe48979deec5c6de60a85c2142790eb84fc57b929cc7f0cbc75b68e46a"),
    ("crystal-check --help", 0,
     "85c6570ed543909f1bdee92a7c477eaefaf26682774b7df708ce313066425781"),
    ("joseph --help", 0,
     "00d0967bd17582bd532211c30efffa35f6f06daeda7c1ece6479b2d901452a2d"),
    ("dim-check --help", 0,
     "88f99f4d843ff09eb4d3c4f0186cda99510f8653c5d0b89a7cddffd8193df84a"),
    ("", 2,
     "6f9d5162bf4ebd4e2cc1838e2be686efb8b4f268cd181d184885594754f1fc55"),
]


def screen(args):
    """Exit code and sha256 of what ``demflag ARGS`` prints."""
    argv = args.split()
    if argv and "--help" not in argv:
        argv += NC
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    shown, other = (out, err) if rc == 0 else (err, out)
    if other.getvalue():
        return rc, "output on both streams"
    return rc, hashlib.sha256(shown.getvalue().encode("utf-8")).hexdigest()


def test_screen_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert [args for args, rc, sha in PINS if screen(args) != (rc, sha)] == []


@pytest.mark.parametrize("pin", JOSEPH_PINS.values(), ids=list(JOSEPH_PINS))
def test_joseph_json_bytes(pin):
    args, rc, sha = pin
    assert screen(args) == (rc, sha)


def test_screen_bytes_under_optimize():
    code = ("import json, test_cli; print(json.dumps("
            "[test_cli.screen(args) for args, _, _ in test_cli.PINS]))")
    got = json.loads(_python(SRC + os.pathsep + TESTS, code, "-O",
                             COLUMNS="80"))
    assert [tuple(x) for x in got] == [(rc, sha) for _, rc, sha in PINS]


def test_pins_cover_the_benchmark_and_every_help_screen():
    sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "perfbench"))
    import workloads
    pinned = {args for args, _, _ in PINS}
    assert {r[1] for r in workloads.family("cli")} <= pinned
    assert {f"{c} --help" for c in cli._HANDLERS} | {"--help", ""} <= pinned


def test_dim_check(capsys):
    obj = run_json(capsys, ["dim-check", "--type", "A2", "--lambda", "1,1"])
    assert (obj["mass"], obj["product"], obj["equal"]) == (9, 9, True)


# ---- formats ----


def test_csv_output(capsys):
    rc, out, _ = run(capsys, ["flag", "--type", "C2", "--lambda", "2,0",
                              "--format", "csv"] + NC)
    assert rc == 0
    assert out == ("section,level,grade,h1,h2,mult\n"
                   "flag,1,0,2,0,1\n"
                   "flag,1,1,0,1,1\n")


def test_table_output(capsys):
    rc, out, _ = run(capsys, ["weyl-char", "--type", "A1", "--lambda", "2",
                              "--format", "table"] + NC)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["section", "grade", "h1", "coeff",
                                "level", "mult"]
    assert lines[-1].split() == ["flag", "0", "2", "-", "1", "1"]
    assert len(lines) == 6


def test_round_trips(capsys):
    argv = ["weyl-char", "--type", "C2", "--lambda", "1,1"]
    _, as_json, _ = run(capsys, argv + NC)
    assert cli.render_json(json.loads(as_json)) == as_json

    _, as_csv, _ = run(capsys, argv + ["--format", "csv"] + NC)
    cols, rows = parse_csv(as_csv)
    assert cli.render_csv_raw(cols, rows) == as_csv

    _, as_table, _ = run(capsys, argv + ["--format", "table"] + NC)
    cols, rows = parse_table(as_table)
    assert cli.render_table_raw(cols, rows) == as_table


def test_formats_agree_on_cells(capsys):
    argv = ["flag", "--type", "C2", "--lambda", "2,0"]
    _, as_csv, _ = run(capsys, argv + ["--format", "csv"] + NC)
    _, as_table, _ = run(capsys, argv + ["--format", "table"] + NC)
    assert parse_csv(as_csv) == parse_table(as_table)


# ---- request errors (exit 2) ----


def test_exit_2_cases(capsys):
    cases = [
        ["demazure-dim", "--type", "Z9", "--level", "1", "--lambda", "1"],
        ["demazure-dim", "--type", "A1", "--level", "1", "--lambda", "1,x"],
        ["weyl-char", "--type", "C2", "--lambda", "1"],
        ["crystal-check", "--type", "A1", "--lambda", "1,0", "--sigma", "5"],
        ["local-weyl", "--type", "A1"],
        ["local-weyl", "--type", "A1", "--factor", "1"],
        ["local-weyl", "--type", "A1", "--factor", "1@a!"],
        ["local-weyl", "--type", "A1", "--factor", "1@a", "--factor", "2@a"],
        ["level-flag", "--type", "A1", "--level", "2", "--to-level", "2",
         "--lambda", "2"],
    ]
    for argv in cases:
        rc, out, err = run(capsys, argv + NC)
        assert rc == 2, argv
        assert out == ""
        assert err.startswith("error:")


def test_a_factor_label_may_not_end_in_a_newline(capsys):
    # ``$`` also matches before a final newline, so ``a\n`` passed a label
    # check written with it and counted as a label distinct from ``a``.
    rc, out, err = run(capsys, ["local-weyl", "--type", "A1", "--factor",
                                "1@a\n", "--factor", "1@a"] + NC)
    assert (rc, out, err) == (2, "", "error: bad factor label 'a\\n'\n")


def test_argparse_errors_use_exit_code_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


# Each is a number ``int`` takes: other scripts' digits, ``_`` between
# digits, a sign other than ``-``, blanks.
NOT_ASCII_INTEGERS = ["\u0661\u0662", "1_0", "+1", " 1", "1 ", "\uff11",
                      "0x1", "", "1.0", "--1"]


@pytest.mark.parametrize("bad", NOT_ASCII_INTEGERS)
def test_only_ascii_integers_are_numbers(capsys, bad):
    """Every integer option refuses what is not ``-?[0-9]+``, with exit 2
    and one ``error:`` line naming the option, never a traceback.  Values
    go after ``=``, so that ``--1`` reaches the option and is not read as a
    flag of its own."""
    requests = [
        ["demazure-dim", "--type", "A1", "--level", "1", f"--lambda={bad}"],
        ["demazure-dim", "--type", "A1", f"--level={bad}", "--lambda", "1"],
        ["demazure-dim", "--type", "A1", "--level", "1", "--lambda", "1",
         f"--grade={bad}"],
        ["level-flag", "--type", "A1", "--level", "1", f"--to-level={bad}",
         "--lambda", "2"],
        ["joseph", "--type", "A1", "--mu", f"1,{bad}", "--lambda", "1,0",
         "--sigma", "1,0"],
        ["crystal-check", "--type", "A1", "--lambda", "1,0",
         "--sigma", f"1,{bad}"],
        ["local-weyl", "--type", "A1", f"--factor={bad}@a"],
    ]
    for argv in requests:
        rc, out, err = run(capsys, argv + NC)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: --") and err.count("\n") == 1, argv
        assert "Traceback" not in err, argv


def test_a_dashed_value_gets_the_one_line_refusal(capsys):
    """A value starting with ``-`` that names no option is refused alike
    after a blank and after ``=``; a value missing before a real option,
    whole or abbreviated, keeps argparse's usage and message."""
    base = ["demazure-dim", "--type", "A1", "--level", "1"] + NC
    for bad in ("--1", "-x", "--1,0"):
        assert run(capsys, base + ["--lambda", bad]) \
            == run(capsys, base + [f"--lambda={bad}"]) \
            == (2, "", "error: --lambda must be comma-separated integers: "
                       f"{bad!r}\n")
    for real in (["--format", "json"], ["--format=json"], ["--form", "json"],
                 ["--type", "A1"], ["-h"]):
        rc, out, err = run(capsys, base + ["--lambda"] + real)
        assert (rc, out) == (2, ""), real
        assert err.startswith("usage: demflag demazure-dim"), real
        assert err.endswith("error: argument --lambda: expected one "
                            "argument\n"), real


# ---- domain errors (exit 3) ----


def test_exit_3_cases(capsys):
    cases = [
        ["demazure-dim", "--type", "A1", "--level", "0", "--lambda", "1"],
        ["weyl-finite", "--type", "A1", "--lambda", "-1"],
        ["level-flag", "--type", "C2", "--level", "1", "--to-level", "2",
         "--lambda", "1,0"],
    ]
    for argv in cases:
        rc, out, err = run(capsys, argv + NC)
        assert rc == 3, argv
        assert out == ""
        assert err.startswith("error:")


# ---- cache (exit 4 and transparency) ----


def test_cache_write_failure_exits_4_after_output(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc, out, err = run(capsys, ["demazure-dim", "--type", "A1", "--level",
                                "1", "--lambda", "1", "--cache-dir",
                                str(blocker)])
    assert rc == 4
    assert json.loads(out)["dim"] == 2
    assert err.startswith("cache error:")


def test_cache_read_failure_exits_4_after_output(capsys, tmp_path):
    argv = ["flag", "--type", "C2", "--lambda", "2,0"]
    _, uncached, _ = run(capsys, argv + NC)
    key = cli.cache_key("flag", {"type": "C2", "lambda": [2, 0]}, "json")
    (tmp_path / f"{key}.json").mkdir()       # the entry cannot be opened
    rc, out, err = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert rc == 4
    assert out == uncached
    assert err.startswith("cache error:")


def test_an_entry_removed_after_a_check_is_a_miss(capsys, tmp_path,
                                                  monkeypatch):
    """An entry that goes between a check that it exists and the read, as
    when a cache cleaner runs, is a miss, not a cache error."""
    argv = ["flag", "--type", "C2", "--lambda", "2,0"]
    _, uncached, _ = run(capsys, argv + NC)
    key = cli.cache_key("flag", {"type": "C2", "lambda": [2, 0]}, "json")
    entry = tmp_path / f"{key}.json"
    exists = os.path.exists
    monkeypatch.setattr(cli.os.path, "exists",
                        lambda path: path == str(entry) or exists(path))
    rc, out, err = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert (rc, out, err) == (0, uncached, "")
    assert json.loads(entry.read_text())["output"] == uncached


def test_cache_round_trip_is_byte_identical(capsys, tmp_path):
    argv = ["weyl-char", "--type", "A1", "--lambda", "2",
            "--cache-dir", str(tmp_path)]
    rc, cold, _ = run(capsys, argv)
    assert rc == 0
    entries = os.listdir(tmp_path)
    assert len(entries) == 1 and entries[0].endswith(".json")
    rc, warm, _ = run(capsys, argv)
    assert rc == 0
    assert warm == cold
    _, direct, _ = run(capsys, argv[:-2] + NC)
    assert direct == cold
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


def test_cache_hit_returns_stored_output(capsys, tmp_path):
    params = {"type": "A1", "level": 1, "lambda": [3], "grade": 0}
    key = cli.cache_key("demazure-dim", params, "json")
    cli.cache_write(str(tmp_path), key, "canned\n")
    rc, out, _ = run(capsys, ["demazure-dim", "--type", "A1", "--level", "1",
                              "--lambda", "3", "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert out == "canned\n"


def test_corrupt_cache_entry_is_recomputed(capsys, tmp_path):
    argv = ["dim-check", "--type", "A1", "--lambda", "2",
            "--cache-dir", str(tmp_path)]
    _, cold, _ = run(capsys, argv)
    (entry,) = tmp_path.iterdir()
    entry.write_text("not json at all")
    rc, again, _ = run(capsys, argv)
    assert rc == 0
    assert again == cold
    assert json.loads(entry.read_text())["output"] == cold


@pytest.mark.parametrize("payload", [
    b"\xff\xfe not utf-8 \x80",       # undecodable bytes
    b"[1, 2]",                         # valid JSON, but not an object
    b'{"output": 7}',                  # an object without string output
    b"[" * 100_000,                    # nested past the parser's depth
], ids=["non-utf8", "json-list", "non-string-output", "deep-nesting"])
def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path, payload):
    argv = ["flag", "--type", "C2", "--lambda", "2,0"]
    rc, uncached, _ = run(capsys, argv + NC)
    assert rc == 0
    cdir = tmp_path / "cache"
    cdir.mkdir()
    key = cli.cache_key("flag", {"type": "C2", "lambda": [2, 0]}, "json")
    (cdir / f"{key}.json").write_bytes(payload)
    rc, out, err = run(capsys, argv + ["--cache-dir", str(cdir)])
    assert rc == 0, err
    assert out == uncached
    assert json.loads((cdir / f"{key}.json").read_text())["output"] \
        == uncached


def test_cache_entry_of_another_request_is_recomputed(capsys, tmp_path):
    # The entry for ``--lambda 3`` (dim 8) moved onto the key of
    # ``--lambda 4``: that request recomputes dim 16 and rewrites the entry.
    argv = ["demazure-dim", "--type", "A1", "--level", "1", "--format",
            "csv", "--cache-dir", str(tmp_path), "--lambda"]
    _, dim8, _ = run(capsys, argv + ["3"])
    (three,) = tmp_path.iterdir()
    key = cli.cache_key("demazure-dim", {"type": "A1", "level": 1,
                                         "lambda": [4], "grade": 0}, "csv")
    three.rename(tmp_path / f"{key}.json")
    rc, out, _ = run(capsys, argv + ["4"])
    assert rc == 0
    assert dim8 == "section,dim\nresult,8\n"
    assert out == "section,dim\nresult,16\n"
    entry = json.loads((tmp_path / f"{key}.json").read_text())
    assert entry["key"] == key and entry["output"] == out


def test_format_changes_the_cache_key(capsys, tmp_path):
    base = ["flag", "--type", "A1", "--lambda", "1",
            "--cache-dir", str(tmp_path)]
    run(capsys, base)
    run(capsys, base + ["--format", "csv"])
    assert len(list(tmp_path.iterdir())) == 2


def _python(pythonpath, code, *flags, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(pythonpath), **env_vars)
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_source_edit_changes_the_cache_key(tmp_path):
    # The key digests the package source, so a changed program never
    # serves entries an older one wrote, even at the same version.
    copy = tmp_path / "src"
    shutil.copytree(os.path.join(SRC, "demflag"), copy / "demflag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    edited = copy / "demflag" / "flags.py"
    edited.write_text(edited.read_text() + "# one more comment\n")
    argv = ["flag", "--type", "C2", "--lambda", "2,0",
            "--cache-dir", str(tmp_path / "cache")]
    code = f"from demflag import cli; cli.main({argv!r})"
    original = _python(SRC, code)
    assert _python(copy, code) == original
    assert len(list((tmp_path / "cache").iterdir())) == 2
    assert _python(SRC, code) == original
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_no_cache_request_takes_no_source_digest(capsys, monkeypatch):
    argv = ["weyl-char", "--type", "G2", "--lambda", "1,1"] + NC
    expected = run(capsys, argv)

    def refuse():
        raise AssertionError("the source digest was taken")

    monkeypatch.setattr(cli, "_source_digest", refuse)
    assert run(capsys, argv) == expected
    assert expected[0] == 0


def test_import_loads_no_dataclasses_or_fractions():
    code = "import sys, demflag.cli; print(*sorted(sys.modules))"
    loaded = set(_python(SRC, code, "-S").split())
    assert "demflag.cli" in loaded
    assert not loaded & {"dataclasses", "fractions", "inspect", "decimal"}


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("DEMAZURE_CACHE_DIR", str(tmp_path / "env"))
    assert cli.resolve_cache_dir("/explicit") == "/explicit"
    assert cli.resolve_cache_dir(None) == str(tmp_path / "env")
    monkeypatch.delenv("DEMAZURE_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cli.resolve_cache_dir(None) == str(tmp_path / "xdg" / "demflag")


def test_env_cache_dir_is_used(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DEMAZURE_CACHE_DIR", str(tmp_path / "boxes"))
    rc, out, _ = run(capsys, ["demazure-dim", "--type", "A1", "--level", "1",
                              "--lambda", "1"])
    assert rc == 0
    assert len(list((tmp_path / "boxes").iterdir())) == 1
