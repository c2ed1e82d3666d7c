"""End-to-end command line behavior: outputs, errors, formats, caching."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from demflag import cli, errors
from demflag.root_data import build_finite_datum
from test_character_properties import SETTINGS

NC = ["--no-cache"]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(os.path.dirname(TESTS), "README.md")


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


def held(cdir, key):
    """The output of ``key``'s entry under ``cdir``, found by the cache's own
    naming; the entry's first line must be ``key``."""
    with open(cli._entry_path(str(cdir), key), encoding="utf-8",
              newline="") as fh:
        assert fh.readline() == key + "\n"
        return fh.read()


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
     "1942df9b49f0a2fdc2864664febd5b67b3d8874ecdfa60e48fa1a3d848009f56"),
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
    # A dimension whose factors would pass the size bound: refused before
    # the product is multiplied out, in the words of the dimension check
    # below: "error: the fundamental product of (100000000000000000000,)
    # would pass 8192 bits".
    ("demazure-dim --type A1 --level 1 --lambda 100000000000000000000", 3,
     "9bb7801c53961219764d41963416e8ca665453446c6995bbaf0fa5c749c98e0c"),
    # The same with a label of 4,300 digits, which prints: the line shows
    # 200 characters of the message, then "...".
    ("demazure-dim --type A1 --level 1 --lambda " + "9" * 4300, 3,
     "6ef84c1f31afa26b773c8adadd9abe5659b7b352e8b20cfad0f68ebf329236b7"),
    # A dimension check whose fundamental product would pass the same
    # bound: refused before the label's own character is built.
    ("dim-check --type A1 --lambda 10000", 3,
     "45ca2a25e1ae51180019116cba8808cd44cb474065b3891bf72e59a986ba8f93"),
    # A result number past CPython's 4,300-digit limit on int to str: one
    # line of the same bytes on every Python version.
    ("demazure-char --type A1 --level 1 --lambda 2 --grade " + "9" * 4300, 3,
     "0e3ad8bb553386c343a3cef925044c48e1fec17516657b9ddc4363ed56d8c2e3"),
    ("weyl-char --type C2 --lambda=-1,0", 3,
     "1bf1e339a89ddf9facaee46d6450b903badeb9fa582766ad4bf78393b2d2e105"),
    ("demazure-dim --type A1 --level --1 --lambda 1", 2,
     "41e5663819089ab4b74d65b9e03be91677de6cf4154ef8c14f54f0bed96553fe"),
    # The same two refusals with the option abbreviated: the bytes of the
    # full spelling.
    ("weyl-char --type C2 --lam -1,0", 3,
     "1bf1e339a89ddf9facaee46d6450b903badeb9fa582766ad4bf78393b2d2e105"),
    ("weyl-char --type C2 --l -1,0", 3,
     "1bf1e339a89ddf9facaee46d6450b903badeb9fa582766ad4bf78393b2d2e105"),
    ("demazure-dim --type A1 --lev --1 --lambda 1", 2,
     "41e5663819089ab4b74d65b9e03be91677de6cf4154ef8c14f54f0bed96553fe"),
    ("level-flag --type C2 --level 1 --to-level 2 --lambda 1,0", 3,
     "f7af5b730a8d943d75ee9c16e172325bc44a716465de97df57bf6da3e88a83c0"),
    ("demazure-dim --type A1 --level 1 --lambda=-1", 3,
     "490a7b41682548f1e7e5856460e60db8734544b28e8b3e47e01f076ec6cd51ef"),
    # A refused value of 5,000 characters prints 200 of the message, then
    # "...".
    ("demazure-dim --type A1 --level 1 --lambda " + "x" * 5000, 2,
     "ff0cf338277ceff46f7892d08ff03c5fb3b51aeef5fb9cd2ffce4974cd4741ba"),
    # Refusals of the shape of a command line, one line each, and
    # abbreviations: a stray positional, a missing required option, an
    # unknown option after the command and before it, abbreviated options.
    ("demazure-dim --type A1 --level 1 --lambda 1 stray", 2,
     "d05e903e515a22c13141e5ec975f9016b2bd9cbdc62af67dcd1729d8aff26fc2"),
    ("demazure-dim --type A1 --lambda 1", 2,
     "af6685dc6acddcfef4a391f84d77da8236d83348d91bd312c36a8350e944df1d"),
    ("demazure-dim --type A1 --level 1 --lambda 1 --bogus 1", 2,
     "3bc7ce4a69a768febbf94328ca43aedb8832901032d3ca3acd20d74bd19f4184"),
    ("--bogus demazure-dim --type A1 --level 1 --lambda 1", 2,
     "40270b7fd1f5c0ec6e26b2ab3fa18b2797431cc7150371e21c325c6f6da9c7df"),
    # A value ``--`` after ``=`` is the text ``--``, refused as a value.
    ("demazure-dim --type A1 --lambda 1 --level=--", 2,
     "76b84a0f69aba99df050b1755629f10333ce4b72d78c890d10d42b937331da83"),
    ("demazure-dim --type=-- --level 1 --lambda 1", 2,
     "748931887db235a5bc648070d3a43a4396d203532ddaf342e148bccefc1c6416"),
    ("demazure-dim --typ A1 --lev 1 --lam 2", 0,
     "186e640e9ff43720b07d4256992678f4132f611c9e967cf9b2357e5aa6b253ed"),
    # An invalid --format and an empty --cache-dir are values, refused in
    # one line like every other value.
    ("demazure-dim --type A1 --level 1 --lambda 1 --format xml", 2,
     "8af6048bfd6ca90372d0cccc8ddd419c43f5ffbb03f9e64431af1ed4378eca9d"),
    ("demazure-dim --type A1 --level 1 --lambda 3 --cache-dir=", 2,
     "14f05f832a8add60b94015dede61b531335ceeea0f3696e0ad9a447492f65298"),
    # The empty word: the crystal of the highest weight alone.
    ("crystal-check --type A1 --lambda 1,0 --sigma= --format csv", 0,
     "065974df50f265f78ca02450e66947e4a2646c8ce3d4b496641106f0620b7a48"),
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
     "398a71844e12cf1130e8120e26594978f8c8e18f9dc1ee972324c143698a7cad"),
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


def test_unknown_command_line_does_not_follow_argparse(monkeypatch):
    # argparse words its invalid-choice line differently across versions
    # (newer releases leave the choices unquoted).  The lines for an unknown
    # command and an invalid --format are spelled out without a parser, so
    # they keep their pinned bytes whatever argparse would have printed.
    def no_parser(command=None):
        raise AssertionError(f"a parser was built for {command!r}")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    monkeypatch.setenv("COLUMNS", "80")
    requests = ("no-such-command",
                "demazure-dim --type A1 --level 1 --lambda 1 --format xml")
    pins = [pin for pin in PINS if pin[0] in requests]
    assert len(pins) == len(requests)
    assert [screen(args) for args, _, _ in pins] == \
        [(rc, sha) for _, rc, sha in pins]


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
    assert {f"{c} --help" for c in cli._COMMANDS} | {"--help", ""} <= pinned


def test_dim_check(capsys):
    obj = run_json(capsys, ["dim-check", "--type", "A2", "--lambda", "1,1"])
    assert (obj["mass"], obj["product"], obj["equal"]) == (9, 9, True)


def test_a_dim_check_past_the_size_bound_is_refused_at_once():
    """``dim-check`` weighs the fundamental product before it builds the
    label's graded character, which for A1 (10000) takes far longer than
    the time limit; run apart, so that a missing guard fails by that
    limit instead of hanging."""
    proc = subprocess.run(
        [sys.executable, "-m", "demflag.cli", "dim-check", "--type", "A1",
         "--lambda", "10000", *NC], capture_output=True, text=True,
        timeout=30, env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: the fundamental product of (10000,) would pass 8192 "
               "bits\n")


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


# Cells as ``flatten`` writes them: ints, bools, ``-`` and the names of
# sections and columns.
CELLS = st.one_of(st.integers().map(str),
                  st.sampled_from(["true", "false", "-"]),
                  st.from_regex(r"[a-z][a-z0-9_]*", fullmatch=True))


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(CELLS, min_size=n, max_size=n),
    st.lists(st.lists(CELLS, min_size=n, max_size=n), max_size=6))))
def test_csv_is_what_the_csv_writer_writes(table):
    """No cell needs quoting, so joining each row with commas writes the
    bytes of ``csv.writer``, the reference here."""
    cols, rows = table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rows)
    assert cli.render_csv_raw(cols, rows) == buf.getvalue()


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


def test_shared_values_are_checked_first(capsys):
    """``--format``, then ``--cache-dir``, then ``--type`` and the
    subcommand's own values, wherever each stands on the command line."""
    fmt = ("error: argument --format: invalid choice: 'xml' (choose from "
           "'json', 'csv', 'table')\n")
    cdir = "error: argument --cache-dir: an empty value names no directory\n"
    for argv, err in (
            (["--type", "Z9", "--level", "x", "--format", "xml"], fmt),
            (["--cache-dir=", "--type", "A1", "--level", "1", "--format",
              "xml"], fmt),
            (["--type", "Z9", "--level", "x", "--cache-dir="], cdir)):
        assert run(capsys, ["demazure-dim", "--lambda", "1", *argv]) \
            == (2, "", err), argv


def test_an_affine_weight_is_checked_before_its_grade(capsys):
    """Only the ``grade`` option reads ``--grade``, after ``--lambda`` as
    the help lists them, wherever each stands on the command line."""
    for argv in (["crystal-check", "--type", "A1", "--sigma", "0"],
                 ["joseph", "--type", "A1", "--mu", "1,0", "--sigma", "1"]):
        for lam, err in (("1", "error: expected 2 coroot values\n"),
                         ("1,0", "error: --grade must be an integer: 'x'\n")):
            assert run(capsys, [*argv, "--grade", "x", "--lambda", lam, *NC]) \
                == (2, "", err), (argv, lam)


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


# The regular expressions that read numbers, ``--factor`` labels and type
# labels before they became ``str`` checks.
OLD_INTEGER = re.compile(rf"-?[0-9]{{1,{cli.MAX_DIGITS}}}")
OLD_FACTOR_LABEL = re.compile(r"[A-Za-z0-9_.-]+")
OLD_TYPE_LABEL = re.compile(r"^([A-G])([0-9]+)$")
# A label whose rank has one digit more than ``int`` reads.
LONG_RANK = "A" + "9" * (cli.MAX_DIGITS + 1)


def _outcome(read, text):
    """What ``read(text)`` gives: its value, or its error's type and
    message."""
    try:
        return read(text)
    except (ValueError, errors.InputError) as e:
        return type(e), str(e)


def _old_integer(text):
    if not OLD_INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _old_datum_from_label(label):
    m = OLD_TYPE_LABEL.match(label.strip())
    if not m:
        raise errors.UnknownType(f"cannot parse type label {label!r}")
    return build_finite_datum(m.group(1), int(m.group(2)))


def _factor_label_ok(label):
    a1 = cli.datum_from_label("A1")
    args = SimpleNamespace(factor=[f"1@{label}"])
    try:
        cli._factors(a1, cli.affinize(a1), args)
    except ValueError as e:
        assert str(e) == f"bad factor label {label!r}"
        return False
    return True


PARSED_TEXT = st.one_of(
    st.text(st.sampled_from("AGHaz019-+_. \n\u0661\u00b2\uff11@")),
    st.text(),
    st.from_regex(OLD_INTEGER, fullmatch=True),
    st.from_regex(OLD_FACTOR_LABEL, fullmatch=True),
    st.from_regex(r"\s*[A-H][0-9]{1,3}\s*", fullmatch=True))


@SETTINGS
@given(PARSED_TEXT)
@example("\u0661\u0662")
@example("\u00b2")
@example("1_0")
@example("+1")
@example(" 1")
@example("")
@example("-")
@example("--1")
@example("9" * 4300)
@example("9" * 4301)
@example("-" + "9" * 4300)
@example("A" + "9" * 4300)
@example(LONG_RANK)
@example("a1")
@example("A01")
@example("A1\n")
@example("H1")
@example("A\u0661")
def test_str_checks_accept_what_the_old_patterns_did(text):
    """``integer``, the ``--factor`` label check and ``datum_from_label``
    accept exactly the strings the old patterns did, with the same value
    or the same refusal.  A ``--factor`` label is what follows the last
    ``@``.  The one exception is a rank too long for ``int``, which the
    old pattern left to ``int``'s own message and which is now refused
    as a rank outside its series."""
    assert _outcome(cli.integer, text) == _outcome(_old_integer, text)
    label = text.rpartition("@")[2]
    assert _factor_label_ok(label) == bool(OLD_FACTOR_LABEL.fullmatch(label))
    want = ((errors.UnknownType, f"rank {LONG_RANK[1:]} invalid for series A")
            if text == LONG_RANK else _outcome(_old_datum_from_label, text))
    assert _outcome(cli.datum_from_label, text) == want


def test_a_dashed_value_gets_the_one_line_refusal(capsys):
    """A value starting with ``-`` that names no option is refused alike
    after a blank and after ``=``, after the option in full and
    abbreviated; a value missing before a real option, whole or
    abbreviated, is refused as missing, and a value after an ambiguous
    abbreviation as ambiguous: each in one line."""
    base = ["demazure-dim", "--type", "A1", "--level", "1"] + NC
    for bad in ("--1", "-x", "--1,0"):
        assert run(capsys, base + ["--lambda", bad]) \
            == run(capsys, base + ["--lam", bad]) \
            == run(capsys, base + [f"--lambda={bad}"]) \
            == (2, "", "error: --lambda must be comma-separated integers: "
                       f"{bad!r}\n")
    assert run(capsys, base + ["--l", "--1"]) == (
        2, "", "error: ambiguous option: --l could match --level, "
               "--lambda\n")
    for real in (["--format", "json"], ["--format=json"], ["--form", "json"],
                 ["--type", "A1"], ["-h"]):
        assert run(capsys, base + ["--lambda"] + real) == (
            2, "", "error: argument --lambda: expected one argument\n"), real


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


def test_a_result_past_the_digit_limit_is_refused(capsys, tmp_path):
    """A result number longer than ``MAX_DIGITS`` digits, CPython's default
    limit on turning an int into a string, is refused with exit 3 and one
    line of the same bytes on every Python version: nothing is printed or
    cached.  One of ``MAX_DIGITS`` digits prints; a value past the limit on
    the command line is refused as no integer."""
    nines = "9" * cli.MAX_DIGITS
    cdir = ["--cache-dir", str(tmp_path)]
    for argv in (["demazure-char", "--type", "A1", "--level", "1",
                  "--lambda", "2", "--grade", nines],
                 ["joseph", "--type", "A1", "--mu", "1,0", "--lambda", "1,0",
                  f"--grade=-{nines}", "--sigma", "1,0"]):
        assert run(capsys, argv + cdir) == (
            3, "", "error: a result has a number of more than 4300 digits\n")
    assert list(tmp_path.iterdir()) == []
    obj = run_json(capsys, ["demazure-char", "--type", "A1", "--level", "1",
                            "--lambda", "2", "--grade", nines[:-1] + "8"])
    assert max(r["grade"] for r in obj["character"]) == int(nines)
    rc, out, err = run(capsys, ["demazure-dim", "--type", "A1", "--level",
                                "1", "--lambda", "1", "--grade", "1" + nines]
                       + NC)
    assert (rc, out) == (2, "")
    assert err.startswith("error: --grade must be an integer: '1999")


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


def test_a_closed_pipe_exits_4_after_caching(capsys, tmp_path):
    """A result that cannot be written to a pipe with no reader left is one
    ``error:`` line and exit 4, with no traceback, not even when the
    interpreter flushes at exit; the cache entry is still written."""
    argv = ["demazure-dim", "--type", "A1", "--level", "1", "--lambda", "3"]
    _, uncached, _ = run(capsys, argv + NC)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "demflag.cli", *argv, "--cache-dir",
             str(tmp_path)], stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(env, PYTHONPATH=SRC))
    finally:
        os.close(write)
    assert proc.returncode == 4
    assert proc.stderr == ("error: cannot write the result: [Errno 32] "
                           "Broken pipe\n")
    key = cli.cache_key([*argv, "--cache-dir", str(tmp_path)])
    assert len(list(tmp_path.iterdir())) == 1
    assert held(tmp_path, key) == uncached


def test_a_full_disk_exits_4_after_caching(capsys, tmp_path, monkeypatch):
    """A result that cannot be written for want of space, whether computed
    or read from the cache, is one ``error:`` line and exit 4; standard
    output then points at ``os.devnull``."""
    argv = ["weyl-char", "--type", "C2", "--lambda", "1,1"]
    _, uncached, _ = run(capsys, argv + NC)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class Full:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", Full())
    try:
        for _ in ("miss", "hit"):
            rc = cli.main(argv + ["--cache-dir", str(tmp_path / "cache")])
            assert (rc, capsys.readouterr().err) == (
                4, "error: cannot write the result: [Errno 28] No space left "
                   "on device\n")
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    key = cli.cache_key(argv + ["--cache-dir", str(tmp_path / "cache")])
    assert len(list((tmp_path / "cache").iterdir())) == 1
    assert held(tmp_path / "cache", key) == uncached


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv,stdout,code", [
    ("demazure-dim --type Z9 --level 1 --lambda 1", None, 2),
    ("demazure-dim --type A1 --level 1 --lambda=-1", None, 3),
    ("demazure-dim --type A1 --level 1 --lambda 1", "/dev/full", 4),
], ids=["refused", "domain", "unwritable"])
def test_an_unwritable_stderr_keeps_the_exit_code(argv, stdout, code):
    """With standard error on a full device, the ``error:`` line is lost
    but the documented exit code stays, with or without standard output
    on the full device too."""
    with contextlib.ExitStack() as stack:
        err = stack.enter_context(open("/dev/full", "w"))
        out = stack.enter_context(open(stdout, "w")) if stdout \
            else subprocess.DEVNULL
        proc = subprocess.run(
            [sys.executable, "-m", "demflag.cli", *argv.split(), *NC],
            stdout=out, stderr=err, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == code


def test_cache_read_failure_exits_4_after_output(capsys, tmp_path):
    argv = ["flag", "--type", "C2", "--lambda", "2,0"]
    _, uncached, _ = run(capsys, argv + NC)
    key = cli.cache_key(argv + ["--cache-dir", str(tmp_path)])
    os.mkdir(cli._entry_path(str(tmp_path), key))  # it cannot be opened
    rc, out, err = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert rc == 4
    assert out == uncached
    assert err.startswith("cache error:")


@pytest.mark.parametrize("refused,code", [
    (["flag", "--type", "Z9", "--lambda", "2,0"], 2),   # a refused value
    (["flag", "--type", "C2"], 2),                      # a missing option
    # A result refused as it is rendered: a number past the digit limit.
    (["demazure-char", "--type", "A1", "--level", "1", "--lambda", "2",
      "--grade", "9" * cli.MAX_DIGITS], 3),
], ids=["value", "shape", "render"])
def test_a_refused_request_hides_a_cache_read_failure(capsys, tmp_path,
                                                      refused, code):
    """The cache is read before any value is checked, but a read that
    fails is reported only for a request whose result renders: a refused
    one prints its refusal alone.  A refused shape reads no entry at
    all."""
    expected = run(capsys, refused + NC)
    argv = refused + ["--cache-dir", str(tmp_path)]
    os.mkdir(cli._entry_path(str(tmp_path), cli.cache_key(argv)))
    assert run(capsys, argv) == expected
    assert expected[0] == code


def test_an_entry_removed_after_a_check_is_a_miss(capsys, tmp_path,
                                                  monkeypatch):
    """An entry that goes between a check that it exists and the read, as
    when a cache cleaner runs, is a miss, not a cache error."""
    argv = ["flag", "--type", "C2", "--lambda", "2,0"]
    _, uncached, _ = run(capsys, argv + NC)
    key = cli.cache_key(argv + ["--cache-dir", str(tmp_path)])
    entry = cli._entry_path(str(tmp_path), key)
    exists = os.path.exists
    monkeypatch.setattr(cli.os.path, "exists",
                        lambda path: path == entry or exists(path))
    rc, out, err = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert (rc, out, err) == (0, uncached, "")
    assert held(tmp_path, key) == uncached


def test_cache_round_trip_is_byte_identical(capsys, tmp_path):
    argv = ["weyl-char", "--type", "A1", "--lambda", "2",
            "--cache-dir", str(tmp_path)]
    rc, cold, _ = run(capsys, argv)
    assert rc == 0
    key = cli.cache_key(argv)
    assert [os.path.join(tmp_path, name) for name in os.listdir(tmp_path)] \
        == [cli._entry_path(str(tmp_path), key)]
    assert held(tmp_path, key) == cold
    rc, warm, _ = run(capsys, argv)
    assert rc == 0
    assert warm == cold
    _, direct, _ = run(capsys, argv[:-2] + NC)
    assert direct == cold
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


def test_cache_hit_returns_stored_output(capsys, tmp_path):
    argv = ["demazure-dim", "--type", "A1", "--level", "1", "--lambda", "3",
            "--cache-dir", str(tmp_path)]
    cli.cache_write(str(tmp_path), cli.cache_key(argv), "canned\n")
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == "canned\n"


def test_corrupt_cache_entry_is_recomputed(capsys, tmp_path):
    argv = ["dim-check", "--type", "A1", "--lambda", "2",
            "--cache-dir", str(tmp_path)]
    _, cold, _ = run(capsys, argv)
    (entry,) = tmp_path.iterdir()
    entry.write_text("not an entry at all\n")
    rc, again, _ = run(capsys, argv)
    assert rc == 0
    assert again == cold
    assert held(tmp_path, cli.cache_key(argv)) == cold


@pytest.mark.parametrize("payload", [
    # The request line, then bytes that are not UTF-8.
    lambda key: (key + "\n").encode() + b"\xff\xfe not utf-8 \x80",
    # The request line alone, without its newline.
    lambda key: key.encode(),
    # Another request's line, then a plausible output.
    lambda key: b"['other']\n{}\n",
    lambda key: b"",
], ids=["non-utf8", "no-newline", "wrong-first-line", "empty"])
def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path, payload):
    argv = ["flag", "--type", "C2", "--lambda", "2,0"]
    rc, uncached, _ = run(capsys, argv + NC)
    assert rc == 0
    cdir = tmp_path / "cache"
    cdir.mkdir()
    key = cli.cache_key(argv + ["--cache-dir", str(cdir)])
    with open(cli._entry_path(str(cdir), key), "wb") as fh:
        fh.write(payload(key))
    rc, out, err = run(capsys, argv + ["--cache-dir", str(cdir)])
    assert rc == 0, err
    assert out == uncached
    assert held(cdir, key) == uncached


def test_cache_entry_of_another_request_is_recomputed(capsys, tmp_path):
    # The entry for ``--lambda 3`` (dim 8) moved onto the key of
    # ``--lambda 4``: that request recomputes dim 16 and rewrites the entry.
    argv = ["demazure-dim", "--type", "A1", "--level", "1", "--format",
            "csv", "--cache-dir", str(tmp_path), "--lambda"]
    _, dim8, _ = run(capsys, argv + ["3"])
    (three,) = tmp_path.iterdir()
    key = cli.cache_key(argv + ["4"])
    three.rename(cli._entry_path(str(tmp_path), key))
    rc, out, _ = run(capsys, argv + ["4"])
    assert rc == 0
    assert dim8 == "section,dim\nresult,8\n"
    assert out == "section,dim\nresult,16\n"
    assert held(tmp_path, key) == out


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
    """``--no-cache`` in full or abbreviated: the cache is not even keyed.
    Nor is it for a help screen or a refused shape, which read no
    entry."""
    argv = ["weyl-char", "--type", "G2", "--lambda", "1,1"]
    expected = run(capsys, argv + NC)

    def refuse():
        raise AssertionError("the source digest was taken")

    monkeypatch.setattr(cli, "_source_digest", refuse)
    for no_cache in ("--no-cache", "--no", "--no-c"):
        assert run(capsys, argv + [no_cache]) == expected, no_cache
    assert expected[0] == 0
    assert [run(capsys, ["weyl-char", *tail])[0]
            for tail in (["--help"], ["--type", "G2"])] == [0, 2]


def test_import_loads_no_dataclasses_or_fractions():
    code = "import sys, demflag.cli; print(*sorted(sys.modules))"
    loaded = set(_python(SRC, code, "-S").split())
    assert "demflag.cli" in loaded
    assert not loaded & {"dataclasses", "fractions", "inspect", "decimal",
                         "csv"}


def test_a_cache_hit_loads_no_hashing_json_or_tempfile(tmp_path):
    """A hit answers without ``hashlib`` (whose ``_hashlib`` loads
    OpenSSL), ``json``, ``tempfile``, ``typing`` or ``re``, and a CSV miss
    without ``json``.  No miss or refusal loads ``typing``; a miss may load
    ``re``, which ``json`` imports, and so does ``tempfile`` (through
    ``shutil`` and ``fnmatch``), but an uncached CSV or table miss loads
    neither ``re`` nor ``csv``.  Every line is read from the command
    table, so neither a hit, a miss nor a refused shape (a missing option,
    an unknown command) loads ``argparse`` or the ``gettext`` and
    ``locale`` that it loads; a hit builds no root datum.  Only a help
    screen loads it.  Run under ``-S``, so that no site hook imports any of
    them first."""
    code = ("import sys, io, contextlib; from demflag import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    status = cli.main(sys.argv[1:])\n"
            "print(status, cli.affinize.cache_info().currsize,\n"
            "      *sorted(sys.modules))")
    argv = ["demazure-dim", "--type", "A1", "--level", "1", "--lambda", "3",
            "--cache-dir", str(tmp_path)]
    parsing = {"argparse", "gettext", "locale"}
    unwanted = {"hashlib", "_hashlib", "json", "tempfile", "typing", "re",
                *parsing}

    def loaded(*args, status=0):
        """The exit code must be ``status``; the number of affine data
        built, and the modules loaded."""
        proc = subprocess.run([sys.executable, "-S", "-c", code, *args],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got, datums, *modules = proc.stdout.split()
        assert int(got) == status, args
        return int(datums), set(modules)

    csv_miss = loaded(*argv, "--format", "csv")[1]
    assert "json" not in csv_miss
    for fmt in ("csv", "table"):
        assert not loaded(*argv, "--format", fmt, "--no-cache")[1] & {
            "csv", "re"}, fmt
    json_miss = loaded(*argv)[1]
    assert len(list(tmp_path.iterdir())) == 2       # two misses, written
    datums, hit = loaded(*argv)
    assert "demflag.cli" in hit and not hit & unwanted
    assert datums == 0                              # no datum was built
    uncached = loaded(*argv, "--no-cache")[1]
    assert "argparse" in loaded("demazure-dim", "--help")[1]
    refused = [loaded(*argv[:3], *argv[5:], status=2)[1],
               loaded("no-such-command", status=2)[1]]
    assert not uncached & parsing
    assert not any(modules & parsing for modules in refused)
    for modules in (csv_miss, json_miss, uncached, *refused):
        assert "typing" not in modules


# Spellings of the two cache options, each as argparse takes it: in full,
# after ``=``, abbreviated, repeated, and a value that starts with ``-``.
CACHE_SPELLINGS = {
    "none": [],
    "no-cache": ["--no-cache"],
    "no": ["--no"],
    "no-c": ["--no-c"],
    "cache-dir": ["--cache-dir", "a"],
    "cache-dir=": ["--cache-dir=a"],
    "cache": ["--cache", "a"],
    "cache=": ["--cache=a"],
    "twice": ["--cache-dir", "a", "--cache-dir", "b"],
    "dashed": ["--cache-dir", "-x"],
    "empty": ["--cache-dir="],
    "both": ["--no", "--cache", "a"],
}


def argparse_line(argv):
    """``argv`` as argparse must see it to read it as the command table
    does: each value in its own token that starts with ``-`` but names no
    option of the subcommand moved after its option's ``=``, so that
    ``--level --1`` reads as ``--level=--1``.  A token names an option by
    the part before any ``=``: in full, as a ``--`` prefix of any option
    (of one, or ambiguously of more), or as ``-h`` with a value glued on.
    Nothing is moved from a lone ``--`` on."""
    options = dict(cli._arguments(argv[0]))
    names = ["-h", "--help", *options]

    def names_one(tok):
        head = tok.split("=", 1)[0]
        return head in names or tok.startswith("-h") or \
            head.startswith("--") and any(n.startswith(head) for n in names)

    def valued(tok):
        hits = [n for n in names if n.startswith(tok)]
        flag = tok if tok in names else \
            hits[0] if tok.startswith("--") and len(hits) == 1 else None
        return flag in options and options[flag].get("action") != "store_true"

    out, i = argv[:1], 1
    while i < len(argv) and argv[i] != "--":
        tok, nxt = argv[i], argv[i + 1:i + 2]
        if valued(tok) and nxt and nxt[0].startswith("-") \
                and not names_one(nxt[0]):
            out.append(f"{tok}={nxt[0]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out + argv[i:]


def reading(read, argv):
    """What ``read(argv)`` makes of a command line: a dict of its
    namespace, ``"help"`` for a help screen, or its refusal's message.
    ``read`` returns a namespace or None for help, raises ``ValueError``
    for a refusal, or is an argparse parser's ``parse_args``, which
    prints the help or the refusal and exits."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            args = read(argv)
        except ValueError as e:
            return str(e)
        except SystemExit as e:
            return "help" if e.code == 0 else \
                err.getvalue().splitlines()[-1].split(": error: ", 1)[1]
    return "help" if args is None else vars(args)


def ambiguous(argv):
    """Whether a token before any lone ``--`` is a ``--`` prefix of more
    than one option of the subcommand, by the part before any ``=``."""
    names = ["-h", "--help", *dict(cli._arguments(argv[0]))]
    tail = argv[1:]
    heads = [tok.split("=", 1)[0]
             for tok in (tail[:tail.index("--")] if "--" in tail else tail)]
    return any(head.startswith("--") and head not in names
               and sum(n.startswith(head) for n in names) > 1
               for head in heads)


# argparse 3.10 to 3.13.0 refuses an ambiguous prefix before anything else
# on the line, as the command table does; later releases, such as 3.13.13,
# only when they reach it.  Probed, as patch releases differ.
AMBIGUITY_FIRST = reading(cli.build_parser("demazure-dim").parse_args,
                          ["demazure-dim", "--type", "--l"]).startswith(
                              "ambiguous option")


def table_reading(argv):
    """The command table's reading of ``argv``, by ``cli._read_args``:
    argparse's own reading of ``argparse_line(argv)``, its namespace, its
    help screen or its refusal's message.  Not compared: a line that holds
    a lone ``-`` or ``--``, which argparse may take as a value or as the
    end of the options, or a value ``--`` after ``=``, which some
    versions of argparse drop, and an ambiguous prefix on an argparse
    that reports it late."""
    table = reading(cli._read_args, argv)
    if not any(tok in ("-", "--") or tok.endswith("=--") for tok in argv) \
            and (AMBIGUITY_FIRST or not ambiguous(argv)):
        assert table == reading(cli.build_parser(argv[0]).parse_args,
                                argparse_line(argv)), argv
    return table


# Values an option takes: plain, empty, with ``=`` or a blank, or starting
# with ``-`` but naming no option.  Odd tokens are declined in some place:
# a lone ``-`` or ``--``, help, and options of every subcommand, whole,
# abbreviated or unknown.
VALUES = st.sampled_from(["1", "2,0", "A1", "xml", "1@a", "", "a b", "x=y",
                          "-1", "--1", "-x"])
ODD = st.sampled_from(["-", "--", "-h", "--he", "--lam", "--format",
                       "--bogus"])


@st.composite
def command_lines(draw, spelling):
    """A subcommand line from the real tables: its options in full or
    abbreviated, with a value after a blank or after ``=``, alone, left
    out or repeated, stray tokens, the required options or not, and
    ``spelling``, in any order."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._arguments(name)
    pieces = [spelling]
    if draw(st.integers(0, 3)) < 3:
        pieces += [[flag, "1"] for flag, kwargs in options
                   if kwargs.get("required")]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from([flag for flag, _ in options]))
        flag = flag[:len(flag) - draw(st.integers(0, len(flag) - 2))]
        value = draw(st.one_of(VALUES, VALUES, ODD))
        pieces.append(draw(st.sampled_from(
            [[flag, value], [f"{flag}={value}"], [flag, value], [flag],
             [value]])))
    return [name, *(tok for piece in draw(st.permutations(pieces))
                    for tok in piece)]


@pytest.mark.parametrize("spelling", CACHE_SPELLINGS.values(),
                         ids=list(CACHE_SPELLINGS))
@SETTINGS
@given(data=st.data())
def test_the_cache_options_are_read_as_argparse_reads_them(spelling, data):
    """Every command line is read from the command table, ``--no-cache``
    and ``--cache-dir`` included, and every reading, a namespace, a help
    screen or a refusal, must be argparse's.  The table reads each cache
    spelling with the required options, for every subcommand, before and
    after them."""
    for name in cli._COMMANDS:
        required = [tok for flag, kwargs in cli._arguments(name)
                    if kwargs.get("required") for tok in (flag, "1")]
        for argv in ([name, *spelling, *required],
                     [name, *required, *spelling]):
            assert isinstance(table_reading(argv), dict), argv
    table_reading(data.draw(command_lines(spelling)))


@SETTINGS
@given(data=st.data())
def test_every_drawn_line_is_answered_or_refused_in_one_line(data):
    """Whatever its shape, a command line prints its answer or help on
    standard output alone with exit 0, or one ``error:`` line and nothing
    else with exit 2 or 3."""
    spelling = data.draw(st.sampled_from(list(CACHE_SPELLINGS.values())))
    argv = data.draw(command_lines(spelling)) + NC
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 0:
        assert out.getvalue() and not err.getvalue(), argv
    else:
        assert rc in (2, 3) and not out.getvalue(), argv
        assert err.getvalue().startswith("error: ") \
            and err.getvalue().count("\n") == 1, argv


def test_every_valid_pinned_or_documented_line_is_read_from_the_table():
    """Every request ``PINS`` answers with exit 0, help aside, and every
    example of the README is read as argparse reads it, into a
    namespace."""
    with open(README, encoding="utf-8") as fh:
        documented = [line.split()[1:] for line in fh
                      if line.startswith("demflag ")]
    pinned = [args.split() for args, rc, _ in PINS
              if rc == 0 and "--help" not in args]
    assert {argv[0] for argv in documented} == set(cli._COMMANDS)
    for argv in pinned + documented:
        assert isinstance(table_reading(argv), dict), argv


def test_cache_dir_resolution(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DEMAZURE_CACHE_DIR", str(tmp_path / "env"))
    assert cli.resolve_cache_dir("/explicit") == "/explicit"
    assert cli.resolve_cache_dir(None) == str(tmp_path / "env")
    monkeypatch.delenv("DEMAZURE_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cli.resolve_cache_dir(None) == str(tmp_path / "xdg" / "demflag")
    # The XDG Base Directory spec counts an empty XDG_CACHE_HOME as unset
    # and ignores a relative one: the cache goes under ~/.cache, and
    # nothing is written under the working directory.
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    home_cache = tmp_path / "home" / ".cache" / "demflag"
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for xdg in ("", "relative"):
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        assert cli.resolve_cache_dir(None) == str(home_cache)
        rc, out, _ = run(capsys, ["demazure-dim", "--type", "A1", "--level",
                                  "1", "--lambda", "3"])
        assert (rc, json.loads(out)["dim"]) == (0, 8)
        assert len(list(home_cache.iterdir())) == 1
        assert list(work.iterdir()) == []


@pytest.mark.parametrize("spelling", [["--cache-dir", ""], ["--cache-dir="]])
def test_an_empty_cache_dir_is_refused(capsys, tmp_path, monkeypatch,
                                       spelling):
    """An empty ``--cache-dir`` exits 2 with one refusal and writes
    nothing, not even under the per-user path it once fell back to.  An
    empty ``DEMAZURE_CACHE_DIR`` counts as unset."""
    monkeypatch.setenv("DEMAZURE_CACHE_DIR", "")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert cli.resolve_cache_dir(None) == str(tmp_path / "xdg" / "demflag")
    rc, out, err = run(capsys, ["demazure-dim", "--type", "A1", "--level",
                                "1", "--lambda", "3", *spelling])
    assert (rc, out, err) == (2, "", "error: argument --cache-dir: an empty "
                                     "value names no directory\n")
    assert list(tmp_path.iterdir()) == []


def test_env_cache_dir_is_used(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DEMAZURE_CACHE_DIR", str(tmp_path / "boxes"))
    rc, out, _ = run(capsys, ["demazure-dim", "--type", "A1", "--level", "1",
                              "--lambda", "1"])
    assert rc == 0
    assert len(list((tmp_path / "boxes").iterdir())) == 1
