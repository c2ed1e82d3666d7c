"""End-to-end command line behavior: outputs, errors, formats, caching."""

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


# sha256 of the exact stdout.  The highest terms come in path-set order,
# which the benchmark digests do not pin: they sort the terms.
@pytest.mark.parametrize("argv, sha256", [
    (["--type", "A2", "--mu", "1,0,0", "--lambda", "0,1,1",
      "--sigma", "1,0,2,0,1"],
     "d1bf202be9edc5111d78d1bc57069bfd87146c8087a0480b40a82839008d600b"),
    (["--type", "C2", "--mu", "1,0,0", "--lambda", "0,1,0",
      "--sigma", "2,1,0,2,1"],
     "b84bb4b4f25de4bf2a35147bf03207e327fcbe2c0afb1b6bbd014d9dfa86ace3"),
    (["--type", "G2", "--mu", "1,0,0", "--lambda", "1,1,0",
      "--sigma", "0,1,2,0,1"],
     "cc2bb1f07b3ce055dda6038b0451cd5793b52064b152885147a3b4746051ea7b"),
], ids=["A2", "C2", "G2"])
def test_joseph_json_bytes(capsys, argv, sha256):
    rc, out, err = run(capsys, ["joseph", *argv, "--format", "json"] + NC)
    assert rc == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


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


def test_argparse_errors_use_exit_code_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


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


def test_format_changes_the_cache_key(capsys, tmp_path):
    base = ["flag", "--type", "A1", "--lambda", "1",
            "--cache-dir", str(tmp_path)]
    run(capsys, base)
    run(capsys, base + ["--format", "csv"])
    assert len(list(tmp_path.iterdir())) == 2


def _python(pythonpath, code, *flags):
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
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
