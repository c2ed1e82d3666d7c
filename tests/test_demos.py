"""The demos print the same bytes as when their digests were recorded, and
the README's quick tour gives the results written beside it."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_root_data.py":
        "15d9a9edfe0fcecfc619396fff25b0588fe6bc50665410cab80bfff29c626e4a",
    "02_demazure_characters.py":
        "cd4ec181b1b1ae6f35d90475609e347e9712deffedd8f42549d81a031ff6c4b2",
    "03_path_crystals.py":
        "fd56454f5b5394745b99e23a4c6195e0f8ede8bd7dcdc4aed2cd60cfe088998b",
    "04_weyl_flags.py":
        "2ae528445c95635a50c20e9ef19b93ebda7687a8dd2bcd5d96171ccca9db0035",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) \
        == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    """Each demo runs at the interpreter's own optimisation level, so a
    run under ``python -O`` checks the demos under ``-O`` too."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    optimize = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    run = subprocess.run([sys.executable, *optimize,
                          str(ROOT / "demos" / name)],
                         capture_output=True, env=env, cwd=ROOT, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]


def test_the_readme_quick_tour_gives_its_commented_results():
    """Each expression of the quick tour has its ``repr`` written as a
    comment, at the end of its line or on the line below."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick tour\n\n```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md",
                             "eval"), namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not comment:
            comment = lines[stmt.end_lineno].strip()
        assert comment.startswith("# "), ast.unparse(stmt)
        assert repr(value) == comment[2:], ast.unparse(stmt)
        checked.append(ast.unparse(stmt))
    assert checked == ["demazure_dim(ad, lab)",
                       "dict(demazure_character(ad, lab).terms())",
                       "flag.pieces", "g.mass()"]
