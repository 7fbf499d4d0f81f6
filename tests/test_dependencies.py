"""The core package stays dependency-free: `pyproject.toml` declares no
dependencies, and every import in `src/coil`, at any depth, is relative or
from the standard library."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def absolute_imports(path: pathlib.Path):
    """The top-level module of each absolute import in `path`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_core_imports_only_the_standard_library():
    files = sorted((ROOT / "src" / "coil").glob("*.py"))
    assert files
    outside = [f"{p.name}: {m}" for p in files for m in absolute_imports(p)
               if m not in sys.stdlib_module_names]
    assert not outside


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.M)
