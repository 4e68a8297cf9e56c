"""The package imports the third-party modules it declares and no others:
the top-level modules imported anywhere under ``src/lrwave``, function-level
imports included, are the runtime dependencies of ``pyproject.toml``."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lrwave").glob("*.py"))


def third_party_imports(source):
    """Top-level names of the absolute imports in ``source`` outside the
    standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_imports_are_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", d).group().lower()
                .replace("-", "_") for d in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                             for p in SOURCES))
    assert imported == declared


@pytest.mark.parametrize("source, names", [
    ("from __future__ import annotations\nimport numpy as np\n"
     "import os.path\n", {"numpy"}),
    ("import numpy.linalg, json\n", {"numpy"}),
    ("def f():\n    from scipy.integrate import quad\n", {"scipy"}),
    ("from . import quadrature\nfrom .errors import DomainError\n", set()),
])
def test_lint_catches(source, names):
    assert third_party_imports(source) == names
