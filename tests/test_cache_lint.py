"""Module-level caches are bounded and keyed by value: every ``lru_cache``
names an integer ``maxsize`` of at least 1, ``functools.cache`` is not
used, and no code keys anything by ``id()``."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1]
                  / "src" / "lrwave").glob("*.py"))


def _functools_names(tree):
    """Local name -> what it names in functools: "functools" for the
    module itself, the attribute for a name imported from it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "functools":
                    names[a.asname or a.name] = "functools"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for a in node.names:
                names[a.asname or a.name] = a.name
    return names


def _functools_attr(node, names):
    """The functools attribute ``node`` refers to, or None."""
    if isinstance(node, ast.Name):
        attr = names.get(node.id)
        return None if attr == "functools" else attr
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and names.get(node.value.id) == "functools"):
        return node.attr
    return None


def _maxsize(call):
    args = [k.value for k in call.keywords if k.arg == "maxsize"]
    args += call.args[:1]
    return args[0].value if args and isinstance(args[0], ast.Constant) else None


def cache_violations(source):
    """(line, message) of each unbounded or id-keyed cache in ``source``."""
    tree = ast.parse(source)
    names = _functools_names(tree)
    bad = []
    calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "id":
                bad.append((node.lineno, "id() call"))
            if _functools_attr(node.func, names) == "lru_cache":
                size = _maxsize(node)
                if not (type(size) is int and size >= 1):
                    bad.append((node.lineno, "lru_cache without an integer "
                                             "maxsize >= 1"))
        attr = _functools_attr(node, names)
        if attr == "cache" or (attr == "lru_cache" and id(node) not in calls):
            bad.append((node.lineno, f"functools.{attr} with no explicit "
                                     "bound"))
    return bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_bounded_and_value_keyed(path):
    assert cache_violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, lines", [
    ("import functools\n@functools.lru_cache(maxsize=2)\ndef f(x): pass\n",
     []),
    ("from functools import lru_cache\n@lru_cache(4)\ndef f(x): pass\n", []),
    ("import functools as ft\ng = ft.lru_cache(maxsize=1)(len)\n", []),
    ("import functools\n@functools.lru_cache\ndef f(x): pass\n", [2]),
    ("import functools\n@functools.lru_cache()\ndef f(x): pass\n", [2]),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): pass\n",
     [2]),
    ("from functools import lru_cache\n@lru_cache(maxsize=0)\ndef f(x): pass\n",
     [2]),
    ("import functools\n@functools.cache\ndef f(x): pass\n", [2]),
    ("import functools\ng = functools.cache(len)\n", [2]),
    ("from functools import cache as c\n@c\ndef f(x): pass\n", [2]),
    ("d = {}\nd[id(object())] = 1\n", [2]),
])
def test_lint_catches(source, lines):
    assert [line for line, _ in cache_violations(source)] == lines
