"""Tripwire: every cache in ``davn.fixtures`` is bounded.

That module parses fixture files, which are outside input, and memoizes
the values it parses, so an unbounded cache would grow with whatever
file it is given.  This walks the module's syntax tree and fails on any
use of ``functools.cache`` and on any ``lru_cache`` that is not called
with a positive integer literal ``maxsize`` (a bare ``@lru_cache`` is
bounded by its default, but the bound should be stated).
"""

import ast
from pathlib import Path

import pytest

import davn.fixtures

CACHE_NAMES = {"cache", "lru_cache"}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_finite_maxsize(call: ast.Call) -> bool:
    sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return (
        len(sizes) == 1
        and isinstance(sizes[0], ast.Constant)
        and type(sizes[0].value) is int
        and sizes[0].value > 0
    )


def unbounded_caches(tree: ast.AST) -> list[str]:
    """Every cache reference except ``lru_cache(<positive int>)`` calls."""
    bounded = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _name(node.func) == "lru_cache"
        and _has_finite_maxsize(node)
    }
    return [
        f"line {node.lineno}: {_name(node)}"
        for node in ast.walk(tree)
        if _name(node) in CACHE_NAMES and id(node) not in bounded
    ]


def test_every_cache_in_the_fixture_module_is_bounded():
    path = Path(davn.fixtures.__file__)
    source = path.read_text(encoding="utf-8")
    assert unbounded_caches(ast.parse(source, str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "@cache\ndef f(x): pass",
        "@functools.cache\ndef f(x): pass",
        "@lru_cache\ndef f(x): pass",
        "@lru_cache()\ndef f(x): pass",
        "@lru_cache(maxsize=None)\ndef f(x): pass",
        "@functools.lru_cache(None)\ndef f(x): pass",
        "@lru_cache(maxsize=0)\ndef f(x): pass",
        "@lru_cache(maxsize=SIZE)\ndef f(x): pass",
        "g = lru_cache(maxsize=None)(f)",
    ],
)
def test_the_walk_flags_each_unbounded_cache(source):
    assert unbounded_caches(ast.parse(source)) != []


def test_the_walk_allows_a_stated_bound():
    source = (
        "from functools import lru_cache\nimport functools\n"
        "@lru_cache(maxsize=256)\ndef f(x): pass\n"
        "@functools.lru_cache(64, typed=True)\ndef g(x): pass\n"
    )
    assert unbounded_caches(ast.parse(source)) == []
