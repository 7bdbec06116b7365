"""Tripwire: every cache in ``davn.fixtures`` and ``davn.postselect`` is
bounded.

Both modules memoize on values their callers supply: ``fixtures`` the
fields of fixture files, which are outside input, and ``postselect`` the
selections and residuals of whatever states it is given.  An unbounded
cache would grow with that input.  This walks each module's syntax tree
and fails on any use of ``functools.cache`` and on any ``lru_cache``
that is not called with a positive integer literal ``maxsize`` (a bare
``@lru_cache`` is bounded by its default, but the bound should be
stated).

``davn.lhv`` and ``davn.reports`` keep unbounded memos, but only on
``Constraint`` values, of which there are at most 255 * 4 = 1020
(nonzero exponent words times targets); a second walk pins that set.
"""

import ast
from pathlib import Path

import pytest

import davn.fixtures
import davn.lhv
import davn.postselect
import davn.reports

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


def syntax_tree(module) -> ast.Module:
    path = Path(module.__file__)
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unbounded_caches_of(module) -> list[str]:
    return unbounded_caches(syntax_tree(module))


def test_every_cache_in_the_fixture_module_is_bounded():
    assert unbounded_caches_of(davn.fixtures) == []


def test_every_cache_in_the_postselect_module_is_bounded():
    assert unbounded_caches_of(davn.postselect) == []


def test_lhv_and_reports_cache_without_a_bound_only_on_a_constraint():
    # Any other unbounded memo there would grow with its callers' input.
    found = {}
    for module in (davn.lhv, davn.reports):
        tree = syntax_tree(module)
        decorated = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(unbounded_caches(d) for d in node.decorator_list)
        ]
        # No unbounded cache sits anywhere but on a decorated function.
        assert len(unbounded_caches(tree)) == len(decorated)
        for node in decorated:
            found[f"{module.__name__}.{node.name}"] = [
                ast.unparse(arg.annotation) for arg in node.args.args
            ]
    assert found == {
        "davn.lhv.truth_mask": ["Constraint"],
        "davn.reports.constraint_json": ["Constraint"],
    }


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
