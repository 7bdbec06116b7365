"""Tripwire: no float or complex arithmetic enters the package.

Every amplitude and eigenvalue is a phase exponent (an int), every
probability a pair of ints (numerator, denominator), and every check is
exact equality.  This walks the syntax tree of each module and fails on
anything that would bring floating point in: a float or complex literal,
a call to ``float`` or ``complex``, an import of ``cmath``, or a name
from ``math`` other than ``isqrt`` and ``gcd``.  True division is not
flagged: the package's ``/`` operators are ``Path`` joins.  No module
imports ``fractions``, ``decimal``, ``numbers`` or ``json`` either, not
even for type checkers: ratios are int pairs and ``reports`` writes its
own JSON.
"""

import ast
from pathlib import Path

import pytest

import davn

MODULES = sorted(Path(davn.__file__).parent.glob("*.py"))
MATH_ALLOWED = {"gcd", "isqrt"}
NOT_IMPORTED = {"decimal", "fractions", "json", "numbers"}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    math_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "cmath":
                    found.append("import cmath")
                elif alias.name == "math":
                    math_aliases.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == "cmath":
                found.append("from cmath import")
            elif node.module == "math" and names - MATH_ALLOWED:
                found.append(f"from math import {sorted(names - MATH_ALLOWED)}")
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"line {line}: literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            found.append(f"line {line}: call to {node.func.id}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_aliases
            and node.attr not in MATH_ALLOWED
        ):
            found.append(f"line {line}: math.{node.attr}")
    return found


def test_every_module_is_walked():
    assert {"states.py", "postselect.py", "reports.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_float_enters_the_package(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def imported_modules(tree: ast.AST) -> set[str]:
    """The top-level package of every module the tree imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_json_or_fractions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert not imported_modules(tree) & NOT_IMPORTED


def test_the_import_walk_sees_guarded_and_nested_imports():
    source = (
        "if TYPE_CHECKING:\n    from fractions import Fraction\n"
        "def f():\n    import json.encoder\n    from . import lhv\n"
    )
    assert imported_modules(ast.parse(source)) == {"fractions", "json"}


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "x = float(y)",
        "x = complex(1, 2)",
        "import cmath",
        "from cmath import sqrt",
        "from math import isqrt, sqrt",
        "import math\nx = math.pi",
        "import math as m\nx = m.sqrt(2)",
    ],
)
def test_the_walk_flags_each_float_entry(source):
    assert float_uses(ast.parse(source)) != []


def test_the_walk_allows_exact_arithmetic():
    source = "from math import isqrt\nimport math\nx = isqrt(7) + math.isqrt(9) // 2\n"
    assert float_uses(ast.parse(source)) == []
