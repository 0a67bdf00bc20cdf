"""The exactness scan: delpair computes on ints.

An ``ast`` scan of every module under ``src/delpair`` refuses a float
literal, a call to ``float`` or ``round``, a ``math`` name other than
``gcd``, an import of ``time``, an import of ``random`` outside
``labs``, which draws the seeded samples of the property suite, an import
of ``fractions`` (rational witnesses are integer closed forms, and the
Fraction code is a test oracle) or of ``re`` (literals are read by ``str``
methods), and a bare ``assert`` statement, which ``python -O`` strips: a
check raises ``AssertionError`` explicitly, so it runs under every
interpreter flag.
"""
import ast
from pathlib import Path

import pytest

import delpair

SRC = Path(delpair.__file__).resolve().parent


def inexact(source: str, module: str) -> list[str]:
    """What the scan refuses in one module's source, one line per finding."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{module}:{getattr(node, 'lineno', 0)}"
        imported = []               # (top-level module, name taken from it or None)
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append(f"{where}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            found.append(f"{where}: call to {node.func.id}")
        elif isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        elif isinstance(node, ast.Import):
            imported = [(alias.name.split(".")[0], None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:    # not delpair's own
            imported = [(node.module.split(".")[0], alias.name) for alias in node.names]
        for top, name in imported:
            if (top == "math" and name != "gcd" or top == "time"
                    or top == "random" and module != "labs.py"
                    or top in ("fractions", "re")):
                found.append(f"{where}: import of {top}{'.' + name if name else ''}")
    return found


def test_src_computes_exactly():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 15
    found = [line for path in modules
             for line in inexact(path.read_text("utf-8"), path.relative_to(SRC).as_posix())]
    assert found == []


@pytest.mark.parametrize("source, module", [
    ("x = 0.5", "rootsys.py"),
    ("y = 1e3", "labs.py"),
    ("n = float(3)", "report.py"),
    ("n = round(p / 2)", "checks.py"),
    ("import math", "projgeo/linalg.py"),
    ("from math import sqrt", "projgeo/linalg.py"),
    ("from math import gcd, isqrt", "projgeo/linalg.py"),
    ("import time", "cli.py"),
    ("from time import perf_counter", "cli.py"),
    ("import random", "projgeo/segre.py"),
    ("from random import Random", "checks.py"),
    ("from fractions import Fraction", "rootsys.py"),
    ("from fractions import Fraction", "projgeo/linalg.py"),
    ("import re", "projgeo/plucker.py"),
    ("assert len(roots) == 36, roots", "rootsys.py"),
])
def test_scan_refuses_each_inexact_construct(source, module):
    assert len(inexact(source, module)) == 1, source


@pytest.mark.parametrize("source, module", [
    ("from math import gcd", "projgeo/linalg.py"),
    ("import random", "labs.py"),
    ("from .linalg import rref", "projgeo/plucker.py"),
    ("x = Fraction(1, 2) + 3", "projgeo/linalg.py"),
    ("raise AssertionError('a check that -O keeps')", "sff.py"),
])
def test_scan_allows_exact_constructs(source, module):
    assert inexact(source, module) == []
