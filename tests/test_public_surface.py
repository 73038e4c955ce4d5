"""The library keeps only what it runs: every function the ``cauchybop``
namespace exports is read somewhere in the package outside
``__init__.py``.  A function that only tests or demos call belongs in the
test module that uses it."""

import ast
import inspect
from pathlib import Path

import cauchybop

PACKAGE = Path(cauchybop.__file__).resolve().parent


def names_read_in_package():
    """Every name and attribute the package's modules read, __init__.py
    aside; a def statement defines its name without reading it."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_exported_function_is_read_in_the_package():
    exported = {name for name, value in vars(cauchybop).items()
                if not name.startswith("_") and inspect.isfunction(value)}
    assert sorted(exported - names_read_in_package()) == []
